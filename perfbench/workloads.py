"""The four benchmark workloads: inputs made from a seed, operations, checks.

Each workload is a fixed list of operations ("ops").  An op is a zero-argument
call into the program plus a check of what it returned.  Ops call the
program through module attributes (``pipeline.run_full``, not a name bound
here) so that the traced run sees the calls it wraps.

Why each workload exists:

* ``readme_run`` -- the documented entry point, ``run_full`` on the README
  source.  Per-pulse sampling is nearly all of its time, so sampler changes
  show here and EM changes must not.
* ``inversion`` -- EM reconstruction, estimators and bootstrap on exact
  click histograms of bright sources.  Nothing is sampled per pulse, so
  nearly all of the time is EM iterations.
* ``contour_map`` -- one ``contamination_map`` cell per op.  ``analysis``
  calls ``model`` thousands of times on tiny n_max=2 grids, the opposite use
  of ``model`` from ``forward``.
* ``forward`` -- the exact forward chain from broad to very broadband
  sources and 8-16 path detectors.  The 2^B subset enumeration of
  ``response_matrix`` dominates.  The ops that fail today (B=16 cancellation,
  M=2000 underflow) are kept on purpose: they define its failed fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pairstats import analysis, loop_detector, model, pipeline, reconstruction

from checks import (
    ETA_REL_TOL,
    Verdict,
    check_estimates,
    check_fit,
    check_mass,
)


@dataclass
class Op:
    label: str
    fn: Callable  # looks the program function up when called
    args: tuple  # the generated inputs, all the program receives
    check: Callable[[object], Verdict]
    # (histogram, response_a, response_b, result) of every EM fit the
    # output exposes, for the KKT residual
    fits: Callable[[object], list] = lambda out: []

    def call(self):
        return self.fn(*self.args)


def derived_seeds(seed: int, count: int, stream: int) -> list[int]:
    """``count`` 64-bit seeds drawn from the workload seed, one stream per use."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(
        count, dtype=np.uint64
    )
    return [int(s) for s in state]


def near_uniform_weights(rng: np.random.Generator, B: int):
    """Path weights within +-5% (relative) of 1/B."""
    w = 1.0 + 0.1 * (rng.random(B) - 0.5)
    return loop_detector.PathWeights(w / w.sum())


# -- readme_run ---------------------------------------------------------------

README_SOURCE = {"N": 0.2, "eta": 0.045, "eta_prime": 0.045, "M": 16.0}
README_PULSES = 1_000_000
README_OPS = 3


def _check_readme(report) -> Verdict:
    verdict = Verdict()
    for stage, message in report.failures.items():
        verdict.flagged.append(f"run_full stage {stage} failed: {message}")
    if report.reconstruction is not None:
        check_fit(verdict, report.reconstruction)
    if report.characterization is not None:
        check_estimates(verdict, report.characterization)
        eta_hat = report.characterization.eta_hat
        eta = README_SOURCE["eta"]
        if math.isfinite(eta_hat) and abs(eta_hat / eta - 1.0) > ETA_REL_TOL:
            verdict.wrong.append(f"eta_hat={eta_hat:.5g} is more than 15% from {eta}")
    return verdict


def _readme_fits(report) -> list:
    if report.reconstruction is None:
        return []
    return [(report.histogram, report.response_a, report.response_b, report.reconstruction)]


def readme_run(seed: int) -> list[Op]:
    src = model.EffectiveSource(**README_SOURCE)
    ops = []
    for run_seed in derived_seeds(seed, README_OPS, stream=0):
        cfg = pipeline.ExperimentConfig(
            source=src,
            pulses=README_PULSES,
            seed=run_seed,
            calibration_pulses=README_PULSES,
            n_max=8,
        )
        ops.append(
            Op(
                f"run_full seed={run_seed}",
                lambda cfg: pipeline.run_full(cfg),
                (cfg,),
                _check_readme,
                _readme_fits,
            )
        )
    return ops


# -- inversion ----------------------------------------------------------------

INVERSION_SOURCES = (
    {"N": 1.0, "eta": 0.5, "eta_prime": 0.5, "M": 1.0},
    {"N": 2.0, "eta": 0.3, "eta_prime": 0.3, "M": 2.0},
    {"N": 0.5, "eta": 0.3, "eta_prime": 0.3, "M": 4.0},
    {"N": 1.5, "eta": 0.4, "eta_prime": 0.4, "M": 3.0},
    {"N": 0.8, "eta": 0.6, "eta_prime": 0.6, "M": 2.0},
)
INVERSION_B = 8
INVERSION_PULSES = 100_000_000
INVERSION_N_MAX = (8, 12)
INVERSION_REPLICAS = 3


def exact_histogram(src, weights_a, weights_b, pulses: int, rng) -> reconstruction.ClickHistogram:
    """One multinomial draw of ``pulses`` pulses from the exact click law."""
    n_max = model.suggest_n_max(src, 1e-12)
    rho = model.joint_distribution(src, n_max)
    clicks = loop_detector.apply_response(
        rho,
        loop_detector.response_matrix(weights_a, n_max),
        loop_detector.response_matrix(weights_b, n_max),
    )
    # the last cell takes the truncated mass; numpy fills it as 1 - sum(rest)
    pvals = np.append(clicks.p.ravel(), clicks.deficit)
    counts = rng.multinomial(pulses, pvals)
    return reconstruction.ClickHistogram(f=counts[:-1].reshape(clicks.p.shape), pulses=pulses)


def _invert(hist, resp_a, resp_b, boot_seed):
    out = []
    for n_max in INVERSION_N_MAX:
        result = reconstruction.em_reconstruct(hist, resp_a, resp_b, n_max)
        char = analysis.characterize(result.rho)
        boot = pipeline.bootstrap_characterize(
            hist, resp_a, resp_b, n_max, replicas=INVERSION_REPLICAS, seed=boot_seed
        )
        out.append((result, char, boot))
    return out


def _check_inversion(out) -> Verdict:
    verdict = Verdict()
    for result, char, boot in out:
        check_fit(verdict, result)
        check_estimates(verdict, char)
        for name, values in boot.items():
            if not np.all(np.isfinite(values)):
                verdict.flagged.append(f"bootstrap {name} has undefined replicas")
    return verdict


def inversion(seed: int) -> list[Op]:
    rng = np.random.default_rng(derived_seeds(seed, 1, stream=1)[0])
    boot_seeds = derived_seeds(seed, len(INVERSION_SOURCES), stream=2)
    resp_n_max = max(INVERSION_N_MAX)
    ops = []
    for params, boot_seed in zip(INVERSION_SOURCES, boot_seeds):
        src = model.EffectiveSource(**params)
        wa = near_uniform_weights(rng, INVERSION_B)
        wb = near_uniform_weights(rng, INVERSION_B)
        hist = exact_histogram(src, wa, wb, INVERSION_PULSES, rng)
        ra = loop_detector.response_matrix(wa, resp_n_max)
        rb = loop_detector.response_matrix(wb, resp_n_max)
        ops.append(
            Op(
                f"invert N={params['N']:g} eta={params['eta']:g} M={params['M']:g}",
                _invert,
                (hist, ra, rb, boot_seed),
                _check_inversion,
                lambda out, h=hist, a=ra, b=rb: [(h, a, b, fit[0]) for fit in out],
            )
        )
    return ops


# -- contour_map --------------------------------------------------------------

CONTOUR_ETAS = np.linspace(0.3, 1.0, 8)  # lin:0.3:1:8
CONTOUR_RATES = np.logspace(-5.0, -1.0, 9)  # log:1e-5:1e-1:9
CONTOUR_M = (1.0, 16.0)
CONTOUR_WHICH = (2, 4)
CONTOUR_JITTER = 1e-3  # relative, so that each seed gives distinct inputs
CONTOUR_SCAN_N = np.logspace(-6.0, 4.0, 401)


def _pair_rates(eta: float, M: float, which: int) -> np.ndarray:
    """rho[1,1] (which=2) or rho[2,2] (which=4) of the balanced source over a scan of N."""
    cell = 1 if which == 2 else 2
    return np.array(
        [
            model.joint_distribution(model.EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M), 2).probs[cell, cell]
            for N in CONTOUR_SCAN_N
        ]
    )


class _ContourCheck:
    """Checks one cell: a value in [0, 1], or NaN only where the rate is unreachable.

    A NaN cell is wrong when a scan of N reaches the requested rate.  The
    scan only bounds the peak rate from below, so cells just under the peak
    cannot be caught; that costs no false alarm.  The scan is made once per
    cell, on the first check.
    """

    def __init__(self, eta: float, rate: float, M: float, which: int):
        self.eta, self.rate, self.M, self.which = eta, rate, M, which
        self._peak = None

    def __call__(self, out) -> Verdict:
        verdict = Verdict()
        value = float(np.asarray(out).reshape(-1)[0])
        if math.isnan(value):
            if self._peak is None:
                self._peak = float(_pair_rates(self.eta, self.M, self.which).max())
            if self._peak >= self.rate:
                verdict.wrong.append(
                    f"NaN although N reaches rate {self._peak:.4g} >= {self.rate:.4g}"
                )
        elif not 0.0 <= value <= 1.0:
            verdict.wrong.append(f"contamination {value!r} outside [0, 1]")
        return verdict


def contour_map(seed: int) -> list[Op]:
    rng = np.random.default_rng(derived_seeds(seed, 1, stream=3)[0])
    etas = CONTOUR_ETAS * (1.0 - CONTOUR_JITTER * rng.random(CONTOUR_ETAS.size))
    rates = CONTOUR_RATES * (1.0 + CONTOUR_JITTER * (rng.random(CONTOUR_RATES.size) - 0.5))
    ops = []
    for M in CONTOUR_M:
        for which in CONTOUR_WHICH:
            for eta in etas:
                for rate in rates:
                    eta, rate = float(eta), float(rate)
                    ops.append(
                        Op(
                            f"cell eta={eta:.4f} rate={rate:.3e} M={M:g} which={which}",
                            lambda *args: analysis.contamination_map(*args),
                            ([eta], [rate], M, which),
                            _ContourCheck(eta, rate, M, which),
                        )
                    )
    return ops


# -- forward ------------------------------------------------------------------

FORWARD_SOURCES = (
    README_SOURCE,
    {"N": 5.0, "eta": 0.9, "eta_prime": 0.9, "M": 50.0},
    {"N": 0.5, "eta": 1.0, "eta_prime": 1.0, "M": 2000.0},
)
FORWARD_B = (8, 12, 16)
FORWARD_TAIL_BOUND = 1e-12
FORWARD_JITTER = 1e-3


def _forward(src, weights_a, weights_b):
    n_max = model.suggest_n_max(src, FORWARD_TAIL_BOUND)
    rho = model.joint_distribution(src, n_max)
    resp_a = loop_detector.response_matrix(weights_a, n_max)
    resp_b = loop_detector.response_matrix(weights_b, n_max)
    return rho, loop_detector.apply_response(rho, resp_a, resp_b)


def _check_forward(out) -> Verdict:
    rho, clicks = out
    verdict = Verdict()
    check_mass(verdict, "rho", rho.probs, rho.tail_mass)
    check_mass(verdict, "click distribution", clicks.p, clicks.deficit)
    if rho.tail_mass > FORWARD_TAIL_BOUND:
        verdict.flagged.append(
            f"tail {rho.tail_mass:.3g} exceeds the requested {FORWARD_TAIL_BOUND:g} at n_max={rho.n_max}"
        )
    return verdict


def forward(seed: int) -> list[Op]:
    """Uniform path weights: with uneven ones, whether a B=16 matrix passes
    validation (and so whether the second arm is computed at all) depends
    on the weights, which would make the failing set and the cost vary by
    seed.  The seed moves each source's N by a relative 1e-3 instead."""
    rng = np.random.default_rng(derived_seeds(seed, 1, stream=4)[0])
    ops = []
    for params in FORWARD_SOURCES:
        params = dict(params, N=params["N"] * (1.0 + FORWARD_JITTER * (rng.random() - 0.5)))
        src = model.EffectiveSource(**params)
        for B in FORWARD_B:
            weights = loop_detector.uniform_weights(B)
            ops.append(
                Op(
                    f"forward N={params['N']:.4g} eta={params['eta']:g} M={params['M']:g} B={B}",
                    _forward,
                    (src, weights, weights),
                    _check_forward,
                )
            )
    return ops


WORKLOADS = {
    "readme_run": readme_run,
    "inversion": inversion,
    "contour_map": contour_map,
    "forward": forward,
}
