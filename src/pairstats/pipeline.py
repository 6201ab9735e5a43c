"""End-to-end experiment simulation: calibration, collection, inversion.

Mirrors the measurement procedure of a pulsed pair source read out by two
time-multiplexed click detectors: the detectors are calibrated at very low
intensity, joint clicks are accumulated over many pulses, the photon-number
distribution is recovered by expectation-maximization, and the source
parameters are estimated from the result.

Pulses are simulated in fixed-size blocks, each drawing from its own
counter-based random stream derived from (seed, stage, block index), so a
run is reproducible bit-for-bit from its config and seed.  Only the pulses
holding a pair that reaches a detector are drawn one by one.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._fileio import float_list, format_mapping, parse_mapping, typed_fields
from .analysis import SourceCharacterization, characterize, characterization_record
from .errors import PairStatsError, ValidationError
from .loop_detector import (
    CalibrationResult,
    DetectorResponse,
    PathWeights,
    calibrate,
    format_response,
    response_matrix,
    simulate_clicks_batch,
    uniform_weights,
)
from .model import EffectiveSource, _index, format_distribution
from .reconstruction import (
    ClickHistogram,
    ReconstructionResult,
    _check_em_args,
    em_reconstruct,
    em_record,
    format_histogram,
)

BLOCK_SIZE = 250_000

_STAGE_CALIBRATION = 0
_STAGE_MAIN = 1
_STAGE_BOOTSTRAP = 2


def _block_rng(seed: int, stage: int, block: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stage, block))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated measurement run.

    The config plus the seed reproduce a run bit-exactly.  ``calibration_N``
    must keep the calibration in the single-photon regime; ``summary.txt``
    records its ``calibration_mean_photons``, which should not exceed 0.01.
    """

    source: EffectiveSource
    pulses: int = 10_000_000
    weights_a: PathWeights = field(default_factory=uniform_weights)
    weights_b: PathWeights = field(default_factory=uniform_weights)
    seed: int = 0
    calibration_pulses: int = 1_000_000
    calibration_N: float = 1e-3
    n_max: int = 8
    em_tol: float = 1e-10
    em_max_iter: int = 100_000
    bootstrap_replicas: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type == "int":
                object.__setattr__(self, f.name, _index(getattr(self, f.name), f.name))
        for name in ("pulses", "calibration_pulses"):  # ClickHistogram's rule
            if not 0 < getattr(self, name) < 2**63:
                raise ValidationError(f"{name} must be > 0 and < 2**63")
        if self.weights_a.B != self.weights_b.B:
            raise ValidationError("both arms must use the same number of paths")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if not 0.0 < self.calibration_N < math.inf:
            raise ValidationError("calibration_N must be finite and > 0")
        if not 0.0 <= self.em_tol < math.inf:  # em_reconstruct's rule
            raise ValidationError("em_tol must be finite and >= 0")
        if self.n_max < 1:
            raise ValidationError("n_max must be >= 1")
        if self.em_max_iter < 1:
            raise ValidationError("em_max_iter must be >= 1")
        if self.bootstrap_replicas < 0:
            raise ValidationError("bootstrap_replicas must be >= 0")


def _sample_pulses(src: EffectiveSource, rng: np.random.Generator, size: int):
    """Photon numbers (n, m) reaching the two arms, for those of ``size``
    pulses that hold a pair reaching a detector; the rest are left out.

    With k = eta + eta' - eta eta' and theta = N k, a pulse's reaching pairs
    are the arrivals on [0, 1] of a Poisson process of rate Gamma(M, theta),
    negative binomial for any real M >= 1.  One binomial draw counts the
    pulses with an arrival, each with probability S = 1 - (1+theta)**(-M).
    Each draws its first arrival t by inverting its distribution, the rate
    Gamma(M + 1, theta / (1 + theta t)) given t, and Poisson(rate (1 - t))
    later pairs.  The pairs are split into both arms, arm a alone and arm b
    alone in proportion to eta eta', eta (1-eta') and eta' (1-eta).
    """
    both = src.eta * src.eta_prime
    single = src.eta * (1.0 - src.eta_prime) + src.eta_prime * (1.0 - src.eta)
    # k as the sum of the disjoint shares keeps both/k and the arm-a part of
    # single within [0, 1] after rounding
    k = both + single
    if k == 0.0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    theta = src.N * k
    nonempty = -math.expm1(-src.M * math.log1p(theta))
    u = rng.random(rng.binomial(size, nonempty))
    # the clamp keeps a rounding overshoot from making 1 - t negative
    t = np.minimum(np.expm1(-np.log1p(-u * nonempty) / src.M) / theta, 1.0)
    rate = rng.gamma(src.M + 1.0, theta / (1.0 + theta * t))
    try:
        pairs = 1 + rng.poisson(rate * (1.0 - t))
    except ValueError as exc:  # numpy refuses counts that could overflow int64
        raise ValidationError(
            f"pair numbers at N={src.N!r}, M={src.M!r} are too large to sample"
        ) from exc
    in_both = rng.binomial(pairs, both / k)
    a_only = 0
    if single > 0.0:
        a_only = rng.binomial(pairs - in_both, src.eta * (1.0 - src.eta_prime) / single)
    return a_only + in_both, pairs - a_only


def _pulse_blocks(src: EffectiveSource, pulses: int, seed: int, stage: int):
    """Yield (n, m, rng) per block of up to BLOCK_SIZE pulses: the photon
    numbers of the block's non-empty pulses, and its stream for their clicks."""
    for block, start in enumerate(range(0, pulses, BLOCK_SIZE)):
        rng = _block_rng(seed, stage, block)
        yield *_sample_pulses(src, rng, min(BLOCK_SIZE, pulses - start)), rng


def simulate_experiment(cfg: ExperimentConfig) -> ClickHistogram:
    """Accumulate the joint click histogram over cfg.pulses pulses."""
    B = cfg.weights_a.B
    counts = np.zeros((B + 1) * (B + 1), dtype=np.int64)
    for n, m, rng in _pulse_blocks(cfg.source, cfg.pulses, cfg.seed, _STAGE_MAIN):
        ka = simulate_clicks_batch(n, cfg.weights_a, rng)
        kb = simulate_clicks_batch(m, cfg.weights_b, rng)
        counts += np.bincount(ka * (B + 1) + kb, minlength=counts.size)
    counts[0] += cfg.pulses - counts.sum()  # the pulses left out are empty
    return ClickHistogram(f=counts.reshape(B + 1, B + 1), pulses=cfg.pulses)


def _bin_occupancy(ns, weights: PathWeights, rng: np.random.Generator) -> np.ndarray:
    """Per-path tallies of pulses in which the path saw at least one photon."""
    hit = np.flatnonzero(ns >= 1)
    counts = rng.multinomial(ns[hit], weights.w)
    return (counts > 0).sum(axis=0).astype(np.int64)


def simulate_calibration(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin click tallies of both arms at the low-intensity setting."""
    low = dataclasses.replace(cfg.source, N=cfg.calibration_N)
    bins_a = np.zeros(cfg.weights_a.B, dtype=np.int64)
    bins_b = np.zeros(cfg.weights_b.B, dtype=np.int64)
    blocks = _pulse_blocks(low, cfg.calibration_pulses, cfg.seed, _STAGE_CALIBRATION)
    for n, m, rng in blocks:
        bins_a += _bin_occupancy(n, cfg.weights_a, rng)
        bins_b += _bin_occupancy(m, cfg.weights_b, rng)
    return bins_a, bins_b


def bootstrap_characterize(
    hist: ClickHistogram,
    resp_a: DetectorResponse,
    resp_b: DetectorResponse,
    n_max: int,
    replicas: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> dict:
    """Bootstrap the source estimates by resampling pulses.

    Pulses are independent draws over the click cells, so resampling them
    with replacement is a multinomial redraw of the histogram.  Returns a
    mapping from estimate name to the array of replica values (NaN where
    ``characterize`` records a replica's estimate as undefined).  The
    arguments are checked once, up front, so a bad one raises ValidationError
    before any replica; an error in a replica's fit propagates.
    """
    if _index(replicas, "replicas") < 0:
        raise ValidationError(f"replicas must be >= 0 (got {replicas!r})")
    if not 0 <= _index(seed, "seed") < 2**64:
        raise ValidationError("seed must be a 64-bit unsigned integer")
    total, _ = _check_em_args(hist, resp_a, resp_b, n_max, tol, max_iter)
    fields = ("mean_n", "mean_n_prime", "M_hat", "eta_hat", "eps2", "eps4")
    samples = {name: [] for name in fields}
    freqs = (hist.f / total).ravel()
    for replica in range(replicas):
        rng = _block_rng(seed, _STAGE_BOOTSTRAP, replica)
        f = rng.multinomial(total, freqs).reshape(hist.f.shape)
        resampled = ClickHistogram(f=f, pulses=hist.pulses)
        result = em_reconstruct(resampled, resp_a, resp_b, n_max, tol=tol, max_iter=max_iter)
        char = characterize(result.rho)
        for name in fields:
            samples[name].append(getattr(char, name))
    return {name: np.asarray(vals) for name, vals in samples.items()}


@dataclass(frozen=True)
class RunReport:
    """Every artifact of one full run; fields are None after a stage failure,
    with the cause recorded in ``failures`` under the stage's name (written
    as ``failed_<stage>`` in ``summary.txt``).  ``timings`` holds the wall
    seconds of every stage that ran, failed or not, and the pulses/s of
    calibration and collection when they completed; they vary between runs,
    so they go to ``timings.txt`` and not to the byte-reproducible
    ``summary.txt``."""

    config: ExperimentConfig
    histogram: ClickHistogram | None
    calibration_a: CalibrationResult | None
    calibration_b: CalibrationResult | None
    response_a: DetectorResponse | None
    response_b: DetectorResponse | None
    reconstruction: ReconstructionResult | None
    characterization: SourceCharacterization | None
    bootstrap: dict | None
    failures: dict
    timings: dict = field(default_factory=dict)

    def write(self, out_dir) -> None:
        """Write the artifacts that a subcommand reads back (config, histogram,
        responses, rho), ``summary.txt`` with every other outcome, and
        ``timings.txt``; a read-back file that this run does not write is deleted."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        texts = {"config.txt": format_config(self.config)}
        if self.histogram is not None:
            texts["histogram.txt"] = format_histogram(self.histogram)
        for arm, resp in (("a", self.response_a), ("b", self.response_b)):
            if resp is not None:
                texts[f"response_{arm}.txt"] = format_response(resp)
        cfg, src = self.config, self.config.source
        summary = {"seed": cfg.seed, "pulses": cfg.pulses}
        # the brighter arm's mean photon number per calibration pulse
        summary["calibration_mean_photons"] = cfg.calibration_N * src.M * max(src.eta, src.eta_prime)
        arms = (("a", self.calibration_a), ("b", self.calibration_b))
        cals = {arm: cal for arm, cal in arms if cal is not None}
        if cals:
            summary["calibration_max_rel_stderr"] = max(c.max_rel_stderr for c in cals.values())
        summary.update((f"calibration_total_{arm}", cal.total) for arm, cal in cals.items())
        summary.update((f"calibration_weights_{arm}", cal.weights.w) for arm, cal in cals.items())
        if self.reconstruction is not None:
            texts["rho.txt"] = format_distribution(self.reconstruction.rho)
            summary.update(em_record(self.reconstruction))
        if self.characterization is not None:
            summary.update(characterization_record(self.characterization))
        if self.bootstrap is not None:
            for name, vals in self.bootstrap.items():
                good = vals[np.isfinite(vals)]
                summary[f"bootstrap_std_{name}"] = float(good.std(ddof=1)) if good.size > 1 else math.nan
        for stage, message in self.failures.items():
            summary[f"failed_{stage}"] = message
        texts["summary.txt"] = format_mapping(summary)
        texts["timings.txt"] = format_mapping(self.timings)
        for name in ("histogram.txt", "response_a.txt", "response_b.txt", "rho.txt"):
            if name not in texts:  # an earlier run's file would pass for this run's
                (out / name).unlink(missing_ok=True)
        for name, text in texts.items():
            (out / name).write_text(text, encoding="ascii")


def run_full(cfg: ExperimentConfig) -> RunReport:
    """Calibrate, collect, reconstruct and characterize in one pass.

    Every stage is timed, and a ``PairStatsError`` in any of the five is
    recorded in the report's ``failures`` mapping under the stage's name and
    leaves the dependent fields as None; a partial report is still returned.
    The calibration stage's time includes the weight fit and the response
    matrices.  The pulses/s of calibration and collection are recorded only
    when that stage completed.
    """
    failures: dict = {}
    timings: dict = {}

    def stage(name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except PairStatsError as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            timings[f"{name}_s"] = time.perf_counter() - start

    def calibration():
        cal_a, cal_b = map(calibrate, simulate_calibration(cfg))
        resp = [response_matrix(cal.weights, cfg.n_max) for cal in (cal_a, cal_b)]
        return cal_a, cal_b, *resp

    cal_a, cal_b, resp_a, resp_b = stage("calibration", calibration) or (None,) * 4
    hist = stage("collection", simulate_experiment, cfg)
    recon = char = boot = None
    inputs = (hist, resp_a, resp_b, cfg.n_max)
    em_opts = dict(tol=cfg.em_tol, max_iter=cfg.em_max_iter)
    if hist is not None and resp_a is not None:
        recon = stage("reconstruction", em_reconstruct, *inputs, **em_opts)
    if recon is not None:
        char = stage("characterization", characterize, recon.rho)
    if recon is not None and cfg.bootstrap_replicas > 0:
        boot_opts = dict(replicas=cfg.bootstrap_replicas, seed=cfg.seed)
        boot = stage("bootstrap", bootstrap_characterize, *inputs, **boot_opts, **em_opts)
    for name, pulses in (("calibration", cfg.calibration_pulses), ("collection", cfg.pulses)):
        if name not in failures:
            timings[f"{name}_pulses_per_s"] = pulses / timings[f"{name}_s"]
    return RunReport(
        config=cfg,
        histogram=hist,
        calibration_a=cal_a,
        calibration_b=cal_b,
        response_a=resp_a,
        response_b=resp_b,
        reconstruction=recon,
        characterization=char,
        bootstrap=boot,
        failures=failures,
        timings=timings,
    )


# -- text formats -------------------------------------------------------------

# config.txt keys in file order: the source, the scalar fields, the weight lists
_SOURCE_KEYS = tuple(f.name for f in dataclasses.fields(EffectiveSource))
_WEIGHT_KEYS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "PathWeights"
)
_SCALAR_TYPES = {
    f.name: int if f.type == "int" else float
    for f in dataclasses.fields(ExperimentConfig)
    if f.type in ("int", "float")
}


def format_config(cfg: ExperimentConfig) -> str:
    pairs = {name: getattr(cfg.source, name) for name in _SOURCE_KEYS}
    pairs.update((name, getattr(cfg, name)) for name in _SCALAR_TYPES)
    pairs.update((name, getattr(cfg, name).w) for name in _WEIGHT_KEYS)
    return format_mapping(pairs)


def parse_config(text: str) -> ExperimentConfig:
    pairs = parse_mapping(text, "config")
    unknown = pairs.keys() - {*_SOURCE_KEYS, *_SCALAR_TYPES, *_WEIGHT_KEYS}
    if unknown:
        raise ValidationError(f"config has unknown keys {sorted(unknown)}")
    source = typed_fields("config", pairs, dict.fromkeys(_SOURCE_KEYS, float))
    types = _SCALAR_TYPES | dict.fromkeys(_WEIGHT_KEYS, float_list)
    values = typed_fields("config", pairs, types, optional=types)
    for name in _WEIGHT_KEYS:
        if name in values:
            values[name] = PathWeights(values[name])
    return ExperimentConfig(source=EffectiveSource(**source), **values)
