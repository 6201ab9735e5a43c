"""End-to-end experiment simulation: calibration, collection, inversion.

Mirrors the measurement procedure of a pulsed pair source read out by two
time-multiplexed click detectors: the detectors are calibrated at very low
intensity, joint clicks are accumulated over many pulses, the photon-number
distribution is recovered by expectation-maximization, and the source
parameters are estimated from the result.

Pulses are simulated in fixed-size blocks, each drawing from its own
counter-based random stream derived from (seed, stage, block index), so a
run is reproducible bit-for-bit regardless of how blocks would be scheduled
across workers.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._fileio import fmt, format_mapping, parse_mapping
from .analysis import SourceCharacterization, characterize, format_characterization
from .errors import PairStatsError, ValidationError
from .loop_detector import (
    CalibrationResult,
    DetectorResponse,
    PathWeights,
    calibrate,
    format_calibration,
    response_matrix,
    simulate_clicks_batch,
    uniform_weights,
    write_response,
)
from .model import EffectiveSource, write_distribution
from .reconstruction import (
    ClickHistogram,
    ReconstructionResult,
    em_reconstruct,
    format_run_report,
    write_histogram,
)

BLOCK_SIZE = 250_000

_STAGE_CALIBRATION = 0
_STAGE_MAIN = 1
_STAGE_BOOTSTRAP = 2


def _block_rng(seed: int, stage: int, block: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stage, block))
    return np.random.Generator(np.random.Philox(seq))


_INTEGER_FIELDS = (
    "pulses", "seed", "calibration_pulses", "n_max", "em_max_iter", "bootstrap_replicas"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated measurement run.

    The config plus the seed reproduce a run bit-exactly.  ``calibration_N``
    must keep the calibration in the single-photon regime; a warning is
    emitted when the expected photon number per calibration pulse exceeds
    0.01.
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
        for name in _INTEGER_FIELDS:
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValidationError(f"{name} must be an integer") from None
        if self.pulses <= 0:
            raise ValidationError("pulses must be > 0")
        if self.calibration_pulses <= 0:
            raise ValidationError("calibration_pulses must be > 0")
        if abs(self.source.M - round(self.source.M)) > 1e-9:
            raise ValidationError("simulation requires an integer mode number M")
        if self.weights_a.B != self.weights_b.B:
            raise ValidationError("both arms must use the same number of paths")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if not 0.0 < self.calibration_N < math.inf:
            raise ValidationError("calibration_N must be finite and > 0")
        if not 0.0 < self.em_tol < math.inf:
            raise ValidationError("em_tol must be finite and > 0")
        if self.n_max < 1:
            raise ValidationError("n_max must be >= 1")
        if self.bootstrap_replicas < 0:
            raise ValidationError("bootstrap_replicas must be >= 0")
        peak_eta = max(self.source.eta, self.source.eta_prime)
        if self.calibration_N * self.source.M * peak_eta > 0.01:
            warnings.warn(
                "calibration intensity is high enough for multi-photon pulses"
                " to bias the path-weight estimate",
                stacklevel=2,
            )


def sample_pulse(src: EffectiveSource, rng: np.random.Generator) -> tuple[int, int]:
    """Photon numbers reaching the two arms for a single pulse.

    Each of the M mode pairs draws a geometric pair number (inverse-CDF on a
    uniform draw) which both arms thin binomially; the arm totals follow the
    same law as summing the per-mode thinnings because independent binomial
    thinnings add.
    """
    n, m = _sample_pulses(src, rng, 1)
    return int(n[0]), int(m[0])


def _sample_pulses(src: EffectiveSource, rng: np.random.Generator, size: int):
    modes = int(round(src.M))
    if abs(src.M - modes) > 1e-9 or modes < 1:
        raise ValidationError("sampling requires an integer mode number M")
    q = src.N / (src.N + 1.0)
    u = 1.0 - rng.random((size, modes))  # in (0, 1]
    pairs = np.floor(np.log(u) / math.log(q)).astype(np.int64).sum(axis=1)
    n = rng.binomial(pairs, src.eta)
    m = rng.binomial(pairs, src.eta_prime)
    return n, m


def simulate_experiment(cfg: ExperimentConfig) -> ClickHistogram:
    """Accumulate the joint click histogram over cfg.pulses pulses."""
    B = cfg.weights_a.B
    counts = np.zeros((B + 1) * (B + 1), dtype=np.int64)
    done = 0
    block = 0
    while done < cfg.pulses:
        size = min(BLOCK_SIZE, cfg.pulses - done)
        rng = _block_rng(cfg.seed, _STAGE_MAIN, block)
        n, m = _sample_pulses(cfg.source, rng, size)
        ka = simulate_clicks_batch(n, cfg.weights_a, rng)
        kb = simulate_clicks_batch(m, cfg.weights_b, rng)
        counts += np.bincount(ka * (B + 1) + kb, minlength=counts.size)
        done += size
        block += 1
    return ClickHistogram(f=counts.reshape(B + 1, B + 1), pulses=cfg.pulses)


def _bin_occupancy(ns, weights: PathWeights, rng: np.random.Generator) -> np.ndarray:
    """Per-path tallies of pulses in which the path saw at least one photon."""
    hit = np.flatnonzero(ns >= 1)
    if hit.size == 0:
        return np.zeros(weights.B, dtype=np.int64)
    counts = rng.multinomial(ns[hit], weights.w)
    return (counts > 0).sum(axis=0).astype(np.int64)


def simulate_calibration(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin click tallies of both arms at the low-intensity setting."""
    low = EffectiveSource(
        N=cfg.calibration_N,
        eta=cfg.source.eta,
        eta_prime=cfg.source.eta_prime,
        M=cfg.source.M,
    )
    bins_a = np.zeros(cfg.weights_a.B, dtype=np.int64)
    bins_b = np.zeros(cfg.weights_b.B, dtype=np.int64)
    done = 0
    block = 0
    while done < cfg.calibration_pulses:
        size = min(BLOCK_SIZE, cfg.calibration_pulses - done)
        rng = _block_rng(cfg.seed, _STAGE_CALIBRATION, block)
        n, m = _sample_pulses(low, rng, size)
        bins_a += _bin_occupancy(n, cfg.weights_a, rng)
        bins_b += _bin_occupancy(m, cfg.weights_b, rng)
        done += size
        block += 1
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
    mapping from estimate name to the array of replica values (NaN where a
    replica's estimator was undefined).
    """
    total = int(hist.f.sum())
    if total <= 0:
        raise ValidationError("histogram is empty")
    fields = ("mean_n", "mean_n_prime", "M_hat", "delta_sq", "eta_hat", "eps2", "eps4")
    samples = {name: [] for name in fields}
    freqs = (hist.f / total).ravel()
    for replica in range(replicas):
        rng = _block_rng(seed, _STAGE_BOOTSTRAP, replica)
        f = rng.multinomial(total, freqs).reshape(hist.f.shape)
        try:
            result = em_reconstruct(
                ClickHistogram(f=f, pulses=hist.pulses),
                resp_a,
                resp_b,
                n_max,
                tol=tol,
                max_iter=max_iter,
            )
            char = characterize(result.rho)
            for name in fields:
                samples[name].append(getattr(char, name))
        except PairStatsError:
            for name in fields:
                samples[name].append(float("nan"))
    return {name: np.asarray(vals) for name, vals in samples.items()}


@dataclass(frozen=True)
class RunReport:
    """Every artifact of one full run; fields are None after a stage failure,
    with the cause recorded in ``failures``."""

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

    def write(self, out_dir) -> None:
        """Write all present artifacts into a directory, plus a summary."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_text(format_config(self.config))
        if self.histogram is not None:
            write_histogram(self.histogram, out / "histogram.txt")
        for arm, cal in (("a", self.calibration_a), ("b", self.calibration_b)):
            if cal is not None:
                (out / f"calibration_{arm}.txt").write_text(format_calibration(cal))
        for arm, resp in (("a", self.response_a), ("b", self.response_b)):
            if resp is not None:
                write_response(resp, out / f"response_{arm}.txt")
        if self.reconstruction is not None:
            write_distribution(self.reconstruction.rho, out / "rho.txt")
            (out / "reconstruction_report.txt").write_text(
                format_run_report(self.reconstruction)
            )
        if self.characterization is not None:
            (out / "characterization.txt").write_text(
                format_characterization(self.characterization)
            )
        summary = {"seed": self.config.seed, "pulses": self.config.pulses}
        if self.characterization is not None:
            summary["M_hat"] = self.characterization.M_hat
            summary["eta_hat"] = self.characterization.eta_hat
            summary["eps2"] = self.characterization.eps2
            summary["eps4"] = self.characterization.eps4
        if self.bootstrap is not None:
            for name, vals in self.bootstrap.items():
                good = vals[np.isfinite(vals)]
                if good.size:
                    summary[f"bootstrap_std_{name}"] = float(good.std(ddof=1)) if good.size > 1 else 0.0
        for stage, message in self.failures.items():
            summary[f"failed_{stage}"] = message
        (out / "summary.txt").write_text(format_mapping(summary))


def run_full(cfg: ExperimentConfig) -> RunReport:
    """Calibrate, collect, reconstruct and characterize in one pass.

    Stage errors are recorded in the report's ``failures`` mapping and leave
    the dependent fields as None; a partial report is still returned.
    """
    failures: dict = {}
    cal_a = cal_b = resp_a = resp_b = None
    hist = recon = char = boot = None
    try:
        bins_a, bins_b = simulate_calibration(cfg)
        cal_a = calibrate(bins_a)
        cal_b = calibrate(bins_b)
        resp_a = response_matrix(cal_a.weights, cfg.n_max)
        resp_b = response_matrix(cal_b.weights, cfg.n_max)
    except PairStatsError as exc:
        failures["calibration"] = f"{type(exc).__name__}: {exc}"
    try:
        hist = simulate_experiment(cfg)
    except PairStatsError as exc:
        failures["collection"] = f"{type(exc).__name__}: {exc}"
    if hist is not None and resp_a is not None and resp_b is not None:
        try:
            recon = em_reconstruct(
                hist,
                resp_a,
                resp_b,
                cfg.n_max,
                tol=cfg.em_tol,
                max_iter=cfg.em_max_iter,
            )
        except PairStatsError as exc:
            failures["reconstruction"] = f"{type(exc).__name__}: {exc}"
    if recon is not None:
        char = characterize(recon.rho)
        if cfg.bootstrap_replicas > 0:
            boot = bootstrap_characterize(
                hist,
                resp_a,
                resp_b,
                cfg.n_max,
                replicas=cfg.bootstrap_replicas,
                seed=cfg.seed,
                tol=cfg.em_tol,
                max_iter=cfg.em_max_iter,
            )
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
    )


# -- text formats -------------------------------------------------------------

def format_config(cfg: ExperimentConfig) -> str:
    pairs = {
        "N": cfg.source.N,
        "eta": cfg.source.eta,
        "eta_prime": cfg.source.eta_prime,
        "M": cfg.source.M,
        "pulses": cfg.pulses,
        "seed": cfg.seed,
        "calibration_pulses": cfg.calibration_pulses,
        "calibration_N": cfg.calibration_N,
        "n_max": cfg.n_max,
        "em_tol": cfg.em_tol,
        "em_max_iter": cfg.em_max_iter,
        "bootstrap_replicas": cfg.bootstrap_replicas,
        "weights_a": ",".join(fmt(v) for v in cfg.weights_a.w),
        "weights_b": ",".join(fmt(v) for v in cfg.weights_b.w),
    }
    return format_mapping(pairs)


def parse_config(text: str) -> ExperimentConfig:
    fields = parse_mapping(text)
    try:
        source = EffectiveSource(
            N=float(fields["N"]),
            eta=float(fields["eta"]),
            eta_prime=float(fields["eta_prime"]),
            M=float(fields["M"]),
        )
        kwargs = {"source": source}
        if "weights_a" in fields:
            kwargs["weights_a"] = PathWeights(
                np.array([float(v) for v in fields["weights_a"].split(",")])
            )
        if "weights_b" in fields:
            kwargs["weights_b"] = PathWeights(
                np.array([float(v) for v in fields["weights_b"].split(",")])
            )
        for name, conv in (
            ("pulses", int),
            ("seed", int),
            ("calibration_pulses", int),
            ("calibration_N", float),
            ("n_max", int),
            ("em_tol", float),
            ("em_max_iter", int),
            ("bootstrap_replicas", int),
        ):
            if name in fields:
                kwargs[name] = conv(fields[name])
    except KeyError as missing:
        raise ValidationError(f"config lacks {missing}") from None
    return ExperimentConfig(**kwargs)


def read_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())


def write_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_config(cfg))
