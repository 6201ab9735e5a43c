"""End-to-end experiment simulation: calibration, collection, inversion.

Mirrors the measurement procedure of a pulsed pair source read out by two
time-multiplexed click detectors: the detectors are calibrated at very low
intensity, joint clicks are accumulated over many pulses, the photon-number
distribution is recovered by expectation-maximization, and the source
parameters are estimated from the result.

Pulses are simulated in fixed-size blocks, each drawing from its own PCG64
random stream seeded from (seed, stage, block index).  The blocks of
calibration and collection run on a pool of one thread per usable CPU, made on
first use, where they carry enough work to pay for it, and their integer
tallies are summed in block order, so a run is reproducible bit-for-bit from
its config and seed whatever the number of threads.  Where the
pump is weak, M (M + 1) theta**2 < 2, one multinomial per block counts its
pulses over every cell of their photon-number law, built once per stage from
``model``'s pair law; elsewhere one multinomial counts the pulses that hold one,
several and no pairs reaching a detector, J ~ NegBin(M, w), and each holding
several draws its pair number by rejection, split to the arms by two binomials,
and one bincount bins those pulses into photon-number cells.  A collection block
draws the clicks of arm a over its cells in row order and those of arm b in
column order, so each arm in ascending photon number, and pairs them cell by cell.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import os
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
from .model import _N_CAP, EffectiveSource, _index, _pair_law, _pair_walk, _PairLaw, _real, format_distribution
from .reconstruction import (
    _MAX_PULSES,
    ClickHistogram,
    ReconstructionResult,
    _check_em_args,
    em_reconstruct,
    em_record,
    format_histogram,
)

BLOCK_SIZE = 250_000
_POOL_MIN_SAMPLED = 20_000  # multi-pair pulses a block must expect to pay for the pool (2-CPU x86-64)
_MAX_SEED = 2**64 - 1  # bootstrap seeds are 64-bit unsigned

_STAGE_CALIBRATION = 0
_STAGE_MAIN = 1
_STAGE_BOOTSTRAP = 2


def _block_rng(seed: int, stage: int, block: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stage, block))
    return np.random.Generator(np.random.PCG64(seq))


# the range of every int field of ExperimentConfig, as the calls that read it check it
_INT_RANGES = {
    "pulses": (1, _MAX_PULSES), "seed": (0, _MAX_SEED), "calibration_pulses": (1, _MAX_PULSES),
    "n_max": (1, _N_CAP), "bootstrap_replicas": (0, math.inf),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated measurement run.

    The config plus the seed reproduce a run bit-exactly.  ``calibration_N``
    must keep the calibration in the single-photon regime; ``summary.txt``
    records its ``calibration_mean_photons``, which should not exceed 0.01.
    It holds no EM setting: ``run_full`` fits at ``em_reconstruct``'s defaults.
    """

    source: EffectiveSource
    pulses: int = 10_000_000
    weights_a: PathWeights = field(default_factory=uniform_weights)
    weights_b: PathWeights = field(default_factory=uniform_weights)
    seed: int = 0
    calibration_pulses: int = 1_000_000
    calibration_N: float = 1e-3
    n_max: int = 8
    bootstrap_replicas: int = 0

    def __post_init__(self):
        kinds = {"source": EffectiveSource, "weights_a": PathWeights, "weights_b": PathWeights}
        for name, kind in kinds.items():
            if not isinstance(value := getattr(self, name), kind):
                raise ValidationError(f"{name} must be a {kind.__name__} (got {value!r})")
        for name, bounds in _INT_RANGES.items():
            object.__setattr__(self, name, _index(getattr(self, name), name, *bounds))
        if self.weights_a.B != self.weights_b.B:
            raise ValidationError("both arms must use the same number of paths")
        calibration_N = _real(self.calibration_N, "calibration_N", 0.0, strict=True)
        object.__setattr__(self, "calibration_N", calibration_N)


def _photon_table(M: float, w: float, split) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, m, weights): the photon numbers of a pulse with K >= 2 reaching pairs,
    over the cells of positive weight P(n, m | K >= 2) = sum_K t_K K!/(i! j! l!)
    v**i a**j b**l, and those weights.  t_K are the ``_pair_walk`` terms from 1 at K = 2,
    to the first past the mode that is <= 1e-18 of the first: at most 60 where
    M (M + 1) theta**2 < 2, as every pmf ratio is below 1/2 there.  i pairs reach both
    arms, j arm a alone and l arm b alone at the chances split = (v, a, b), so n = i + j
    and m = i + l; the law of (n, m) given K is built up one pair at a time from K = 0,
    in one flat zero-padded vector, whose three shifted slices add a pair of each kind."""
    terms = []
    for term, ratio in _pair_walk(M, w, 2):
        terms.append(term)
        if ratio < 1.0 and term * ratio <= 1e-18:
            break
    v, a, b = split
    size = len(terms) + 2  # K and so n and m run to len(terms) + 1
    s = size + 1  # row stride: (n, m) at [s + 1 + n s + m]; the rest stays 0, as m < size
    given_K = np.zeros(s + 1 + size * s)
    given_K[s + 1] = 1.0
    weights = np.zeros(size * s)
    for K in range(1, size):
        end = (K + 1) * s  # after K pairs only the rows n <= K hold mass
        given_K[s + 1 : s + 1 + end] = v * given_K[:end] + a * given_K[1 : end + 1] + b * given_K[s : s + end]
        if K >= 2:
            weights[:end] += terms[K - 2] * given_K[s + 1 : s + 1 + end]
    cells = np.flatnonzero(weights)
    return cells // s, cells % s, weights[cells]


def _multi_pairs(src: EffectiveSource, theta: float, several: float, count: int, rng):
    """``count`` draws of the reaching-pair number K of a pulse given K >= 2,
    theta = N k and several = P(K >= 2): K ~ NegBin(M, theta / (1 + theta)) is drawn
    as Poisson(Gamma(M, theta)) and kept if K >= 2, which keeps at least a
    quarter of the draws where M (M + 1) theta**2 >= 2, the only place it runs."""
    M = src.M
    pairs = np.zeros(0, np.int64)
    while pairs.size < count:  # so several > 0
        try:  # NegBin as Poisson(Gamma(M, theta)): 1/(1 + theta) would round a tiny theta away
            j = rng.poisson(rng.gamma(M, theta, math.ceil((count - pairs.size) / several)))
        except ValueError as exc:  # numpy refuses rates whose counts could overflow int64
            raise ValidationError(
                f"pair numbers at N={src.N!r}, M={M!r} are too large to sample"
            ) from exc
        pairs = np.concatenate([pairs, j[j >= 2][: count - pairs.size]])
    return pairs


_PulseLaw = collections.namedtuple("_PulseLaw", ("src", *_PairLaw._fields, "table"))


def _pulse_law(src: EffectiveSource) -> _PulseLaw:
    """What the pulse blocks of one stage draw from, built once per stage: the source,
    its ``_pair_law`` and, where M (M + 1) theta**2 < 2, the law of a pulse's photon
    numbers as (n, m, pvals) (else None).  pvals are the chances of (1, 1), (1, 0) and
    (0, 1), then of the ``_photon_table`` cells (n, m) with n >= 2 or m >= 2, in its
    order, then of (0, 0): with one, several, empty = ``cells``, (v, a, b) = split and
    s = w (several / W) over the table's weights w of sum W, they are one v + s(1, 1),
    one a, one b, s(n, m) and empty, where s(1, 1) is 0 if the table lacks (1, 1)."""
    law = _pair_law(src)
    table = None
    if law.k > 0.0 and src.M * (src.M + 1.0) * law.theta * law.theta < 2.0:
        n, m, weights = _photon_table(src.M, law.w, law.split)
        one, several, empty = law.cells
        share = weights * (several / weights.sum())
        pair = (n == 1) & (m == 1)
        singles = one * law.split + [share[pair].sum(), 0.0, 0.0]
        table = n[~pair], m[~pair], np.concatenate([singles, share[~pair], [empty]])
    return _PulseLaw(src, *law, table)


def _sample_pulses(law: _PulseLaw, rng: np.random.Generator, size: int):
    """(singles, n, m, counts): of ``size`` pulses, the counts of those with photon
    numbers (1, 1), (1, 0) and (0, 1), then the cells (n, m) of the others that are
    not empty, in row-major order, and the number of pulses in each; the rest are
    empty.

    Where the pump is weak, M (M + 1) theta**2 < 2, one multinomial over the law's
    pvals counts the pulses of every photon-number cell: the block's pulses are
    exchangeable, so this is the law of ``size`` independent draws, at a cost in the
    cells alone.  Elsewhere one multinomial counts the pulses with one, several and
    no reaching pairs; a second splits those with one over the arms, and each with
    several draws its pair number by ``_multi_pairs``, split by two binomials, to
    both arms at v, then to arm a alone at lone_a; one ``np.bincount`` then bins
    those pulses into cells (``np.unique`` past a grid of 8 cells a pulse)."""
    if law.k == 0.0:
        empty = np.zeros(0, np.int64)
        return np.zeros(3, np.int64), empty, empty, empty
    if law.table is not None:
        n, m, pvals = law.table
        counts = rng.multinomial(size, pvals)
        cells = np.flatnonzero(counts[3:-1])
        return counts[:3], n[cells], m[cells], counts[3:-1][cells]
    one, count, _ = rng.multinomial(size, law.cells)
    pairs = _multi_pairs(law.src, law.theta, law.cells[1], count, rng)
    singles = rng.multinomial(one, law.split)
    in_both = rng.binomial(pairs, law.split[0])
    a_only = rng.binomial(pairs - in_both, law.lone_a)  # draws nothing where lone_a = 0
    n, m = a_only + in_both, pairs - a_only
    width = int(m.max(initial=0)) + 1
    if (int(n.max(initial=0)) + 1) * width > 8 * n.size:
        (n, m), counts = np.unique(np.stack((n, m)), axis=1, return_counts=True)
        return singles, n, m, counts
    counts = np.bincount(n * width + m)
    cells = np.flatnonzero(counts)
    return singles, cells // width, cells % width, counts[cells]


@functools.cache
def _pool():
    """(pool, threads): the thread pool that runs pulse blocks, one thread per usable CPU."""
    from concurrent.futures import ThreadPoolExecutor  # imports logging, so not at startup

    try:
        threads = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        threads = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="pairstats-block"), threads


if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_blocks(fn, src: EffectiveSource, pulses: int, seed: int, stage: int):
    """Yield fn(singles, n, m, counts, rng) for each block of up to BLOCK_SIZE pulses,
    in block order: the block's ``_sample_pulses`` draw from the stage's one
    ``_pulse_law``, and its stream for the clicks.  Each block has its own
    stream, so results do not depend on where it runs: the calling thread when
    it expects fewer than _POOL_MIN_SAMPLED pulses with several reaching pairs,
    else the pool, two blocks per thread ahead at most.  A block's error is
    raised, later ones cancelled."""
    law = _pulse_law(src)

    def block(index: int):
        rng = _block_rng(seed, stage, index)
        size = min(BLOCK_SIZE, pulses - index * BLOCK_SIZE)
        return fn(*_sample_pulses(law, rng, size), rng)

    blocks = range(-(-pulses // BLOCK_SIZE))
    if min(BLOCK_SIZE, pulses) * law.cells[1] < _POOL_MIN_SAMPLED:
        yield from map(block, blocks)
        return
    pool, threads = _pool()
    pending = collections.deque()
    try:
        for index in blocks:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(block, index))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _block_clicks(weights_a: PathWeights, weights_b: PathWeights, singles, n, m, counts, rng):
    """The flattened joint click tallies of one block's ``_sample_pulses`` draw.

    Arm a draws its pulses cell by cell in the cells' row-major order, so in
    ascending n, and arm b in column-major order, so in ascending m; one
    permutation then pairs the clicks of arm b with those of arm a cell by cell.
    The pulses of a cell are exchangeable, so any pairing within it has the law
    of the per-pulse draws."""
    B = weights_a.B
    col = np.lexsort((n, m))
    ka = simulate_clicks_batch(n.repeat(counts), weights_a, rng)
    kb = simulate_clicks_batch(m[col].repeat(counts[col]), weights_b, rng)
    shift = np.empty_like(counts)  # where a cell starts in column order, less where in row order
    shift[col] = counts[col].cumsum()
    shift -= counts.cumsum()
    pick = shift.repeat(counts)
    pick += np.arange(pick.size)
    kb = kb[pick]
    tallies = np.bincount(ka * (B + 1) + kb, minlength=(B + 1) * (B + 1))
    tallies[[B + 2, B + 1, 1]] += singles  # one photon is one click
    return tallies


def simulate_experiment(cfg: ExperimentConfig) -> ClickHistogram:
    """Accumulate the joint click histogram over cfg.pulses pulses."""
    B = cfg.weights_a.B
    clicks = functools.partial(_block_clicks, cfg.weights_a, cfg.weights_b)
    counts = sum(_map_blocks(clicks, cfg.source, cfg.pulses, cfg.seed, _STAGE_MAIN))
    counts[0] += cfg.pulses - counts.sum()  # the pulses left out are empty
    return ClickHistogram(f=counts.reshape(B + 1, B + 1), pulses=cfg.pulses)


def _bin_occupancy(ones, ns, weights: PathWeights, rng: np.random.Generator) -> np.ndarray:
    """Per-path tallies of pulses in which the path saw a photon: ``ones`` pulses of one, and ``ns``."""
    lit = ns[ns >= 1]
    hits = (rng.multinomial(lit, weights.w) > 0).sum(axis=0) if lit.size else 0
    return hits + rng.multinomial(ones, weights.w)


def simulate_calibration(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin click tallies of both arms at the low-intensity setting."""
    low = dataclasses.replace(cfg.source, N=cfg.calibration_N)

    def tallies(singles, n, m, counts, rng):
        a = _bin_occupancy(singles[0] + singles[1], np.repeat(n, counts), cfg.weights_a, rng)
        b = _bin_occupancy(singles[0] + singles[2], np.repeat(m, counts), cfg.weights_b, rng)
        return np.stack([a, b])

    return tuple(sum(_map_blocks(tallies, low, cfg.calibration_pulses, cfg.seed, _STAGE_CALIBRATION)))


def bootstrap_characterize(
    hist: ClickHistogram,
    resp_a: DetectorResponse,
    resp_b: DetectorResponse,
    n_max: int,
    replicas: int = 100,
    seed: int = 0,
) -> dict:
    """Bootstrap the source estimates by resampling pulses.

    Pulses are independent draws over the click cells, so resampling them
    with replacement is a multinomial redraw of the histogram, and each
    replica is fitted by ``em_reconstruct`` at its defaults.  Returns a
    mapping from estimate name to the array of replica values (NaN where
    ``characterize`` records a replica's estimate as undefined).  The
    arguments are checked once, up front, so a bad one raises ValidationError
    before any replica; an error in a replica's fit propagates.
    """
    _index(replicas, "replicas", 0)
    _index(seed, "seed", 0, _MAX_SEED)
    total = _check_em_args(hist, resp_a, resp_b, n_max)
    fields = ("mean_n", "mean_n_prime", "M_hat", "eta_hat", "eps2", "eps4")
    samples = {name: [] for name in fields}
    freqs = (hist.f / total).ravel()
    for replica in range(replicas):
        rng = _block_rng(seed, _STAGE_BOOTSTRAP, replica)
        f = rng.multinomial(total, freqs).reshape(hist.f.shape)
        resampled = ClickHistogram(f=f, pulses=hist.pulses)
        char = characterize(em_reconstruct(resampled, resp_a, resp_b, n_max).rho)
        for name in fields:
            samples[name].append(getattr(char, name))
    return {name: np.asarray(vals) for name, vals in samples.items()}


@dataclass(frozen=True)
class RunReport:
    """Every artifact of one full run; fields are None after a stage failure,
    with the cause recorded in ``failures`` under the stage's name (written
    as ``failed_<stage>`` in ``summary.txt``).  ``timings`` holds the wall
    seconds of every stage that ran, failed or not, and the pulses/s of
    calibration and collection when they completed, as wall-clock throughput
    over all the threads that ran the stage's blocks; they vary between runs,
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
    if hist is not None and resp_a is not None:
        recon = stage("reconstruction", em_reconstruct, *inputs)
    if recon is not None:
        char = stage("characterization", characterize, recon.rho)
    if recon is not None and cfg.bootstrap_replicas > 0:
        boot = stage("bootstrap", bootstrap_characterize, *inputs, cfg.bootstrap_replicas, cfg.seed)
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
