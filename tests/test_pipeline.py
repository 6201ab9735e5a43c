import dataclasses
import functools
import math
import multiprocessing
import os
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from pairstats import pipeline
from pairstats._fileio import float_list, fmt, parse_mapping
from pairstats.analysis import characterization_record, characterize
from pairstats.errors import DegenerateInputError, PairStatsError, SupportError, ValidationError
from pairstats.loop_detector import (
    PathWeights,
    apply_response,
    parse_response,
    response_matrix,
    uniform_weights,
)
from pairstats.model import EffectiveSource, _pair_law, _pair_walk, joint_distribution, parse_distribution
from pairstats.pipeline import (
    BLOCK_SIZE,
    ExperimentConfig,
    RunReport,
    bootstrap_characterize,
    format_config,
    parse_config,
    run_full,
    simulate_calibration,
    simulate_experiment,
    _block_rng,
    _pulse_law,
    _sample_pulses,
)
from pairstats.reconstruction import ClickHistogram, em_reconstruct, em_record, parse_histogram

from oracles import (
    bin_occupancy_reference,
    multi_pair_terms_reference,
    nonempty_pulses,
    photon_table_pick_reference,
    pulse_blocks,
    pulse_law_reference,
    reaching_pairs_reference,
    reaching_pair_cells,
    sample_pulses_per_pulse,
    simulate_calibration_serial,
    simulate_experiment_serial,
)


def small_cfg(**overrides):
    base = dict(
        source=EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0),
        pulses=200_000,
        seed=5,
        calibration_pulses=200_000,
        calibration_N=1e-3,
        n_max=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# every int field of ExperimentConfig with the range it accepts; None: no upper end
INT_FIELD_RANGES = [
    ("pulses", 1, 2**63 - 1),
    ("seed", 0, 2**64 - 1),
    ("calibration_pulses", 1, 2**63 - 1),
    ("n_max", 1, 4096),
    ("bootstrap_replicas", 0, None),
]

ERROR_CLASSES = {cls.__name__ for cls in PairStatsError.__subclasses__()}

# a source whose pair numbers overflow numpy's sampler: collection fails in its
# first block while the low-intensity calibration still completes
UNSAMPLEABLE = EffectiveSource(N=1e17, eta=0.5, eta_prime=0.5, M=1000.0)

# the RunReport fields left as None when a stage fails; bootstrap_replicas is
# 0 except in the bootstrap case, so bootstrap is None in every case
FAILED_FIELDS = {
    "calibration": {
        "calibration_a",
        "calibration_b",
        "response_a",
        "response_b",
        "reconstruction",
        "characterization",
        "bootstrap",
    },
    "collection": {"histogram", "reconstruction", "characterization", "bootstrap"},
    "reconstruction": {"reconstruction", "characterization", "bootstrap"},
    "characterization": {"characterization", "bootstrap"},
    "bootstrap": {"bootstrap"},
}

# a run directory: the files a subcommand reads back, by their reader, and the
# two that are written for people only
READERS = {
    "config.txt": parse_config,
    "histogram.txt": parse_histogram,
    "response_a.txt": parse_response,
    "response_b.txt": parse_response,
    "rho.txt": parse_distribution,
}
OUTPUT_ONLY = {"summary.txt", "timings.txt"}

# the pipeline callee that each stage's failure is injected into
STAGE_CALLEES = {
    "calibration": "simulate_calibration",
    "collection": "simulate_experiment",
    "reconstruction": "em_reconstruct",
    "characterization": "characterize",
    "bootstrap": "bootstrap_characterize",
}


def clipped_cells(n, m, pulses: int) -> np.ndarray:
    """Counts of ``pulses`` pulses over the 22 x 22 cells of (n, m) clipped at 21,
    flattened; the pulses beyond those drawn are empty and count in cell (0, 0)."""
    counts = np.bincount(np.minimum(n, 21) * 22 + np.minimum(m, 21), minlength=22 * 22)
    counts[0] += pulses - n.size
    return counts


def max_law_z(src: EffectiveSource) -> float:
    """Largest per-cell z of 10M sampled pulses against the model.

    Only cells with expected count >= 100, where the Gaussian error band is
    meaningful, enter the multinomial z-test.  The pulses the sampler leaves
    out are empty and count in cell (0, 0).
    """
    pulses = 10_000_000
    counts, law = np.zeros(22 * 22), _pulse_law(src)
    for block in range(5):
        n, m = nonempty_pulses(*_sample_pulses(law, _block_rng(3, 9, block), pulses // 5))
        counts += clipped_cells(n, m, pulses // 5)
    counts = counts.reshape(22, 22)
    n_max = 20
    ana = joint_distribution(src, n_max).probs
    expected = ana * pulses
    keep = expected >= 100.0
    sigma = np.sqrt(expected * (1.0 - ana))
    z = (counts[: n_max + 1, : n_max + 1] - expected)[keep] / sigma[keep]
    return float(np.abs(z).max())


def per_pulse_z(src: EffectiveSource) -> float:
    """Largest per-cell two-sample z between 10M pulses of the sampler and 10M
    of the per-pulse oracle, each from its own streams.

    Only the cells where the two samples hold 200 or more pulses together enter.
    """
    pulses, blocks = 10_000_000, 10
    counts, law = np.zeros((2, 22 * 22)), _pulse_law(src)
    for block in range(blocks):
        draws = (
            nonempty_pulses(*_sample_pulses(law, _block_rng(12, 9, block), pulses // blocks)),
            sample_pulses_per_pulse(src, _block_rng(13, 9, block), pulses // blocks),
        )
        for side, (n, m) in enumerate(draws):
            counts[side] += clipped_cells(n, m, pulses // blocks)
    pooled = counts.sum(axis=0)
    keep = pooled >= 200.0
    share = pooled[keep] / (2 * pulses)
    z = (counts[0] - counts[1])[keep] / np.sqrt(2 * pulses * share * (1.0 - share))
    return float(np.abs(z).max())


class TestConfig:
    def test_zero_pulses_rejected(self):
        with pytest.raises(ValidationError):
            small_cfg(pulses=0)

    def test_fractional_modes_accepted(self):
        cfg = small_cfg(source=EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=1.5))
        assert cfg.source.M == 1.5

    def test_hot_calibration_is_a_summary_fact(self, tmp_path):
        # no warning, however many hot configs are built; the run record
        # states the brighter arm's mean photons per calibration pulse instead
        src = EffectiveSource(N=1.0, eta=0.5, eta_prime=0.8, M=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfgs = [small_cfg(source=src, calibration_N=0.5) for _ in range(3)]
        stages = dict.fromkeys(FAILED_FIELDS["calibration"] | FAILED_FIELDS["collection"])
        RunReport(config=cfgs[0], failures={}, **stages).write(tmp_path)
        summary = parse_mapping((tmp_path / "summary.txt").read_text(), "summary")
        photons = fmt(0.5 * 3.0 * 0.8)
        assert summary == {"seed": "5", "pulses": "200000", "calibration_mean_photons": photons}

    @pytest.mark.parametrize(
        "name",
        ["pulses", "seed", "calibration_pulses", "n_max", "bootstrap_replicas"],
    )
    def test_non_integer_counts_rejected(self, name):
        with pytest.raises(ValidationError, match=name):
            small_cfg(**{name: 2.5})

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("source", None),
            ("source", {"N": 0.2, "eta": 0.5, "eta_prime": 0.5, "M": 1.0}),
            ("weights_a", [0.5, 0.5]),
            ("weights_b", "0.5,0.5"),
        ],
        ids=["source None", "source dict", "weights_a list", "weights_b str"],
    )
    def test_wrong_typed_objects_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be a"):
            small_cfg(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = small_cfg(pulses=np.int64(1000), seed=np.uint64(7), n_max=np.int32(6))
        assert (cfg.pulses, cfg.seed, cfg.n_max) == (1000, 7, 6)
        assert all(type(v) is int for v in (cfg.pulses, cfg.seed, cfg.n_max))

    @pytest.mark.parametrize(
        ("value", "name"),
        [(v, "calibration_N") for v in (np.nan, np.inf, 0.0, -1e-3)],
    )
    def test_non_finite_or_nonpositive_rates_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            small_cfg(**{name: value})

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("calibration_pulses", 0),
            ("pulses", 2**63),  # ClickHistogram's bound
            ("calibration_pulses", 2**63),
            ("seed", -1),
            ("seed", 2**64),
            ("n_max", 0),
            ("bootstrap_replicas", -1),
        ],
    )
    def test_out_of_range_counts_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            small_cfg(**{name: value})

    def test_every_int_field_has_a_range(self):
        ints = {f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "int"}
        assert {name for name, _, _ in INT_FIELD_RANGES} == ints == set(pipeline._INT_RANGES)

    @pytest.mark.parametrize(("name", "lo", "hi"), INT_FIELD_RANGES)
    def test_int_field_range(self, name, lo, hi):
        for value in (lo, 2**70 if hi is None else hi):
            assert getattr(small_cfg(**{name: value}), name) == value
        for value in (lo - 1,) if hi is None else (lo - 1, hi + 1):
            with pytest.raises(ValidationError, match=name):
                small_cfg(**{name: value})

    def test_mismatched_arms_rejected(self):
        with pytest.raises(ValidationError):
            small_cfg(weights_a=uniform_weights(8), weights_b=uniform_weights(4))

    def test_round_trip(self):
        cfg = small_cfg(
            source=EffectiveSource(N=0.21, eta=0.045, eta_prime=0.05, M=16.0),
            seed=123456789,
            bootstrap_replicas=7,
        )
        again = parse_config(format_config(cfg))
        assert again.source == cfg.source
        assert np.array_equal(again.weights_a.w, cfg.weights_a.w)
        assert np.array_equal(again.weights_b.w, cfg.weights_b.w)
        for name in (
            "pulses",
            "seed",
            "calibration_pulses",
            "calibration_N",
            "n_max",
            "bootstrap_replicas",
        ):
            assert getattr(again, name) == getattr(cfg, name)

    def test_format_is_pinned(self):
        cfg = small_cfg(
            source=EffectiveSource(N=0.2, eta=0.3, eta_prime=0.35, M=4.0),
            weights_a=PathWeights([0.25, 0.75]),
            weights_b=PathWeights([0.5, 0.5]),
            bootstrap_replicas=2,
        )
        assert format_config(cfg) == (
            "N=0.20000000000000001\n"
            "eta=0.29999999999999999\n"
            "eta_prime=0.34999999999999998\n"
            "M=4\n"
            "pulses=200000\n"
            "seed=5\n"
            "calibration_pulses=200000\n"
            "calibration_N=0.001\n"
            "n_max=8\n"
            "bootstrap_replicas=2\n"
            "weights_a=0.25,0.75\n"
            "weights_b=0.5,0.5\n"
        )

    def test_optional_fields_take_defaults(self):
        cfg = parse_config("N=1\neta=0.5\neta_prime=0.5\nM=1\n")
        default = ExperimentConfig(source=EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=1.0))
        assert format_config(cfg) == format_config(default)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("N=1\nN=2\neta=0.5\neta_prime=0.5\nM=1\n", "repeats 'N'"),
            ("eta=0.5\neta_prime=0.5\nM=1\n", "lacks 'N'"),
            ("N=1\neta=0.5\neta_prime=0.5\nM=1\npulses=1e6\n", "pulses='1e6'"),
            ("N=1\neta=0.5\neta_prime=0.5\nM=1\nweights_a=0.5,half\n", "weights_a"),
            ("N=1\neta=0.5\neta_prime=0.5\nM=1\npulse=5\nseeds=1\n", "'pulse', 'seeds'"),
        ],
        ids=["repeated-key", "missing-key", "float-for-int", "non-numeric-weight", "unknown-key"],
    )
    def test_malformed_config_rejected(self, text, match):
        with pytest.raises(ValidationError, match=match):
            parse_config(text)


# weak-pump sources near the switch, M (M + 1) theta**2 = 1.9 at M = 1, which
# draw from the largest photon-number tables (60 pair numbers)
SWITCH_THETA = math.sqrt(0.95)
NEAR_SWITCH = [
    (SWITCH_THETA / 0.85, 0.5, 0.7, 1.0),
    (SWITCH_THETA / 0.8, 0.8, 0.0, 1.0),
    (SWITCH_THETA, 1.0, 1.0, 1.0),
]
NEAR_SWITCH_IDS = ["near-switch", "near-switch-dark-arm", "near-switch-lossless"]


class TopUniform:
    """``rng`` with every uniform replaced by the largest double below 1."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))

    def __getattr__(self, name):
        return getattr(self.rng, name)


class FixedUniforms:
    """``rng`` whose one call to ``random`` returns the given uniforms."""

    def __init__(self, rng, u):
        self.rng, self.u = rng, u

    def random(self, size):
        assert size == self.u.size
        return self.u

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestSamplePulse:
    def test_near_vacuum(self):
        src = EffectiveSource(N=1e-9, eta=0.9, eta_prime=0.9, M=2.0)
        rng = _block_rng(1, 9, 0)
        singles, n, m = _sample_pulses(_pulse_law(src), rng, 200)
        assert singles.sum() == n.size == m.size == 0

    def test_lossless_pairs_stay_matched(self):
        # only (1, 1) singles, and both arms see every pair of the others, on
        # both sides of the switch M (M + 1) theta**2 = 2
        for N in (1.0, SWITCH_THETA):
            law = _pulse_law(EffectiveSource(N=N, eta=1.0, eta_prime=1.0, M=1.0))
            assert (law.table is None) == (N == 1.0)
            singles, n, m = _sample_pulses(law, _block_rng(2, 9, 0), 50_000)
            assert singles[0] > 0 and singles[1] == singles[2] == 0
            assert n.size > 0 and np.array_equal(n, m)

    @pytest.mark.parametrize(
        "N, eta, eta_prime, M",
        [
            (0.2, 0.045, 0.045, 16.0),
            (1.0, 1.0, 0.0, 2.0),
            (1.0, 0.0, 0.3, 3.0),
            (1.0, 1.0, 1.0, 2.5),
            (3.0, 0.9, 0.2, 1.0),
            (1.0, 0.5, 0.7, 2.5),
            (1.0, 0.5, 0.7, 16.6),
            *NEAR_SWITCH,
        ],
        ids=["readme", "arm-a-only", "arm-b-only", "lossless", "bright-unbalanced", "M2.5", "M16.6", *NEAR_SWITCH_IDS],
    )
    def test_law_matches_per_pulse_oracle(self, N, eta, eta_prime, M):
        src = EffectiveSource(N=N, eta=eta, eta_prime=eta_prime, M=M)
        assert per_pulse_z(src) <= 4.0

    def test_empirical_law_matches_model(self):
        assert max_law_z(EffectiveSource(N=1.0, eta=0.5, eta_prime=0.7, M=2.0)) <= 4.0

    @pytest.mark.parametrize("M", [2.5, 16.6])
    def test_fractional_modes_law_matches_model(self, M):
        assert max_law_z(EffectiveSource(N=1.0, eta=0.5, eta_prime=0.7, M=M)) <= 4.0

    @pytest.mark.parametrize(
        "N, eta, eta_prime, M",
        [
            (0.2, 0.045, 0.045, 16.0),
            (1.0, 1.0, 0.0, 2.0),
            (1.0, 0.0, 0.3, 3.0),
            (1.0, 1.0, 1.0, 2.5),
            (3.0, 0.9, 0.2, 1.0),
            *NEAR_SWITCH,
        ],
        ids=["readme", "arm-a-only", "arm-b-only", "lossless", "bright-unbalanced", *NEAR_SWITCH_IDS],
    )
    def test_reaching_pair_split_matches_model(self, N, eta, eta_prime, M):
        src = EffectiveSource(N=N, eta=eta, eta_prime=eta_prime, M=M)
        assert max_law_z(src) <= 4.0

    @pytest.mark.parametrize(
        "N, eta, M", [(1e-3, 0.045, 16.0), (5.0, 0.9, 50.0)], ids=["calibration", "bright"]
    )
    def test_nonempty_share_is_binomial(self, N, eta, M):
        # a pulse is returned when it holds a pair reaching a detector, with
        # probability S = 1 - (1 + N k)**(-M); at the bright source S rounds
        # to 1, so every pulse must come back
        src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
        pulses = 10_000_000
        kept = sum(singles.sum() + n.size for singles, n, _, _ in pulse_blocks(src, pulses, 7, 9))
        share = -math.expm1(-M * math.log1p(N * (2.0 * eta - eta * eta)))
        assert abs(kept - pulses * share) <= 4.0 * math.sqrt(pulses * share * (1.0 - share))

    @pytest.mark.parametrize(
        "N, eta, M, pulses",
        [
            (0.2, 0.045, 16.0, 40 * BLOCK_SIZE),
            (1e-3, 0.045, 16.0, 400 * BLOCK_SIZE),
            (1.5, 0.6, 3.0, 8 * BLOCK_SIZE),
        ],
        ids=["readme", "calibration", "bright"],
    )
    def test_pulse_kind_counts_match_closed_forms(self, N, eta, M, pulses):
        # a block's counts of pulses with one and with several reaching pairs
        # are binomial at the chances of _pair_law: z-tested per block
        # where a block expects 100 or more, and summed over the blocks
        src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
        p = _pair_law(src).cells[:2]
        blocks = pulse_blocks(src, pulses, 5, 9)
        counts = np.array([(singles.sum(), n.size) for singles, n, _, _ in blocks])
        totals = counts.sum(axis=0, keepdims=True)
        for tallies, size, bound in ((counts, BLOCK_SIZE, 5.0), (totals, pulses, 4.0)):
            expected = size * p
            z = (tallies - expected) / np.sqrt(expected * (1.0 - p))
            assert np.abs(z[:, expected >= 100.0]).max() <= bound

    @pytest.mark.parametrize("M", [*np.geomspace(1.0, 1e4, 9), 2.5])
    def test_pulse_kind_chances_match_decimal_oracle(self, M):
        # lossless arms make theta = N; each chance within 1e-12 relative, or
        # within 1e-12 of the least normal float where it underflows
        for theta in np.geomspace(1e-300, 1e6, 154):
            src = EffectiveSource(N=theta, eta=1.0, eta_prime=1.0, M=M)
            cells = _pair_law(src).cells
            for got, want in zip(cells, reaching_pair_cells(M, theta)):
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * sys.float_info.min)

    @pytest.mark.parametrize("eta", [0.045, 1.0])
    def test_underflowing_intensity_gives_empty_pulses(self, eta):
        # N k rounds to 0 at eta = 0.045 and to N at eta = 1; either way every
        # pulse comes back empty, with no warning
        src = EffectiveSource(N=5e-324, eta=eta, eta_prime=eta, M=16.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = _pair_law(src).cells
            singles, n, m = _sample_pulses(_pulse_law(src), _block_rng(1, 9, 0), BLOCK_SIZE)
        assert cells[1] == 0.0 and cells[2] == 1.0 and (eta == 1.0 or cells[0] == 0.0)
        assert singles.sum() == n.size == m.size == 0

    @pytest.mark.parametrize(
        "N, M",
        [(5.0, 50.0), (1e-3, 16.0), (0.99, 1.0), (1.01, 1.0), (0.0845, 16.0), (0.087, 16.0)],
        ids=[
            "bright",
            "faint",
            "M1-below-switch",
            "M1-above-switch",
            "M16-below-switch",
            "M16-above-switch",
        ],
    )
    def test_reaching_pair_law_past_window(self, N, M):
        # lossless arms give n = m = K, the pair number of a non-empty pulse,
        # whose law is the zero-truncated NegBin(M, N/(1 + N)), scipy's
        # nbinom(M, 1/(1 + N)); every K is
        # z-tested, past the 21 x 21 window of max_law_z
        src = EffectiveSource(N=N, eta=1.0, eta_prime=1.0, M=M)
        counts = np.zeros(0)
        for singles, n, m, _ in pulse_blocks(src, 10_000_000, 8, 9):
            n, m = nonempty_pulses(singles, n, m)
            assert np.array_equal(n, m)
            hist = np.bincount(n)
            counts = np.pad(counts, (0, max(0, hist.size - counts.size)))
            counts[: hist.size] += hist
        assert counts[0] == 0
        # one empty cell past the largest draw enters too, so a short upper
        # tail fails the test
        counts = np.append(counts, 0.0)
        pmf = nbinom.pmf(np.arange(counts.size), M, 1.0 / (1.0 + N))
        pmf[0] = 0.0
        pmf /= -math.expm1(-M * math.log1p(N))
        expected = counts.sum() * pmf
        keep = expected >= 100.0
        z = (counts - expected)[keep] / np.sqrt(expected * (1.0 - pmf))[keep]
        assert np.abs(z).max() <= 4.0

    @pytest.mark.parametrize("N, M", [(1e-16, 1e16), (1e-17, 1e16), (1e-17, 2e17)])
    def test_reaching_pair_law_at_huge_M(self, N, M):
        # 1/(1 + N) rounds N off here, by 11% at N = 1e-16 and to 0 at 1e-17,
        # so sampler and law must both use N itself: lossless K is
        # NegBin(M, N/(1 + N)), its pmf built up from K = 0 by
        # P(K + 1) = P(K) (M + K) / (K + 1) x, x = N / (1 + N); at M = 2e17,
        # M (M + 1) N**2 = 4, so the sampler takes its bright branch
        src = EffectiveSource(N=N, eta=1.0, eta_prime=1.0, M=M)
        counts = np.zeros(0)
        for singles, n, m, _ in pulse_blocks(src, 2_000_000, 8, 9):
            hist = np.bincount(nonempty_pulses(singles, n, m)[0])
            counts = np.pad(counts, (0, max(0, hist.size - counts.size)))
            counts[: hist.size] += hist
        counts = np.append(counts, 0.0)  # one empty cell past the largest draw
        pmf = np.empty(counts.size)
        pmf[0] = math.exp(-M * math.log1p(N))
        for K in range(counts.size - 1):
            pmf[K + 1] = pmf[K] * (M + K) / (K + 1) * (N / (1.0 + N))
        pmf /= -math.expm1(-M * math.log1p(N))
        pmf[0] = 0.0
        expected = counts.sum() * pmf
        keep = expected >= 100.0
        assert keep[3]  # the test sees K = 3, which a rounded 1/(1 + N) loses at M = 1e16
        z = (counts - expected)[keep] / np.sqrt(expected * (1.0 - pmf))[keep]
        assert np.abs(z).max() <= 4.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        log_M=st.floats(0.0, 17.0),
        log_share=st.floats(-300.0, 0.0, exclude_max=True),
        eta=st.floats(0.0, 1.0),
        eta_prime=st.floats(0.0, 1.0),
    )
    # the largest table: M = 1 just below the switch, where the walk keeps 60 terms
    @example(log_M=0.0, log_share=math.log10(0.999999), eta=0.5, eta_prime=0.7)
    def test_multi_pair_table_in_dim_box(self, log_M, log_share, eta, eta_prime):
        # below the switch, M (M + 1) theta**2 < 2, the walk keeps at most 60 pair
        # numbers, so the photon-number table has at most 62 x 62 cells, and every
        # pulse with several reaching pairs lands on one of them, at the largest
        # uniform below 1 too
        M = 10.0**log_M
        theta = 10.0**log_share * math.sqrt(2.0 / (M * (M + 1.0)))
        k = eta + eta_prime * (1.0 - eta)
        assume(theta > 0.0 and k > 0.0 and math.isfinite(theta / k))
        law = pipeline._pulse_law(EffectiveSource(N=theta / k, eta=eta, eta_prime=eta_prime, M=M))
        assume(law.table is not None)
        n, m, cdf = law.table
        assert cdf.size <= 62 * 62 and max(n.max(), m.max()) < 62
        assert np.isfinite(cdf).all() and (np.diff(cdf) >= 0.0).all()
        cells = set(zip(n.tolist(), m.tolist()))
        assert len(cells) == cdf.size and min(n + m) >= 2
        several = law._replace(cells=np.array([0.0, 1.0, 0.0]))  # every pulse holds several
        for rng in (_block_rng(1, 9, 0), TopUniform(_block_rng(1, 9, 0))):
            singles, drawn_n, drawn_m = _sample_pulses(several, rng, 1000)
            assert singles.sum() == 0 and drawn_n.shape == drawn_m.shape == (1000,)
            assert drawn_n.dtype == drawn_m.dtype == np.int64
            assert set(zip(drawn_n.tolist(), drawn_m.tolist())) <= cells

    @pytest.mark.parametrize(
        "theta, eta, eta_prime, M",
        [(1e-4, 0.3, 0.8, 1.0), (3e-5, 1.0, 0.0, 3.5), (1e-5, 0.6, 0.6, 16.0), (1e-4, 1.0, 1.0, 2.0)],
        ids=["unbalanced", "dark-arm", "balanced", "lossless"],
    )
    def test_photon_table_matches_exact_sum(self, theta, eta, eta_prime, M):
        # every cell of a table with K <= 6 against
        # sum_K t_K K!/(i! j! l!) v**i a**j b**l in exact rationals, from the
        # same float t_K (those of the reference, which TestPulseLawReference
        # holds the table to) and split, within 1e-15 relative; the table holds
        # exactly the cells the sum gives a positive weight
        split = _pair_law(EffectiveSource(N=1.0, eta=eta, eta_prime=eta_prime, M=M)).split
        terms = multi_pair_terms_reference(M, theta)
        assert terms.size <= 5
        v, a, b = map(Fraction, split)
        exact = Counter()
        for K, t in enumerate(terms, start=2):
            for i in range(K + 1):
                for j in range(K - i + 1):
                    l = K - i - j
                    ways = math.factorial(K) // (math.factorial(i) * math.factorial(j) * math.factorial(l))
                    exact[i + j, i + l] += Fraction(t) * ways * v**i * a**j * b**l
        exact = {cell: w for cell, w in exact.items() if w > 0}
        n, m, weights = pipeline._photon_table(M, theta / (1.0 + theta), split)
        assert set(zip(n.tolist(), m.tolist())) == exact.keys()
        for cell, got in zip(zip(n.tolist(), m.tolist()), weights):
            assert abs(Fraction(got) - exact[cell]) <= Fraction(1e-15) * exact[cell]
        if eta_prime == 0.0:
            assert (m == 0).all()
        if eta == eta_prime == 1.0:
            assert (n == m).all()

    def test_dark_arms_give_empty_pulses(self):
        src = EffectiveSource(N=1.0, eta=0.0, eta_prime=0.0, M=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            singles, *draws = _sample_pulses(_pulse_law(src), _block_rng(6, 9, 0), 1000)
        assert singles.dtype == np.int64 and np.array_equal(singles, [0, 0, 0])
        for x in draws:
            assert x.dtype == np.int64 and x.shape == (0,)

    def test_unsampleable_intensity_rejected(self):
        src = EffectiveSource(N=1e17, eta=0.5, eta_prime=0.5, M=1000.0)
        with pytest.raises(ValidationError, match="too large to sample"):
            _sample_pulses(_pulse_law(src), _block_rng(0, 9, 0), 1)

    def test_large_M_moments(self):
        # mean M N eta and variance M N eta (1 + N eta), each within 5
        # standard errors; the standard error of the variance uses the
        # sample's fourth central moment
        src = EffectiveSource(N=0.5, eta=0.3, eta_prime=0.3, M=1000.0)
        pulses = 250_000
        mean = src.M * src.N * src.eta
        var = mean * (1.0 + src.N * src.eta)
        for x in nonempty_pulses(*_sample_pulses(_pulse_law(src), _block_rng(4, 9, 0), pulses)):
            x = np.pad(x, (0, pulses - x.size))
            dev = x - x.mean()
            m2 = float(np.mean(dev**2))
            m4 = float(np.mean(dev**4))
            assert abs(x.mean() - mean) <= 5.0 * np.sqrt(var / pulses)
            assert abs(x.var(ddof=1) - var) <= 5.0 * np.sqrt((m4 - m2**2) / pulses)

    def test_block_memory_independent_of_M(self):
        # a per-mode draw would need 8 kB a pulse at M=1000
        src = EffectiveSource(N=0.5, eta=0.3, eta_prime=0.3, M=1000.0)
        pulses = 50_000
        tracemalloc.start()
        try:
            _sample_pulses(_pulse_law(src), _block_rng(4, 9, 1), pulses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * pulses

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        log_N=st.floats(-6.0, 12.0),
        eta=st.floats(0.0, 1.0),
        eta_prime=st.floats(0.0, 1.0),
        M=st.floats(1.0, 1000.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_valid_box(self, log_N, eta, eta_prime, M, seed):
        src = EffectiveSource(N=10.0**log_N, eta=eta, eta_prime=eta_prime, M=M)
        singles, n, m = _sample_pulses(_pulse_law(src), _block_rng(seed, 9, 0), 1000)
        assert singles.dtype == np.int64 and singles.shape == (3,) and (singles >= 0).all()
        assert singles.sum() + n.size <= 1000
        for x in (n, m):
            assert x.dtype == np.int64 and x.shape == n.shape
            assert (x >= 0).all()
        assert (n + m >= 2).all()
        again = _sample_pulses(_pulse_law(src), _block_rng(seed, 9, 0), 1000)
        assert all(np.array_equal(x, y) for x, y in zip(again, (singles, n, m)))
        lossless = EffectiveSource(N=src.N, eta=1.0, eta_prime=1.0, M=M)
        singles, n, m = _sample_pulses(_pulse_law(lossless), _block_rng(seed, 9, 0), 1000)
        assert singles[1] == singles[2] == 0 and np.array_equal(n, m)


class TestPulseLawReference:
    """The pulse law against the sampler's law as it was formed before the pair
    law moved into pairstats.model: split, pulse-kind chances, the chance of arm a
    among one-arm pairs and the photon table, bit for bit, so that no random
    stream moves."""

    # the README source, the CI dim, switch and bright sources, and real-M ones
    NAMED = [
        (0.2, 0.045, 0.045, 16.0),
        (0.95, 0.045, 0.045, 16.0),
        (1.5, 0.6, 0.6, 3.0),
        (1e-3, 0.045, 0.045, 16.0),
        (0.2, 0.045, 0.06, 16.37),
        (0.0845, 0.3, 0.8, 2.718281828459045),
        (1e-6, 1.0, 0.0, 3.5),
    ]

    @staticmethod
    def box():
        rng = np.random.default_rng(39)
        return [
            (10.0 ** rng.uniform(-8.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(0.0, 3.0))
            for _ in range(600)
        ]

    def test_equals_reference_on_the_box(self):
        tables = 0
        for params in self.NAMED + self.box():
            src = EffectiveSource(*map(float, params))
            law = _pulse_law(src)
            split, cells, table = pulse_law_reference(src)
            shares = reaching_pairs_reference(src)[0]
            assert np.array_equal(law.split, split) and np.array_equal(law.cells, cells), src
            assert law.lone_a == shares[1] / (shares[1] + shares[2]), src
            assert (law.table is None) == (table is None), src
            if table is not None:
                tables += 1
                assert all(np.array_equal(got, want) for got, want in zip(law.table, table)), src
        assert tables >= 200

    def test_table_pick_equals_reference(self):
        # the pick through the index table against the binary search it replaced,
        # on every table of the sources above and on lossless tables of one and two
        # cells: at u = 0, the largest u below 1, each cdf[i] / cdf[-1] and its two
        # neighbours, and 10**5 random u; the cells are distinct, so equal photon
        # numbers are equal picks
        rng = np.random.default_rng(41)
        sizes = set()
        for params in self.NAMED + [(1e-19, 1.0, 1.0, 1.0), (1e-10, 1.0, 1.0, 1.0)] + self.box():
            law = _pulse_law(EffectiveSource(*map(float, params)))
            if law.table is None:
                continue
            n, m, cdf = law.table
            sizes.add(cdf.size)
            edges = cdf / cdf[-1]
            u = np.concatenate(
                [[0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), rng.random(10**5)]
            )
            u = u[u < 1.0]
            want = photon_table_pick_reference(cdf, u)
            several = law._replace(cells=np.array([0.0, 1.0, 0.0]))  # every pulse holds several
            singles, got_n, got_m = _sample_pulses(several, FixedUniforms(rng, u), u.size)
            assert np.array_equal(got_n, n[want]) and np.array_equal(got_m, m[want]), params
        assert {1, 2} <= sizes and max(sizes) > 1000

    def test_table_terms_equal_reference_below_the_switch(self):
        # the walk's terms from K = 2, as the table takes them, on 16,000 (M, theta)
        # with real M below 64 and M (M + 1) theta**2 < 2; with M + K rounded once
        # in the pmf ratio, not as (M + K - 1) + 1, 60 of them differ
        rng = np.random.default_rng(39)
        for M in 1.0 + 63.0 * rng.random(400):
            for share in np.linspace(0.02, 1.0, 40, endpoint=False):
                theta = share * math.sqrt(2.0 / (M * (M + 1.0)))
                want = multi_pair_terms_reference(M, theta)
                got = [t for t, _ in islice(_pair_walk(M, theta / (1.0 + theta), 2), want.size)]
                assert np.array_equal(got, want), (M, theta)


class TestSimulateExperiment:
    def test_histogram_totals(self):
        hist = simulate_experiment(small_cfg(pulses=300_001))
        assert int(hist.f.sum()) == 300_001
        assert hist.pulses == 300_001

    def test_deterministic_given_seed(self):
        cfg = small_cfg()
        h1 = simulate_experiment(cfg)
        h2 = simulate_experiment(cfg)
        assert np.array_equal(h1.f, h2.f)

    def test_seed_changes_histogram(self):
        h1 = simulate_experiment(small_cfg(seed=5))
        h2 = simulate_experiment(small_cfg(seed=6))
        assert not np.array_equal(h1.f, h2.f)

    def test_block_boundary_invariance_of_totals(self):
        # totals hold when pulses do not divide the block size
        hist = simulate_experiment(small_cfg(pulses=250_001))
        assert int(hist.f.sum()) == 250_001

    def test_lossless_click_rates_match_closed_form(self):
        cfg = small_cfg(pulses=1_000_000)
        hist = simulate_experiment(cfg)
        rho = joint_distribution(cfg.source, 40)
        resp = response_matrix(uniform_weights(8), 40)
        p = apply_response(rho, resp, resp).p
        for cell in ((1, 1), (2, 2), (0, 0)):
            phat = hist.f[cell] / cfg.pulses
            sigma = np.sqrt(p[cell] * (1 - p[cell]) / cfg.pulses)
            assert abs(phat - p[cell]) <= 5.0 * sigma


class TestCalibration:
    def test_bin_tallies_recover_weights(self):
        raw = np.array([3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 7.0])
        weights = PathWeights(raw / raw.sum())
        cfg = small_cfg(
            source=EffectiveSource(N=0.5, eta=0.2, eta_prime=0.2, M=1.0),
            weights_a=weights,
            weights_b=uniform_weights(8),
            calibration_pulses=500_000,
            calibration_N=5e-3,
        )
        bins_a, bins_b = simulate_calibration(cfg)
        what = bins_a / bins_a.sum()
        total = bins_a.sum()
        for i in range(8):
            sigma = np.sqrt(weights.w[i] * (1 - weights.w[i]) / total)
            assert abs(what[i] - weights.w[i]) <= 5.0 * sigma

    @pytest.mark.parametrize("w", [[1.0], [0.5, 0.5, 0.0], [0.125] * 8, [1.0 / 65] * 65], ids=["B1", "B3-dead", "B8", "B65"])
    @pytest.mark.parametrize("ones", [0, 7])
    def test_bin_occupancy_equals_reference(self, w, ones):
        # the tallies and the stream's state after them against the draw as it
        # stood before it skipped the multinomial of no pulse
        weights = PathWeights(np.array(w) / math.fsum(w))
        for ns in ([], [0, 0], [0, 2, 1, 0, 40, 3]):
            ns = np.array(ns, dtype=np.int64)
            rng, ref = np.random.default_rng(41), np.random.default_rng(41)
            got, want = pipeline._bin_occupancy(ones, ns, weights, rng), bin_occupancy_reference(ones, ns, weights, ref)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state


class TestReadmeStream:
    def test_ci_readme_config_is_pinned(self):
        """CI's README config, 100k pulses at seed 42: its click histogram and both
        calibration totals, as the README random stream gives them.  A deliberate
        change to that stream updates this pin and says so in CHANGES.md."""
        src = EffectiveSource(N=0.2, eta=0.045, eta_prime=0.045, M=16.0)
        report = run_full(ExperimentConfig(source=src, pulses=100_000, seed=42))
        assert not report.failures
        assert report.histogram.f.tolist() == [
            [75727, 10120, 656, 28, 0, 0, 0, 0, 0],
            [10387, 2025, 155, 6, 0, 0, 0, 0, 0],
            [668, 175, 12, 0, 0, 0, 0, 0, 0],
            [34, 6, 1, 0, 0, 0, 0, 0, 0],
        ] + [[0] * 9] * 5
        assert (report.calibration_a.total, report.calibration_b.total) == (723, 690)


# one pulse, one block short by a pulse, one block, two blocks and a part, ten blocks
PULSE_COUNTS = [1, BLOCK_SIZE - 1, BLOCK_SIZE, 2 * BLOCK_SIZE + 7, 10 * BLOCK_SIZE]


def threads_cfg(pulses):
    # about one in 18 of the collection pulses and one in 225 of the calibration
    # pulses hold several pairs, so every full block draws clicks in both stages
    return small_cfg(
        source=EffectiveSource(N=0.2, eta=0.3, eta_prime=0.2, M=4.0),
        pulses=pulses,
        calibration_pulses=pulses,
        calibration_N=0.05,
        seed=11,
    )


def report_files(report) -> dict:
    """The bytes of every file ``report.write`` makes, except ``timings.txt``."""
    with tempfile.TemporaryDirectory() as tmp:
        report.write(tmp)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir() if p.name != "timings.txt"}


@functools.cache
def serial_outputs(pulses):
    """Histogram, calibration tallies and run_full files of the serial block loop."""
    cfg = threads_cfg(pulses)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "simulate_experiment", simulate_experiment_serial)
        mp.setattr(pipeline, "simulate_calibration", simulate_calibration_serial)
        files = report_files(run_full(cfg))
    return simulate_experiment_serial(cfg).f, simulate_calibration_serial(cfg), files


@pytest.fixture(params=[1, 3], ids=["1-thread", "3-threads"])
def pool_threads(request, monkeypatch):
    """Run the pulse blocks on a pool of the given number of threads, however few
    pulses with several pairs a block expects."""
    monkeypatch.setattr(pipeline, "_POOL_MIN_SAMPLED", 0)
    with ThreadPoolExecutor(max_workers=request.param) as pool:
        monkeypatch.setattr(pipeline, "_pool", lambda: (pool, request.param))
        yield request.param


@pytest.fixture
def submitted(monkeypatch):
    """The indices of the blocks submitted to a two-thread pool, in order."""
    indices = []
    with ThreadPoolExecutor(max_workers=2) as pool:

        class Recording:
            def submit(self, fn, index):
                indices.append(index)
                return pool.submit(fn, index)

        monkeypatch.setattr(pipeline, "_pool", lambda: (Recording(), 2))
        yield indices


class TestBlocksOnThreads:
    """Blocks run on a thread pool give the serial loop's results bit for bit."""

    @pytest.mark.parametrize("pulses", PULSE_COUNTS)
    def test_histogram_matches_serial(self, pulses, pool_threads):
        f = simulate_experiment(threads_cfg(pulses)).f
        expected = serial_outputs(pulses)[0]
        assert f.dtype == expected.dtype and np.array_equal(f, expected)

    @pytest.mark.parametrize("pulses", PULSE_COUNTS)
    def test_calibration_matches_serial(self, pulses, pool_threads):
        for bins, expected in zip(simulate_calibration(threads_cfg(pulses)), serial_outputs(pulses)[1]):
            assert bins.dtype == expected.dtype and np.array_equal(bins, expected)

    @pytest.mark.parametrize("pulses", PULSE_COUNTS)
    def test_run_full_files_match_serial(self, pulses, pool_threads):
        assert report_files(run_full(threads_cfg(pulses))) == serial_outputs(pulses)[2]

    def test_blocks_submitted_ahead_are_bounded(self, monkeypatch):
        # however many blocks a run has, at most two per thread wait in the
        # pool, so memory does not grow with the number of pulses; a zero
        # break-even sends these 10-pulse blocks to the pool
        monkeypatch.setattr(pipeline, "BLOCK_SIZE", 10)
        monkeypatch.setattr(pipeline, "_POOL_MIN_SAMPLED", 0)
        submitted = []
        with ThreadPoolExecutor(max_workers=3) as pool:

            class Recording:
                def submit(self, fn, index):
                    submitted.append(index)
                    return pool.submit(fn, index)

            monkeypatch.setattr(pipeline, "_pool", lambda: (Recording(), 3))
            src = threads_cfg(1).source
            ahead, sizes = [], []
            blocks = pipeline._map_blocks(lambda singles, n, m, rng: n.size, src, 1005, 4, 9)
            for done, size in enumerate(blocks):
                ahead.append(len(submitted) - done)
                sizes.append(size)
        assert submitted == list(range(101)) and max(ahead) == 6
        assert sizes == [n.size for _, n, _, _ in pulse_blocks(src, 1005, 4, 9)]

    @pytest.mark.parametrize("pooled", [False, True], ids=["calling-thread", "pool"])
    def test_pool_only_from_break_even(self, pooled, submitted, monkeypatch):
        # blocks expected to draw fewer than _POOL_MIN_SAMPLED pulses with
        # several pairs run on the calling thread, the others on the pool; the
        # histogram is the same
        pulses = 2 * BLOCK_SIZE + 7
        cfg = threads_cfg(pulses)
        sampled = BLOCK_SIZE * _pair_law(cfg.source).cells[1]
        break_even = sampled if pooled else np.nextafter(sampled, math.inf)
        monkeypatch.setattr(pipeline, "_POOL_MIN_SAMPLED", break_even)
        f = simulate_experiment(cfg).f
        assert submitted == ([0, 1, 2] if pooled else [])
        assert np.array_equal(f, serial_outputs(pulses)[0])

    def test_readme_calibration_runs_on_calling_thread(self, submitted):
        # fewer than one of a README calibration block's 250,000 pulses holds
        # several pairs, too few to pay for the pool; at N = 0.45 about 34,000 do
        cfg = small_cfg(
            source=EffectiveSource(N=0.2, eta=0.045, eta_prime=0.045, M=16.0),
            calibration_pulses=1_000_000,
        )
        for bins, expected in zip(simulate_calibration(cfg), simulate_calibration_serial(cfg)):
            assert np.array_equal(bins, expected)
        assert submitted == []
        bright = dataclasses.replace(cfg, calibration_N=0.45)
        for bins, expected in zip(simulate_calibration(bright), simulate_calibration_serial(bright)):
            assert np.array_equal(bins, expected)
        assert submitted == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        ("cpus", "threads"), [(os.cpu_count(), os.cpu_count()), (None, 1)], ids=["known", "unknown"]
    )
    def test_pool_without_affinity_call(self, cpus, threads, monkeypatch):
        # a platform without sched_getaffinity sizes the pool by cpu_count, or
        # at one thread when that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pipeline._pool.cache_clear()
        try:
            pool, count = pipeline._pool()
            pool.shutdown()
            assert count == threads
        finally:
            pipeline._pool.cache_clear()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_makes_its_own_pool(self):
        # a child forked after the pool was made inherits none of its threads,
        # so it must make a pool of its own rather than wait on the old one
        cfg = threads_cfg(2 * BLOCK_SIZE + 7)
        expected = simulate_experiment(cfg).f
        with multiprocessing.get_context("fork").Pool(1) as workers:
            hist = workers.apply_async(simulate_experiment, (cfg,)).get(timeout=60)
        assert np.array_equal(hist.f, expected)

    def test_block_error_reaches_the_stage(self, pool_threads):
        # every block of this source raises; the stage records the error's type
        cfg = small_cfg(source=UNSAMPLEABLE, pulses=2 * BLOCK_SIZE + 7, calibration_pulses=1000)
        assert run_full(cfg).failures == {
            "collection": "ValidationError: pair numbers at N=1e+17, M=1000.0"
            " are too large to sample"
        }


class TestRunFull:
    def test_lossless_recovery_chain(self):
        cfg = small_cfg(
            source=EffectiveSource(N=0.3, eta=1.0, eta_prime=1.0, M=1.0),
            pulses=10_000_000,
        )
        report = run_full(cfg)
        assert not report.failures
        truth = joint_distribution(cfg.source, cfg.n_max)
        tv = 0.5 * np.abs(report.reconstruction.rho.probs - truth.probs).sum()
        assert tv <= 1e-3
        assert report.characterization.M_hat == pytest.approx(1.0, rel=0.05)
        assert report.characterization.eta_hat == pytest.approx(1.0, rel=0.02)

    def test_reproducible_report(self, tmp_path):
        cfg = small_cfg(pulses=100_000, calibration_pulses=100_000)
        r1 = run_full(cfg)
        r2 = run_full(cfg)
        assert np.array_equal(r1.histogram.f, r2.histogram.f)
        assert np.array_equal(
            r1.reconstruction.rho.probs, r2.reconstruction.rho.probs
        )
        d1, d2 = tmp_path / "one", tmp_path / "two"
        r1.write(d1)
        r2.write(d2)
        names = {p.name for p in d1.iterdir()} - {"timings.txt"}
        assert {"histogram.txt", "rho.txt", "summary.txt"} <= names
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_report_directory_contents(self, tmp_path):
        cfg = small_cfg(pulses=100_000, calibration_pulses=100_000)
        run_full(cfg).write(tmp_path / "run")
        assert {p.name for p in (tmp_path / "run").iterdir()} == {*READERS, *OUTPUT_ONLY}
        for name, reader in READERS.items():
            reader((tmp_path / "run" / name).read_text(encoding="ascii"))
        text = (tmp_path / "run" / "config.txt").read_text()
        assert format_config(parse_config(text)) == text == format_config(cfg)

    def test_summary_holds_every_outcome(self, tmp_path):
        report = run_full(small_cfg(pulses=100_000, calibration_pulses=100_000))
        report.write(tmp_path / "run")
        summary = parse_mapping((tmp_path / "run" / "summary.txt").read_text(), "summary")
        expected = {
            "seed": report.config.seed,
            "pulses": report.config.pulses,
            "calibration_mean_photons": 1e-3 * 1.0 * 1.0,
            "calibration_max_rel_stderr": max(
                cal.max_rel_stderr for cal in (report.calibration_a, report.calibration_b)
            ),
            "calibration_total_a": report.calibration_a.total,
            "calibration_total_b": report.calibration_b.total,
            "calibration_weights_a": report.calibration_a.weights.w,
            "calibration_weights_b": report.calibration_b.weights.w,
            **em_record(report.reconstruction),
            **characterization_record(report.characterization),
        }
        assert list(summary) == list(expected)
        assert summary == {k: v if isinstance(v, str) else fmt(v) for k, v in expected.items()}
        trace = report.reconstruction.log_likelihood_trace
        assert float(summary["em_log_likelihood"]) == trace[-1]
        assert summary["status_eta_hat"] == "ok"
        # the whole calibration record: each path's stderr follows exactly
        # from its weight and the arm's total
        for arm in "ab":
            cal = getattr(report, f"calibration_{arm}")
            w = float_list(summary[f"calibration_weights_{arm}"])
            assert np.array_equal(w, cal.weights.w)
            total = int(summary[f"calibration_total_{arm}"])
            assert np.array_equal(np.sqrt(w * (1.0 - w) / total), cal.stderr)

    def test_stage_timings(self, tmp_path):
        report = run_full(small_cfg(pulses=100_000, calibration_pulses=100_000))
        report.write(tmp_path / "run")
        text = (tmp_path / "run" / "timings.txt").read_text()
        timings = {k: float(v) for k, v in (ln.split("=") for ln in text.splitlines())}
        assert set(timings) == {
            "calibration_s",
            "collection_s",
            "reconstruction_s",
            "characterization_s",
            "calibration_pulses_per_s",
            "collection_pulses_per_s",
        }
        assert all(math.isfinite(v) and v > 0.0 for v in timings.values())
        assert timings["collection_pulses_per_s"] == pytest.approx(
            100_000 / timings["collection_s"]
        )

    def test_calibration_quality_in_summary(self, tmp_path):
        report = run_full(small_cfg(pulses=100_000, calibration_pulses=100_000))
        report.write(tmp_path / "run")
        summary = (tmp_path / "run" / "summary.txt").read_text()
        (line,) = [ln for ln in summary.splitlines() if ln.startswith("calibration_max_rel_stderr=")]
        worst = max(
            np.max(cal.stderr / cal.weights.w)
            for cal in (report.calibration_a, report.calibration_b)
        )
        assert float(line.split("=")[1]) == worst

    def test_edge_mass_in_summary(self, tmp_path):
        # the EM mass on the last row and column of rho: tiny for the README
        # source, large for a bright source cut at n_max = 8
        readme = ExperimentConfig(
            source=EffectiveSource(N=0.2, eta=0.045, eta_prime=0.045, M=16.0),
            pulses=1_000_000,
            seed=42,
        )
        bright = small_cfg(source=EffectiveSource(N=2.0, eta=0.9, eta_prime=0.9, M=2.0))
        edge = {}
        for name, cfg in (("readme", readme), ("bright", bright)):
            report = run_full(cfg)
            report.write(tmp_path / name)
            summary = parse_mapping((tmp_path / name / "summary.txt").read_text(), "summary")
            edge[name] = float(summary["em_edge_mass"])
            rho = report.reconstruction.rho.probs
            assert edge[name] == pytest.approx(rho[-1].sum() + rho[:, -1].sum() - rho[-1, -1])
        assert 0.0 <= edge["readme"] <= 1e-6
        assert edge["bright"] >= 1e-2

    def test_partial_report_on_calibration_failure(self, tmp_path):
        # essentially no calibration photons: calibration stage fails but the
        # histogram is still collected and reported
        cfg = small_cfg(
            pulses=50_000, calibration_pulses=1, calibration_N=1e-300
        )
        report = run_full(cfg)
        assert "calibration" in report.failures
        assert report.reconstruction is None
        assert report.histogram is not None
        report.write(tmp_path / "partial")
        summary = (tmp_path / "partial" / "summary.txt").read_text()
        assert "failed_calibration=" in summary
        assert "calibration_mean_photons=1e-300\n" in summary

    def test_dead_path_fails_calibration(self, tmp_path):
        # path 1 has zero weight, so it never clicks whatever the seed;
        # calibrate names it before any response is built
        dead = PathWeights([0.5, 0.0, 0.5])
        cfg = ExperimentConfig(
            source=EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0),
            pulses=20_000,
            seed=3,
            calibration_pulses=200_000,
            calibration_N=1e-3,
            weights_a=dead,
            weights_b=dead,
            n_max=6,
        )
        bins_a, bins_b = simulate_calibration(cfg)
        assert bins_a[1] == bins_b[1] == 0 < min(bins_a[0], bins_a[2], bins_b[0], bins_b[2])
        report = run_full(cfg)
        assert report.failures == {
            "calibration": "DegenerateInputError: calibration paths [1] never clicked"
        }
        assert report.response_a is None and report.reconstruction is None
        report.write(tmp_path / "run")
        summary = parse_mapping((tmp_path / "run" / "summary.txt").read_text(), "summary")
        assert "calibration_max_rel_stderr" not in summary
        assert summary["failed_calibration"] == report.failures["calibration"]
        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert names == {"config.txt", "histogram.txt", "summary.txt", "timings.txt"}

    def test_reused_directory_holds_no_stale_artifact(self, tmp_path):
        # a failed run into a good run's directory must not leave the good
        # run's responses and rho behind for reconstruct and analyze to read
        run = tmp_path / "run"
        run_full(small_cfg(pulses=50_000, calibration_pulses=100_000)).write(run)
        assert {"response_a.txt", "response_b.txt", "rho.txt"} <= {p.name for p in run.iterdir()}
        failed = run_full(small_cfg(pulses=50_000, calibration_pulses=1, calibration_N=1e-300))
        failed.write(run)
        summary = parse_mapping((run / "summary.txt").read_text(), "summary")
        assert summary["failed_calibration"].startswith("DegenerateInputError: ")
        names = {"config.txt", "histogram.txt", "summary.txt", "timings.txt"}
        assert {p.name for p in run.iterdir()} == names
        again = parse_histogram((run / "histogram.txt").read_text())
        assert np.array_equal(again.f, failed.histogram.f)
        dataclasses.replace(failed, histogram=None).write(run)
        assert {p.name for p in run.iterdir()} == names - {"histogram.txt"}

    def test_no_rate_for_failed_stage(self, tmp_path):
        cfg = small_cfg(source=UNSAMPLEABLE, pulses=50_000, calibration_pulses=50_000)
        report = run_full(cfg)
        assert report.failures == {
            "collection": "ValidationError: pair numbers at N=1e+17, M=1000.0"
            " are too large to sample"
        }
        report.write(tmp_path / "run")
        stored = parse_mapping((tmp_path / "run" / "timings.txt").read_text(), "timings")
        for keys in (report.timings, stored):
            assert list(keys) == ["calibration_s", "collection_s", "calibration_pulses_per_s"]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        N=st.sampled_from([1e-9, 50.0]),
        eta=st.sampled_from([0.0, 0.05, 1.0]),
        M=st.sampled_from([1.0, 300.0]),
        B=st.sampled_from([1, 8]),
        pulses=st.sampled_from([1, 1000]),
        n_max=st.sampled_from([1, 8]),
    )
    def test_corners_fail_only_by_typed_stage_failures(self, N, eta, M, B, pulses, n_max):
        # a sample of the corners of the config box, not their full product
        cfg = small_cfg(
            source=EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M),
            pulses=pulses,
            weights_a=uniform_weights(B),
            weights_b=uniform_weights(B),
            n_max=n_max,
        )
        report = run_full(cfg)
        for stage, message in report.failures.items():
            assert stage in STAGE_CALLEES
            assert message.split(":")[0] in ERROR_CLASSES, message
            assert all(getattr(report, name) is None for name in FAILED_FIELDS[stage]), stage
        with tempfile.TemporaryDirectory() as out:
            report.write(out)
            summary = parse_mapping(Path(out, "summary.txt").read_text(), "summary")
        failed = {k[len("failed_") :]: v for k, v in summary.items() if k.startswith("failed_")}
        assert failed == report.failures

    @pytest.mark.parametrize("stage", list(STAGE_CALLEES))
    def test_every_stage_fails_the_same_way(self, stage, monkeypatch, tmp_path):
        def boom(*args, **kwargs):
            raise DegenerateInputError("boom")

        monkeypatch.setattr(pipeline, STAGE_CALLEES[stage], boom)
        replicas = 1 if stage == "bootstrap" else 0
        cfg = small_cfg(pulses=50_000, calibration_pulses=50_000, bootstrap_replicas=replicas)
        report = run_full(cfg)
        assert report.failures == {stage: "DegenerateInputError: boom"}
        assert f"{stage}_s" in report.timings
        for name in FAILED_FIELDS["calibration"] | FAILED_FIELDS["collection"]:
            assert (getattr(report, name) is None) == (name in FAILED_FIELDS[stage]), name
        report.write(tmp_path / "run")
        summary = parse_mapping((tmp_path / "run" / "summary.txt").read_text(), "summary")
        assert summary[f"failed_{stage}"] == "DegenerateInputError: boom"

    def test_stage_callees_looked_up_at_call_time(self, monkeypatch):
        # perfbench's traced runs wrap these pipeline globals; each stage must
        # call them through the module so the wrappers see every call
        calls = Counter()
        for name in (*STAGE_CALLEES.values(), "calibrate", "response_matrix"):

            def counted(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        report = run_full(small_cfg(pulses=50_000, calibration_pulses=50_000, bootstrap_replicas=2))
        assert not report.failures
        assert calls == {
            "simulate_calibration": 1,
            "calibrate": 2,
            "response_matrix": 2,
            "simulate_experiment": 1,
            "em_reconstruct": 1 + 2,
            "characterize": 1 + 2,
            "bootstrap_characterize": 1,
        }

    def test_failed_replica_fails_the_bootstrap(self, monkeypatch, tmp_path):
        fits = []

        def third_fit_fails(*args, **kwargs):
            fits.append(None)
            if len(fits) == 3:  # the main fit, then replicas 1 and 2
                raise SupportError("boom")
            return em_reconstruct(*args, **kwargs)

        monkeypatch.setattr(pipeline, "em_reconstruct", third_fit_fails)
        cfg = small_cfg(pulses=100_000, calibration_pulses=100_000, bootstrap_replicas=3)
        report = run_full(cfg)
        assert len(fits) == 3
        assert report.failures == {"bootstrap": "SupportError: boom"}
        assert report.bootstrap is None
        report.write(tmp_path / "run")
        summary = parse_mapping((tmp_path / "run" / "summary.txt").read_text(), "summary")
        assert summary["failed_bootstrap"] == "SupportError: boom"
        assert not any(key.startswith("bootstrap_std_") for key in summary)
        assert (tmp_path / "run" / "rho.txt").exists()

    def test_bootstrap_spread_covers_truth(self):
        cfg = small_cfg(pulses=400_000, bootstrap_replicas=8)
        report = run_full(cfg)
        assert report.bootstrap is not None
        eta_samples = report.bootstrap["eta_hat"]
        assert np.isfinite(eta_samples).all()
        assert eta_samples.std(ddof=1) < 0.05
        assert report.timings["bootstrap_s"] > 0.0

    def test_bootstrap_spread_needs_two_finite_replicas(self, tmp_path):
        report = run_full(
            small_cfg(pulses=100_000, calibration_pulses=100_000, bootstrap_replicas=1)
        )
        assert all(vals.size == 1 for vals in report.bootstrap.values())
        one_finite = {name: np.array([0.5, math.nan]) for name in report.bootstrap}
        no_finite = {name: np.full(2, math.nan) for name in report.bootstrap}
        for i, boot in enumerate((report.bootstrap, one_finite, no_finite)):
            dataclasses.replace(report, bootstrap=boot).write(tmp_path / str(i))
            summary = parse_mapping((tmp_path / str(i) / "summary.txt").read_text(), "summary")
            spread = {k: v for k, v in summary.items() if k.startswith("bootstrap_std_")}
            assert spread == {f"bootstrap_std_{name}": "nan" for name in report.bootstrap}


class TestBootstrapStandalone:
    def test_replica_arrays(self):
        cfg = small_cfg(pulses=200_000)
        hist = simulate_experiment(cfg)
        resp = response_matrix(uniform_weights(8), cfg.n_max)
        boot = bootstrap_characterize(hist, resp, resp, cfg.n_max, replicas=5, seed=1)
        assert set(boot) >= {"M_hat", "eta_hat", "eps2", "eps4"}
        assert all(len(v) == 5 for v in boot.values())

    def test_unreachable_cell_raises(self):
        # three clicks need the dead third path, so a replica that sees them
        # cannot be fitted; its error propagates instead of becoming NaN
        resp = response_matrix(PathWeights([0.5, 0.5, 0.0]), 4)
        f = np.zeros((4, 4), dtype=np.int64)
        f[0, 0], f[3, 0] = 95, 5
        hist = ClickHistogram(f=f, pulses=100)
        with pytest.raises(SupportError):
            bootstrap_characterize(hist, resp, resp, 4, replicas=3)

    @pytest.mark.parametrize(
        "bad",
        [
            {"replicas": -1},
            {"n_max": 8.5},
            {"replicas": 1.5},
            {"seed": 1.5},
            {"seed": -1},
            {"seed": 2**64},
            {"replicas": True},
            {"n_max": 0},  # below the largest observed click number
        ],
    )
    def test_bad_arguments_raise_before_any_replica(self, bad):
        f = np.zeros((9, 9), dtype=np.int64)
        f[0, 0], f[1, 1] = 90, 10
        hist = ClickHistogram(f=f, pulses=100)
        resp = response_matrix(uniform_weights(8), 8)
        (name,) = bad
        with pytest.raises(ValidationError, match=name):
            bootstrap_characterize(hist, resp, resp, **{"n_max": 8, "replicas": 3, **bad})
