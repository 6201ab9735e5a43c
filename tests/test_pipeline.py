import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from pairstats import pipeline
from pairstats._fileio import float_list, fmt, parse_mapping
from pairstats.analysis import characterization_record, characterize
from pairstats.errors import DegenerateInputError, SupportError, ValidationError
from pairstats.loop_detector import (
    PathWeights,
    apply_response,
    parse_response,
    response_matrix,
    uniform_weights,
)
from pairstats.model import EffectiveSource, joint_distribution, parse_distribution
from pairstats.pipeline import (
    ExperimentConfig,
    RunReport,
    bootstrap_characterize,
    format_config,
    parse_config,
    run_full,
    simulate_calibration,
    simulate_experiment,
    _block_rng,
    _pulse_blocks,
    _sample_pulses,
)
from pairstats.reconstruction import ClickHistogram, em_reconstruct, em_record, parse_histogram


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


def max_law_z(src: EffectiveSource) -> float:
    """Largest per-cell z of 10M sampled pulses against the model.

    Only cells with expected count >= 100, where the Gaussian error band is
    meaningful, enter the multinomial z-test.  The pulses the sampler leaves
    out are empty and count in cell (0, 0).
    """
    pulses = 10_000_000
    counts = np.zeros(22 * 22)
    for block in range(5):
        n, m = _sample_pulses(src, _block_rng(3, 9, block), pulses // 5)
        counts += np.bincount(np.minimum(n, 21) * 22 + np.minimum(m, 21), minlength=22 * 22)
        counts[0] += pulses // 5 - len(n)
    counts = counts.reshape(22, 22)
    n_max = 20
    ana = joint_distribution(src, n_max).probs
    expected = ana * pulses
    keep = expected >= 100.0
    sigma = np.sqrt(expected * (1.0 - ana))
    z = (counts[: n_max + 1, : n_max + 1] - expected)[keep] / sigma[keep]
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
        ["pulses", "seed", "calibration_pulses", "n_max", "em_max_iter", "bootstrap_replicas"],
    )
    def test_non_integer_counts_rejected(self, name):
        with pytest.raises(ValidationError, match=name):
            small_cfg(**{name: 2.5})

    def test_numpy_integers_accepted(self):
        cfg = small_cfg(pulses=np.int64(1000), seed=np.uint64(7), n_max=np.int32(6))
        assert (cfg.pulses, cfg.seed, cfg.n_max) == (1000, 7, 6)
        assert all(type(v) is int for v in (cfg.pulses, cfg.seed, cfg.n_max))

    @pytest.mark.parametrize(
        ("value", "name"),
        [(v, "calibration_N") for v in (np.nan, np.inf, 0.0, -1e-3)]
        + [(v, "em_tol") for v in (np.nan, np.inf, -1e-3)],
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

    def test_zero_em_tol_accepted(self):
        # em_reconstruct's rule: tol = 0 runs to the iteration budget
        assert small_cfg(em_tol=0.0).em_tol == 0.0

    @pytest.mark.parametrize("value", [0, -3])
    def test_em_max_iter_below_one_rejected(self, value):
        with pytest.raises(ValidationError, match="em_max_iter"):
            small_cfg(em_max_iter=value)

    def test_mismatched_arms_rejected(self):
        with pytest.raises(ValidationError):
            small_cfg(weights_a=uniform_weights(8), weights_b=uniform_weights(4))

    def test_round_trip(self):
        cfg = small_cfg(
            source=EffectiveSource(N=0.21, eta=0.045, eta_prime=0.05, M=16.0),
            seed=123456789,
            em_tol=1e-12,
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
            "em_tol",
            "em_max_iter",
            "bootstrap_replicas",
        ):
            assert getattr(again, name) == getattr(cfg, name)

    def test_format_is_pinned(self):
        cfg = small_cfg(
            source=EffectiveSource(N=0.2, eta=0.3, eta_prime=0.35, M=4.0),
            weights_a=PathWeights([0.25, 0.75]),
            weights_b=PathWeights([0.5, 0.5]),
            em_tol=1e-12,
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
            "em_tol=9.9999999999999998e-13\n"
            "em_max_iter=100000\n"
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


class TestSamplePulse:
    def test_near_vacuum(self):
        src = EffectiveSource(N=1e-9, eta=0.9, eta_prime=0.9, M=2.0)
        rng = _block_rng(1, 9, 0)
        n, m = _sample_pulses(src, rng, 200)
        assert n.size == m.size == 0

    def test_lossless_pairs_stay_matched(self):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0)
        n, m = _sample_pulses(src, _block_rng(2, 9, 0), 50_000)
        assert np.array_equal(n, m)

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
        ],
        ids=["readme", "arm-a-only", "arm-b-only", "lossless", "bright-unbalanced"],
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
        kept = sum(n.size for n, _, _ in _pulse_blocks(src, pulses, 7, 9))
        share = -math.expm1(-M * math.log1p(N * (2.0 * eta - eta * eta)))
        assert abs(kept - pulses * share) <= 4.0 * math.sqrt(pulses * share * (1.0 - share))

    @pytest.mark.parametrize("N, M", [(5.0, 50.0), (1e-3, 16.0)], ids=["bright", "faint"])
    def test_reaching_pair_law_past_window(self, N, M):
        # lossless arms give n = m = K, the pair number of a non-empty pulse,
        # whose law is the zero-truncated NegBin(M, 1/(1 + N)); every K is
        # z-tested, past the 21 x 21 window of max_law_z
        src = EffectiveSource(N=N, eta=1.0, eta_prime=1.0, M=M)
        counts = np.zeros(0)
        for n, m, _ in _pulse_blocks(src, 10_000_000, 8, 9):
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

    def test_dark_arms_give_empty_pulses(self):
        src = EffectiveSource(N=1.0, eta=0.0, eta_prime=0.0, M=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = _sample_pulses(src, _block_rng(6, 9, 0), 1000)
        for x in draws:
            assert x.dtype == np.int64 and x.shape == (0,)

    def test_unsampleable_intensity_rejected(self):
        src = EffectiveSource(N=1e17, eta=0.5, eta_prime=0.5, M=1000.0)
        with pytest.raises(ValidationError, match="too large to sample"):
            _sample_pulses(src, _block_rng(0, 9, 0), 1)

    def test_large_M_moments(self):
        # mean M N eta and variance M N eta (1 + N eta), each within 5
        # standard errors; the standard error of the variance uses the
        # sample's fourth central moment
        src = EffectiveSource(N=0.5, eta=0.3, eta_prime=0.3, M=1000.0)
        pulses = 250_000
        mean = src.M * src.N * src.eta
        var = mean * (1.0 + src.N * src.eta)
        for x in _sample_pulses(src, _block_rng(4, 9, 0), pulses):
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
            _sample_pulses(src, _block_rng(4, 9, 1), pulses)
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
        n, m = _sample_pulses(src, _block_rng(seed, 9, 0), 1000)
        for x in (n, m):
            assert x.dtype == np.int64 and x.shape == n.shape and x.size <= 1000
            assert (x >= 0).all()
        assert (n + m >= 1).all()
        again = _sample_pulses(src, _block_rng(seed, 9, 0), 1000)
        assert np.array_equal(again[0], n) and np.array_equal(again[1], m)
        lossless = EffectiveSource(N=src.N, eta=1.0, eta_prime=1.0, M=M)
        n, m = _sample_pulses(lossless, _block_rng(seed, 9, 0), 1000)
        assert np.array_equal(n, m)


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


class TestRunFull:
    def test_lossless_recovery_chain(self):
        cfg = small_cfg(
            source=EffectiveSource(N=0.3, eta=1.0, eta_prime=1.0, M=1.0),
            pulses=10_000_000,
            em_tol=1e-13,
            em_max_iter=50_000,
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
        # the few calibration photons all land in path 0, so the second path
        # never clicks; calibrate names it before any response is built
        two = PathWeights([0.5, 0.5])
        cfg = ExperimentConfig(
            source=EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0),
            pulses=20_000,
            seed=3,
            calibration_pulses=2000,
            calibration_N=1e-3,
            weights_a=two,
            weights_b=two,
            n_max=6,
        )
        bins_a, bins_b = simulate_calibration(cfg)
        assert bins_a[1] == bins_b[1] == 0 < min(bins_a[0], bins_b[0])
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
        cfg = small_cfg(pulses=400_000, bootstrap_replicas=8, em_tol=1e-12)
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
            {"tol": float("nan")},
            {"max_iter": 0},
            {"replicas": -1},
            {"n_max": 8.5},
            {"max_iter": 2.5},
            {"replicas": 1.5},
            {"seed": 1.5},
            {"seed": -1},
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
