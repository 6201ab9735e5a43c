import numpy as np
import pytest

from pairstats.analysis import characterize
from pairstats.errors import ValidationError
from pairstats.loop_detector import (
    PathWeights,
    apply_response,
    response_matrix,
    uniform_weights,
)
from pairstats.model import EffectiveSource, joint_distribution
from pairstats.pipeline import (
    ExperimentConfig,
    bootstrap_characterize,
    format_config,
    parse_config,
    run_full,
    sample_pulse,
    simulate_calibration,
    simulate_experiment,
    _block_rng,
    _sample_pulses,
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


class TestConfig:
    def test_zero_pulses_rejected(self):
        with pytest.raises(ValidationError):
            small_cfg(pulses=0)

    def test_fractional_modes_rejected(self):
        with pytest.raises(ValidationError):
            small_cfg(source=EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=1.5))

    def test_hot_calibration_warns(self):
        with pytest.warns(UserWarning, match="calibration"):
            small_cfg(calibration_N=0.5)

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

    @pytest.mark.parametrize("name", ["calibration_N", "em_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e-3])
    def test_non_finite_or_nonpositive_rates_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            small_cfg(**{name: value})

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


class TestSamplePulse:
    def test_near_vacuum(self):
        src = EffectiveSource(N=1e-9, eta=0.9, eta_prime=0.9, M=2.0)
        rng = _block_rng(1, 9, 0)
        draws = [sample_pulse(src, rng) for _ in range(200)]
        assert all(d == (0, 0) for d in draws)

    def test_lossless_pairs_stay_matched(self):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0)
        n, m = _sample_pulses(src, _block_rng(2, 9, 0), 50_000)
        assert np.array_equal(n, m)

    def test_empirical_law_matches_model(self):
        # per-cell multinomial z-test (cells with expected count >= 100, where
        # the Gaussian error band is meaningful)
        src = EffectiveSource(N=1.0, eta=0.5, eta_prime=0.7, M=2.0)
        pulses = 10_000_000
        counts = np.zeros((22, 22))
        for block in range(5):
            n, m = _sample_pulses(src, _block_rng(3, 9, block), pulses // 5)
            np.add.at(counts, (np.minimum(n, 21), np.minimum(m, 21)), 1)
        n_max = 20
        ana = joint_distribution(src, n_max).probs
        expected = ana * pulses
        keep = expected >= 100.0
        sigma = np.sqrt(expected * (1.0 - ana))
        z = (counts[: n_max + 1, : n_max + 1] - expected)[keep] / sigma[keep]
        assert np.abs(z).max() <= 4.0

    def test_fractional_modes_rejected(self):
        src = EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=2.5)
        with pytest.raises(ValidationError):
            sample_pulse(src, _block_rng(0, 9, 0))


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
        for name in ("histogram.txt", "rho.txt", "characterization.txt", "summary.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_report_directory_contents(self, tmp_path):
        report = run_full(small_cfg(pulses=100_000, calibration_pulses=100_000))
        report.write(tmp_path / "run")
        expected = {
            "config.txt",
            "histogram.txt",
            "calibration_a.txt",
            "calibration_b.txt",
            "response_a.txt",
            "response_b.txt",
            "rho.txt",
            "reconstruction_report.txt",
            "characterization.txt",
            "summary.txt",
        }
        assert {p.name for p in (tmp_path / "run").iterdir()} == expected

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

    def test_bootstrap_spread_covers_truth(self):
        cfg = small_cfg(pulses=400_000, bootstrap_replicas=8, em_tol=1e-12)
        report = run_full(cfg)
        assert report.bootstrap is not None
        eta_samples = report.bootstrap["eta_hat"]
        assert np.isfinite(eta_samples).all()
        assert eta_samples.std(ddof=1) < 0.05


class TestBootstrapStandalone:
    def test_replica_arrays(self):
        cfg = small_cfg(pulses=200_000)
        hist = simulate_experiment(cfg)
        resp = response_matrix(uniform_weights(8), cfg.n_max)
        boot = bootstrap_characterize(hist, resp, resp, cfg.n_max, replicas=5, seed=1)
        assert set(boot) >= {"M_hat", "eta_hat", "eps2", "eps4"}
        assert all(len(v) == 5 for v in boot.values())
