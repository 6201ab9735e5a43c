import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstats._fileio import fmt
from pairstats.errors import SupportError, ValidationError
from pairstats.loop_detector import (
    PathWeights,
    apply_response,
    response_matrix,
    uniform_weights,
)
from pairstats.model import EffectiveSource, JointDistribution, joint_distribution, suggest_n_max
from pairstats.pipeline import ExperimentConfig, run_full
from pairstats.reconstruction import (
    ClickHistogram,
    ReconstructionResult,
    em_reconstruct,
    em_record,
    format_histogram,
    log_likelihood,
    parse_histogram,
)

RESP8 = response_matrix(uniform_weights(8), 3)

# strictly positive truth on a 4x4 grid, exactly representable counts
RHO_STAR = (
    np.array(
        [[10, 6, 2, 1], [6, 8, 3, 1], [2, 3, 6, 2], [1, 1, 2, 10]], dtype=float
    )
    / 64.0
)


def exact_histogram(rho_probs, resp, scale):
    """Counts exactly proportional to the model click probabilities."""
    rho = JointDistribution(rho_probs, rho_probs.shape[0] - 1, 0.0)
    p = apply_response(rho, resp, resp).p
    f = np.rint(p * scale)
    assert np.abs(f - p * scale).max() < 1e-3  # the scale makes counts integral
    return ClickHistogram(f=f.astype(np.int64), pulses=int(f.sum()))


def plain_em(hist, resp_a, resp_b, n_max, tol, max_iter, init=None):
    """The unaccelerated multiplicative EM loop, as reference for em_reconstruct.

    Returns (rho, final LL, plain steps taken, converged) under the same stop
    rule: a step gaining less than tol * max(1, |LL|).
    """
    Pa, Pb = resp_a.P[:, : n_max + 1], resp_b.P[:, : n_max + 1]
    mask = hist.f > 0
    freqs = hist.f / hist.f.sum()
    rho = np.full((n_max + 1,) * 2, (n_max + 1) ** -2.0) if init is None else init
    p = Pa @ rho @ Pb.T
    ll = math.fsum(hist.f[mask] * np.log(p[mask]))
    for steps in range(1, max_iter + 1):
        ratio = np.zeros_like(p)
        ratio[mask] = freqs[mask] / p[mask]
        rho = rho * (Pa.T @ ratio @ Pb)
        p = Pa @ rho @ Pb.T
        prev, ll = ll, math.fsum(hist.f[mask] * np.log(p[mask]))
        if ll - prev < tol * max(1.0, abs(ll)):
            return rho, ll, steps, True
    return rho, ll, max_iter, False


def random_instances(count, seed=77):
    """Histograms of 100k pulses drawn from random truths on the 4x4 grid."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        raw = rng.random((4, 4))
        rho = JointDistribution(raw / raw.sum(), 3, 0.0)
        p = apply_response(rho, RESP8, RESP8).p
        f = rng.multinomial(100_000, p.ravel() / p.sum()).reshape(9, 9)
        yield ClickHistogram(f, 100_000)


class TestClickHistogram:
    def test_counts_validated(self):
        with pytest.raises(ValidationError):
            ClickHistogram(f=np.array([[1, -2], [0, 0]]), pulses=10)

    def test_counts_cannot_exceed_pulses(self):
        with pytest.raises(ValidationError):
            ClickHistogram(f=np.array([[5, 0], [0, 6]]), pulses=10)

    def test_square_required(self):
        with pytest.raises(ValidationError):
            ClickHistogram(f=np.zeros((2, 3), dtype=int), pulses=10)

    @pytest.mark.parametrize(
        "f",
        [[[math.inf, 0], [0, 0]], [[2.0**63, 0], [0, 0]], [[1e300, 0], [0, 0]],
         np.array([[2**62, 2**62], [2**62, 2**62]], dtype=np.int64)],
        ids=["inf", "2^63", "1e300", "int64-sum-wraps"],
    )
    def test_unrepresentable_counts_rejected(self, f):
        with pytest.raises(ValidationError, match="counts"):
            ClickHistogram(f=f, pulses=10)

    @pytest.mark.parametrize("pulses", [10.5, 10.0, math.inf, math.nan])
    def test_non_integer_pulses_rejected(self, pulses):
        with pytest.raises(ValidationError, match="pulses"):
            ClickHistogram(f=np.zeros((2, 2)), pulses=pulses)

    def test_pulses_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="pulses"):
            ClickHistogram(f=np.zeros((2, 2)), pulses=2**63)


class TestLogLikelihood:
    def test_vacuum_data_vacuum_model(self):
        f = np.zeros((9, 9), dtype=np.int64)
        f[0, 0] = 1000
        hist = ClickHistogram(f, 1000)
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        rho = JointDistribution(vac, 3, 0.0)
        assert log_likelihood(hist, rho, RESP8, RESP8) == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        rho = JointDistribution(RHO_STAR, 3, 0.0)
        p = apply_response(rho, RESP8, RESP8).p
        f = rng.multinomial(50_000, p.ravel() / p.sum()).reshape(9, 9)
        hist = ClickHistogram(f, 50_000)
        direct = math.fsum(
            f[k, l] * math.log(p[k, l])
            for k in range(9)
            for l in range(9)
            if f[k, l] > 0
        )
        assert log_likelihood(hist, rho, RESP8, RESP8) == pytest.approx(
            direct, abs=1e-9
        )

    def test_truth_beats_perturbation_on_large_sample(self):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        rho = JointDistribution(RHO_STAR, 3, 0.0)
        bumped = RHO_STAR.copy()
        bumped[0, 0] += 0.02
        bumped[3, 3] -= 0.02
        rho_pert = JointDistribution(bumped, 3, 0.0)
        assert log_likelihood(hist, rho, RESP8, RESP8) > log_likelihood(
            hist, rho_pert, RESP8, RESP8
        )

    def test_equals_final_em_trace_entry(self):
        # both evaluate the observed cells through one code path, so they agree
        # bit for bit on a README run and on an exact-law bright source
        readme = run_full(
            ExperimentConfig(
                source=EffectiveSource(N=0.2, eta=0.045, eta_prime=0.045, M=16.0),
                pulses=1_000_000,
                seed=42,
            )
        )
        cases = [(readme.histogram, readme.response_a, readme.response_b, 8)]
        rng = np.random.default_rng(9)
        src = EffectiveSource(N=1.5, eta=0.4, eta_prime=0.4, M=3.0)
        n_max = suggest_n_max(src, 1e-12)
        ra, rb = (
            response_matrix(PathWeights(w / w.sum()), n_max)
            for w in 1.0 + 0.1 * (rng.random((2, 8)) - 0.5)
        )
        clicks = apply_response(joint_distribution(src, n_max), ra, rb)
        counts = rng.multinomial(100_000_000, np.append(clicks.p.ravel(), clicks.deficit))
        bright = ClickHistogram(f=counts[:-1].reshape(9, 9), pulses=100_000_000)
        cases += [(bright, ra, rb, 8), (bright, ra, rb, 12)]
        for hist, resp_a, resp_b, fit_n_max in cases:
            fit = em_reconstruct(hist, resp_a, resp_b, fit_n_max)
            got = log_likelihood(hist, fit.rho, resp_a, resp_b)
            assert got == fit.log_likelihood_trace[-1]

    def test_support_error(self):
        f = np.zeros((9, 9), dtype=np.int64)
        f[5, 0] = 10  # five clicks need n >= 5, model truncated at 3
        hist = ClickHistogram(f, 10)
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        rho = JointDistribution(vac, 3, 0.0)
        with pytest.raises(SupportError):
            log_likelihood(hist, rho, RESP8, RESP8)


class TestEmReconstruct:
    def test_noiseless_recovery(self):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        result = em_reconstruct(hist, RESP8, RESP8, 3, tol=0.0, max_iter=10_000)
        tv = 0.5 * np.abs(result.rho.probs - RHO_STAR).sum()
        assert tv <= 1e-6

    def test_all_vacuum_histogram(self):
        f = np.zeros((9, 9), dtype=np.int64)
        f[0, 0] = 5000
        hist = ClickHistogram(f, 5000)
        result = em_reconstruct(hist, RESP8, RESP8, 3, tol=1e-12)
        assert result.rho.probs[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_clicks_no_photon_number_can_give_raise_support_error(self):
        # a dead third path: no n gives three clicks, yet three were seen
        resp = response_matrix(PathWeights([0.5, 0.5, 0.0]), 4)
        f = np.zeros((4, 4), dtype=np.int64)
        f[3, 0], f[0, 0] = 5, 95
        with pytest.raises(SupportError, match="zero model probability"):
            em_reconstruct(ClickHistogram(f, 100), resp, resp, 4)

    def test_monotone_likelihood_random_instances(self):
        for hist in random_instances(10):
            result = em_reconstruct(hist, RESP8, RESP8, 3, tol=0.0, max_iter=300)
            gains = np.diff(result.log_likelihood_trace)
            assert gains.min() >= -1e-10

    def test_fixed_point_invariance(self):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        init = JointDistribution(RHO_STAR, 3, 0.0)
        result = em_reconstruct(hist, RESP8, RESP8, 3, tol=0.0, max_iter=1, init=init)
        assert np.abs(result.rho.probs - RHO_STAR).max() <= 1e-12

    def test_normalization_every_iteration(self):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        for iters in (1, 3, 10, 100):
            result = em_reconstruct(hist, RESP8, RESP8, 3, tol=0.0, max_iter=iters)
            assert result.rho.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_not_converged_flag(self):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        result = em_reconstruct(hist, RESP8, RESP8, 3, tol=0.0, max_iter=5)
        assert not result.converged
        assert result.iterations == 5

    def test_final_likelihood_matches_plain_em(self):
        hists = [exact_histogram(RHO_STAR, RESP8, 4194304 * 64), *random_instances(10)]
        for hist in hists:
            result = em_reconstruct(hist, RESP8, RESP8, 3, tol=0.0, max_iter=10_000)
            _, ll, _, _ = plain_em(hist, RESP8, RESP8, 3, tol=0.0, max_iter=10_000)
            assert result.log_likelihood_trace[-1] == pytest.approx(ll, rel=1e-9)

    def test_forward_evaluations_on_exact_histogram(self):
        # deterministic counts: plain EM needs 69 steps, one evaluation each
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        result = em_reconstruct(hist, RESP8, RESP8, 3, tol=1e-10)
        _, _, steps, converged = plain_em(hist, RESP8, RESP8, 3, 1e-10, 100_000)
        assert result.converged and converged
        assert steps == 69
        assert result.iterations <= 45

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        with pytest.raises(ValidationError, match="tol"):
            em_reconstruct(hist, RESP8, RESP8, 3, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5])
    def test_bad_max_iter_rejected(self, max_iter):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        with pytest.raises(ValidationError, match="max_iter"):
            em_reconstruct(hist, RESP8, RESP8, 3, max_iter=max_iter)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        B=st.integers(1, 6),
        extra=st.integers(0, 3),
        pulses=st.sampled_from([50, 2_000, 100_000]),
        tol=st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6]),
        max_iter=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_properties_on_random_instances(self, B, extra, pulses, tol, max_iter, seed):
        rng = np.random.default_rng(seed)
        n_max = B + extra
        w = rng.random(B) + 0.05
        resp_a = response_matrix(PathWeights(w / w.sum()), n_max)
        resp_b = response_matrix(uniform_weights(B), n_max)
        truth = rng.random((n_max + 1, n_max + 1)) ** 4  # some cells nearly empty
        p = apply_response(JointDistribution(truth / truth.sum(), n_max, 0.0), resp_a, resp_b).p
        f = rng.multinomial(pulses, p.ravel() / p.sum()).reshape(p.shape)
        hist = ClickHistogram(f, pulses)

        result = em_reconstruct(hist, resp_a, resp_b, n_max, tol=tol, max_iter=max_iter)
        trace = np.array(result.log_likelihood_trace)
        ll = trace[-1]
        rounding = 1e-10 + 4.0 * np.spacing(np.abs(trace).max())
        assert np.diff(trace).min(initial=0.0) >= -rounding
        assert result.rho.probs.min() >= 0.0
        assert result.rho.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert 1 <= result.iterations <= max_iter
        if result.converged:
            _, ll_next, _, _ = plain_em(
                hist, resp_a, resp_b, n_max, 0.0, 1, init=result.rho.probs
            )
            assert ll_next - ll < tol * max(1.0, abs(ll)) + rounding
        # plain EM continued from the fit climbs, but never past the bound
        _, ll_long, _, _ = plain_em(
            hist, resp_a, resp_b, n_max, -math.inf, 3_000, init=result.rho.probs
        )
        assert -rounding <= ll_long - ll <= result.ll_gap_bound + rounding

    def test_empty_histogram_rejected(self):
        hist = ClickHistogram(np.zeros((9, 9), dtype=np.int64), 10)
        with pytest.raises(ValidationError):
            em_reconstruct(hist, RESP8, RESP8, 3)

    def test_n_max_below_observed_rejected(self):
        f = np.zeros((9, 9), dtype=np.int64)
        f[5, 1] = 3
        hist = ClickHistogram(f, 3)
        with pytest.raises(ValidationError):
            em_reconstruct(hist, RESP8, RESP8, 3)

    def test_recovers_model_moments_from_synthetic_run(self):
        # asymmetric-loss source whose arm means are 0.15 and 0.18
        from pairstats.analysis import characterize
        from pairstats.pipeline import ExperimentConfig, simulate_experiment

        src = EffectiveSource(N=0.1875, eta=0.05, eta_prime=0.06, M=16.0)
        cfg = ExperimentConfig(
            source=src,
            pulses=2_000_000,
            seed=99,
            calibration_pulses=1,
            calibration_N=1e-6,
            n_max=8,
        )
        hist = simulate_experiment(cfg)
        resp = response_matrix(uniform_weights(8), 8)
        result = em_reconstruct(hist, resp, resp, 8, tol=1e-13, max_iter=200_000)
        char = characterize(result.rho)
        mean_a, mean_b = char.mean_n, char.mean_n_prime
        # binomial-ish sampling errors on the means at 2e6 pulses
        assert mean_a == pytest.approx(0.15, abs=4 * 3e-4)
        assert mean_b == pytest.approx(0.18, abs=4 * 3e-4)

    def test_flat_likelihood_along_single_path_null_direction(self):
        # a 1-path detector cannot distinguish n=1 from n=2: moving mass
        # between them leaves the likelihood exactly flat
        resp1 = response_matrix(uniform_weights(1), 3)
        f = np.array([[60, 40], [30, 20]], dtype=np.int64)
        hist = ClickHistogram(f, 150)
        base = np.full((4, 4), 1.0 / 16.0)
        shifted = base.copy()
        shifted[1, 0] += 0.03
        shifted[2, 0] -= 0.03
        ll_base = log_likelihood(hist, JointDistribution(base, 3, 0.0), resp1, resp1)
        ll_shift = log_likelihood(
            hist, JointDistribution(shifted, 3, 0.0), resp1, resp1
        )
        assert ll_base == pytest.approx(ll_shift, abs=1e-12)


class TestResultValidation:
    def test_decreasing_trace_rejected(self):
        vac = np.zeros((2, 2))
        vac[0, 0] = 1.0
        rho = JointDistribution(vac, 1, 0.0)
        with pytest.raises(ValidationError):
            ReconstructionResult(
                rho=rho,
                log_likelihood_trace=(-10.0, -10.5),
                iterations=1,
                converged=True,
            )

    @pytest.mark.parametrize("bound", [math.nan, -1.0])
    def test_bad_gap_bound_rejected(self, bound):
        vac = np.zeros((2, 2))
        vac[0, 0] = 1.0
        with pytest.raises(ValidationError, match="ll_gap_bound"):
            ReconstructionResult(
                rho=JointDistribution(vac, 1, 0.0),
                log_likelihood_trace=(-10.0,),
                iterations=1,
                converged=True,
                ll_gap_bound=bound,
            )


class TestSerialization:
    def test_histogram_round_trip(self):
        rng = np.random.default_rng(4)
        f = rng.integers(0, 50, size=(9, 9))
        hist = ClickHistogram(f, int(f.sum()) + 10)
        again = parse_histogram(format_histogram(hist))
        assert np.array_equal(again.f, hist.f)
        assert again.pulses == hist.pulses

    def test_run_report_fields(self):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        result = em_reconstruct(hist, RESP8, RESP8, 3, tol=1e-10, max_iter=50)
        rho = result.rho.probs
        fields = {
            "em_converged": result.converged,
            "em_iterations": result.iterations,
            "em_log_likelihood": result.log_likelihood_trace[-1],
            "em_ll_gap_bound": result.ll_gap_bound,
            "em_edge_mass": rho[3].sum() + rho[:3, 3].sum(),
        }
        record = em_record(result)
        assert list(record) == list(fields)
        assert {key: fmt(value) for key, value in record.items()} == {
            key: fmt(value) for key, value in fields.items()
        }
        assert record["em_ll_gap_bound"] > 0.0


# a B=2 histogram and the n_max=4 response of two even paths
HIST2 = ClickHistogram(f=np.diag([90, 10, 0]), pulses=100)
RESP2 = response_matrix(PathWeights([0.5, 0.5]), 4)


class TestRaises:
    @pytest.mark.parametrize(
        ("call", "match"),
        [
            (
                lambda: ReconstructionResult(
                    rho=JointDistribution(np.ones((1, 1)), 0),
                    log_likelihood_trace=(),
                    iterations=0,
                    converged=False,
                ),
                "non-empty",
            ),
            (
                lambda: em_reconstruct(HIST2, response_matrix(uniform_weights(8), 4), RESP2, 4),
                "resp_a has B=8 but histogram has B=2",
            ),
            (
                lambda: em_reconstruct(
                    HIST2, RESP2, RESP2, 4, init=JointDistribution(np.full((3, 3), 1 / 9), 2)
                ),
                "init grid",
            ),
            (lambda: parse_histogram("# pulses=10 B=2\n1,0\n0,1\n"), "header"),
        ],
        ids=["empty trace", "B mismatch", "init grid size", "histogram shape against header"],
    )
    def test_raises(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()
