import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstats import reconstruction
from pairstats._fileio import fmt
from pairstats.errors import PairStatsError, SupportError, ValidationError
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

from oracles import observed_cells_two_sided, squarem_reference

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


def bright_histogram():
    """1e8 pulses drawn from the exact click law of a bright source (N=1.5,
    eta=eta'=0.4, M=3) on two uneven B=8 detectors, with their responses."""
    rng = np.random.default_rng(9)
    src = EffectiveSource(N=1.5, eta=0.4, eta_prime=0.4, M=3.0)
    n_max = suggest_n_max(src, 1e-12)
    ra, rb = (
        response_matrix(PathWeights(w / w.sum()), n_max)
        for w in 1.0 + 0.1 * (rng.random((2, 8)) - 0.5)
    )
    clicks = apply_response(joint_distribution(src, n_max), ra, rb)
    counts = rng.multinomial(100_000_000, np.append(clicks.p.ravel(), clicks.deficit))
    return ClickHistogram(f=counts[:-1].reshape(9, 9), pulses=100_000_000), ra, rb


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
        # bit for bit on a README run and on an exact-law bright source, fitted
        # through the design matrix (n_max 8, 12) and the two-sided products (16)
        readme = run_full(
            ExperimentConfig(
                source=EffectiveSource(N=0.2, eta=0.045, eta_prime=0.045, M=16.0),
                pulses=1_000_000,
                seed=42,
            )
        )
        cases = [(readme.histogram, readme.response_a, readme.response_b, 8)]
        bright, ra, rb = bright_histogram()
        cases += [(bright, ra, rb, 8), (bright, ra, rb, 12), (bright, ra, rb, 16)]
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


class TestObservedCells:
    """Both evaluators, the design matrix and the two-sided products, give the
    oracle's p, EM multiplier and log-likelihood, and refuse the same inputs."""

    @pytest.mark.parametrize("design_max", [math.inf, -1], ids=["design", "two-sided"])
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        B=st.integers(1, 8),
        extra=st.integers(0, 4),
        log_scale=st.floats(0.0, 12.0),
        reachable=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle(self, design_max, B, extra, log_scale, reachable, seed):
        rng = np.random.default_rng(seed)
        n_max = B + extra
        weights = []
        for _ in range(2):
            w = rng.random(B) ** 2  # uneven
            w[rng.random(B) < 0.2] = 0.0  # dead paths
            w[rng.integers(B)] += 0.1
            weights.append(PathWeights(w / w.sum()))
        resp_a, resp_b = (response_matrix(w, n_max) for w in weights)
        f = np.floor(rng.random((B + 1, B + 1)) ** 3 * 10.0**log_scale).astype(np.int64)
        f[rng.random(f.shape) < 0.4] = 0  # empty cells
        if reachable:  # only click numbers that the live paths can give
            f[np.count_nonzero(weights[0].w) + 1 :] = 0
            f[:, np.count_nonzero(weights[1].w) + 1 :] = 0
        f[0, 0] += 1
        hist = ClickHistogram(f, int(f.sum()))
        rho = rng.random((n_max + 1, n_max + 1)) ** 4
        empty = rng.random(n_max + 1) < 0.2  # photon numbers without mass
        empty[rng.integers(n_max + 1)] = False
        rho[empty] = 0.0
        rho /= rho.sum()

        with mock.patch.object(reconstruction, "_DESIGN_MAX", design_max):
            evaluate = reconstruction._observed_cells(hist, resp_a, resp_b, n_max)
        oracle = observed_cells_two_sided(hist, resp_a, resp_b, n_max)
        try:
            ll_ref, g_ref, p_ref = oracle(rho)
        except SupportError:
            with np.errstate(divide="ignore"), pytest.raises(
                SupportError, match="zero model probability"
            ):
                evaluate(rho.ravel())
            return
        with np.errstate(divide="ignore"):  # the evaluator's calling contract
            ll, g, p = evaluate(rho.ravel())
        g_ref = g_ref.ravel()
        assert (np.abs(p - p_ref) <= 1e-13 * p_ref).all()
        assert (np.abs(g - g_ref) <= 1e-13 * g_ref).all()
        assert abs(ll - ll_ref) <= 1e-12 * abs(ll_ref)

    def test_design_only_on_small_grids(self):
        # the design matrix is used while it has at most _DESIGN_MAX entries;
        # at n_max 600 it would hold 81 x 601^2 doubles, 234 MB, so a log-likelihood
        # and a short fit must stay within a few copies of the 2.9 MB grid
        f = np.arange(1, 82).reshape(9, 9)
        hist = ClickHistogram(f, int(f.sum()))
        resp = response_matrix(uniform_weights(8), 600)
        rho = JointDistribution(np.full((601, 601), 601.0**-2), 600, 0.0)
        tracemalloc.start()
        try:
            ll = log_likelihood(hist, rho, resp, resp)
            ll_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            fit = em_reconstruct(hist, resp, resp, 600, max_iter=5)
            fit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ll_ref = observed_cells_two_sided(hist, resp, resp, 600)(rho.probs)[0]
        assert ll == pytest.approx(ll_ref, rel=1e-12)
        assert fit.iterations == 5
        assert ll_peak <= 4 * rho.probs.nbytes
        assert fit_peak <= 16 * rho.probs.nbytes

    @pytest.mark.parametrize("design_max", [math.inf, -1], ids=["design", "two-sided"])
    def test_all_zero_histogram_is_zero(self, design_max):
        # no observed cell, so no term: both evaluators return 0 and a zero multiplier
        hist = ClickHistogram(np.zeros((9, 9), np.int64), 10)
        rho = JointDistribution(RHO_STAR, 3, 0.0)
        with mock.patch.object(reconstruction, "_DESIGN_MAX", design_max):
            assert log_likelihood(hist, rho, RESP8, RESP8) == 0.0
            ll, g, p = reconstruction._observed_cells(hist, RESP8, RESP8, 3)(RHO_STAR.ravel())
        assert ll == 0.0 and p.size == 0 and np.array_equal(g, np.zeros(16))

    @staticmethod
    def unsupported_cases():
        """(histogram, response) pairs on the n_max 4 grid that the evaluators
        must refuse: three clicks from a detector whose third path is dead, and
        a NaN planted in the response past its validation, which no public
        input can carry."""
        dead = response_matrix(PathWeights([0.5, 0.5, 0.0]), 4)
        f = np.zeros((4, 4), dtype=np.int64)
        f[3, 0], f[0, 0] = 5, 95
        yield ClickHistogram(f, 100), dead
        nan = response_matrix(PathWeights([0.5, 0.5, 0.0]), 4)
        P = nan.P.copy()
        P[1, 2] = math.nan
        object.__setattr__(nan, "P", P)
        f = np.zeros((4, 4), dtype=np.int64)
        f[1, 0], f[0, 0] = 5, 95
        yield ClickHistogram(f, 100), nan

    @pytest.mark.parametrize("design_max", [math.inf, -1], ids=["design", "two-sided"])
    def test_unsupported_cells_raise_without_warning(self, design_max):
        grid = np.full(25, 0.04)
        rho = JointDistribution(grid.reshape(5, 5), 4, 0.0)
        for hist, resp in self.unsupported_cases():
            with warnings.catch_warnings(), mock.patch.object(
                reconstruction, "_DESIGN_MAX", design_max
            ):
                warnings.simplefilter("error")
                evaluate = reconstruction._observed_cells(hist, resp, resp, 4)
                with np.errstate(divide="ignore"), pytest.raises(
                    SupportError, match="zero model probability"
                ):
                    evaluate(grid)
                with pytest.raises(SupportError, match="zero model probability"):
                    log_likelihood(hist, rho, resp, resp)
                with pytest.raises(SupportError, match="zero model probability"):
                    em_reconstruct(hist, resp, resp, 4)
        # a NaN grid entry, planted past JointDistribution's validation
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        nan_grid = RHO_STAR.copy()
        nan_grid[1, 2] = math.nan
        rho = JointDistribution(RHO_STAR, 3, 0.0)
        object.__setattr__(rho, "probs", nan_grid)
        with warnings.catch_warnings(), mock.patch.object(
            reconstruction, "_DESIGN_MAX", design_max
        ):
            warnings.simplefilter("error")
            evaluate = reconstruction._observed_cells(hist, RESP8, RESP8, 3)
            with np.errstate(divide="ignore"), pytest.raises(SupportError):
                evaluate(nan_grid.ravel())
            with pytest.raises(SupportError):
                log_likelihood(hist, rho, RESP8, RESP8)

    @pytest.mark.parametrize(
        "state",
        [{}, {"divide": "raise", "over": "warn", "under": "ignore", "invalid": "print"}],
        ids=["default", "custom"],
    )
    def test_errstate_restored(self, state):
        # the fit and log_likelihood silence divide while they run, so a caller
        # raising on divide still gets SupportError, and its state comes back
        # whether the call returned or raised
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        rho = JointDistribution(RHO_STAR, 3, 0.0)
        calls = [
            lambda: log_likelihood(hist, rho, RESP8, RESP8),
            lambda: em_reconstruct(hist, RESP8, RESP8, 3, max_iter=20),
        ]
        uniform = JointDistribution(np.full((5, 5), 0.04), 4, 0.0)
        for bad, resp in self.unsupported_cases():
            calls += [
                lambda b=bad, r=resp: log_likelihood(b, uniform, r, r),
                lambda b=bad, r=resp: em_reconstruct(b, r, r, 4),
            ]
        with np.errstate(**state):
            before = np.geterr()
            for call in calls:
                try:
                    call()
                except SupportError:
                    pass
                assert np.geterr() == before


BOTH_EVALUATORS = pytest.mark.parametrize("two_sided", [False, True], ids=["design", "two-sided"])


class TestSquaremReference:
    """em_reconstruct returns the same bytes as the fit it replaced: rho, the
    trace, the evaluation count and the gap bound, on both evaluators.  The
    reference keeps its own design-matrix bound, so a fit that changes branch
    at a size it did not before fails here."""

    @staticmethod
    def assert_matches(hist, resp_a, resp_b, n_max, two_sided=False,
                       tol=reconstruction.EM_TOL, max_iter=reconstruction.EM_MAX_ITER):
        bound = {"design_max": -1} if two_sided else {}  # else the reference's own
        with mock.patch.object(reconstruction, "_DESIGN_MAX", -1) if two_sided else nullcontext():
            fit = em_reconstruct(hist, resp_a, resp_b, n_max, tol=tol, max_iter=max_iter)
        rho, trace, iterations, converged, gap = squarem_reference(
            hist, resp_a, resp_b, n_max, tol, max_iter, **bound
        )
        assert np.array_equal(fit.rho.probs, rho)
        assert fit.log_likelihood_trace == trace
        assert fit.iterations == iterations
        assert fit.converged == converged
        assert fit.ll_gap_bound == gap

    @BOTH_EVALUATORS
    def test_exact_histogram(self, two_sided):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        self.assert_matches(hist, RESP8, RESP8, 3, two_sided)

    @BOTH_EVALUATORS
    def test_random_instances(self, two_sided):
        for hist in random_instances(10):
            self.assert_matches(hist, RESP8, RESP8, 3, two_sided)

    @BOTH_EVALUATORS
    @pytest.mark.parametrize("n_max", [8, 12])
    def test_bright_histogram(self, n_max, two_sided):
        hist, ra, rb = bright_histogram()
        self.assert_matches(hist, ra, rb, n_max, two_sided)

    @BOTH_EVALUATORS
    def test_zero_tol_at_the_budget(self, two_sided):
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        self.assert_matches(hist, RESP8, RESP8, 3, two_sided, tol=0.0, max_iter=400)
        for hist in random_instances(3, seed=5):
            self.assert_matches(hist, RESP8, RESP8, 3, two_sided, tol=0.0, max_iter=400)

    def test_two_sided_past_the_bound(self):
        # all 81 cells observed: 13,689 design entries at n_max 12 and 15,876 at
        # 13, on either side of _DESIGN_MAX; the two evaluators differ in the
        # last bits, so each fit must take the same branch as the reference
        hist, ra, rb = bright_histogram()
        assert np.count_nonzero(hist.f) == 81
        self.assert_matches(hist, ra, rb, 13)


# n_max=12 and 16 fits of an exact-law bright histogram, through the design matrix
# and the two-sided products; prints rho's bytes, the trace and the evaluation count
BLAS_THREADS_FIT = """
import numpy as np
from pairstats.loop_detector import PathWeights, apply_response, response_matrix
from pairstats.model import EffectiveSource, joint_distribution, suggest_n_max
from pairstats.reconstruction import ClickHistogram, em_reconstruct

rng = np.random.default_rng(9)
src = EffectiveSource(N=1.5, eta=0.4, eta_prime=0.4, M=3.0)
n_max = suggest_n_max(src, 1e-12)
ra, rb = (
    response_matrix(PathWeights(w / w.sum()), n_max)
    for w in 1.0 + 0.1 * (rng.random((2, 8)) - 0.5)
)
clicks = apply_response(joint_distribution(src, n_max), ra, rb)
counts = rng.multinomial(100_000_000, np.append(clicks.p.ravel(), clicks.deficit))
hist = ClickHistogram(counts[:-1].reshape(9, 9), 100_000_000)
for fit_n_max in (12, 16):
    fit = em_reconstruct(hist, ra, rb, fit_n_max)
    print(fit.rho.probs.tobytes().hex(), fit.log_likelihood_trace, fit.iterations)
"""


def test_em_independent_of_blas_threads():
    # neither evaluator's products may round differently when OpenBLAS
    # splits them over threads
    src = str(Path(reconstruction.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_FIT], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


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
        # one update from the exact solution, applied as em_reconstruct does
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        g = reconstruction._observed_cells(hist, RESP8, RESP8, 3)(RHO_STAR.ravel())[1]
        assert np.abs(RHO_STAR * g.reshape(4, 4) - RHO_STAR).max() <= 1e-12

    @pytest.mark.parametrize("count", [280_247, 6_877_710_873])
    def test_step_lost_to_rounding_is_not_taken(self, count):
        # every pulse clicks both single-path arms, so LL -> 0 while its rounding
        # grows with the count: the second plain step loses 2.8e-10 (6.9e-6) nats
        resp = response_matrix(uniform_weights(1), 10)
        hist = ClickHistogram(np.array([[0, 0], [0, count]]), count)
        result = em_reconstruct(hist, resp, resp, 10, tol=0.0)
        assert result.converged and result.iterations == 2
        assert len(result.log_likelihood_trace) == 2
        assert np.diff(result.log_likelihood_trace).min() >= 0.0
        assert result.log_likelihood_trace[-1] == log_likelihood(hist, result.rho, resp, resp)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_update_sums_to_one_from_any_positive_rho(self, seed):
        # sum rho * g = sum (f/F) p / p = 1 for any positive rho, so em_reconstruct
        # never renormalizes an update
        rng = np.random.default_rng(seed)
        hist = next(random_instances(1, seed=seed))
        n_max = int(rng.integers(3, 13))
        w = rng.random(8) + 0.05
        resp_a = response_matrix(PathWeights(w / w.sum()), n_max)
        resp_b = response_matrix(uniform_weights(8), n_max)
        rho = rng.random((n_max + 1) ** 2) * 10.0 ** rng.uniform(-3, 3)
        _, g, _ = reconstruction._observed_cells(hist, resp_a, resp_b, n_max)(rho)
        assert abs(float((rho * g).sum()) - 1.0) <= 1e-13

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

    def test_failed_trial_evaluation_counts(self, monkeypatch):
        # evaluations 2 and 3 are the first cycle's plain steps and 4 its first
        # SQUAREM trial; failing that one must not change what is counted
        calls = []
        observed = reconstruction._observed_cells

        def failing_fourth(*args):
            evaluate = observed(*args)

            def wrapped(r):
                calls.append(r)
                if len(calls) == 4:
                    raise SupportError("zero model probability")
                return evaluate(r)

            return wrapped

        monkeypatch.setattr(reconstruction, "_observed_cells", failing_fourth)
        hist = exact_histogram(RHO_STAR, RESP8, 4194304 * 64)
        result = em_reconstruct(hist, RESP8, RESP8, 3, tol=1e-10)
        assert result.converged
        assert result.iterations == len(calls) - 1  # the start is free

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


class TestEmProperties:
    """Over B 1-8, zero path weights, counts up to 1e12 and n_max from the
    largest observed click up to 12, em_reconstruct returns a distribution
    that meets its invariants or raises a PairStatsError."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        B=st.integers(1, 8),
        log_scale=st.floats(0.0, 12.0),
        reachable=st.booleans(),
        extra=st.integers(0, 12),
        max_iter=st.integers(1, 300),
        tol=st.sampled_from([0.0, 1e-12, 1e-10, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_result_meets_invariants_or_raises_typed(
        self, B, log_scale, reachable, extra, max_iter, tol, seed
    ):
        rng = np.random.default_rng(seed)
        weights = []
        for _ in range(2):
            w = rng.random(B)
            w[rng.random(B) < 0.3] = 0.0  # dead paths
            w[rng.integers(B)] += 0.1
            weights.append(PathWeights(w / w.sum()))
        f = np.floor(rng.random((B + 1, B + 1)) ** 3 * 10.0**log_scale).astype(np.int64)
        f[rng.random(f.shape) < 0.4] = 0
        if reachable:  # only click numbers that the live paths can give
            f[np.count_nonzero(weights[0].w) + 1 :] = 0
            f[:, np.count_nonzero(weights[1].w) + 1 :] = 0
        n_max = min(int(np.argwhere(f > 0).max(initial=0)) + extra, 12)
        try:
            hist = ClickHistogram(f, int(f.sum()) + 1)
            resp_a, resp_b = (response_matrix(w, n_max) for w in weights)
            result = em_reconstruct(hist, resp_a, resp_b, n_max, tol=tol, max_iter=max_iter)
        except PairStatsError:
            return
        trace = np.array(result.log_likelihood_trace)
        assert np.diff(trace).min(initial=0.0) >= 0.0
        assert result.rho.probs.min() >= 0.0
        assert abs(result.rho.probs.sum() - 1.0) <= 1e-12
        assert 1 <= result.iterations <= max_iter


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


    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [("iterations", -3, r"iterations must lie in \[0, "), ("converged", "no", "converged must be a bool")],
        ids=["negative iterations", "string converged"],
    )
    def test_bad_counters_rejected(self, field, value, match):
        vac = np.zeros((2, 2))
        vac[0, 0] = 1.0
        fields = {"iterations": 1, "converged": np.bool_(True), field: value}
        with pytest.raises(ValidationError, match=match):
            ReconstructionResult(
                rho=JointDistribution(vac, 1, 0.0), log_likelihood_trace=(-10.0,), **fields
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
            (lambda: parse_histogram("# pulses=10 B=2\n1,0\n0,1\n"), "header"),
        ],
        ids=[
            "empty trace",
            "B mismatch",
            "histogram shape against header",
        ],
    )
    def test_raises(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()
