import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from pairstats._fileio import float_list, fmt
from pairstats.errors import DegenerateInputError, ValidationError
from pairstats.loop_detector import (
    CalibrationResult,
    ClickDistribution,
    DetectorResponse,
    PathWeights,
    apply_response,
    calibrate,
    format_response,
    parse_response,
    response_matrix,
    simulate_clicks_batch,
    uniform_weights,
)
from pairstats.model import _N_CAP, EffectiveSource, JointDistribution, joint_distribution


def enumerate_click_matrix(w, n_max):
    """Exhaustive reference: weight every photon-to-path assignment."""
    B = len(w)
    P = np.zeros((B + 1, n_max + 1))
    for n in range(n_max + 1):
        for assign in itertools.product(range(B), repeat=n):
            prob = 1.0
            for path in assign:
                prob *= w[path]
            P[len(set(assign)), n] += prob
    return P


def inclusion_exclusion_click_matrix(w, n_max):
    """Reference for small B: P[k, n] = sum_{|S|=k} sum_{T subset S}
    (-1)^(|S|-|T|) (sum_{i in T} w_i)^n, with the inner subsets grouped by size."""
    B = len(w)
    ns = np.arange(n_max + 1)
    subset_pow = np.zeros((B + 1, n_max + 1))
    for t in range(1, B + 1):
        for paths in itertools.combinations(range(B), t):
            subset_pow[t] += w[list(paths)].sum() ** ns
    P = np.zeros((B + 1, n_max + 1))
    P[0, 0] = 1.0
    for k in range(1, B + 1):
        for t in range(1, k + 1):
            P[k, 1:] += (-1) ** (k - t) * math.comb(B - t, k - t) * subset_pow[t, 1:]
    return P


def uniform_click_matrix(B, n_max):
    """Exact reference for equal weights: P[k, n] = C(B, k) k! S(n, k) / B^n,
    with the Stirling numbers S(n, k) of the second kind in integers."""
    P = np.zeros((B + 1, n_max + 1))
    stirling = [1] + [0] * B
    for n in range(n_max + 1):
        if n:
            stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, B + 1)]
        for k in range(B + 1):
            count = math.comb(B, k) * math.factorial(k) * stirling[k]
            P[k, n] = float(Fraction(count, B**n))
    return P


class TestPathWeights:
    def test_sum_checked(self):
        with pytest.raises(ValidationError):
            PathWeights(np.array([0.5, 0.4]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            PathWeights(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError):
            PathWeights(np.array([value, 0.5]))

    @pytest.mark.parametrize("B", [0, 2.5, 8.0])
    def test_uniform_needs_integer_B(self, B):
        with pytest.raises(ValidationError, match="B"):
            uniform_weights(B)

    def test_uniform(self):
        w = uniform_weights(8)
        assert w.B == 8
        assert np.allclose(w.w, 0.125)


class TestResponseMatrix:
    @pytest.mark.parametrize("n_max", [-1, 2.5, _N_CAP + 1])
    def test_bad_n_max_rejected(self, n_max):
        with pytest.raises(ValidationError, match="n_max"):
            response_matrix(uniform_weights(4), n_max)

    def test_uniform_eight_paths(self):
        resp = response_matrix(uniform_weights(8), 4)
        assert resp.P[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert resp.P[2, 2] == pytest.approx(7.0 / 8.0, abs=1e-14)
        assert resp.P[1, 2] == pytest.approx(1.0 / 8.0, abs=1e-14)

    def test_single_path_saturates(self):
        resp = response_matrix(uniform_weights(1), 5)
        assert np.all(resp.P[1, 1:] == 1.0)
        assert resp.P[0, 0] == 1.0

    def test_brute_force_uniform(self):
        w = np.full(8, 0.125)
        reference = enumerate_click_matrix(w, 4)
        resp = response_matrix(PathWeights(w), 4)
        assert np.abs(resp.P - reference).max() <= 1e-12

    def test_brute_force_nonuniform(self):
        rng = np.random.default_rng(5)
        raw = rng.random(6)
        w = raw / raw.sum()
        reference = enumerate_click_matrix(w, 4)
        resp = response_matrix(PathWeights(w), 4)
        assert np.abs(resp.P - reference).max() <= 1e-12

    def test_column_stochastic_random_weights(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            raw = rng.random(8)
            resp = response_matrix(PathWeights(raw / raw.sum()), 20)
            assert np.abs(resp.P.sum(axis=0) - 1.0).max() <= 1e-12

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        raw = rng.random(8)
        w = raw / raw.sum()
        base = response_matrix(PathWeights(w), 10)
        perm = response_matrix(PathWeights(w[::-1].copy()), 10)
        assert np.abs(base.P - perm.P).max() <= 1e-13

    def test_zero_above_diagonal(self):
        resp = response_matrix(uniform_weights(4), 10)
        for k in range(1, 5):
            assert np.all(resp.P[k, :k] == 0.0)

    def test_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(41)
        for B in range(1, 11):
            for zeros in ([], [0], [B - 1], [0, B // 2]):
                raw = rng.random(B)
                raw[zeros] = 0.0
                if not raw.any():
                    continue
                w = raw / raw.sum()
                n_max = int(rng.integers(0, 41))
                resp = response_matrix(PathWeights(w), n_max)
                reference = inclusion_exclusion_click_matrix(w, n_max)
                assert np.abs(resp.P - reference).max() <= 1e-12, (B, zeros, n_max)

    @pytest.mark.parametrize("B", [8, 16])
    @pytest.mark.parametrize("n_max", [40, 564, 998])
    def test_matches_stirling_closed_form(self, B, n_max):
        resp = response_matrix(uniform_weights(B), n_max)
        assert np.abs(resp.P - uniform_click_matrix(B, n_max)).max() <= 1e-12

    def test_sixty_four_paths(self):
        resp = response_matrix(uniform_weights(64), 200)
        assert isinstance(resp, DetectorResponse)
        assert resp.P.shape == (65, 201)
        assert np.abs(resp.P.sum(axis=0) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("B", [1, 3])
    def test_vacuum_column_only(self, B):
        resp = response_matrix(uniform_weights(B), 0)
        assert resp.P.shape == (B + 1, 1)
        assert resp.P[:, 0].tolist() == [1.0] + [0.0] * B


class TestSimulateClicks:
    def test_zero_photons(self):
        rng = np.random.default_rng(0)
        assert simulate_clicks_batch(np.array([0]), uniform_weights(8), rng).tolist() == [0]

    def test_one_photon(self):
        rng = np.random.default_rng(0)
        ks = simulate_clicks_batch(np.ones(100, dtype=np.int64), uniform_weights(8), rng)
        assert ks.tolist() == [1] * 100

    @pytest.mark.parametrize("ns", [[math.nan], [2.5], [-1]], ids=["nan", "fraction", "negative"])
    def test_bad_photon_numbers_rejected(self, ns):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="photon numbers must be integers >= 0"):
            simulate_clicks_batch(np.array(ns), uniform_weights(4), rng)

    def test_two_photons_match_P22(self):
        rng = np.random.default_rng(123)
        trials = 1_000_000
        ks = simulate_clicks_batch(np.full(trials, 2), uniform_weights(8), rng)
        phat = np.mean(ks == 2)
        sigma = np.sqrt(0.875 * 0.125 / trials)
        assert abs(phat - 0.875) <= 3.0 * sigma

    def test_chi_square_against_matrix_columns(self):
        rng = np.random.default_rng(2024)
        weights = uniform_weights(8)
        resp = response_matrix(weights, 5)
        trials = 1_000_000
        ks = simulate_clicks_batch(np.full(trials, 5), weights, rng)
        observed = np.bincount(ks, minlength=9)
        expected = resp.P[:, 5] * trials
        keep = expected > 5
        result = chisquare(observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum())
        assert result.pvalue > 0.001

    def test_batch_matches_scalar_law(self):
        rng = np.random.default_rng(8)
        ks = simulate_clicks_batch(np.array([0, 1, 1, 0]), uniform_weights(8), rng)
        assert ks.tolist() == [0, 1, 1, 0]


class TestCalibrate:
    def test_uniform_counts(self):
        cal = calibrate([100] * 8)
        assert np.allclose(cal.weights.w, 0.125)
        assert cal.total == 800

    def test_proportionality(self):
        cal = calibrate([200, 100, 100, 100, 100, 100, 50, 50])
        assert cal.weights.w[0] == pytest.approx(0.25)
        assert np.allclose(cal.weights.w[1:6], 0.125)
        assert np.allclose(cal.weights.w[6:], 0.0625)
        # a path that never clicked would be a dead path in the response
        with pytest.raises(DegenerateInputError, match=r"paths \[7\] never clicked"):
            calibrate([200, 100, 100, 100, 100, 100, 100, 0])

    def test_max_rel_stderr(self):
        # stderr_i / w_i = sqrt((1 - w_i) / count_i): worst at the smallest count
        assert calibrate([300, 100]).max_rel_stderr == pytest.approx(np.sqrt(0.75 / 100))
        assert calibrate([7]).max_rel_stderr == 0.0
        # calibrate rejects a zero count; a result built by hand still reports it
        with pytest.raises(DegenerateInputError, match=r"paths \[1\] never clicked"):
            calibrate([100, 0, 100])
        with pytest.raises(DegenerateInputError, match=r"paths \[0, 2\] never clicked"):
            calibrate([0, 5, 0])
        dead = CalibrationResult(weights=PathWeights([0.5, 0.0, 0.5]), total=200)
        assert dead.max_rel_stderr == np.inf
        assert dead.stderr[1] == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            calibrate([0, 0, 0, 0])

    def test_multinomial_recovery_within_4_sigma(self):
        rng = np.random.default_rng(31)
        raw = rng.random(8)
        w = raw / raw.sum()
        counts = rng.multinomial(100_000, w)
        cal = calibrate(counts)
        for i in range(8):
            sigma = np.sqrt(w[i] * (1 - w[i]) / 100_000)
            assert abs(cal.weights.w[i] - w[i]) <= 4.0 * sigma

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            calibrate([1.5, 2.0])

    def test_infinite_count_rejected(self):
        with pytest.raises(ValidationError):
            calibrate([math.inf, 1])


class TestApplyResponse:
    def test_vacuum(self):
        rho = JointDistribution(np.eye(1), 0, 0.0)
        resp = response_matrix(uniform_weights(8), 0)
        clicks = apply_response(rho, resp, resp)
        assert clicks.p[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_single_pair_lossless(self):
        probs = np.zeros((2, 2))
        probs[1, 1] = 1.0
        rho = JointDistribution(probs, 1, 0.0)
        resp = response_matrix(uniform_weights(8), 1)
        clicks = apply_response(rho, resp, resp)
        assert clicks.p[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_p22(self):
        # p[2,2] = sum_n 2^-(n+1) P[2,n]^2 for the diagonal geometric source
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0)
        n_max = 40
        rho = joint_distribution(src, n_max)
        resp = response_matrix(uniform_weights(8), n_max)
        clicks = apply_response(rho, resp, resp)
        n = np.arange(n_max + 1)
        direct = float(np.sum(0.5 ** (n + 1) * resp.P[2] ** 2))
        assert clicks.p[2, 2] == pytest.approx(direct, rel=1e-12)

    def test_mass_preserved_up_to_tail(self):
        src = EffectiveSource(N=0.8, eta=0.4, eta_prime=0.9, M=3.0)
        rho = joint_distribution(src, 15)
        resp = response_matrix(uniform_weights(8), 15)
        clicks = apply_response(rho, resp, resp)
        assert clicks.p.sum() == pytest.approx(1.0 - rho.tail_mass, abs=1e-12)
        assert clicks.deficit == rho.tail_mass

    def test_dimension_mismatch(self):
        src = EffectiveSource(N=0.8, eta=0.4, eta_prime=0.9, M=3.0)
        rho = joint_distribution(src, 15)
        resp = response_matrix(uniform_weights(8), 10)
        with pytest.raises(ValidationError):
            apply_response(rho, resp, resp)


class TestResponseValidation:
    def test_p11_enforced(self):
        bad = np.array([[1.0, 0.2, 0.0], [0.0, 0.8, 0.5], [0.0, 0.0, 0.5]])
        with pytest.raises(ValidationError, match=r"P\[1, 1\]"):
            DetectorResponse(P=bad)

    def test_column_sum_enforced(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.9]])
        with pytest.raises(ValidationError, match="sum to 1"):
            DetectorResponse(P=bad)

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, np.nan], [0.0, 0.0, 0.5]])
        with pytest.raises(ValidationError, match="finite"):
            DetectorResponse(P=bad)

    def test_p_is_the_only_field(self):
        # B comes from the rows of P, which need at least the 0- and 1-click rows
        assert [f.name for f in dataclasses.fields(DetectorResponse)] == ["P"]
        assert DetectorResponse(P=np.eye(3)).B == 2
        with pytest.raises(ValidationError, match="2 rows"):
            DetectorResponse(P=np.ones((1, 1)))


class TestSerialization:
    def test_response_round_trip(self):
        rng = np.random.default_rng(17)
        for B, n_max in itertools.product([1, 2, 8], [0, 12, 40]):
            raw = rng.random(B)
            resp = response_matrix(PathWeights(raw / raw.sum()), n_max)
            text = format_response(resp)
            assert text.startswith(f"# B={B} n_max={n_max}\n")
            assert len(text.splitlines()) == B + 2 and "weights=" not in text
            again = parse_response(text)
            assert np.array_equal(again.P, resp.P)
            assert (again.B, again.n_max) == (B, n_max)

    def test_weights_line_rejected(self):
        # the response file is the click matrix alone; an older file that still
        # carries its path weights is not read
        resp = response_matrix(uniform_weights(2), 3)
        with pytest.raises(ValidationError, match="response"):
            parse_response(format_response(resp) + "weights=0.5,0.5\n")

    def test_calibration_report_fields(self):
        # a run writes the weights and the total into summary.txt with fmt; the
        # standard errors follow exactly from the two read back
        cal = calibrate([120, 80, 95, 110, 140, 77, 101, 99])
        w, total = float_list(fmt(cal.weights.w)), int(fmt(cal.total))
        assert np.array_equal(w, cal.weights.w)
        assert np.array_equal(cal.stderr, np.sqrt(w * (1.0 - w) / total))

    def test_click_distribution_validation(self):
        with pytest.raises(ValidationError):
            ClickDistribution(p=np.array([[0.5, 0.2], [0.2, 0.2]]), deficit=0.0)

    def test_click_distribution_rejects_non_finite(self):
        p = np.full((2, 2), 0.25)
        with pytest.raises(ValidationError):
            ClickDistribution(p=p, deficit=np.nan)
        p[1, 0] = np.nan
        with pytest.raises(ValidationError):
            ClickDistribution(p=p, deficit=0.0)


class TestRaises:
    @pytest.mark.parametrize(
        ("call", "match"),
        [
            (lambda: PathWeights([]), "non-empty"),
            (lambda: PathWeights([[0.5, 0.5]]), "1-d"),
            (lambda: DetectorResponse(P=[[0.5, 0.0], [0.5, 1.0]]), r"P\[0, 0\]"),
            (
                lambda: DetectorResponse(P=[[1, 0, 0], [0, 1, 0.5], [0, 0, 0], [0, 0, 0.5]]),
                r"k > min\(n, B\)",
            ),
            (lambda: ClickDistribution(p=np.full(3, 1.0 / 3.0)), "matrix"),
            (lambda: calibrate([]), "non-empty"),
            (lambda: parse_response("# B=2 n_max=1\n1,0\n0,1\n"), "header"),
        ],
        ids=[
            "no weights",
            "2-d weights",
            "P[0, 0] below 1",
            "click above the photon number",
            "1-d click probabilities",
            "no bin counts",
            "response shape against header",
        ],
    )
    def test_raises(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()
