import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from pairstats._fileio import float_list, fmt
from pairstats.errors import DegenerateInputError, ValidationError
from pairstats.loop_detector import (
    _PER_PHOTON_MAX,
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

from oracles import (
    response_matrix_chain,
    response_matrix_exact,
    response_matrix_per_path,
    simulate_clicks_batch_reference,
)


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


def assert_close_to_law(P, exact, rtol):
    """P within rtol of the exact law on every entry above 1e-280, within
    1e-280 below, and zero where the law is."""
    big = exact > 1e-280
    assert np.all(P[exact == 0.0] == 0.0)
    assert np.all(np.abs(P - exact)[big] <= rtol * exact[big])
    assert np.all(np.abs(P - exact)[~big] <= 1e-280)


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

    @pytest.mark.parametrize("B", [8, 12, 16])
    @pytest.mark.parametrize("n_max", [564, 998])
    def test_relative_to_stirling_closed_form(self, B, n_max):
        """Entry by entry: a click count that is hard to reach, such as one
        click after hundreds of photons, is still right to its last digits."""
        P, exact = response_matrix(uniform_weights(B), n_max).P, uniform_click_matrix(B, n_max)
        assert_close_to_law(P, exact, 2e-13)

    @pytest.mark.parametrize("B", [3, 12])
    def test_chain_to_stirling_law_at_two_thousand_photons(self, B):
        """Equal weights take the occupancy chain, one block of L photon numbers
        per matrix product; an entry below the smallest normal double is rounded
        once, so it is 0 where the law rounds to 0 instead of stuck at the
        smallest subnormal."""
        P, exact = response_matrix(uniform_weights(B), 2000).P, uniform_click_matrix(B, 2000)
        assert_close_to_law(P, exact, 1e-14)

    @pytest.mark.parametrize("B", [3, 12, 64])
    def test_stirling_law_around_the_block_length(self, B):
        """(B T)^j is exact in integers up to j = L, the largest with B^L <= 2^53
        (33, 14 and 8 here), so the first block's columns are the law rounded
        once; each later block starts from a rounded column."""
        L = max(j for j in range(1, 65) if B**j <= 2**53)
        for n_max in (L - 1, L, L + 1, 2 * L + 1):
            P, exact = response_matrix(uniform_weights(B), n_max).P, uniform_click_matrix(B, n_max)
            assert_close_to_law(P, exact, 1e-14)
            assert np.array_equal(P[:, : L + 1], exact[:, : L + 1]), n_max

    @pytest.mark.parametrize("n_max", [0, 1, 2, 40, 1000, _N_CAP])
    def test_equal_weights_match_chain_oracle(self, n_max):
        """Against the occupancy chain one photon at a time, for B' = 1-64 live
        paths among up to 64, the dead ones anywhere: the same zeros, and the
        same entries to rounding; at n_max 4096 the two differed by at most
        1.7e-14 relative (B' = 1 and 2 are bit-identical)."""
        rng = np.random.default_rng(n_max)
        for b in range(1, 65):
            w = np.zeros(int(rng.integers(b, 65)))
            w[rng.choice(w.size, b, replace=False)] = 1.0 / b
            P, oracle = response_matrix(PathWeights(w), n_max).P, response_matrix_chain(w, n_max)
            assert np.array_equal(P == 0.0, oracle == 0.0), b
            assert_close_to_law(P, oracle, 5e-14)

    @pytest.mark.parametrize(
        "w", [[0.25, 0.0, 0.25, 0.25, 0.25], [0.5, 0.5, 0.0]], ids=["dead-second", "dead-last"]
    )
    def test_equal_weights_with_dead_paths(self, w):
        # the chain runs over the live paths alone; rows past them stay 0
        w = np.array(w)
        P = response_matrix(PathWeights(w), 40).P
        assert np.abs(P - inclusion_exclusion_click_matrix(w, 40)).max() <= 1e-12
        assert np.all(P[np.count_nonzero(w) + 1 :] == 0.0)

    @pytest.mark.parametrize("B", [4, 12])
    def test_one_ulp_off_equal_takes_the_recurrence(self, B):
        # exact equality picks the chain, so one ulp off it builds by the path
        # recurrence, bit-identical to the per-path loop within one block; the
        # two constructions agree across many blocks
        w = np.full(B, 1.0 / B)
        w[B // 2] = np.nextafter(w[B // 2], 1.0)
        off = PathWeights(w)
        recurrence = response_matrix(off, 63).P
        assert np.array_equal(recurrence, response_matrix_per_path(w, 63))
        assert not np.array_equal(recurrence, response_matrix(uniform_weights(B), 63).P)
        chain = response_matrix(uniform_weights(B), 998).P
        assert np.abs(response_matrix(off, 998).P - chain).max() <= 1e-12

    @pytest.mark.parametrize("B", range(1, 7))
    def test_matches_exact_law(self, B):
        """Against the exact law in rational arithmetic.  The weights are dyadic,
        c_i / 2^s with sum 2^s, so that the partial sums behind p are exact: an
        ulp of p would otherwise grow to n ulps in a row like P[1, n]."""
        rng = np.random.default_rng(B)
        for zeros in ([], [0], [B - 1], [0, B // 2]):
            raw = rng.integers(1, 64, B)
            raw[zeros] = 0
            if not raw.any():
                continue
            live = np.flatnonzero(raw)
            raw[live[-1]] += 2 ** math.ceil(math.log2(raw.sum())) - raw.sum()
            w = raw / raw.sum()
            n_max = int(rng.integers(130, 301))
            P = response_matrix(PathWeights(w), n_max).P
            assert_close_to_law(P, response_matrix_exact(w, n_max), 5e-14)

    def test_memory_of_sixty_four_paths(self):
        # unequal weights take the path recurrence: two stages of 65 x 1025
        # doubles, 64 kernels of 65 x 66 and their zero-diagonal copies, and
        # one window of 1025 x 64: about 5 MiB
        weights = PathWeights(np.arange(1.0, 65.0) / 2080.0)
        tracemalloc.start()
        try:
            P = response_matrix(weights, 1024).P
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert np.abs(P.sum(axis=0) - 1.0).max() <= 1e-12

    def test_sixty_four_paths(self):
        resp = response_matrix(uniform_weights(64), 200)
        assert isinstance(resp, DetectorResponse)
        assert resp.P.shape == (65, 201)
        assert np.abs(resp.P.sum(axis=0) - 1.0).max() <= 1e-12

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_invariants_over_the_valid_box(self, data):
        B = data.draw(st.integers(1, 64), label="B")
        if data.draw(st.booleans(), label="equal weights"):
            # equal live paths take the occupancy chain, whose cost is one small
            # matrix product per block of photon numbers, so n_max reaches the cap
            raw = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=B, max_size=B), label="live")
            n_max = data.draw(st.integers(0, _N_CAP), label="n_max")
        else:
            raw = data.draw(
                st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=B, max_size=B),
                label="raw weights",
            )
            # the recurrence's cost grows as (B n_max)^2, so B n_max is held to
            # 2400; a B=64, n_max=300 call, which is past that, takes about 0.04 s
            n_max = data.draw(st.integers(0, min(300, 2400 // B)), label="n_max")
        assume(sum(raw) > 0.0)
        P = response_matrix(PathWeights(np.array(raw) / sum(raw)), n_max).P
        # an entry may round to 1 + 1e-14; the package's mass tolerance is 1e-12
        assert np.all((P >= 0.0) & (P <= 1.0 + 1e-12))
        assert np.abs(P.sum(axis=0) - 1.0).max() <= 1e-12
        k, n = np.ogrid[: B + 1, : n_max + 1]
        assert np.all(P[k > np.minimum(n, B)] == 0.0)

    @pytest.mark.parametrize("n_max", [0, 1, 15, 16, 17, 63, 64, 65])
    def test_matches_per_path_oracle(self, n_max):
        """Against the one-path-at-a-time loop, which applies its Pascal rows 64
        at a time: one block of at most 64 photon numbers (n_max < 64) takes the
        same rows through the same products, so it is bit-identical; more blocks
        differ only in the order of their sums."""
        rng = np.random.default_rng(n_max)
        for B in range(1, 65):
            raw = rng.random(B)
            raw[rng.random(B) < 0.25] = 0.0
            raw[rng.integers(B)] += 0.5  # at least one nonzero path
            w = raw / raw.sum()
            resp = response_matrix(PathWeights(w), n_max)
            oracle = response_matrix_per_path(w, n_max)
            assert resp.P.base is None, "the response must not keep the stages alive"
            if n_max < 64:
                assert np.array_equal(resp.P, oracle), B
            else:
                assert np.all(np.abs(resp.P - oracle) <= 1e-14 * oracle + 1e-300), B

    @pytest.mark.parametrize("n_max", [564, 998])
    def test_unequal_sixteen_paths_against_per_path_oracle(self, n_max):
        # the block recurrence over many blocks, where equal weights would take
        # the chain; the two sum in another order, and on 20 seeds at n_max 998
        # they differed by 4.5e-15 to 2.5e-14 relative
        raw = np.random.default_rng(n_max).random(16) + 0.5
        w = raw / raw.sum()
        P, oracle = response_matrix(PathWeights(w), n_max).P, response_matrix_per_path(w, n_max)
        assert np.all(np.abs(P - oracle) <= 5e-14 * oracle + 1e-300)

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

    @pytest.mark.parametrize(
        "w",
        [
            [0.0, 0.3, 0.05, 0.0, 0.1, 0.2, 0.35, 0.0],
            [0.5 / 63] * 63 + [0.5],
            [1.0 / 65] * 65,
        ],
        ids=["zero-paths-first-middle-last", "B64-heavy-last", "B65-multinomial"],
    )
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 30, _PER_PHOTON_MAX, _PER_PHOTON_MAX + 1])
    def test_click_law_matches_matrix_columns(self, w, n):
        # 400k pulses of n photons each, z-tested per click number against
        # column n of response_matrix; a click number the matrix rules out, as
        # one past the paths of nonzero weight, must never occur.  At B = 64
        # the last path carries half the weight, so a draw that never reached
        # path 63 fails; B = 65 and n past the cut take the multinomial
        weights = PathWeights(np.array(w) / math.fsum(w))
        rng = np.random.default_rng(n)
        pulses = 400_000
        batches = [np.full(50_000, n)] * (pulses // 50_000)  # 50k at a time bounds the scratch
        ks = np.concatenate([simulate_clicks_batch(ns, weights, rng) for ns in batches])
        observed = np.bincount(ks, minlength=weights.B + 1)
        law = response_matrix(weights, n).P[:, n]
        assert observed[law == 0.0].sum() == 0
        expected = pulses * law
        keep = expected >= 100.0
        z = (observed - expected)[keep] / np.sqrt(expected * (1.0 - law))[keep]
        assert np.abs(z).max() <= 4.0

    @pytest.mark.parametrize("n", [2, _PER_PHOTON_MAX, 50])
    def test_zero_weight_path_never_fires(self, n):
        # two paths of weight 1/2 and a dead one: three clicks never happen,
        # either side of the cut
        weights = PathWeights([0.5, 0.5, 0.0])
        ks = simulate_clicks_batch(np.full(100_000, n), weights, np.random.default_rng(7))
        assert ks.max() == 2 and ks.min() >= 1

    def test_batch_matches_scalar_law(self):
        rng = np.random.default_rng(8)
        ks = simulate_clicks_batch(np.array([0, 1, 1, 0]), uniform_weights(8), rng)
        assert ks.tolist() == [0, 1, 1, 0]


# CI's 16 uneven paths, the fourth dead
CUT_WEIGHTS = [2, 0.5, 1.5, 0, 1, 1, 1.5, 0.75, 1.25, 1, 1, 0.5, 0.75, 1.25, 1, 1]


def _mixed_photons(size: int) -> list:
    """size photon numbers from 0, 1, 2-32, 33 and 50, most of them 0 to 3."""
    values = [0, 1, *range(2, 33), 33, 50]
    chances = np.array([40.0, 30.0, 10.0, 5.0] + [0.5] * 29 + [2.0, 2.0])
    return np.random.default_rng(size).choice(values, size, p=chances / chances.sum()).tolist()


class TestClicksReference:
    """The click draw against the draw as it stood before it made fewer passes
    over the pulses: the same click numbers, dtype and stream state after each of
    three calls on one stream, so that no histogram moves.  The reference takes
    int64 photon numbers only (unsigned ones made its segment starts float and
    raised TypeError wherever a pulse held 2 to 32 photons), so uint8 photon
    numbers are held to it in int64."""

    @pytest.mark.parametrize(
        "w",
        [[1.0], [0.5, 0.5, 0.0], [0.125] * 8, CUT_WEIGHTS, [1.0] * 64, [1.0] * 65],
        ids=["B1", "B3-dead", "B8", "B16-uneven-dead", "B64", "B65"],
    )
    @pytest.mark.parametrize(
        "ns",
        [_mixed_photons(3000), [], [0, 1, 1, 0], [2, 32, 5, 0, 1, 2], [33, 50, 0, 1, 40], [1, 33, 2, 50, 32]],
        ids=["mixed", "empty", "zero-one", "per-photon", "multinomial", "both-sides"],
    )
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_equals_reference(self, w, ns, dtype):
        weights = PathWeights(np.array(w) / math.fsum(w))
        ns = np.array(ns, dtype=dtype)
        rng, ref = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(3):
            got = simulate_clicks_batch(ns, weights, rng)
            want = simulate_clicks_batch_reference(ns.astype(np.int64), weights, ref)
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state


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
        with pytest.raises(DegenerateInputError, match=r"paths \[0, 1, 2, 3\] never clicked"):
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

    @pytest.mark.parametrize("B", [8, 12, 16])
    @pytest.mark.parametrize(
        ("params", "n_max"),
        [((0.2, 0.045, 0.045, 16.0), 60), ((5.0, 0.9, 0.9, 50.0), 564)],
        ids=["readme", "bright"],
    )
    def test_equals_the_unscaled_product(self, params, n_max, B):
        # every click cell is above 1e-60 here, so a subnormal partial product
        # lies hundreds of decades below its last digit, and scaling by a power
        # of 2 must leave every cell bit for bit as the unscaled products give it
        rho = joint_distribution(EffectiveSource(*params), n_max)
        uneven = np.r_[0.0, np.arange(1.0, B)] / (B * (B - 1) / 2)
        for weights in (uniform_weights(B), PathWeights(uneven)):
            resp = response_matrix(weights, n_max)
            p = apply_response(rho, resp, resp).p
            assert p[p > 0.0].min() > 1e-60
            assert np.array_equal(p, resp.P @ rho.probs @ resp.P.T)

    @pytest.mark.parametrize("B", [1, 8, 16])
    def test_vacuum_is_exact(self, B):
        probs = np.zeros((5, 5))
        probs[0, 0] = 1.0
        resp = response_matrix(uniform_weights(B), 4)
        p = apply_response(JointDistribution(probs, 4, 0.0), resp, resp).p
        assert p[0, 0] == 1.0 and np.count_nonzero(p) == 1

    @pytest.mark.parametrize("shift", [990, 1020, 1030])
    @pytest.mark.parametrize("B", [4, 16])
    def test_tiny_cells_against_exact_rationals(self, shift, B):
        # a grid at 2^-shift of a source's, its mass moved to rho[0, 0], so every
        # click cell but p[0, 0] lies below 1e-290 and is a sum of products near
        # or below the smallest normal double; Fraction sums them exactly
        n_max = 24
        probs = np.ldexp(joint_distribution(EffectiveSource(1.0, 0.7, 0.6, 3.0), n_max).probs, -shift)
        probs[0, 0] = 0.0
        probs[0, 0] = 1.0 - probs.sum()
        rho = JointDistribution(probs, n_max, 0.0)
        exact = np.vectorize(Fraction, otypes=[object])
        uneven = np.r_[0.0, np.arange(1.0, B)] / (B * (B - 1) / 2)
        for weights in (uniform_weights(B), PathWeights(uneven)):
            resp = response_matrix(weights, n_max)
            P = resp.P
            truth = exact(P).dot(exact(probs)).dot(exact(P).T)
            tiny = [c for c in np.ndindex(truth.shape) if truth[c] < 1e-290]
            assert len(tiny) == truth.size - 1
            p = apply_response(rho, resp, resp).p
            plain = P @ probs @ P.T
            err = [abs(Fraction(p[c]) - truth[c]) for c in tiny]
            err_plain = [abs(Fraction(plain[c]) - truth[c]) for c in tiny]
            assert max(err) <= max(err_plain) and sum(err) <= sum(err_plain)
            # the products round in the normal range, the result once below it
            subnormal = [e for e, c in zip(err, tiny) if truth[c] < 2.0**-1022]
            assert max(subnormal, default=0) <= 2.0**-1073


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


def _click_args():
    return uniform_weights(4), np.random.default_rng(0)


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
            (lambda: simulate_clicks_batch(np.array([[2, 0], [0, 3]]), *_click_args()), "1-d"),
            (lambda: simulate_clicks_batch(np.array(5), *_click_args()), "1-d"),
        ],
        ids=[
            "no weights",
            "2-d weights",
            "P[0, 0] below 1",
            "click above the photon number",
            "1-d click probabilities",
            "no bin counts",
            "response shape against header",
            "2-d photon numbers",
            "0-d photon numbers",
        ],
    )
    def test_raises(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()
