import dataclasses
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstats import analysis, model
from pairstats.analysis import (
    _efficiency,
    _moments,
    _rate_coefficients,
    _solve_x,
    characterize,
    characterization_record,
    contamination_map,
    format_map,
    source_contamination,
)
from pairstats._fileio import float_list, parse_matrix
from pairstats.errors import DegenerateInputError, PairStatsError, ValidationError
from pairstats.loop_detector import apply_response, response_matrix, uniform_weights
from pairstats.model import (
    EffectiveSource,
    JointDistribution,
    joint_distribution,
    suggest_n_max,
)

from pairstats.reconstruction import ClickHistogram, em_reconstruct

from oracles import joint_distribution_oracle, law_contamination_reference, source_contamination_decimal

ERROR_CLASSES = {cls.__name__ for cls in PairStatsError.__subclasses__()}

# the statuses that keep a value but warn about it, by estimate
WARNINGS = {
    ("eta_hat", "warning:nonpositive"),
    ("eps2", "warning:tail_mass"),
    ("eps4", "warning:tail_mass"),
}


def model_rho(N, eta, eta_prime, M, tail=1e-13):
    src = EffectiveSource(N=N, eta=eta, eta_prime=eta_prime, M=M)
    return joint_distribution(src, suggest_n_max(src, tail))


def balanced_law(eta):
    """k and v of the balanced source; the pair-law parameter is w = N k / (1 + N k)."""
    return 1.0 - (1.0 - eta) ** 2, eta / (2.0 - eta)


def pair_rate(w, v, M, which):
    """rho[1, 1] (which=2) or rho[2, 2] (which=4) of the balanced source at w."""
    return (1.0 - w) ** M * sum(b * (M * w) ** i for i, b in _rate_coefficients(v, M, which))


def solved_N(rate, eta, M, which):
    k, v = balanced_law(eta)
    x = _solve_x(rate, v, M, which)
    return None if x is None else x / (k * (M - x))


def estimate(rho, name):
    """``characterize(rho).<name>``, which must have status ok."""
    char = characterize(rho)
    assert char.status[name] == "ok", char.status
    return getattr(char, name)


def failure(rho, name):
    """The status of an estimate that ``characterize(rho)`` records as NaN."""
    char = characterize(rho)
    assert np.isnan(getattr(char, name))
    return char.status[name]


def delta_sq(rho):
    """The paper's <delta^2> of rho, which characterize reports as 1 - eta_hat."""
    return 1.0 - _efficiency(*_moments(rho))


def vacuum_rho():
    probs = np.zeros((3, 3))
    probs[0, 0] = 1.0
    return JointDistribution(probs, 2, 0.0)


def thermal_product_rho(nbar_a, nbar_b, n_max=60):
    n = np.arange(n_max + 1)
    pa = nbar_a**n / (nbar_a + 1.0) ** (n + 1)
    pb = nbar_b**n / (nbar_b + 1.0) ** (n + 1)
    probs = np.outer(pa, pb)
    return JointDistribution(probs, n_max, max(0.0, 1.0 - probs.sum()))


class TestModeNumber:
    def test_single_mode_is_thermal(self):
        assert estimate(model_rho(0.7, 0.4, 0.9, 1.0), "M_hat") == pytest.approx(
            1.0, abs=1e-9
        )

    def test_four_modes(self):
        assert estimate(model_rho(0.5, 0.3, 0.3, 4.0), "M_hat") == pytest.approx(
            4.0, abs=1e-9
        )

    def test_fractional_modes(self):
        rho = model_rho(0.2, 0.5, 0.5, 16.6, tail=1e-15)
        assert estimate(rho, "M_hat") == pytest.approx(16.6, abs=1e-9)

    def test_pump_independence(self):
        values = [
            estimate(model_rho(N, 0.6, 0.6, 3.0, tail=1e-15), "M_hat")
            for N in (0.01, 0.1, 1.0)
        ]
        assert max(values) - min(values) <= 1e-9

    def test_arm_b(self):
        # M_hat comes from arm a; arm b's is arm a's of the transposed grid
        rho = model_rho(0.5, 0.3, 0.8, 2.0)
        swapped = JointDistribution(rho.probs.T, rho.n_max, rho.tail_mass)
        assert estimate(swapped, "M_hat") == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("N", [1e-12, 1e-16, 1e-100])
    def test_tiny_pump(self, N):
        # the variance minus the mean cancels here; the factorial moment does not
        rho = joint_distribution(EffectiveSource(N=N, eta=0.5, eta_prime=0.5, M=4.0), 4)
        assert estimate(rho, "M_hat") == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("M", [1.0, 3.0, 100.0])
    @pytest.mark.parametrize("N", [1e-6, 1e-4, 1e-2, 1.0, 10.0])
    def test_exact_on_a_deep_cut(self, N, M):
        # a cutoff bounds the missing mass, not the missing <n(n-1)>: cut at a
        # tail of 1e-12, N = 1e-6 and M = 100 miss M by 6.5e-3; at 1e-30 the
        # factorial-moment tail is far below the tolerance
        assert estimate(model_rho(N, 0.6, 0.4, M, tail=1e-30), "M_hat") == pytest.approx(
            M, rel=1e-9
        )
        if (N, M) == (1e-6, 100.0):
            shallow = estimate(model_rho(N, 0.6, 0.4, M, tail=1e-12), "M_hat")
            assert 1e-3 < abs(shallow - M) / M < 1e-2

    def test_sub_poissonian_rejected(self):
        probs = np.zeros((3, 3))
        probs[1, 1] = 1.0  # variance 0 < mean 1
        rho = JointDistribution(probs, 2, 0.0)
        assert failure(rho, "M_hat") == "SubPoissonianMarginalError"

    def test_vacuum_rejected(self):
        assert failure(vacuum_rho(), "M_hat") == "DegenerateInputError"


class TestDeltaSquared:
    def test_equal_losses(self):
        assert delta_sq(model_rho(0.8, 0.6, 0.6, 2.0)) == pytest.approx(0.4, abs=1e-9)

    def test_unequal_losses(self):
        assert delta_sq(model_rho(1.0, 0.2, 0.6, 1.0)) == pytest.approx(0.7, abs=1e-9)

    def test_identity_over_grid(self):
        for eta in (0.3, 0.7, 1.0):
            for etap in (0.3, 1.0):
                expect = 1.0 - 2.0 / (1.0 / eta + 1.0 / etap)
                got = delta_sq(model_rho(0.5, eta, etap, 2.0))
                assert got == pytest.approx(expect, abs=1e-9)

    def test_uncorrelated_thermal_is_classical(self):
        assert delta_sq(thermal_product_rho(0.4, 0.7)) >= 1.0

    def test_vacuum_rejected(self):
        with pytest.raises(DegenerateInputError):
            delta_sq(vacuum_rho())


class TestEfficiency:
    def test_small_equal_losses(self):
        assert estimate(model_rho(0.3, 0.05, 0.05, 4.0), "eta_hat") == pytest.approx(
            0.05, abs=1e-9
        )

    def test_lossless(self):
        assert estimate(model_rho(1.0, 1.0, 1.0, 1.0), "eta_hat") == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("N", [1e-160, 1e-162, 1e-200])
    def test_tiny_pump(self, N):
        # the squared means underflow here; the mean ratios do not
        rho = joint_distribution(EffectiveSource(N=N, eta=0.5, eta_prime=0.5), 4)
        assert estimate(rho, "eta_hat") == pytest.approx(0.5, abs=1e-12)


class TestContamination:
    def test_eps2_lossless_geometric(self):
        # diagonal law: eps2 = N/(N+1)
        for N in (0.5, 1.0, 2.0):
            rho = model_rho(N, 1.0, 1.0, 1.0, tail=1e-13)
            assert estimate(rho, "eps2") == pytest.approx(N / (N + 1.0), abs=1e-9)

    def test_eps2_small_N_vanishes(self):
        rho = model_rho(1e-6, 1.0, 1.0, 1.0)
        assert estimate(rho, "eps2") == pytest.approx(0.0, abs=1e-5)

    def test_eps4_lossless_geometric(self):
        # rho22 / sum_{n>=2} rho_nn = (N^2/(N+1)^3) / (N/(N+1))^2
        for N in (0.5, 1.0, 2.0):
            rho = model_rho(N, 1.0, 1.0, 1.0, tail=1e-13)
            expect = 1.0 - (N**2 / (N + 1.0) ** 3) / (N / (N + 1.0)) ** 2
            assert estimate(rho, "eps4") == pytest.approx(expect, abs=1e-9)

    def test_monotone_in_N(self):
        values = [
            estimate(model_rho(N, 0.5, 0.5, 1.0), "eps2") for N in (0.01, 0.1, 0.5, 2.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_vacuum_rejected(self):
        assert failure(vacuum_rho(), "eps2") == "DegenerateInputError"

    def test_grid_must_hold_whole_sector_boundary(self):
        # at n_max=2 the (3, 1) and (1, 3) cells of the four-photon sector
        # are missing; the tail cannot stand in for them
        src = EffectiveSource(N=1e-4, eta=0.5, eta_prime=0.5, M=1.0)
        assert failure(joint_distribution(src, 2), "eps4") == "DegenerateInputError"
        assert failure(joint_distribution(src, 0), "eps2") == "DegenerateInputError"
        assert estimate(joint_distribution(src, 3), "eps4") > 0.0


class TestContaminationMap:
    def test_lossless_cell_closed_form(self):
        # eta=1: rho11(N) = N/(N+1)^2, eps2 = N/(N+1)
        rate = 0.01
        eps = contamination_map([1.0], [rate], M=1.0, which=2)
        # solve N/(N+1)^2 = rate on the rising branch
        roots = np.roots([rate, 2 * rate - 1.0, rate])
        N = min(r.real for r in roots if r.real > 0)
        assert eps[0, 0] == pytest.approx(N / (N + 1.0), rel=1e-6)

    def test_monotone_rows_and_columns(self):
        etas = [0.3, 0.5, 0.8, 1.0]
        rates = [1e-5, 1e-4, 1e-3]
        eps = contamination_map(etas, rates, M=1.0, which=2)
        assert np.all(np.isfinite(eps))
        # decreasing along increasing eta at fixed rate
        assert np.all(np.diff(eps, axis=0) <= 1e-12)
        # increasing along increasing rate at fixed eta
        assert np.all(np.diff(eps, axis=1) >= -1e-12)

    def test_unachievable_rate_flagged(self):
        eps = contamination_map([0.1], [0.5], M=1.0, which=2)
        assert np.isnan(eps[0, 0])

    def test_eps4_map_runs(self):
        eps = contamination_map([0.5, 1.0], [1e-6, 1e-5], M=1.0, which=4)
        assert np.all(np.isfinite(eps))
        assert np.all(np.diff(eps, axis=0) <= 1e-12)

    def test_grid_point_matches_process_oracle(self):
        # eta=0.5 at single-pair rate 1e-2: the map cell must agree with the
        # contamination of the independently constructed oracle distribution
        cell = contamination_map([0.5], [1e-2], M=1.0, which=2)[0, 0]
        N = solved_N(1e-2, 0.5, 1.0, 2)
        src = EffectiveSource(N=N, eta=0.5, eta_prime=0.5, M=1.0)
        rho_oracle = joint_distribution_oracle(src, suggest_n_max(src, 1e-12))
        assert cell == pytest.approx(estimate(rho_oracle, "eps2"), abs=1e-9)

    def test_small_rate_limit_against_oracle(self):
        # j=2 pair sector gives eps2 -> N (2 - eta^2) as N -> 0 (M=1, equal eta)
        N = 1e-6
        for eta in (0.3, 0.9):
            src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=1.0)
            rho = joint_distribution(src, suggest_n_max(src, 1e-20))
            got = estimate(rho, "eps2")
            assert got == pytest.approx(N * (2.0 - eta**2), rel=1e-4)
            oracle = estimate(joint_distribution_oracle(src, 6), "eps2")
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_four_photon_cell_at_low_rate(self):
        # the whole sector, not rho22 alone: n_max=2 grids used to give 0 here
        eps = contamination_map([0.5], [1e-12], M=1.0, which=4)[0, 0]
        assert eps == pytest.approx(1.29998085031e-05, rel=1e-9)

    @pytest.mark.parametrize("which", [2, 4])
    def test_rates_below_1e13_are_solved(self, which):
        eps = contamination_map([0.5], [1e-13, 1e-100], M=1.0, which=which)
        assert np.all(eps > 0.0) and np.all(eps < 1e-5)

    @pytest.mark.parametrize("which", [2, 4])
    def test_subnormal_rate_terminates(self, which):
        start = time.perf_counter()
        eps = contamination_map([0.5], [5e-324], M=1.0, which=which)[0, 0]
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= eps <= 1.0
        # so does an M past where M^2 (which=2) or M^4 (which=4) overflows,
        # where the map reads the M -> oo limit, reached by M = 1e12
        for eta in (0.5, 1.0):
            limit = contamination_map([eta], [1e-3], M=1e12, which=which)[0, 0]
            for M in (1e77, 1e78, 1e100, 1.5e154, 1e155, 1e200, 1e300, np.finfo(float).max):
                start = time.perf_counter()
                eps = contamination_map([eta], [1e-3], M=M, which=which)[0, 0]
                assert time.perf_counter() - start < 1.0
                assert eps == pytest.approx(limit, rel=1e-9), (eta, M)

    def test_leading_order_at_tiny_rate(self):
        # eps2 -> (M + 1) rate (1 - (1 - v)^2 / 2) / (2 M v^2), v = eta / (2 - eta):
        # 7 rate at M=1, eta=0.5
        eps = contamination_map([0.5], [1e-200], M=1.0, which=2)[0, 0]
        assert eps == pytest.approx(7e-200, rel=1e-6)

    # (M, which, eta, rate, cell): cells of the balanced-arm law, held to 1e-14 so
    # that a change to the shared pair law shows
    PINNED = [
        (1.0, 2, 0.3, 1e-6, 2.1221611909788304e-05),
        (1.0, 2, 0.9, 1e-3, 0.0014705297771308572),
        (1.0, 4, 0.3, 1e-9, 0.0015037422994332013),
        (1.0, 4, 0.9, 1e-5, 0.005505444493220404),
        (16.0, 2, 0.3, 1e-6, 1.1274148148855933e-05),
        (16.0, 2, 0.9, 1e-3, 0.0007811676057052168),
        (16.0, 4, 0.3, 1e-9, 0.0007745820631124676),
        (16.0, 4, 0.9, 1e-5, 0.002835812683148676),
        (1e200, 2, 0.3, 1e-6, 1.0610973431079021e-05),
        (1e200, 2, 0.9, 1e-3, 0.0007352133529390511),
        (1e200, 4, 0.3, 1e-9, 0.0007097819570257248),
        (1e200, 4, 0.9, 1e-5, 0.0025986027649070004),
    ]

    @pytest.mark.parametrize("M, which, eta, rate, want", PINNED)
    def test_pinned_cells(self, M, which, eta, rate, want):
        cell = contamination_map([eta], [rate], M=M, which=which)[0, 0]
        assert cell == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("which", [2, 4])
    def test_low_efficiency_cells_match_decimal_law(self, which):
        # At eta = 1e-3 a twin has chance v = 5e-4, where 1 - (1 - v)^3 would
        # cancel 11 bits; the map's pump x = M w is turned back into a source,
        # with k = eta (2 - eta), which does not cancel.
        eta = 1e-3
        for M in (1.0, 16.0, 1000.0):
            for rate in np.logspace(-14.0, -8.0, 4):
                cell = contamination_map([eta], [rate], M=M, which=which)[0, 0]
                x = _solve_x(float(rate), eta / (2.0 - eta), M, which)
                N = x / (M - x) / (eta * (2.0 - eta))
                src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
                want = source_contamination_decimal(src)[which // 2 - 1]
                assert cell == pytest.approx(want, rel=1e-14, abs=0.0), (M, rate)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        eta=st.floats(0.0, 1.0, exclude_min=True),
        log_rate=st.floats(-300.0, 0.0),
        log_M=st.floats(0.0, 6.0),
        which=st.sampled_from([2, 4]),
    )
    def test_cells_in_unit_interval_or_nan(self, eta, log_rate, log_M, which):
        cell = contamination_map([eta], [10.0**log_rate], M=10.0**log_M, which=which)[0, 0]
        assert np.isnan(cell) or 0.0 <= cell <= 1.0

    def test_bad_grids_rejected(self):
        with pytest.raises(ValidationError):
            contamination_map([], [1e-4], M=1.0, which=2)
        with pytest.raises(ValidationError):
            contamination_map([0.5], [1e-4], M=1.0, which=3)
        with pytest.raises(ValidationError, match="which"):
            contamination_map([0.5], [1e-4], M=1.0, which=2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValidationError):
            contamination_map([0.5, bad], [1e-4], M=1.0, which=2)
        with pytest.raises(ValidationError):
            contamination_map([0.5], [1e-4, bad], M=1.0, which=2)
        with pytest.raises(ValidationError):
            contamination_map([0.5], [1e-4], M=bad, which=2)


def random_source(rng, log_N=(-12.0, 1.0), log_M=(0.0, 4.0)):
    """A source with log-uniform N and M and independent eta, eta' in [0.01, 1]."""
    return EffectiveSource(
        N=float(10.0 ** rng.uniform(*log_N)),
        eta=float(rng.uniform(0.01, 1.0)),
        eta_prime=float(rng.uniform(0.01, 1.0)),
        M=float(10.0 ** rng.uniform(*log_M)),
    )


class TestSourceContamination:
    def test_matches_decimal_oracle(self):
        # the random box, and sources below it where theta = N k is 2e-60 and 2e-100,
        # and down to 2e-230, where the four-photon terms of an unlifted head underflow
        rng = np.random.default_rng(31)
        tiny = [EffectiveSource(N=1.0, eta=eta, eta_prime=eta, M=1.0) for eta in (1e-60, 1e-100)]
        tiny += [
            EffectiveSource(N=1.0, eta=eta, eta_prime=eta, M=M)
            for M in (1.0, 16.0)
            for eta in (1e-170, 1e-200, 1e-230)
        ]
        for src in [random_source(rng) for _ in range(300)] + tiny:
            got, want = source_contamination(src), source_contamination_decimal(src)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), src

    def test_matches_grid_where_pumped(self):
        # A grid's eps loses digits as the pairs that reach a detector grow rare
        # (its tail mass is rounded).  Where theta = N k >= 1e-2 it keeps 1e-10 on
        # eps2 and 1e-7 on eps4; N >= 1e-3 alone is not enough: at N = 1.5e-3,
        # eta = 0.32, eta' = 0.65 and M = 1.2 (theta = 1.2e-3), eps4 is off by 2e-7.
        rng = np.random.default_rng(32)
        for _ in range(100):
            src = random_source(rng, log_M=(0.0, 2.0))
            k = src.eta + src.eta_prime * (1.0 - src.eta)
            src = dataclasses.replace(src, N=float(10.0 ** rng.uniform(-2.0, 1.0)) / k)
            char = characterize(joint_distribution(src, suggest_n_max(src, 1e-15)))
            eps2, eps4 = source_contamination(src)
            assert char.eps2 == pytest.approx(eps2, rel=1e-10), src
            assert char.eps4 == pytest.approx(eps4, rel=1e-7), src

    def test_balanced_source_matches_map(self):
        for M, which, eta, rate, want in TestContaminationMap.PINNED:
            k, v = balanced_law(eta)
            x = _solve_x(rate, v, M, which)
            src = EffectiveSource(N=x / (M - x) / k, eta=eta, eta_prime=eta, M=M)
            assert source_contamination(src)[which // 2 - 1] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"N": 10.0, "eta": 0.9, "eta_prime": 0.9, "M": 1000.0},
            {"N": 1e-3, "eta": 0.5, "eta_prime": 0.5, "M": 1e300},
            {"N": 5e-324, "eta": 1.0, "eta_prime": 1.0, "M": 1.0},
            {"N": 5e-324, "eta": 0.2, "eta_prime": 0.2, "M": 1.0},
            {"N": 5e-324, "eta": 0.0, "eta_prime": 1.0, "M": 1.0},
            {"N": 1e8, "eta": 1.0, "eta_prime": 1.0, "M": 1.0},
            {"N": 1e300, "eta": 1.0, "eta_prime": 0.5, "M": 59.0},
            {"N": 1.0, "eta": 1e-170, "eta_prime": 1e-170, "M": 1.0},
        ],
        ids=["bright", "huge M", "subnormal N", "subnormal N dim", "subnormal N dark arm",
             "saturated", "saturated M=59", "subnormal twin share"],
    )
    def test_edges_return_fast_or_raise_typed(self, kwargs):
        src = EffectiveSource(**kwargs)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                eps = source_contamination(src)
            except PairStatsError:
                eps = (0.0, 0.0)
        assert time.perf_counter() - start < 1.0
        assert all(0.0 <= e <= 1.0 for e in eps), eps

    def test_bright_sources_read_one(self):
        # P(J = j) <= x^j e^-x: past x = 60 no (c, c) event is left in double precision
        assert source_contamination(EffectiveSource(10.0, 0.9, 0.9, 1000.0)) == (1.0, 1.0)
        assert source_contamination(EffectiveSource(1e-3, 0.5, 0.5, 1e300)) == (1.0, 1.0)

    @pytest.mark.parametrize("dark", ["eta", "eta_prime"])
    def test_dark_arm_is_all_contamination(self, dark):
        # with one arm dark no pair shows in both arms, so no event is a lone or double pair
        for N, M in ((1e-6, 1.0), (1e-3, 5.0), (0.3, 200.0)):
            src = EffectiveSource(N=N, M=M, **{"eta": 0.7, "eta_prime": 0.4, dark: 0.0})
            assert source_contamination(src) == (1.0, 1.0)

    def test_lossless_single_mode_closed_form(self):
        # rho[c, c] = N^c / (N + 1)^(c + 1) and P(n + m >= 2c) = (N / (N + 1))^c
        for N in (1e-9, 0.5, 2.0):
            want = N / (N + 1.0)
            assert source_contamination(EffectiveSource(N, 1.0, 1.0, 1.0)) == pytest.approx(
                (want, want), rel=1e-14
            )

    def test_needs_no_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("source_contamination built a grid")

        for module in (analysis, model):
            monkeypatch.setattr(module, "joint_distribution", refuse)
            monkeypatch.setattr(module, "suggest_n_max", refuse)
        assert 0.0 < source_contamination(EffectiveSource(0.2, 0.045, 0.06, 16.0))[0] < 1.0


# The contour grid of the benchmark: 8 efficiencies x 9 rates.
MAP_ETAS = np.linspace(0.3, 1.0, 8)
MAP_RATES = np.logspace(-5.0, -1.0, 9)
MAP_CASES = [(M, which) for M in (1.0, 16.0) for which in (2, 4)]


def recurrence_rate(N, eta, M, which):
    c = which // 2
    src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
    return float(joint_distribution(src, 2).probs[c, c])


class TestLawContaminationReference:
    """``_law_contamination`` against the law as it stood before its scaled head was
    lifted: the lift is an exact power of 2, so wherever the old head stayed normal
    every figure is the same double."""

    def test_equals_reference_on_random_laws(self):
        # x and the split of 2,000 random sources, eta and eta' down to 1e-100
        rng = np.random.default_rng(43)
        for i in range(2000):
            etas = 10.0 ** rng.uniform(-100.0, 0.0, 2) if i % 2 else rng.uniform(1e-3, 1.0, 2)
            src = EffectiveSource(
                N=float(10.0 ** rng.uniform(-12.0, 3.0)),
                eta=float(etas[0]),
                eta_prime=float(etas[1]),
                M=float(10.0 ** rng.uniform(0.0, 4.0)),
            )
            law, which = model._pair_law(src), int(rng.choice([2, 4]))
            args = (src.M * law.w, src.M, which, *law.split.tolist())
            assert analysis._law_contamination(*args) == law_contamination_reference(*args), args

    @pytest.mark.parametrize("M, which, eta, rate, want", TestContaminationMap.PINNED)
    def test_equals_reference_on_pinned_cells(self, M, which, eta, rate, want):
        v = eta / (2.0 - eta)
        args = (_solve_x(rate, v, M, which), M, which, v, 0.5 * (1.0 - v), 0.5 * (1.0 - v))
        assert analysis._law_contamination(*args) == law_contamination_reference(*args)


class TestClosedFormRates:
    @pytest.mark.parametrize("M", [1.0, 2.5, 16.0, 1000.0])
    @pytest.mark.parametrize("which", [2, 4])
    def test_matches_recurrence(self, M, which):
        # Both computations underflow together at large N and M; below the
        # smallest normal double neither keeps relative precision.
        tiny = np.finfo(float).tiny
        for eta in (0.05, 0.3, 0.7, 1.0):
            k, v = balanced_law(eta)
            for N in np.logspace(-6.0, 3.0, 28):
                got = pair_rate(N * k / (1.0 + N * k), v, M, which)
                want = recurrence_rate(float(N), eta, M, which)
                assert got == pytest.approx(want, rel=1e-12, abs=tiny)

    @pytest.mark.parametrize("M, which", MAP_CASES)
    def test_solved_N_hits_target_on_rising_branch(self, M, which):
        for eta in MAP_ETAS:
            for rate in MAP_RATES:
                N = solved_N(float(rate), float(eta), M, which)
                if N is None:
                    continue
                got = recurrence_rate(N, float(eta), M, which)
                assert got == pytest.approx(rate, rel=1e-9)
                smaller = N * np.logspace(-6.0, -1e-4, 60)
                rates = [recurrence_rate(x, float(eta), M, which) for x in smaller]
                assert max(rates) < rate

    @pytest.mark.parametrize("M, which", MAP_CASES)
    def test_nan_only_where_rate_unreachable(self, M, which):
        scan_N = np.logspace(-6.0, 4.0, 4001)
        eps = contamination_map(MAP_ETAS, MAP_RATES, M=M, which=which)
        for i, eta in enumerate(MAP_ETAS):
            k, v = balanced_law(float(eta))
            peak = max(pair_rate(w, v, M, which) for w in scan_N * k / (1.0 + scan_N * k))
            for j, rate in enumerate(MAP_RATES):
                assert np.isnan(eps[i, j]) == (peak < rate)

    def test_map_needs_no_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("contamination_map built a grid")

        for module in (analysis, model):
            monkeypatch.setattr(module, "joint_distribution", refuse)
            monkeypatch.setattr(module, "suggest_n_max", refuse)
        for M, which in MAP_CASES:
            eps = contamination_map(MAP_ETAS, MAP_RATES, M=M, which=which)
            assert np.isfinite(eps).sum() >= eps.size // 2


def recurrence_N(rate, eta, M, which):
    """Smallest N whose n_max=2 recurrence rate reaches ``rate``.

    Steps N up from 1e-20 by a factor until the rate is reached, then
    bisects.  A step that lands past the peak, where the rate falls, is
    taken back with a finer factor.
    """
    hi, step, last = 1e-20, 10.0, 0.0
    while (got := recurrence_rate(hi, eta, M, which)) < rate:
        if got < last:
            hi, step, last = hi / step**2, step**0.25, 0.0
            assert step > 1.0 + 1e-9, "rate not reached"
        else:
            last = got
        hi *= step
    lo = hi / step
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if recurrence_rate(mid, eta, M, which) < rate:
            lo = mid
        else:
            hi = mid
    return hi


def grid_contamination(N, eta, M, which, tail):
    """Sector cells other than rho[c, c] over all sector cells, on a grid with tail <= ``tail``."""
    src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
    rho = joint_distribution(src, suggest_n_max(src, tail))
    n = np.arange(rho.n_max + 1)
    sector = (n[:, None] + n[None, :]) >= which
    others = sector.copy()
    others[which // 2, which // 2] = False
    return rho.probs[others].sum() / rho.probs[sector].sum()


class TestGridOracle:
    @pytest.mark.parametrize("M", [1.0, 2.5, 16.0, 1000.0])
    @pytest.mark.parametrize("which", [2, 4])
    def test_cells_match_grid(self, M, which):
        # The grid's tail is below 1e-15 of the numerator, which is at least
        # rate * eps, so truncation is far below the 1e-11 asked for.
        etas = [0.05, 0.5, 1.0]
        rates = np.logspace(-12.0, -1.0, 12)
        eps = contamination_map(etas, rates, M=M, which=which)
        for i, j in np.argwhere(np.isfinite(eps)):
            N = recurrence_N(rates[j], etas[i], M, which)
            want = grid_contamination(N, etas[i], M, which, 1e-15 * rates[j] * eps[i, j])
            assert eps[i, j] == pytest.approx(want, rel=1e-11)


class TestCharacterize:
    def test_vacuum_statuses(self):
        char = characterize(vacuum_rho())
        assert char.mean_n == 0.0 and char.mean_n_prime == 0.0
        for field in ("M_hat", "eta_hat", "eps2", "eps4"):
            assert char.status[field] == "DegenerateInputError"
            assert np.isnan(getattr(char, field))

    def test_lossless_single_mode(self):
        char = characterize(model_rho(1.0, 1.0, 1.0, 1.0))
        assert char.M_hat == pytest.approx(1.0, abs=1e-9)
        assert char.eta_hat == pytest.approx(1.0, abs=1e-9)
        assert char.eps2 == pytest.approx(0.5, abs=1e-9)
        assert char.eps4 == pytest.approx(0.5, abs=1e-9)
        assert char.p11 == pytest.approx(0.25, abs=1e-12)

    def test_heavy_tail_contamination_is_exact(self):
        # the whole tail lies in both sectors, so a coarse grid loses nothing
        src = EffectiveSource(N=2.0, eta=0.9, eta_prime=0.9, M=2.0)
        rho = joint_distribution(src, 6)  # deliberately coarse truncation
        assert rho.tail_mass > 0.1
        coarse = characterize(rho)
        wide = characterize(joint_distribution(src, suggest_n_max(src, 1e-13)))
        assert coarse.eps2 == pytest.approx(wide.eps2, rel=1e-12)
        assert coarse.eps4 == pytest.approx(wide.eps4, rel=1e-12)

    @pytest.mark.parametrize("M", [2.0, 3.0, 16.0])
    def test_rounded_tail_flags_contamination(self, M):
        # at N = 1e-8 the grid cut at a 1e-15 tail ends at n_max 2, and its tail
        # is 1 - sum rounded: where that is positive (M = 3, 16) it is as large
        # as the mass eps2 measures, so the value is kept and the status warns;
        # where it rounds to 0 (M = 2) the grid holds the sector, and eps2 is ok
        src = EffectiveSource(N=1e-8, eta=0.6, eta_prime=0.4, M=M)
        rho = joint_distribution(src, suggest_n_max(src, 1e-15))
        char = characterize(rho)
        assert rho.n_max == 2 and np.isfinite(char.eps2)
        if M == 2.0:
            assert rho.tail_mass == 0.0 and char.status["eps2"] == "ok"
            assert char.eps2 == pytest.approx(source_contamination(src)[0], rel=1e-7)
        else:
            assert rho.tail_mass > 0.0 and char.status["eps2"] == "warning:tail_mass"

    def test_weakest_grid_holds_the_two_photon_cells(self):
        # a cut at n_max 1 would leave the sector's cells off (1, 1) to a tail
        # that rounds to 0 here, and eps2 would read 0 with status ok
        src = EffectiveSource(N=3.06e-8, eta=0.0584, eta_prime=0.0656, M=1.367)
        rho = joint_distribution(src, suggest_n_max(src, 1e-15))
        char = characterize(rho)
        assert rho.n_max == 2 and rho.tail_mass == 0.0 and char.status["eps2"] == "ok"
        assert char.eps2 == pytest.approx(source_contamination(src)[0], rel=1e-7)

    def test_readme_and_em_contamination_stay_ok(self):
        # the README grid's tail is far below 1e-3 of either sector's mass off
        # the diagonal cell, and an EM rho has no tail
        src = EffectiveSource(N=0.2, eta=0.045, eta_prime=0.045, M=16.0)
        rho = joint_distribution(src, suggest_n_max(src, 1e-12))
        assert rho.tail_mass > 0.0
        resp = response_matrix(uniform_weights(8), rho.n_max)
        f = np.round(apply_response(rho, resp, resp).p * 1e8).astype(np.int64)
        fitted = em_reconstruct(ClickHistogram(f=f, pulses=int(f.sum())), resp, resp, rho.n_max).rho
        assert fitted.tail_mass == 0.0
        for grid in (rho, fitted):
            char = characterize(grid)
            assert char.status["eps2"] == char.status["eps4"] == "ok", char.status

    def test_small_grid_status(self):
        src = EffectiveSource(N=1e-4, eta=0.5, eta_prime=0.5, M=1.0)
        char = characterize(joint_distribution(src, 2))
        assert char.status["eps2"] == "ok"
        assert char.status["eps4"] == "DegenerateInputError"
        assert np.isnan(char.eps4)

    @pytest.mark.parametrize("n_max", [0, 1, 2])
    def test_diagonal_cells_need_their_grid(self, n_max):
        src = EffectiveSource(N=0.5, eta=0.5, eta_prime=0.5, M=1.0)
        rho = joint_distribution(src, n_max)
        char = characterize(rho)
        for c, name in ((1, "p11"), (2, "p22")):
            if n_max >= c:
                assert getattr(char, name) == rho.probs[c, c]
                assert char.status[name] == "ok"
            else:
                assert np.isnan(getattr(char, name))
                assert char.status[name] == "DegenerateInputError"

    def test_serialization_contains_all_fields(self):
        char = characterize(model_rho(1.0, 0.5, 0.5, 2.0))
        record = characterization_record(char)
        names = [f.name for f in dataclasses.fields(char) if f.name != "status"]
        status = ["status_" + name for name in ("M_hat", "eta_hat", "eps2", "eps4", "p11", "p22")]
        assert list(record) == names + status
        assert all(record[name] == getattr(char, name) for name in names)
        assert record["status_eta_hat"] == "ok"

    def test_all_tail_grid(self):
        # the shape of the grid that underflows at M=2000: every mass in the tail
        char = characterize(JointDistribution(np.zeros((3, 3)), 2, tail_mass=1.0))
        assert (char.mean_n, char.mean_n_prime, char.var_n, char.var_n_prime) == (0, 0, 0, 0)
        for name in ("M_hat", "eta_hat", "eps4"):
            assert np.isnan(getattr(char, name))
            assert char.status[name] == "DegenerateInputError"
        assert char.eps2 == 1.0 and char.status["eps2"] == "ok"

    def test_classical_arms_warn_nonpositive_efficiency(self):
        char = characterize(thermal_product_rho(0.4, 0.7))
        assert char.eta_hat == pytest.approx(-0.509, abs=1e-3)
        assert char.status["eta_hat"] == "warning:nonpositive"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        n_max=st.integers(0, 12),
        shape=st.sampled_from(["dense", "zero rows", "point mass"]),
        log_mass=st.one_of(st.just(0.0), st.floats(-300.0, 0.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_estimates_meet_their_invariants(self, n_max, shape, log_mass, seed):
        # an estimate is NaN exactly when its status names an error class, and the
        # contaminations and diagonal cells are probabilities
        rng = np.random.default_rng(seed)
        size = n_max + 1
        if shape == "point mass":
            probs = np.zeros((size, size))
            probs[tuple(rng.integers(0, size, 2))] = 1.0
        else:
            probs = rng.random((size, size)) ** 4
            if shape == "zero rows":
                probs[rng.random(size) < 0.5] = 0.0
                probs[:, rng.random(size) < 0.5] = 0.0
            if not probs.any():
                probs[0, 0] = 1.0
            probs /= probs.sum()
        mass = 10.0**log_mass  # the rest is tail
        try:
            char = characterize(JointDistribution(probs * mass, n_max, 1.0 - mass))
        except PairStatsError:
            return
        for name, status in char.status.items():
            value = getattr(char, name)
            assert np.isnan(value) == (status in ERROR_CLASSES), (name, status, value)
            assert status in ERROR_CLASSES or status == "ok" or (name, status) in WARNINGS
            assert mass < 1.0 or status != "warning:tail_mass"  # no tail, no tail warning
        for name in ("eps2", "eps4", "p11", "p22"):
            value = getattr(char, name)
            assert np.isnan(value) or 0.0 <= value <= 1.0, (name, value)


class TestMapFormat:
    def test_header_and_shape(self):
        eps = np.array([[0.1, 0.2], [0.3, np.nan]])
        text = format_map(eps, [0.5, 1.0], [1e-4, 1e-3], 1.0, 2)
        lines = text.splitlines()
        assert lines[0] == "# which=2 M=1 eta=0.5,1 rate=0.0001,0.001"
        assert len(lines) == 3
        assert lines[2] == "0.29999999999999999,nan"

    def test_parse_matrix_reads_it_back(self):
        # one header line with the grids; a NaN cell is an unreachable rate
        eta, rate = np.linspace(0.05, 1.0, 4), np.geomspace(1e-5, 0.9, 4)
        eps = contamination_map(eta, rate, M=1.5, which=2)
        assert np.isnan(eps).any() and np.isfinite(eps).any()
        types = {"which": int, "M": float, "eta": float_list, "rate": float_list}
        header, again = parse_matrix(format_map(eps, eta, rate, 1.5, 2), "map", types)
        assert (header["which"], header["M"]) == (2, 1.5)
        assert np.array_equal(header["eta"], eta) and np.array_equal(header["rate"], rate)
        assert np.array_equal(again, eps, equal_nan=True)
