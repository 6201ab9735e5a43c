import dataclasses
import time

import numpy as np
import pytest

from pairstats import analysis, model
from pairstats.analysis import (
    _delta_squared,
    _moments,
    _rate_coefficients,
    _solve_w,
    characterize,
    characterization_record,
    contamination_map,
    format_map,
)
from pairstats._fileio import float_list, parse_matrix
from pairstats.errors import DegenerateInputError, ValidationError
from pairstats.model import (
    EffectiveSource,
    JointDistribution,
    joint_distribution,
    suggest_n_max,
)

from oracles import joint_distribution_oracle


def model_rho(N, eta, eta_prime, M, tail=1e-13):
    src = EffectiveSource(N=N, eta=eta, eta_prime=eta_prime, M=M)
    return joint_distribution(src, suggest_n_max(src, tail))


def balanced_law(eta):
    """k and v of the balanced source; the pair-law parameter is w = N k / (1 + N k)."""
    return 1.0 - (1.0 - eta) ** 2, eta / (2.0 - eta)


def pair_rate(w, v, M, which):
    """rho[1, 1] (which=2) or rho[2, 2] (which=4) of the balanced source at w."""
    return (1.0 - w) ** M * sum(a * w**i for i, a in _rate_coefficients(v, M, which))


def solved_N(rate, eta, M, which):
    k, v = balanced_law(eta)
    w = _solve_w(rate, v, M, which)
    return None if w is None else w / (k * (1.0 - w))


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
    return _delta_squared(*_moments(rho))


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

    def test_leading_order_at_tiny_rate(self):
        # eps2 -> (M + 1) rate (1 - (1 - v)^2 / 2) / (2 M v^2), v = eta / (2 - eta):
        # 7 rate at M=1, eta=0.5
        eps = contamination_map([0.5], [1e-200], M=1.0, which=2)[0, 0]
        assert eps == pytest.approx(7e-200, rel=1e-6)

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


# The contour grid of the benchmark: 8 efficiencies x 9 rates.
MAP_ETAS = np.linspace(0.3, 1.0, 8)
MAP_RATES = np.logspace(-5.0, -1.0, 9)
MAP_CASES = [(M, which) for M in (1.0, 16.0) for which in (2, 4)]


def recurrence_rate(N, eta, M, which):
    c = which // 2
    src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
    return float(joint_distribution(src, 2).probs[c, c])


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

    def test_small_grid_status(self):
        src = EffectiveSource(N=1e-4, eta=0.5, eta_prime=0.5, M=1.0)
        char = characterize(joint_distribution(src, 2))
        assert char.status["eps2"] == "ok"
        assert char.status["eps4"] == "DegenerateInputError"
        assert np.isnan(char.eps4)

    def test_serialization_contains_all_fields(self):
        char = characterize(model_rho(1.0, 0.5, 0.5, 2.0))
        record = characterization_record(char)
        names = [f.name for f in dataclasses.fields(char) if f.name != "status"]
        status = ["status_" + name for name in ("M_hat", "eta_hat", "eps2", "eps4")]
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
