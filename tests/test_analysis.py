import numpy as np
import pytest

from pairstats import analysis
from pairstats.analysis import (
    _closed_form_rate,
    _invert_rate,
    characterize,
    contamination2,
    contamination4,
    contamination_map,
    delta_squared,
    efficiency,
    format_characterization,
    format_map,
    mode_number,
)
from pairstats.errors import (
    DegenerateInputError,
    SubPoissonianMarginalError,
    ValidationError,
)
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
        assert mode_number(model_rho(0.7, 0.4, 0.9, 1.0)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_four_modes(self):
        assert mode_number(model_rho(0.5, 0.3, 0.3, 4.0)) == pytest.approx(
            4.0, abs=1e-9
        )

    def test_fractional_modes(self):
        rho = model_rho(0.2, 0.5, 0.5, 16.6, tail=1e-15)
        assert mode_number(rho) == pytest.approx(16.6, abs=1e-9)

    def test_pump_independence(self):
        values = [
            mode_number(model_rho(N, 0.6, 0.6, 3.0, tail=1e-15))
            for N in (0.01, 0.1, 1.0)
        ]
        assert max(values) - min(values) <= 1e-9

    def test_arm_b(self):
        assert mode_number(model_rho(0.5, 0.3, 0.8, 2.0), arm="b") == pytest.approx(
            2.0, abs=1e-9
        )

    def test_sub_poissonian_rejected(self):
        probs = np.zeros((3, 3))
        probs[1, 1] = 1.0  # variance 0 < mean 1
        with pytest.raises(SubPoissonianMarginalError):
            mode_number(JointDistribution(probs, 2, 0.0))

    def test_vacuum_rejected(self):
        with pytest.raises(DegenerateInputError):
            mode_number(vacuum_rho())


class TestDeltaSquared:
    def test_equal_losses(self):
        assert delta_squared(model_rho(0.8, 0.6, 0.6, 2.0)) == pytest.approx(
            0.4, abs=1e-9
        )

    def test_unequal_losses(self):
        assert delta_squared(model_rho(1.0, 0.2, 0.6, 1.0)) == pytest.approx(
            0.7, abs=1e-9
        )

    def test_identity_over_grid(self):
        for eta in (0.3, 0.7, 1.0):
            for etap in (0.3, 1.0):
                expect = 1.0 - 2.0 / (1.0 / eta + 1.0 / etap)
                got = delta_squared(model_rho(0.5, eta, etap, 2.0))
                assert got == pytest.approx(expect, abs=1e-9)

    def test_uncorrelated_thermal_is_classical(self):
        assert delta_squared(thermal_product_rho(0.4, 0.7)) >= 1.0

    def test_vacuum_rejected(self):
        with pytest.raises(DegenerateInputError):
            delta_squared(vacuum_rho())


class TestEfficiency:
    def test_small_equal_losses(self):
        assert efficiency(model_rho(0.3, 0.05, 0.05, 4.0)) == pytest.approx(
            0.05, abs=1e-9
        )

    def test_lossless(self):
        assert efficiency(model_rho(1.0, 1.0, 1.0, 1.0)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_classical_data_warns(self):
        with pytest.warns(UserWarning, match="classical"):
            value = efficiency(thermal_product_rho(0.4, 0.7))
        assert value <= 0.0


class TestContamination:
    def test_eps2_lossless_geometric(self):
        # diagonal law: eps2 = N/(N+1)
        for N in (0.5, 1.0, 2.0):
            rho = model_rho(N, 1.0, 1.0, 1.0, tail=1e-13)
            assert contamination2(rho) == pytest.approx(N / (N + 1.0), abs=1e-9)

    def test_eps2_small_N_vanishes(self):
        rho = model_rho(1e-6, 1.0, 1.0, 1.0)
        assert contamination2(rho) == pytest.approx(0.0, abs=1e-5)

    def test_eps4_lossless_geometric(self):
        # rho22 / sum_{n>=2} rho_nn = (N^2/(N+1)^3) / (N/(N+1))^2
        for N in (0.5, 1.0, 2.0):
            rho = model_rho(N, 1.0, 1.0, 1.0, tail=1e-13)
            expect = 1.0 - (N**2 / (N + 1.0) ** 3) / (N / (N + 1.0)) ** 2
            assert contamination4(rho) == pytest.approx(expect, abs=1e-9)

    def test_monotone_in_N(self):
        values = [
            contamination2(model_rho(N, 0.5, 0.5, 1.0)) for N in (0.01, 0.1, 0.5, 2.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_vacuum_rejected(self):
        with pytest.raises(DegenerateInputError):
            contamination2(vacuum_rho())


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
        N = _invert_rate(1e-2, 0.5, 1.0, 2)
        src = EffectiveSource(N=N, eta=0.5, eta_prime=0.5, M=1.0)
        rho_oracle = joint_distribution_oracle(src, suggest_n_max(src, 1e-12))
        assert cell == pytest.approx(contamination2(rho_oracle), abs=1e-9)

    def test_small_rate_limit_against_oracle(self):
        # j=2 pair sector gives eps2 -> N (2 - eta^2) as N -> 0 (M=1, equal eta)
        N = 1e-6
        for eta in (0.3, 0.9):
            src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=1.0)
            rho = joint_distribution(src, suggest_n_max(src, 1e-20))
            got = contamination2(rho)
            assert got == pytest.approx(N * (2.0 - eta**2), rel=1e-4)
            oracle = contamination2(joint_distribution_oracle(src, 6))
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_bad_grids_rejected(self):
        with pytest.raises(ValidationError):
            contamination_map([], [1e-4], M=1.0, which=2)
        with pytest.raises(ValidationError):
            contamination_map([0.5], [1e-4], M=1.0, which=3)

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
            for N in np.logspace(-6.0, 3.0, 28):
                got = _closed_form_rate(float(N), eta, M, which)
                want = recurrence_rate(float(N), eta, M, which)
                assert got == pytest.approx(want, rel=1e-12, abs=tiny)

    @pytest.mark.parametrize("M, which", MAP_CASES)
    def test_solved_N_hits_target_on_rising_branch(self, M, which):
        for eta in MAP_ETAS:
            for rate in MAP_RATES:
                N = _invert_rate(float(rate), float(eta), M, which)
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
            peak = float(np.max(_closed_form_rate(scan_N, float(eta), M, which)))
            for j, rate in enumerate(MAP_RATES):
                assert np.isnan(eps[i, j]) == (peak < rate)

    def test_one_grid_per_finite_cell(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return joint_distribution(*args, **kwargs)

        monkeypatch.setattr(analysis, "joint_distribution", counting)
        for M, which in MAP_CASES:
            calls.clear()
            eps = contamination_map(MAP_ETAS, MAP_RATES, M=M, which=which)
            assert len(calls) <= int(np.isfinite(eps).sum())


class TestCharacterize:
    def test_vacuum_statuses(self):
        char = characterize(vacuum_rho())
        assert char.mean_n == 0.0 and char.mean_n_prime == 0.0
        for field in ("M_hat", "delta_sq", "eps2", "eps4"):
            assert char.status[field] == "DegenerateInputError"
            assert np.isnan(getattr(char, field))

    def test_lossless_single_mode(self):
        char = characterize(model_rho(1.0, 1.0, 1.0, 1.0))
        assert char.M_hat == pytest.approx(1.0, abs=1e-9)
        assert char.eta_hat == pytest.approx(1.0, abs=1e-9)
        assert char.eps2 == pytest.approx(0.5, abs=1e-9)
        assert char.eps4 == pytest.approx(0.5, abs=1e-9)
        assert char.p11 == pytest.approx(0.25, abs=1e-12)
        assert char.eta_hat == 1.0 - char.delta_sq

    def test_interval_reported_for_heavy_tail(self):
        src = EffectiveSource(N=2.0, eta=0.9, eta_prime=0.9, M=2.0)
        rho = joint_distribution(src, 6)  # deliberately coarse truncation
        assert rho.tail_mass > 1e-9
        char = characterize(rho)
        assert "eps2" in char.intervals
        assert char.intervals["eps2"] > 0.0

    def test_serialization_contains_all_fields(self):
        text = format_characterization(characterize(model_rho(1.0, 0.5, 0.5, 2.0)))
        for key in ("mean_n=", "M_hat=", "eps4=", "status_delta_sq=ok"):
            assert key in text


class TestMapFormat:
    def test_header_and_shape(self):
        eps = np.array([[0.1, 0.2], [0.3, np.nan]])
        text = format_map(eps, [0.5, 1.0], [1e-4, 1e-3], 1.0, 2)
        lines = text.splitlines()
        assert lines[0].startswith("# which=2")
        assert "sentinel=nan" in lines[0]
        assert lines[1].startswith("# eta=")
        assert lines[2].startswith("# rate=")
        assert len(lines) == 5
        assert "nan" in lines[4]
