import math
import warnings

import numpy as np
import pytest

from pairstats.errors import (
    ClassicalRegimeError,
    DegenerateInputError,
    PhysicalityError,
    TruncationError,
    ValidationError,
)
from pairstats.model import (
    EffectiveSource,
    JointDistribution,
    MultimodeSource,
    ReducedMoments,
    effective_params,
    format_distribution,
    generating_fn_value,
    joint_distribution,
    parse_distribution,
    perturbative_contamination_fraction,
    _N_CAP,
    _series_coefficients,
    reduce_multimode,
    suggest_n_max,
)

from oracles import closed_form_cell, joint_distribution_oracle, row_scan_coefficients


class TestMultimodeSource:
    def test_unnormalized_filters_rejected(self):
        with pytest.raises(ValidationError, match="t"):
            MultimodeSource(r=[0.5], t=[0.9], t_prime=[1.0])

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValidationError, match="r_k"):
            MultimodeSource(r=[-0.1], t=[1.0], t_prime=[1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            MultimodeSource(r=[0.5, 0.5], t=[1.0], t_prime=[1.0])

    def test_arrays_immutable(self):
        src = MultimodeSource(r=[0.5], t=[1.0], t_prime=[1.0])
        with pytest.raises(ValueError):
            src.r[0] = 2.0


class TestReduceMultimode:
    def test_single_mode_unit_sinh(self):
        # sinh r = 1: n_bar = sinh^2 r = 1, S = sinh r cosh r = sqrt(2)
        src = MultimodeSource(r=[math.asinh(1.0)], t=[1.0], t_prime=[1.0])
        mom = reduce_multimode(src)
        assert mom.n_bar == pytest.approx(1.0, abs=1e-14)
        assert mom.n_bar_prime == pytest.approx(1.0, abs=1e-14)
        assert mom.S == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_vacuum(self):
        src = MultimodeSource(
            r=[0.0, 0.0],
            t=[math.sqrt(0.5), math.sqrt(0.5)],
            t_prime=[math.sqrt(0.5), math.sqrt(0.5)],
        )
        mom = reduce_multimode(src)
        assert mom.n_bar == 0.0 and mom.n_bar_prime == 0.0 and mom.S == 0.0

    def test_two_equal_modes(self):
        # direct evaluation of the two-term sums at r = 0.5
        amp = math.sqrt(0.5)
        src = MultimodeSource(r=[0.5, 0.5], t=[amp, amp], t_prime=[amp, amp])
        mom = reduce_multimode(src)
        assert mom.n_bar == pytest.approx((math.cosh(1.0) - 1.0) / 2.0, rel=1e-14)
        assert mom.n_bar_prime == pytest.approx((math.cosh(1.0) - 1.0) / 2.0, rel=1e-14)
        assert mom.S == pytest.approx(math.sinh(1.0) / 2.0, rel=1e-14)

    def test_phases_survive_reduction(self):
        src = MultimodeSource(r=[0.3], t=[1j], t_prime=[1.0])
        mom = reduce_multimode(src)
        assert mom.S == pytest.approx(1j * math.sinh(0.6) / 2.0)


class TestEffectiveParams:
    def test_lossless_single_mode(self):
        src = effective_params(ReducedMoments(1.0, 1.0, math.sqrt(2.0)))
        assert src.eta == pytest.approx(1.0, abs=1e-12)
        assert src.eta_prime == pytest.approx(1.0, abs=1e-12)
        assert src.N == pytest.approx(1.0, rel=1e-12)

    def test_half_loss_on_arm_a(self):
        # arm-a amplitude scaled by sqrt(0.5): 50% loss
        src = effective_params(ReducedMoments(0.5, 1.0, math.sqrt(2.0) * math.sqrt(0.5)))
        assert src.eta == pytest.approx(0.5, rel=1e-12)
        assert src.eta_prime == pytest.approx(1.0, rel=1e-12)
        assert src.N == pytest.approx(1.0, rel=1e-12)

    def test_identities_hold(self):
        mom = ReducedMoments(0.37, 0.82, 0.71 + 0.2j)
        src = effective_params(mom, M=2.5)
        assert src.N == pytest.approx(mom.n_bar / src.eta, rel=1e-12)
        assert src.N == pytest.approx(mom.n_bar_prime / src.eta_prime, rel=1e-12)
        assert src.M == 2.5

    def test_classical_boundary_rejected(self):
        with pytest.raises(ClassicalRegimeError):
            effective_params(ReducedMoments(1.0, 1.0, 1.0))

    def test_unphysical_moments_rejected(self):
        # |S|^2 - n n' = 1.1 > n' = 0.1 implies eta > 1
        with pytest.raises(PhysicalityError):
            effective_params(ReducedMoments(1.0, 0.1, math.sqrt(1.2)))


class TestEffectiveSourceValidation:
    def test_bad_eta(self):
        with pytest.raises(ValidationError):
            EffectiveSource(N=1.0, eta=1.5, eta_prime=1.0)

    def test_bad_N(self):
        with pytest.raises(ValidationError):
            EffectiveSource(N=0.0, eta=1.0, eta_prime=1.0)

    def test_bad_M(self):
        with pytest.raises(ValidationError):
            EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=0.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_N_and_M(self, value):
        with pytest.raises(ValidationError):
            EffectiveSource(N=value, eta=0.5, eta_prime=0.5)
        with pytest.raises(ValidationError):
            EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=value)
        with pytest.raises(ValidationError):
            EffectiveSource(N=1.0, eta=value, eta_prime=0.5)


class TestGeneratingFn:
    def test_single_mode_origin(self):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0)
        assert generating_fn_value(src, 0.0, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_normalization_point(self):
        src = EffectiveSource(N=2.3, eta=0.4, eta_prime=0.9, M=3.7)
        assert generating_fn_value(src, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_two_modes_square(self):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=2.0)
        assert generating_fn_value(src, 0.0, 0.0) == pytest.approx(0.25, rel=1e-15)

    def test_domain_checked(self):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0)
        with pytest.raises(ValidationError):
            generating_fn_value(src, 1.1, 0.0)


class TestJointDistribution:
    def test_lossless_diagonal_geometric(self):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0)
        dist = joint_distribution(src, 8)
        assert dist.probs[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert dist.probs[1, 1] == pytest.approx(0.25, abs=1e-14)
        assert dist.probs[1, 0] == 0.0
        off = dist.probs[~np.eye(9, dtype=bool)]
        assert np.abs(off).max() <= 1e-14

    def test_blocked_arm(self):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=0.0, M=1.0)
        dist = joint_distribution(src, 6)
        n = np.arange(7)
        assert dist.probs[:, 0] == pytest.approx(0.5 ** (n + 1), rel=1e-14)
        assert np.all(dist.probs[:, 1:] == 0.0)

    def test_vacuum_limit(self):
        src = EffectiveSource(N=1e-12, eta=0.6, eta_prime=0.8, M=2.0)
        dist = joint_distribution(src, 4)
        assert dist.probs[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_normalization_with_tail(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            src = EffectiveSource(
                N=float(rng.uniform(0.05, 3.0)),
                eta=float(rng.uniform(0.05, 1.0)),
                eta_prime=float(rng.uniform(0.05, 1.0)),
                M=float(rng.uniform(1.0, 20.0)),
            )
            dist = joint_distribution(src, int(rng.integers(2, 30)))
            assert np.all(dist.probs >= 0.0)
            assert dist.probs.sum() + dist.tail_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [2.5, 4.0])
    def test_non_integer_n_max_rejected(self, n_max):
        src = EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=1.0)
        with pytest.raises(ValidationError, match="n_max"):
            joint_distribution(src, n_max)

    def test_truncation_error_carries_tail(self):
        src = EffectiveSource(N=3.0, eta=1.0, eta_prime=1.0, M=1.0)
        with pytest.raises(TruncationError) as err:
            joint_distribution(src, 3, tail_bound=1e-6)
        assert err.value.tail_mass > 1e-6

    def test_rho00_decreasing_in_N(self):
        values = [
            joint_distribution(
                EffectiveSource(N=N, eta=0.5, eta_prime=0.7, M=2.0), 2
            ).probs[0, 0]
            for N in (0.1, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_generating_fn_consistency(self):
        src = EffectiveSource(N=0.8, eta=0.6, eta_prime=0.9, M=2.5)
        dist = joint_distribution(src, 25)
        n = np.arange(26)
        for x in (0.0, 0.3, 0.7, 1.0):
            for y in (0.0, 0.5, 1.0):
                partial = float(x**n @ dist.probs @ y**n)
                full = generating_fn_value(src, x, y)
                assert partial <= full + 1e-13
                assert full - partial <= dist.tail_mass + 1e-12

    def test_marginal_mean_variance_law(self):
        # <n> = M eta N and (dn)^2 = <n> + <n>^2 / M
        src = EffectiveSource(N=0.9, eta=0.55, eta_prime=0.75, M=3.0)
        dist = joint_distribution(src, suggest_n_max(src, 1e-14))
        n = np.arange(dist.n_max + 1)
        pa = dist.probs.sum(axis=1)
        mean = float(pa @ n)
        var = float(pa @ n**2) - mean**2
        assert mean == pytest.approx(3.0 * 0.55 * 0.9, abs=1e-9)
        assert var == pytest.approx(mean + mean**2 / 3.0, abs=1e-9)


class TestOracle:
    def test_matches_analytic_on_grid(self):
        for M in (1.0, 2.0, 4.0):
            for N in (0.1, 1.0, 3.0):
                for eta, etap in ((0.3, 0.7), (1.0, 0.3), (0.7, 1.0)):
                    src = EffectiveSource(N=N, eta=eta, eta_prime=etap, M=M)
                    a = joint_distribution(src, 10).probs
                    b = joint_distribution_oracle(src, 10).probs
                    assert np.abs(a - b).max() <= 1e-10

    def test_two_modes_equal_self_convolution(self):
        from scipy.signal import convolve2d

        one = joint_distribution_oracle(
            EffectiveSource(N=0.7, eta=0.5, eta_prime=0.9, M=1.0), 12
        ).probs
        two = joint_distribution_oracle(
            EffectiveSource(N=0.7, eta=0.5, eta_prime=0.9, M=2.0), 12
        ).probs
        conv = convolve2d(one, one)[:13, :13]
        assert np.abs(two - conv).max() <= 1e-13

    def test_requires_integer_modes(self):
        src = EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=1.5)
        with pytest.raises(ValidationError):
            joint_distribution_oracle(src, 4)

    def test_lossless_oracle_is_geometric_diagonal(self):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0)
        probs = joint_distribution_oracle(src, 8).probs
        n = np.arange(9)
        assert probs[n, n] == pytest.approx(0.5 ** (n + 1), abs=1e-14)
        assert np.abs(probs[~np.eye(9, dtype=bool)]).max() <= 1e-14

    def test_half_loss_hand_value(self):
        # rho[0, 1] = sum_j 2^-(j+1) Binom(0|j, 1/2) delta_{1j} = 1/4 * 1/2
        src = EffectiveSource(N=1.0, eta=0.5, eta_prime=1.0, M=1.0)
        probs = joint_distribution_oracle(src, 4).probs
        assert probs[0, 1] == pytest.approx(0.125, abs=1e-14)


class TestRowScan:
    @pytest.mark.parametrize(
        "params",
        [
            (5.0, 0.9, 0.9, 50.0),
            (1.5, 0.4, 0.7, 3.0),
            (1000.0, 0.1, 0.05, 7.3),
            (2.0, 1.0, 0.3, 4.0),
            (2.0, 0.3, 1.0, 4.0),
            (3.0, 0.0, 0.5, 2.0),
            (1.0, 1.0, 1.0, 1.0),
        ],
    )
    def test_diagonal_sweep_equals_row_scan(self, params):
        src = EffectiveSource(*params)
        for n_max in (0, 1, 2, 3, 8, 13, 101, 564, 998):
            sweep = _series_coefficients(src, n_max)
            scan = row_scan_coefficients(src, n_max)
            assert np.array_equal(sweep == 0.0, scan == 0.0), n_max
            normal = scan >= 1e-280
            np.testing.assert_allclose(sweep[normal], scan[normal], rtol=1e-13, atol=0)


class TestFarTail:
    """Grid cells down to 1e-290 against the closed-form double series, which
    shares nothing with the recurrence.  A recurrence that lets a partial sum
    underflow (e.g. one that routes every arm-b-only photon through row 0)
    fails here, while the small-grid oracle comparisons still pass."""

    @pytest.mark.parametrize("n_max", [564, 998])
    @pytest.mark.parametrize(
        "params", [(5.0, 0.9, 0.9, 50.0), (1.5, 0.4, 0.7, 3.0), (1000.0, 0.1, 0.05, 7.3)]
    )
    def test_sampled_cells_match_closed_form(self, params, n_max):
        src = EffectiveSource(*params)
        probs = joint_distribution(src, n_max).probs
        kept = probs >= 1e-290
        logs = np.where(kept, np.log10(np.where(kept, probs, 1.0)), np.inf)
        cells = {np.unravel_index(np.argmax(probs), probs.shape)}
        # the cell nearest each of eight levels from the peak down to 1e-290
        for level in np.linspace(np.log10(probs.max()), -290.0, 8):
            cells.add(np.unravel_index(np.argmin(np.abs(logs - level)), logs.shape))
        # the smallest kept cell of a few rows and columns, out to the edge
        for k in (0, 1, n_max // 2, n_max):
            if np.isfinite(logs[k].min()):
                cells.add((k, np.argmin(logs[k])))
            if np.isfinite(logs[:, k].min()):
                cells.add((np.argmin(logs[:, k]), k))
        rng = np.random.default_rng(564)
        for flat in rng.choice(np.flatnonzero(kept), 8, replace=False):
            cells.add(np.unravel_index(flat, probs.shape))
        assert min(probs[n, m] for n, m in cells) < 1e-280
        for n, m in sorted(cells):
            exact = closed_form_cell(src, int(n), int(m))
            assert probs[n, m] == pytest.approx(exact, rel=1e-12, abs=0.0), (n, m)


class TestPerturbativeFraction:
    def test_lossless_is_zero(self):
        src = EffectiveSource(N=1e-3, eta=1.0, eta_prime=1.0, M=1.0)
        assert perturbative_contamination_fraction(src) == 0.0

    def test_small_N_limit(self):
        src = EffectiveSource(N=1e-4, eta=0.5, eta_prime=0.5, M=1.0)
        assert perturbative_contamination_fraction(src) == pytest.approx(
            2.0 * 0.25 * 1e-4, rel=0.01
        )

    def test_moderate_N(self):
        src = EffectiveSource(N=1e-2, eta=0.5, eta_prime=0.5, M=1.0)
        assert perturbative_contamination_fraction(src) == pytest.approx(5e-3, rel=0.05)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            perturbative_contamination_fraction(
                EffectiveSource(N=0.1, eta=0.5, eta_prime=0.6, M=1.0)
            )
        with pytest.raises(ValidationError):
            perturbative_contamination_fraction(
                EffectiveSource(N=0.1, eta=0.5, eta_prime=0.5, M=2.0)
            )


class TestSuggestNMax:
    def test_tail_bound_respected(self):
        for N, eta, M in ((0.1, 0.3, 1.0), (1.0, 1.0, 4.0), (3.0, 0.7, 16.6)):
            src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
            n_max = suggest_n_max(src, 1e-10)
            assert joint_distribution(src, n_max).tail_mass < 1e-10

    def test_monotone_in_bound(self):
        src = EffectiveSource(N=1.0, eta=0.8, eta_prime=0.8, M=2.0)
        assert suggest_n_max(src, 1e-12) >= suggest_n_max(src, 1e-6)

    def test_cap_raises_with_tail_reached(self):
        src = EffectiveSource(N=200.0, eta=1.0, eta_prime=1.0, M=1.0)
        with pytest.raises(TruncationError) as err:
            suggest_n_max(src, 1e-12)
        assert 1e-12 < err.value.tail_mass < 1e-8
        # n = m is geometric, so the grid tail at the 4096 cap is q^4097
        q = 200.0 / 201.0
        assert err.value.tail_mass >= q**4097
        # the pmf still rises at the cap: no finite bound is certified
        rising = EffectiveSource(N=1e6, eta=1.0, eta_prime=1.0, M=50.0)
        with pytest.raises(TruncationError) as err:
            suggest_n_max(rising, 1e-12)
        assert err.value.tail_mass == np.inf

    @pytest.mark.parametrize("eta, eta_prime", [(0.0, 0.5), (0.5, 0.0)])
    def test_dark_arm_needs_no_cutoff(self, eta, eta_prime):
        src = EffectiveSource(N=1.0, eta=eta, eta_prime=eta_prime, M=2.0)
        n_max = suggest_n_max(src, 1e-12)
        assert n_max == 28
        assert joint_distribution(src, n_max).tail_mass == pytest.approx(3.0e-13, rel=0.02)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1e-3])
    def test_bad_tail_bound_rejected(self, bound):
        src = EffectiveSource(N=1.0, eta=1.0, eta_prime=1.0, M=1.0)
        with pytest.raises(ValidationError, match="tail_bound"):
            suggest_n_max(src, bound)
        with pytest.raises(ValidationError, match="tail_bound"):
            joint_distribution(src, 4, tail_bound=bound)


class TestSerialization:
    def test_distribution_round_trip(self, tmp_path):
        src = EffectiveSource(N=1.3, eta=0.45, eta_prime=0.85, M=2.2)
        dist = joint_distribution(src, 7)
        again = parse_distribution(format_distribution(dist))
        assert np.array_equal(again.probs, dist.probs)
        assert again.tail_mass == dist.tail_mass
        assert again.n_max == dist.n_max

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError):
            parse_distribution("0.5,0.5\n0.0,0.0\n")

    def test_distribution_validation(self):
        with pytest.raises(ValidationError):
            JointDistribution(probs=np.array([[0.5, 0.0], [0.0, 0.0]]), n_max=1)
        with pytest.raises(ValidationError):
            JointDistribution(
                probs=np.array([[0.5, -0.1], [0.3, 0.3]]), n_max=1, tail_mass=0.0
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_distribution_rejects_non_finite(self, value):
        probs = np.full((2, 2), 0.25)
        with pytest.raises(ValidationError):
            JointDistribution(probs=probs, n_max=1, tail_mass=value)
        probs[0, 1] = value
        with pytest.raises(ValidationError):
            JointDistribution(probs=probs, n_max=1)


SOURCE = EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=1.0)


class TestRaises:
    @pytest.mark.parametrize(
        ("call", "kind", "match"),
        [
            (lambda: MultimodeSource(r=[], t=[], t_prime=[]), ValidationError, "non-empty"),
            (lambda: ReducedMoments(-1.0, 1.0, 0.0), ValidationError, "mean photon"),
            (lambda: ReducedMoments(math.inf, 1.0, 2.0), ValidationError, "mean photon"),
            (lambda: ReducedMoments(1.0, math.inf, 2.0), ValidationError, "mean photon"),
            (lambda: ReducedMoments(1.0, 1.0, math.nan), ValidationError, "pair moment S"),
            (lambda: ReducedMoments(1.0, 1.0, complex(0, math.inf)), ValidationError, "S"),
            (
                lambda: reduce_multimode(MultimodeSource(r=[400.0], t=[1], t_prime=[1])),
                ValidationError,
                "r up to 400.0 overflows",
            ),
            (lambda: JointDistribution(np.zeros((2, 3)), 1), ValidationError, "n_max"),
            (lambda: effective_params(ReducedMoments(0.0, 1.0, 1.0)), PhysicalityError, "empty"),
            (lambda: joint_distribution(SOURCE, -1), ValidationError, "n_max"),
            (lambda: joint_distribution(SOURCE, _N_CAP + 1), ValidationError, "4096"),
            (
                lambda: perturbative_contamination_fraction(EffectiveSource(1.0, 0.0, 0.0)),
                DegenerateInputError,
                r"rho\[1, 1\]",
            ),
        ],
        ids=[
            "empty r",
            "negative n_bar",
            "infinite n_bar",
            "infinite n_bar_prime",
            "NaN S",
            "infinite S",
            "overflowing r",
            "non-square probs",
            "empty arm",
            "negative n_max",
            "n_max beyond the cap",
            "dark arms",
        ],
    )
    def test_raises(self, call, kind, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
            with pytest.raises(kind, match=match):
                call()
