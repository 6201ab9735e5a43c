import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstats.analysis import _law_contamination, source_contamination
from pairstats.errors import (
    ClassicalRegimeError,
    DegenerateInputError,
    PairStatsError,
    TruncationError,
    ValidationError,
)
from pairstats.loop_detector import ClickDistribution, PathWeights
from pairstats.model import (
    EffectiveSource,
    JointDistribution,
    MultimodeSource,
    effective_params,
    format_distribution,
    generating_fn_value,
    joint_distribution,
    parse_distribution,
    _BLOCK,
    _N_CAP,
    _check_mass,
    _index,
    _pair_law,
    _series_coefficients,
    suggest_n_max,
)

from oracles import (
    closed_form_cell,
    diagonal_sweep_coefficients,
    filtered_moments,
    joint_distribution_oracle,
    row_scan_coefficients,
    suggest_n_max_reference,
)


class TestMultimodeSource:
    def test_unnormalized_filters_rejected(self):
        with pytest.raises(ValidationError, match="t"):
            MultimodeSource(r=[0.5], t=[1.1], t_prime=[1.0])

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

    def test_lossy_filters_accepted(self):
        src = MultimodeSource(r=[0.5, 0.2], t=[0.3, 0.4j], t_prime=[0.9, 0.0])
        assert np.sum(np.abs(src.t) ** 2) == pytest.approx(0.25)


def single_mode(N, eta, eta_prime, phase=0.0):
    """The one-mode source with effective parameters N, eta, eta_prime:
    sinh^2 r = N, and the filter powers are the transmissions."""
    return MultimodeSource(
        r=[math.asinh(math.sqrt(N))],
        t=[math.sqrt(eta) * complex(math.cos(phase), math.sin(phase))],
        t_prime=[math.sqrt(eta_prime)],
    )


class TestReduceMultimode:
    """The reduction of a multimode source to its effective parameters."""

    def test_single_mode_unit_sinh(self):
        # sinh r = 1: n_bar = sinh^2 r = 1, |S|^2 - n_bar^2 = cosh^2 r - 1 = 1
        src = effective_params(MultimodeSource(r=[math.asinh(1.0)], t=[1.0], t_prime=[1.0]))
        assert (src.N, src.eta, src.eta_prime) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_vacuum(self):
        amp = math.sqrt(0.5)
        with pytest.raises(ClassicalRegimeError):
            effective_params(MultimodeSource(r=[0.0, 0.0], t=[amp, amp], t_prime=[amp, amp]))

    def test_two_equal_modes(self):
        # equal modes seen through equal filters act as the one mode r = 0.5
        amp = math.sqrt(0.5)
        src = effective_params(MultimodeSource(r=[0.5, 0.5], t=[amp, amp], t_prime=[amp, amp]))
        assert src.N == pytest.approx(math.sinh(0.5) ** 2, rel=1e-14)
        assert (src.eta, src.eta_prime) == pytest.approx((1.0, 1.0), abs=1e-15)

    def test_phases_survive_reduction(self):
        # a global filter phase drops out; a relative one between equal modes
        # gives eta = cos^2(phi/2) - sinh^2 r sin^2(phi/2)
        amp, r = math.sqrt(0.5), 0.3
        for phi in (0.0, 0.4, 1.0):
            turned = [amp, amp * complex(math.cos(phi), math.sin(phi))]
            src = effective_params(
                MultimodeSource(r=[r, r], t=[1j * amp, 1j * amp], t_prime=turned)
            )
            want = math.cos(phi / 2) ** 2 - math.sinh(r) ** 2 * math.sin(phi / 2) ** 2
            assert src.eta == pytest.approx(want, abs=1e-14), phi
            assert src.eta_prime == pytest.approx(want, abs=1e-14), phi


class TestEffectiveParams:
    def test_lossless_single_mode(self):
        for r in (1e-9, 1e-6, 1e-3, 1.0, 10.0, 20.0, 23.0):
            src = effective_params(MultimodeSource(r=[r], t=[1.0], t_prime=[1.0]))
            assert src.N == pytest.approx(math.sinh(r) ** 2, rel=1e-14), r
            assert (src.eta, src.eta_prime) == pytest.approx((1.0, 1.0), abs=1e-15), r

    def test_half_loss_on_arm_a(self):
        src = effective_params(single_mode(1.0, 0.5, 1.0))
        assert src.eta == pytest.approx(0.5, rel=1e-12)
        assert src.eta_prime == pytest.approx(1.0, rel=1e-12)
        assert src.N == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("r", [1e-6, 0.7, 12.0])
    @pytest.mark.parametrize(("T", "T_prime"), [(0.3, 0.8), (1e-6, 1.0), (0.05, 0.05)])
    def test_single_lossy_mode(self, r, T, T_prime):
        mode = MultimodeSource(r=[r], t=[math.sqrt(T)], t_prime=[math.sqrt(T_prime)])
        src = effective_params(mode)
        assert src.eta == pytest.approx(T, rel=1e-12)
        assert src.eta_prime == pytest.approx(T_prime, rel=1e-12)
        assert src.N == pytest.approx(math.sinh(r) ** 2, rel=1e-12)

    def test_identities_hold(self):
        # the moment triple (0.37, 0.82, 0.71 + 0.2j) as its one lossy mode
        n_bar, n_bar_prime, S = 0.37, 0.82, 0.71 + 0.2j
        N = n_bar * n_bar_prime / (abs(S) ** 2 - n_bar * n_bar_prime)
        mode = single_mode(N, n_bar / N, n_bar_prime / N, phase=math.atan2(S.imag, S.real))
        assert filtered_moments(mode) == pytest.approx((n_bar, n_bar_prime, S), rel=1e-14)
        src = effective_params(mode)
        assert src.N == pytest.approx(N, rel=1e-12)
        assert src.N * src.eta == pytest.approx(n_bar, rel=1e-12)
        assert src.N * src.eta_prime == pytest.approx(n_bar_prime, rel=1e-12)
        assert src.M == 1.0
        # m identical copies of the pair: only M changes
        copies = dataclasses.replace(src, M=2.5)
        assert (copies.N, copies.eta, copies.eta_prime, copies.M) == (
            src.N, src.eta, src.eta_prime, 2.5
        )

    def test_classical_boundary_rejected(self):
        # orthogonal filters see two independent thermal modes: S = 0
        with pytest.raises(ClassicalRegimeError):
            effective_params(MultimodeSource(r=[1.0, 1.0], t=[1.0, 0.0], t_prime=[0.0, 1.0]))

    @pytest.mark.parametrize(
        ("r", "phi"),
        [(0.5, 0.3), (1.0, 0.5), (3.0, 0.05), (10.0, 1e-4), (20.0, 1e-9), (23.0, 1e-10),
         (1.0, 1.0), (3.0, 0.2), (20.0, 1e-7)],
    )
    def test_two_mode_closed_form(self, r, phi):
        # arm b sees mode 2 with weight sin^2 phi: eta = cos^2 phi - sinh^2 r sin^2 phi
        src = MultimodeSource(r=[r, r], t=[1.0, 0.0], t_prime=[math.cos(phi), math.sin(phi)])
        want = math.cos(phi) ** 2 - math.sinh(r) ** 2 * math.sin(phi) ** 2
        if want <= 0.0:
            with pytest.raises(ClassicalRegimeError):
                effective_params(src)
            return
        eff = effective_params(src)
        assert eff.eta == pytest.approx(want, abs=1e-12)
        assert eff.eta_prime == pytest.approx(want, abs=1e-12)
        assert eff.N * eff.eta == pytest.approx(math.sinh(r) ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        ("source", "kind"),
        [
            (lambda: MultimodeSource(r=[300.0], t=[1], t_prime=[1]), ValidationError),
            (lambda: MultimodeSource(r=[400.0, 400.0], t=[1, 0], t_prime=[0, 1]), ValidationError),
        ],
        ids=["lossless r=300", "classical beyond the float range"],
    )
    def test_huge_moments_raise_typed_errors(self, source, kind):
        # the arm means overflow here; the error must still be a PairStatsError
        with pytest.raises(kind, match="arm means above 1e20"):
            effective_params(source())


@st.composite
def multimode_sources(draw):
    """K = 1-6 modes with r in [0, 3], a lossy arm-a filter and an arm-b filter
    that is matched to it, perturbed by 5% or drawn independently."""
    K = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0)

    def amplitudes():
        v = np.array([complex(draw(unit), draw(unit)) for _ in range(K)])
        norm = float(np.linalg.norm(v))
        return v / norm if norm > 1e-3 else np.eye(K)[0].astype(complex)

    r = np.array([draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))) for _ in range(K)])
    t = amplitudes()
    kind = draw(st.sampled_from(["matched", "perturbed", "independent"]))
    if kind == "independent":
        t_prime = amplitudes()
    else:
        t_prime = t * (1.0 + 0.05 * amplitudes() * (kind == "perturbed"))
        t_prime /= np.linalg.norm(t_prime)
    loss_a, loss_b = draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))
    return MultimodeSource(r=r, t=t * math.sqrt(loss_a), t_prime=t_prime * math.sqrt(loss_b))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(multimode_sources())
def test_effective_params_match_the_moment_oracle(src):
    n_bar, n_bar_prime, S = filtered_moments(src)
    excess = abs(S) ** 2 - n_bar * n_bar_prime
    margin = 1e-4 * abs(S) ** 2  # inside it the oracle's own cancellation decides
    if excess < -margin or excess < 1e-300:  # no double resolves a smaller excess
        with pytest.raises(ClassicalRegimeError):
            effective_params(src)
    elif excess > margin:
        eff = effective_params(src)
        assert eff.eta == pytest.approx(excess / n_bar_prime, rel=1e-10)
        assert eff.eta_prime == pytest.approx(excess / n_bar, rel=1e-10)
        assert eff.N == pytest.approx(n_bar * n_bar_prime / excess, rel=1e-10)
        assert eff.N * eff.eta == pytest.approx(n_bar, rel=1e-12)
        assert eff.N * eff.eta_prime == pytest.approx(n_bar_prime, rel=1e-12)


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


# (N, eta, eta', M); eta or eta' at 0 or 1 sets B, C or D to 0
SWEEP_SOURCES = [
    (5.0, 0.9, 0.9, 50.0),
    (1.5, 0.4, 0.7, 3.0),
    (1000.0, 0.1, 0.05, 7.3),
    (2.0, 1.0, 0.3, 4.0),
    (2.0, 0.3, 1.0, 4.0),
    (3.0, 0.0, 0.5, 2.0),
    (1.0, 1.0, 1.0, 1.0),
]


class TestRowScan:
    @pytest.mark.parametrize("params", SWEEP_SOURCES)
    def test_diagonal_sweep_equals_row_scan(self, params):
        src = EffectiveSource(*params)
        for n_max in (0, 1, 2, 3, 8, 13, 101, 564, 998):
            sweep = _series_coefficients(src, n_max)
            scan = row_scan_coefficients(src, n_max)
            assert np.array_equal(sweep == 0.0, scan == 0.0), n_max
            normal = scan >= 1e-280
            np.testing.assert_allclose(sweep[normal], scan[normal], rtol=1e-13, atol=0)


class TestBlockSweep:
    """The block sweep against the one-diagonal sweep it replaced, bit for bit, at
    cutoffs narrower than a block, on and around one and two blocks, and past
    them, where each block sweeps a band of rows that grows and then shrinks;
    its scratch; and the typed error where row 0 leaves double precision."""

    @pytest.mark.parametrize("params", SWEEP_SOURCES)
    def test_equals_diagonal_sweep(self, params):
        src = EffectiveSource(*params)
        K = _BLOCK
        for n_max in (*range(11), K - 1, K, K + 1, 2 * K - 1, 2 * K, 2 * K + 1, 101, 564, 998, 1293):
            expected = diagonal_sweep_coefficients(src, n_max)
            assert np.array_equal(_series_coefficients(src, n_max), expected), n_max

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        log_N=st.floats(-6.0, 3.0),
        eta=st.floats(0.0, 1.0),
        eta_prime=st.floats(0.0, 1.0),
        log_M=st.floats(0.0, 4.0),
        n_max=st.integers(0, 300),
    )
    def test_equals_diagonal_sweep_over_the_box(self, log_N, eta, eta_prime, log_M, n_max):
        src = EffectiveSource(10.0**log_N, eta, eta_prime, 10.0**log_M)
        expected = diagonal_sweep_coefficients(src, n_max)
        if np.isfinite(expected[0]).all():
            assert np.array_equal(_series_coefficients(src, n_max), expected)
        else:
            with pytest.raises(PairStatsError, match="row 0 overflows") as err:
                _series_coefficients(src, n_max)
            assert type(err.value) is PairStatsError

    def test_scratch_is_one_block(self):
        n_max = 998
        src = EffectiveSource(5.0, 0.9, 0.9, 50.0)
        joint_distribution(src, n_max)
        tracemalloc.start()
        try:
            joint_distribution(src, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid, scratch = (n_max + 1) ** 2, (_BLOCK + 2) * (n_max + 1)
        assert peak <= 8 * (grid + scratch) + 128 * 1024, peak

    def test_row_zero_overflow_raises_typed_error(self):
        # Xi(0, 0) underflows to 0 while the product of row 0's ratios overflows
        src = EffectiveSource(N=1.2526, eta=0.2020, eta_prime=0.4715, M=3097.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PairStatsError, match="row 0 overflows at n_max=1828") as err:
                joint_distribution(src, 1828)
        assert not isinstance(err.value, ValidationError)


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


class TestSmallCellsAgainstClosedForm:
    """Cells and tail mass of sources with small N and large M.  A rounded base
    A near 1 raised to -M would carry a relative error of about M u (up to
    3e-13 at M = 2500) into every cell, and tail_mass = 1 - sum would read
    0.0 where 2.1e-13 is missing; row 0 therefore starts from Xi(0, 0)."""

    def test_cells_and_tail_mass(self):
        rng = np.random.default_rng(1701)
        for _ in range(40):
            src = EffectiveSource(
                N=float(10.0 ** rng.uniform(-4.0, -2.0)),
                eta=float(rng.uniform(0.05, 0.95)),
                eta_prime=float(rng.uniform(0.05, 0.95)),
                M=float(rng.uniform(300.0, 2500.0)),
            )
            probs = joint_distribution(src, 3).probs
            for n in (0, 1, 3):
                exact = closed_form_cell(src, n, n)
                assert probs[n, n] == pytest.approx(exact, rel=1e-13, abs=0.0), (src, n)
        # (N, eta = eta', M): the exact missing mass is 2.14e-13, 1.36e-13, 1.26e-13
        for N, eta, M in ((1e-3, 0.5, 1500.0), (1e-3, 0.7, 2500.0), (2e-3, 0.3, 1800.0)):
            src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
            dist = joint_distribution(src, suggest_n_max(src, 1e-12))
            cells = range(dist.n_max + 1)
            missing = 1.0 - math.fsum(closed_form_cell(src, n, m) for n in cells for m in cells)
            assert dist.tail_mass == pytest.approx(missing, rel=0.0, abs=1e-15), (N, eta, M)


def double_pair_ratio(src):
    """(rho[2, 0] + rho[0, 2]) / rho[1, 1], loss-degraded double pairs over true
    single pairs, from the exact 3 x 3 grid."""
    probs = joint_distribution(src, 2).probs
    return (probs[2, 0] + probs[0, 2]) / probs[1, 1]


class TestPerturbativeFraction:
    def test_lossless_is_zero(self):
        src = EffectiveSource(N=1e-3, eta=1.0, eta_prime=1.0, M=1.0)
        assert double_pair_ratio(src) == 0.0

    def test_small_N_limit(self):
        src = EffectiveSource(N=1e-4, eta=0.5, eta_prime=0.5, M=1.0)
        assert double_pair_ratio(src) == pytest.approx(2.0 * 0.25 * 1e-4, rel=0.01)

    def test_moderate_N(self):
        src = EffectiveSource(N=1e-2, eta=0.5, eta_prime=0.5, M=1.0)
        assert double_pair_ratio(src) == pytest.approx(5e-3, rel=0.05)

    def test_closed_form_matches_grid_ratio(self):
        # at M = 1, rho[2, 0] = b^2 rho[0, 0], rho[0, 2] = c^2 rho[0, 0] and
        # rho[1, 1] = (2bc + d) rho[0, 0] with b, c, d = B/A, C/A, D/A
        rng = np.random.default_rng(8)
        for _ in range(50):
            eta = float(rng.uniform(0.01, 1.0))
            src = EffectiveSource(N=float(10.0 ** rng.uniform(-8.0, 3.0)), eta=eta, eta_prime=eta)
            loss = (1.0 - eta) ** 2
            closed = 2.0 * src.N * loss / (1.0 + src.N * (1.0 + loss))
            assert double_pair_ratio(src) == pytest.approx(closed, rel=1e-14)


class TestPairLaw:
    def test_split_keeps_an_underflowing_twin_share(self):
        # eta eta' = 1e-340 underflows to 0, but the twin share v = eta eta' / k,
        # k = 2e-170, is 5e-171; a zero v would move eps2 from 0.4 to about 0.5
        law = _pair_law(EffectiveSource(N=1.0, eta=1e-170, eta_prime=1e-170, M=1.0))
        assert law.k == 2e-170
        assert law.split[0] == pytest.approx(5e-171, rel=1e-15)
        assert law.split[1] == law.split[2] == 0.5
        # (TestSourceContamination holds both of its figures to the decimal law)
        assert _law_contamination(law.w, 1.0, 2, *law.split) == pytest.approx(0.4, rel=1e-14)

    @pytest.mark.parametrize("eta, eta_prime", [(0.0, 0.0), (0.0, 0.3), (0.3, 0.0), (1.0, 1.0)])
    def test_edges_of_the_split(self, eta, eta_prime):
        # no pair lands anywhere, or none in arm a, arm b or one arm alone
        law = _pair_law(EffectiveSource(N=0.5, eta=eta, eta_prime=eta_prime, M=2.0))
        assert np.isfinite(law.split).all() and law.split.sum() in (0.0, 1.0)
        assert law.lone_a == (1.0 if eta_prime == 0.0 < eta else 0.0)
        assert law.cells.sum() == pytest.approx(1.0, rel=1e-15)


class TestSuggestNMax:
    def test_tail_bound_respected(self):
        for N, eta, M in ((0.1, 0.3, 1.0), (1.0, 1.0, 4.0), (3.0, 0.7, 16.6)):
            src = EffectiveSource(N=N, eta=eta, eta_prime=eta, M=M)
            n_max = suggest_n_max(src, 1e-10)
            assert joint_distribution(src, n_max).tail_mass < 1e-10

    @pytest.mark.parametrize("N", [1e-300, 1e-12, 3.06e-8])
    def test_never_below_two(self, N):
        # the two-photon cells, and so eps2's sector, stay on the grid
        src = EffectiveSource(N=N, eta=0.0584, eta_prime=0.0656, M=1.367)
        assert suggest_n_max(src, 1e-15) == 2

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

    @staticmethod
    def assert_equals_reference(src, bound):
        """suggest_n_max and the cutoff search it replaced give the same cutoff, or both raise."""
        try:
            want = suggest_n_max_reference(src, bound)
        except TruncationError:
            with pytest.raises(TruncationError):
                suggest_n_max(src, bound)
            return None
        assert suggest_n_max(src, bound) == want, (src, bound)
        return want

    @pytest.mark.parametrize("params", SWEEP_SOURCES)
    def test_equals_reference_on_sweep_sources(self, params):
        for bound in (1e-3, 1e-6, 1e-10, 1e-12, 1e-15, 1e-20):
            self.assert_equals_reference(EffectiveSource(*params), bound)

    def test_equals_reference_on_forward_sources(self):
        # the benchmark's forward sources, at N and at its jitter of 1e-3 relative;
        # at M = 2000 the walk from an underflowing Xi gives 998
        for N, eta, M in ((0.2, 0.045, 16.0), (5.0, 0.9, 50.0), (0.5, 1.0, 2000.0)):
            for jitter in (-5e-4, 0.0, 5e-4):
                src = EffectiveSource(N=N * (1.0 + jitter), eta=eta, eta_prime=eta, M=M)
                got = self.assert_equals_reference(src, 1e-12)
                if M == 2000.0:
                    assert got == 998
        assert suggest_n_max(EffectiveSource(0.5, 1.0, 1.0, 2000.0), 1e-12) == 998

    def test_equals_reference_on_random_sources(self):
        rng = np.random.default_rng(39)
        raised = 0
        for _ in range(2000):
            src = EffectiveSource(
                N=float(10.0 ** rng.uniform(-8.0, 2.0)),
                eta=float(rng.uniform(0.0, 1.0)),
                eta_prime=float(rng.uniform(0.0, 1.0)),
                M=float(10.0 ** rng.uniform(0.0, 3.5)),
            )
            bound = float(10.0 ** rng.uniform(-18.0, -3.0))
            raised += self.assert_equals_reference(src, bound) is None
        assert 20 <= raised <= 1000

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


class TestCheckMass:
    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, -1e-300, -0.25, 1.5],
        ids=["nan", "inf", "-inf", "-tiny", "neg", "big"],
    )
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 2), (999, 999)])
    def test_entry_outside_unit_interval_rejected(self, bad, shape):
        # the bad entry is last, so a check that stops early cannot pass it
        probs = np.zeros(shape)
        probs.flat[0] = 1.0
        probs.flat[-1] = bad
        with pytest.raises(ValidationError, match=r"^what must lie in \[0, 1\]$"):
            _check_mass(probs, "what")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25])
    def test_every_caller_rejects_bad_entries(self, bad):
        for make, what in (
            (lambda a: JointDistribution(probs=a.reshape(2, 2), n_max=1), "probabilities"),
            (PathWeights, "path weights"),
            (lambda a: ClickDistribution(a.reshape(2, 2)), "click probabilities"),
        ):
            probs = np.array([0.5, 0.5, 0.25, 0.0])
            probs[-1] = bad
            with pytest.raises(ValidationError, match=f"^{what} must lie in"):
                make(probs)

    def test_empty_array_checks_only_the_sum(self):
        assert _check_mass(np.zeros((0, 0)), "what", 1.0, "missing") == 1.0
        with pytest.raises(ValidationError, match="must sum to 1"):
            _check_mass(np.zeros(0), "what")
        with pytest.raises(ValidationError, match="^missing must be finite"):
            _check_mass(np.zeros(0), "what", -0.5, "missing")

    @pytest.mark.parametrize("bad", [1.5, math.inf])
    def test_entries_are_checked_before_the_missing_mass(self, bad):
        # the entries sum past 1 + 1e-12, so the max is read, and fails first
        with pytest.raises(ValidationError, match=r"^what must lie in \[0, 1\]$"):
            _check_mass(np.array([0.0, bad, 0.0]), "what", -0.5, "missing")


SOURCE = EffectiveSource(N=1.0, eta=0.5, eta_prime=0.5, M=1.0)


class TestIndex:
    @pytest.mark.parametrize(
        ("value", "match"),
        [(True, "integer"), (2.0, "integer"), (-1, r"lie in \[0, 4\]"), (5, r"lie in \[0, 4\]")],
        ids=["bool", "float", "lo-1", "hi+1"],
    )
    def test_rejected(self, value, match):
        with pytest.raises(ValidationError, match=f"^count .*{match}"):
            _index(value, "count", 0, 4)


class TestRaises:
    @pytest.mark.parametrize(
        ("call", "kind", "match"),
        [
            (lambda: MultimodeSource(r=[], t=[], t_prime=[]), ValidationError, "non-empty"),
            (lambda: MultimodeSource([math.inf], [1], [1]), ValidationError, "finite"),
            (lambda: MultimodeSource([math.nan], [1], [1]), ValidationError, "finite"),
            (lambda: MultimodeSource([1.0], [math.inf], [1]), ValidationError, r"\|t\|"),
            (lambda: MultimodeSource([1.0], [complex(0, math.nan)], [1]), ValidationError, r"\|t\|"),
            (lambda: MultimodeSource([1.0], [1], [math.inf]), ValidationError, "t_prime"),
            (lambda: MultimodeSource([1.0], [0.8, 0.7], [1]), ValidationError, "length"),
            (lambda: MultimodeSource([1.0, 1.0], [0.8, 0.7], [1, 0]), ValidationError, "<= 1"),
            (
                lambda: effective_params(MultimodeSource([24.0], [1], [1])),
                ValidationError,
                "r up to 24.0 gives arm means above 1e20",
            ),
            (
                lambda: effective_params(MultimodeSource([400.0], [1], [1])),
                ValidationError,
                "r up to 400.0 gives",
            ),
            (lambda: JointDistribution(np.zeros((2, 3)), 1), ValidationError, "n_max"),
            (lambda: MultimodeSource([1.0], [0.0], [1.0]), ValidationError, r"0 < sum \|t\|"),
            (lambda: joint_distribution(SOURCE, -1), ValidationError, "n_max"),
            (lambda: joint_distribution(SOURCE, _N_CAP + 1), ValidationError, "4096"),
            (
                lambda: source_contamination(EffectiveSource(1.0, 0.0, 0.0)),
                DegenerateInputError,
                "no pair reaches a detector",
            ),
        ],
        ids=[
            "empty r",
            "infinite r",
            "NaN r",
            "infinite t",
            "NaN t",
            "infinite t_prime",
            "filter length",
            "filter power above 1",
            "arm mean above 1e20",
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
