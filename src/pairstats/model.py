"""Forward model of a lossy multimode twin-beam source.

The source emits photons strictly in pairs into two arms.  Seen through mode
filters and losses, the joint photon-number statistics of the two arms are
fixed by four effective parameters: the mean pair number per mode ``N``, the
arm transmissions ``eta`` and ``eta_prime``, and the equivalent number of
independent mode pairs ``M``.  The joint distribution is the coefficient
array of the closed-form generating function

    Xi(x, y) = [N + 1 - N (eta x + 1 - eta) (eta' y + 1 - eta')]**(-M)

which this module expands by an exact two-index recurrence.  An independent
construction of the same distribution from the physical process (geometric
pair number, binomial thinning, mode convolution) is provided as a test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d, lfilter
from scipy.stats import binom

from ._fileio import format_mapping, format_matrix, parse_mapping, parse_matrix
from .errors import (
    ClassicalRegimeError,
    DegenerateInputError,
    PhysicalityError,
    TruncationError,
    ValidationError,
)

_TOL = 1e-12


def _freeze(obj, name, value):
    value.setflags(write=False)
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class MultimodeSource:
    """Pairwise-squeezed mode ensemble seen through per-arm mode filters.

    Attributes:
        r: squeezing parameter of each mode pair, all >= 0.
        t: complex filter amplitudes for arm a; sum_k |t_k|^2 must equal 1.
        t_prime: complex filter amplitudes for arm b, same length as ``t``.
    """

    r: np.ndarray
    t: np.ndarray
    t_prime: np.ndarray

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.r, dtype=float))
        t = np.atleast_1d(np.asarray(self.t, dtype=complex))
        tp = np.atleast_1d(np.asarray(self.t_prime, dtype=complex))
        if r.ndim != 1 or r.size < 1:
            raise ValidationError("r must be a non-empty 1-d sequence")
        if t.shape != r.shape or tp.shape != r.shape:
            raise ValidationError("r, t and t_prime must share one length K >= 1")
        if np.any(r < 0.0):
            raise ValidationError("all squeezing parameters r_k must be >= 0")
        for name, amps in (("t", t), ("t_prime", tp)):
            power = float(np.sum(np.abs(amps) ** 2))
            if abs(power - 1.0) > _TOL:
                raise ValidationError(
                    f"filter amplitudes must satisfy sum |{name}|^2 = 1 within 1e-12"
                    f" (got {power!r})"
                )
        _freeze(self, "r", r)
        _freeze(self, "t", t)
        _freeze(self, "t_prime", tp)

    @property
    def K(self) -> int:
        return self.r.size


@dataclass(frozen=True)
class ReducedMoments:
    """Second-order moments of the two filtered output modes.

    ``n_bar`` and ``n_bar_prime`` are the mean photon numbers of the arms;
    ``S`` is the complex pair moment <ab>.  Only |S|^2 enters the effective
    parameters; the phase is kept for faithfulness to the mode reduction.
    """

    n_bar: float
    n_bar_prime: float
    S: complex

    def __post_init__(self):
        n_bar = float(self.n_bar)
        n_bar_prime = float(self.n_bar_prime)
        if not (n_bar >= 0.0 and n_bar_prime >= 0.0):
            raise ValidationError("mean photon numbers must be >= 0")
        object.__setattr__(self, "n_bar", n_bar)
        object.__setattr__(self, "n_bar_prime", n_bar_prime)
        object.__setattr__(self, "S", complex(self.S))


@dataclass(frozen=True)
class EffectiveSource:
    """Effective description of the lossy pair source.

    Attributes:
        N: mean photon pairs produced per mode pair, finite and > 0.
        eta: overall transmission of arm a, in [0, 1].
        eta_prime: overall transmission of arm b, in [0, 1].
        M: equivalent number of independent mode pairs, finite and >= 1.  Real values
            are accepted by the analytic expansion; the process oracle and the
            Monte Carlo sampler require an integer.
    """

    N: float
    eta: float
    eta_prime: float
    M: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.N) and self.N > 0.0):
            raise ValidationError("mean pair number N must be finite and > 0")
        for name in ("eta", "eta_prime"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1] (got {value!r})")
        if not (math.isfinite(self.M) and self.M >= 1.0):
            raise ValidationError("equivalent mode number M must be finite and >= 1")
        for name in ("N", "eta", "eta_prime", "M"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class JointDistribution:
    """Joint photon-number distribution rho[n, m] on a square truncated grid.

    ``tail_mass`` is the probability excluded by the truncation; entries plus
    tail always sum to one.
    """

    probs: np.ndarray
    n_max: int
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        n_max = int(self.n_max)
        if n_max < 0 or probs.shape != (n_max + 1, n_max + 1):
            raise ValidationError("probs must be a (n_max+1) x (n_max+1) matrix")
        if not np.all((probs >= 0.0) & (probs <= 1.0 + _TOL)):
            raise ValidationError("probabilities must lie in [0, 1]")
        tail = float(self.tail_mass)
        if not 0.0 <= tail < np.inf:
            raise ValidationError("tail_mass must be finite and >= 0")
        total = float(probs.sum()) + tail
        if abs(total - 1.0) > _TOL:
            raise ValidationError(
                f"probabilities plus tail_mass must equal 1 within 1e-12 (got {total!r})"
            )
        _freeze(self, "probs", probs)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "tail_mass", tail)

    def marginal(self, arm: str = "a") -> np.ndarray:
        """Marginal photon-number distribution of one arm ('a' or 'b')."""
        if arm == "a":
            return self.probs.sum(axis=1)
        if arm == "b":
            return self.probs.sum(axis=0)
        raise ValidationError("arm must be 'a' or 'b'")


def reduce_multimode(src: MultimodeSource) -> ReducedMoments:
    """Collapse the multimode moments onto the two filtered modes.

    Only diagonal mode pairs contribute: the arm means are filter-weighted
    thermal occupations (cosh 2r - 1)/2 and the pair moment keeps the filter
    phases through S = sum_k t_k t'_k sinh(2 r_k)/2.
    """
    occupation = (np.cosh(2.0 * src.r) - 1.0) / 2.0
    pair_moment = np.sinh(2.0 * src.r) / 2.0
    n_bar = float(np.sum(np.abs(src.t) ** 2 * occupation))
    n_bar_prime = float(np.sum(np.abs(src.t_prime) ** 2 * occupation))
    S = complex(np.sum(src.t * src.t_prime * pair_moment))
    return ReducedMoments(n_bar=n_bar, n_bar_prime=n_bar_prime, S=S)


def effective_params(mom: ReducedMoments, M: float = 1.0) -> EffectiveSource:
    """Convert reduced moments into the effective source parameters.

    Requires the nonclassicality condition |S|^2 > n_bar * n_bar_prime; below
    it the correlations admit a classical model and no absolute loss scale
    exists.  The identities N = n_bar/eta = n_bar_prime/eta_prime hold for the
    returned parameters.

    Raises:
        ClassicalRegimeError: if |S|^2 <= n_bar * n_bar_prime.
        PhysicalityError: if the moments imply a transmission above 1.
    """
    excess = abs(mom.S) ** 2 - mom.n_bar * mom.n_bar_prime
    if excess <= 0.0:
        raise ClassicalRegimeError(
            "|<ab>|^2 <= <n><n'>: correlations admit a classical model and the"
            " arm transmissions cannot be inferred"
        )
    if mom.n_bar == 0.0 or mom.n_bar_prime == 0.0:
        raise PhysicalityError("nonzero pair moment with an empty arm is inconsistent")
    eta = excess / mom.n_bar_prime
    eta_prime = excess / mom.n_bar
    if eta > 1.0 + 1e-9 or eta_prime > 1.0 + 1e-9:
        raise PhysicalityError(
            f"moments imply transmissions eta={eta!r}, eta_prime={eta_prime!r} above 1"
        )
    N = mom.n_bar * mom.n_bar_prime / excess
    return EffectiveSource(N=N, eta=min(eta, 1.0), eta_prime=min(eta_prime, 1.0), M=M)


def generating_fn_value(src: EffectiveSource, x: float, y: float) -> float:
    """Joint generating function at (x, y) in [0, 1]^2; equals 1 at (1, 1)."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValidationError("x and y must lie in [0, 1]")
    denom = src.N + 1.0 - src.N * (src.eta * x + 1.0 - src.eta) * (
        src.eta_prime * y + 1.0 - src.eta_prime
    )
    return float(denom ** -src.M)


def _series_coefficients(src: EffectiveSource, n_max: int) -> np.ndarray:
    """Taylor coefficients of [A - Bx - Cy - Dxy]**(-M) up to order n_max.

    Differentiating the closed form in x and matching powers gives

        rho[n+1, m] = (B (n+M) rho[n, m] + C (n+1) rho[n+1, m-1]
                       + D (n+M) rho[n, m-1]) / (A (n+1))

    with A > 0 and B, C, D >= 0, so every update adds nonnegative terms and
    no cancellation occurs.  The first row is a one-variable binomial series.
    """
    N, eta, etap, M = src.N, src.eta, src.eta_prime, src.M
    A = N + 1.0 - N * (1.0 - eta) * (1.0 - etap)
    B = N * eta * (1.0 - etap)
    C = N * (1.0 - eta) * etap
    D = N * eta * etap

    size = n_max + 1
    probs = np.zeros((size, size))
    m = np.arange(1, size)
    probs[0] = A ** -M * np.concatenate(
        ([1.0], np.cumprod((C / A) * (M + m - 1.0) / m))
    )
    cy = C / A
    for n in range(n_max):
        scale = (n + M) / (A * (n + 1.0))
        w = B * scale * probs[n]
        w[1:] += D * scale * probs[n, :-1]
        if cy == 0.0:
            probs[n + 1] = w
        else:
            # linear scan rho[n+1, m] = w[m] + cy * rho[n+1, m-1]
            probs[n + 1] = lfilter([1.0], [1.0, -cy], w)
    return probs


def joint_distribution(
    src: EffectiveSource, n_max: int, tail_bound: float | None = None
) -> JointDistribution:
    """Joint photon-number distribution of the effective source.

    Args:
        src: effective source parameters; real M >= 1 is accepted.
        n_max: truncation order of the returned square grid.
        tail_bound: if given, raise TruncationError when the excluded mass
            exceeds it (the error carries the achieved tail mass).
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    probs = _series_coefficients(src, n_max)
    tail = max(0.0, 1.0 - float(probs.sum()))
    if tail_bound is not None and tail > tail_bound:
        raise TruncationError(
            f"tail mass {tail:.3e} exceeds the requested bound {tail_bound:.3e}"
            f" at n_max={n_max}",
            tail_mass=tail,
        )
    return JointDistribution(probs=probs, n_max=n_max, tail_mass=tail)


def joint_distribution_oracle(
    src: EffectiveSource, n_max: int, tail_bound: float | None = None
) -> JointDistribution:
    """Reference construction of the joint distribution from the physical process.

    Per mode pair the pair number j is geometric, P(j) = N^j/(N+1)^(j+1); the
    arms keep Binomial(j, eta) and Binomial(j, eta_prime) photons.  The M-mode
    result is the M-fold 2-d convolution of the single-mode distribution.
    The sum over j is truncated where the geometric tail drops below 1e-17,
    so every retained cell is exact to well under 1e-12.  Intended as an
    independent cross-check of :func:`joint_distribution`; requires integer M.
    """
    if abs(src.M - round(src.M)) > 1e-9:
        raise ValidationError("the process oracle requires an integer mode number M")
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    modes = int(round(src.M))
    q = src.N / (src.N + 1.0)
    j_cut = max(n_max, int(math.ceil(math.log(1e-17) / math.log(q))) + 1)
    j = np.arange(j_cut + 1)
    pair_law = q**j / (src.N + 1.0)
    counts = np.arange(n_max + 1)
    thin_a = binom.pmf(counts[None, :], j[:, None], src.eta)
    thin_b = binom.pmf(counts[None, :], j[:, None], src.eta_prime)
    single = thin_a.T @ (pair_law[:, None] * thin_b)
    probs = single
    for _ in range(modes - 1):
        probs = convolve2d(probs, single)[: n_max + 1, : n_max + 1]
    tail = max(0.0, 1.0 - float(probs.sum()))
    if tail_bound is not None and tail > tail_bound:
        raise TruncationError(
            f"tail mass {tail:.3e} exceeds the requested bound {tail_bound:.3e}"
            f" at n_max={n_max}",
            tail_mass=tail,
        )
    return JointDistribution(probs=np.maximum(probs, 0.0), n_max=n_max, tail_mass=tail)


def suggest_n_max(
    src: EffectiveSource, tail_bound: float = 1e-10, n_cap: int = 4096
) -> int:
    """Smallest cutoff whose out-of-grid mass is certified below ``tail_bound``.

    Each arm's marginal is negative binomial; the mass outside the square grid
    is at most the sum of the two marginal tails, each bounded here by a
    geometric comparison once the pmf ratio falls below one.
    """
    if tail_bound <= 0.0:
        raise ValidationError("tail_bound must be > 0")

    def arm_cutoff(eta: float) -> int:
        if eta == 0.0:
            return 0
        q = src.N * eta / (1.0 + src.N * eta)
        p = (1.0 - q) ** src.M
        n = 0
        while n < n_cap:
            ratio_next = q * (src.M + n + 1.0) / (n + 2.0)  # pmf ratio beyond n+1
            p_next = p * q * (src.M + n) / (n + 1.0)
            if ratio_next < 1.0 and p_next / (1.0 - ratio_next) <= 0.5 * tail_bound:
                return n
            p = p_next
            n += 1
        return n_cap

    return max(arm_cutoff(src.eta), arm_cutoff(src.eta_prime), 1)


def perturbative_contamination_fraction(src: EffectiveSource) -> float:
    """Rate of loss-degraded double pairs relative to true single pairs.

    Returns (rho[2,0] + rho[0,2]) / rho[1,1] for a balanced single-mode
    source; in the weak-pumping limit this tends to 2 (1 - eta)^2 N.
    """
    if abs(src.M - 1.0) > _TOL:
        raise ValidationError("defined for a single mode pair (M = 1)")
    if abs(src.eta - src.eta_prime) > _TOL:
        raise ValidationError("defined for balanced losses (eta == eta_prime)")
    probs = joint_distribution(src, n_max=2).probs
    if probs[1, 1] == 0.0:
        raise DegenerateInputError("single-pair rate rho[1, 1] vanishes")
    return float((probs[2, 0] + probs[0, 2]) / probs[1, 1])


# -- text formats -------------------------------------------------------------

def format_distribution(dist: JointDistribution) -> str:
    return format_matrix({"n_max": dist.n_max, "tail_mass": dist.tail_mass}, dist.probs)


def parse_distribution(text: str) -> JointDistribution:
    header, matrix = parse_matrix(text)
    try:
        n_max = int(header["n_max"])
        tail = float(header["tail_mass"])
    except KeyError as missing:
        raise ValidationError(f"distribution header lacks {missing}") from None
    return JointDistribution(probs=matrix, n_max=n_max, tail_mass=tail)


def write_distribution(dist: JointDistribution, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_distribution(dist))


def read_distribution(path) -> JointDistribution:
    with open(path, "r", encoding="ascii") as fh:
        return parse_distribution(fh.read())


def format_effective_source(src: EffectiveSource) -> str:
    return format_mapping(
        {"N": src.N, "eta": src.eta, "eta_prime": src.eta_prime, "M": src.M}
    )


def parse_effective_source(text: str) -> EffectiveSource:
    fields = parse_mapping(text)
    try:
        return EffectiveSource(
            N=float(fields["N"]),
            eta=float(fields["eta"]),
            eta_prime=float(fields["eta_prime"]),
            M=float(fields["M"]),
        )
    except KeyError as missing:
        raise ValidationError(f"source file lacks {missing}") from None


def write_effective_source(src: EffectiveSource, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_effective_source(src))


def read_effective_source(path) -> EffectiveSource:
    with open(path, "r", encoding="ascii") as fh:
        return parse_effective_source(fh.read())
