"""Forward model of a lossy multimode twin-beam source.

The source emits photons strictly in pairs into two arms.  Seen through mode
filters and losses, the joint photon-number statistics of the two arms are
fixed by four effective parameters: the mean pair number per mode ``N``, the
arm transmissions ``eta`` and ``eta_prime``, and the equivalent number of
independent mode pairs ``M``.  The joint distribution is the coefficient
array of the closed-form generating function

    Xi(x, y) = [N + 1 - N (eta x + 1 - eta) (eta' y + 1 - eta')]**(-M)

which this module expands by an exact two-index recurrence, swept one
anti-diagonal n + m at a time in plain numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._fileio import format_matrix, parse_matrix
from .errors import (
    ClassicalRegimeError,
    DegenerateInputError,
    PhysicalityError,
    TruncationError,
    ValidationError,
)

_TOL = 1e-12
_N_CAP = 4096  # largest cutoff of a grid or a response, and of suggest_n_max's search


def _freeze(obj, name, value):
    value.setflags(write=False)
    object.__setattr__(obj, name, value)


def _index(value, name: str) -> int:
    """``value`` as a Python int; ValidationError naming ``name`` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer (got {value!r})") from None


def _check_mass(probs: np.ndarray, what: str, missing=0.0, missing_name: str = "") -> float:
    """Check entries in [0, 1] and entries plus a finite ``missing`` >= 0 summing to 1
    within 1e-12; return ``missing`` as a float."""
    if not np.all((probs >= 0.0) & (probs <= 1.0 + _TOL)):
        raise ValidationError(f"{what} must lie in [0, 1]")
    missing = float(missing)
    if not 0.0 <= missing < math.inf:
        raise ValidationError(f"{missing_name} must be finite and >= 0")
    total = float(probs.sum()) + missing
    if abs(total - 1.0) > _TOL:
        plus = f" plus {missing_name}" if missing_name else ""
        raise ValidationError(f"{what}{plus} must sum to 1 within 1e-12 (got {total!r})")
    return missing


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
        S = complex(self.S)
        if not (0.0 <= n_bar < math.inf and 0.0 <= n_bar_prime < math.inf):
            raise ValidationError("mean photon numbers must be finite and >= 0")
        if not np.isfinite(S):
            raise ValidationError(f"pair moment S must be finite (got {S!r})")
        object.__setattr__(self, "n_bar", n_bar)
        object.__setattr__(self, "n_bar_prime", n_bar_prime)
        object.__setattr__(self, "S", S)


@dataclass(frozen=True)
class EffectiveSource:
    """Effective description of the lossy pair source.

    Attributes:
        N: mean photon pairs produced per mode pair, finite and > 0.
        eta: overall transmission of arm a, in [0, 1].
        eta_prime: overall transmission of arm b, in [0, 1].
        M: equivalent number of independent mode pairs, finite and >= 1.  Real values
            are accepted by the analytic expansion and the Monte Carlo sampler.
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
        n_max = _index(self.n_max, "n_max")
        if n_max < 0 or probs.shape != (n_max + 1, n_max + 1):
            raise ValidationError("probs must be a (n_max+1) x (n_max+1) matrix")
        tail = _check_mass(probs, "probabilities", self.tail_mass, "tail_mass")
        _freeze(self, "probs", probs)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "tail_mass", tail)


def reduce_multimode(src: MultimodeSource) -> ReducedMoments:
    """Collapse the multimode moments onto the two filtered modes.

    Only diagonal mode pairs contribute: the arm means are filter-weighted
    thermal occupations (cosh 2r - 1)/2 and the pair moment keeps the filter
    phases through S = sum_k t_k t'_k sinh(2 r_k)/2.  Raises ValidationError
    when an r_k is so large that these overflow.
    """
    with np.errstate(over="raise", invalid="raise"):
        try:
            occupation = (np.cosh(2.0 * src.r) - 1.0) / 2.0
            pair_moment = np.sinh(2.0 * src.r) / 2.0
            n_bar = float(np.sum(np.abs(src.t) ** 2 * occupation))
            n_bar_prime = float(np.sum(np.abs(src.t_prime) ** 2 * occupation))
            S = complex(np.sum(src.t * src.t_prime * pair_moment))
        except FloatingPointError:
            raise ValidationError(f"r up to {float(src.r.max())!r} overflows the moments") from None
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
    A cell on the anti-diagonal n + m = s + 1 needs only diagonals s and
    s - 1, so the grid is filled one diagonal at a time: each diagonal is a
    contiguous vector indexed by n, zero outside the grid.
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
    scale = (np.arange(n_max) + M) / (A * np.arange(1.0, size))  # row n -> n+1
    b, c, d = B * scale, C / A, D * scale
    flat = probs.reshape(-1)  # cell (n, s-n) sits at s + n * n_max
    older, diag = np.zeros(size), np.zeros(size)
    diag[0] = probs[0, 0]
    for s in range(1, 2 * n_max + 1):
        lo, hi = max(1, s - n_max), min(s, n_max)
        new = np.zeros(size)
        if s <= n_max:
            new[0] = probs[0, s]
        out = new[lo : hi + 1]
        np.multiply(b[lo - 1 : hi], diag[lo - 1 : hi], out=out)
        out += d[lo - 1 : hi] * older[lo - 1 : hi]
        out += c * diag[lo : hi + 1]
        flat[s + lo * n_max : s + hi * n_max + 1 : n_max] = out
        older, diag = diag, new
    return probs


def joint_distribution(
    src: EffectiveSource, n_max: int, tail_bound: float | None = None
) -> JointDistribution:
    """Joint photon-number distribution of the effective source.

    Args:
        src: effective source parameters; real M >= 1 is accepted.
        n_max: truncation order of the returned square grid, at most ``_N_CAP`` = 4096.
        tail_bound: if given, raise TruncationError when the excluded mass
            exceeds it (the error carries the achieved tail mass).
    """
    n_max = _index(n_max, "n_max")
    if not 0 <= n_max <= _N_CAP:
        raise ValidationError(f"n_max must lie in [0, {_N_CAP}] (got {n_max})")
    if tail_bound is not None and not 0.0 < tail_bound < math.inf:
        raise ValidationError(f"tail_bound must be finite and > 0 (got {tail_bound!r})")
    probs = _series_coefficients(src, n_max)
    tail = max(0.0, 1.0 - float(probs.sum()))
    if tail_bound is not None and tail > tail_bound:
        raise TruncationError(
            f"tail mass {tail:.3e} exceeds the requested bound {tail_bound:.3e}"
            f" at n_max={n_max}",
            tail_mass=tail,
        )
    return JointDistribution(probs=probs, n_max=n_max, tail_mass=tail)


def suggest_n_max(src: EffectiveSource, tail_bound: float = 1e-10) -> int:
    """Smallest cutoff whose out-of-grid mass is certified below ``tail_bound``.

    Each arm's marginal is negative binomial; the mass outside the square grid
    is at most the sum of the two marginal tails, each bounded here by a
    geometric comparison once the pmf ratio falls below one.  Raises
    TruncationError when no cutoff up to ``_N_CAP`` = 4096 meets the bound;
    the error carries the tail bound reached at the cap (inf if an arm's pmf
    ratio is still at least one there).
    """
    if not 0.0 < tail_bound < math.inf:
        raise ValidationError(f"tail_bound must be finite and > 0 (got {tail_bound!r})")

    def arm_cutoff(eta: float) -> tuple[int, float]:
        """First n <= _N_CAP whose arm tail bound is within half the bound
        (else _N_CAP), with that tail bound."""
        if eta == 0.0:
            return 0, 0.0
        q = src.N * eta / (1.0 + src.N * eta)
        p = (1.0 - q) ** src.M
        for n in range(_N_CAP + 1):
            ratio_next = q * (src.M + n + 1.0) / (n + 2.0)  # pmf ratio beyond n+1
            p_next = p * q * (src.M + n) / (n + 1.0)
            if ratio_next < 1.0:
                tail = p_next / (1.0 - ratio_next)
                if tail <= 0.5 * tail_bound:
                    return n, tail
            p = p_next
        return _N_CAP, tail if ratio_next < 1.0 else math.inf

    (n_a, tail_a), (n_b, tail_b) = arm_cutoff(src.eta), arm_cutoff(src.eta_prime)
    if max(tail_a, tail_b) > 0.5 * tail_bound:
        tail = tail_a + tail_b
        raise TruncationError(
            f"tail bound {tail:.3e} at the cap n_max={_N_CAP} exceeds the requested"
            f" {tail_bound:.3e}",
            tail_mass=tail,
        )
    return max(n_a, n_b, 1)


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
    header, matrix = parse_matrix(text, "distribution", {"n_max": int, "tail_mass": float})
    return JointDistribution(probs=matrix, **header)
