"""Forward model of a lossy multimode twin-beam source.

The source emits photons strictly in pairs into two arms.  Seen through mode
filters and losses, the joint photon-number statistics of the two arms are
fixed by four effective parameters: the mean pair number per mode ``N``, the
arm transmissions ``eta`` and ``eta_prime``, and the equivalent number of
independent mode pairs ``M``.  The joint distribution is the coefficient
array of the closed-form generating function

    Xi(x, y) = [N + 1 - N (eta x + 1 - eta) (eta' y + 1 - eta')]**(-M)

which this module expands by an exact two-index recurrence, swept in blocks
of 64 anti-diagonals n + m in plain numpy, each block over only the rows n
that it reaches on the grid and stored into the grid at once, in O(n_max**2)
time and O(n_max) scratch beside the grid.  It holds the one law of the
reaching pairs, J ~ NegBin(M, w), and its one pmf-ratio walk, for the sampler,
the contamination law and the cutoff search."""

from __future__ import annotations

import collections
import math
import numbers
import operator
from dataclasses import dataclass
from itertools import islice, pairwise

import numpy as np

from ._fileio import format_matrix, parse_matrix
from .errors import (
    ClassicalRegimeError,
    PairStatsError,
    TruncationError,
    ValidationError,
)

_TOL = 1e-12
# Scale that keeps small products out of the subnormal range, where a double keeps
# fewer digits and costs many times a normal product: a power of 2 rounds nothing,
# and each use keeps at least 2**370 of headroom below overflow.
_LIFT = 2.0**600
_N_CAP = 4096  # largest cutoff of a grid or a response, and of suggest_n_max's search
_BLOCK = 64  # anti-diagonals of the grid swept into scratch between two stores
_EDGE = np.tri(_BLOCK - 1, _BLOCK, dtype=bool)  # _EDGE[r, j]: j <= r


def _freeze(obj, name, value):
    value.setflags(write=False)
    object.__setattr__(obj, name, value)


def _index(value, name: str, lo=-math.inf, hi=math.inf) -> int:
    """``value`` as a Python int in [lo, hi]; else ValidationError naming ``name``.
    A bool is refused, as numpy refuses its own."""
    try:
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer (got {value!r})") from None
    if not lo <= value <= hi:
        raise ValidationError(f"{name} must lie in [{lo}, {hi}] (got {value})")
    return value


def _real(value, name: str, lo: float, hi: float = math.inf, strict: bool = False) -> float:
    """``value`` as a finite float in [lo, hi], or in (lo, hi] when ``strict``; else
    ValidationError naming ``name``.  A bool, str, None or complex is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number (got {value!r})")
    value = float(value)
    if not (math.isfinite(value) and (lo < value if strict else lo <= value) and value <= hi):
        rule = f"{'>' if strict else '>='} {lo:g}" + (f" and <= {hi:g}" if hi < math.inf else "")
        raise ValidationError(f"{name} must be finite and {rule} (got {value!r})")
    return value


def _reals(values, name: str, complex_ok: bool = False) -> np.ndarray:
    """``values`` as an at least 1-d array of its own int, float or (if ``complex_ok``)
    complex dtype; a ragged nest or a bool, str or object entry raises ValidationError."""
    try:
        array = np.asarray(values)
    except ValueError:  # numpy refuses a ragged nest of sequences
        raise ValidationError(f"{name} must be a rectangular array of numbers") from None
    if array.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        raise ValidationError(f"{name} must be {'complex' if complex_ok else 'real'} numbers")
    return array if array.ndim else array.reshape(1)


def _counts(values, name: str) -> tuple[np.ndarray, int]:
    """``values`` as an array of finite nonnegative integers, with its exact total as
    a Python int; else ValidationError naming ``name``.  The dtype is kept."""
    counts = _reals(values, name)
    if not np.all((counts >= 0) & (counts < math.inf) & (np.floor(counts) == counts)):
        raise ValidationError(f"{name} must be finite nonnegative integers")
    return counts, sum(int(c) for c in counts.flat)


def _check_mass(probs: np.ndarray, what: str, missing=0.0, missing_name: str = "") -> float:
    """Check entries in [0, 1] and entries plus a finite ``missing`` >= 0 summing to 1
    within 1e-12; return ``missing`` as a float.  A NaN entry fails the min.  The max
    is read only when the sum exceeds 1 + 1e-12: a rounded sum of nonnegative doubles
    is never below one of them."""
    total = float(probs.sum())
    if not (probs.min(initial=0.0) >= 0.0 and (total <= 1.0 + _TOL or probs.max() <= 1.0 + _TOL)):
        raise ValidationError(f"{what} must lie in [0, 1]")
    missing = _real(missing, missing_name, 0.0)
    total += missing
    if abs(total - 1.0) > _TOL:
        plus = f" plus {missing_name}" if missing_name else ""
        raise ValidationError(f"{what}{plus} must sum to 1 within 1e-12 (got {total!r})")
    return missing


@dataclass(frozen=True)
class MultimodeSource:
    """Pairwise-squeezed mode ensemble seen through per-arm mode filters.

    Attributes:
        r: squeezing parameter of each mode pair, all finite and >= 0.
        t: finite complex filter amplitudes for arm a, 0 < sum_k |t_k|^2 <= 1;
            a sum below 1 is a lossy filter.
        t_prime: the same for arm b, with the length of ``t``.
    """

    r: np.ndarray
    t: np.ndarray
    t_prime: np.ndarray

    def __post_init__(self):
        r = np.asarray(_reals(self.r, "r"), dtype=float)
        t = np.asarray(_reals(self.t, "t", complex_ok=True), dtype=complex)
        tp = np.asarray(_reals(self.t_prime, "t_prime", complex_ok=True), dtype=complex)
        if r.ndim != 1 or r.size < 1:
            raise ValidationError("r must be a non-empty 1-d sequence")
        if t.shape != r.shape or tp.shape != r.shape:
            raise ValidationError("r, t and t_prime must share one length K >= 1")
        if not np.all((r >= 0.0) & (r < math.inf)):
            raise ValidationError("all squeezing parameters r_k must be finite and >= 0")
        for name, amps in (("t", t), ("t_prime", tp)):
            power = float(np.sum(np.abs(amps) ** 2))
            if not 0.0 < power <= 1.0 + _TOL:
                raise ValidationError(
                    f"filter amplitudes must be finite with 0 < sum |{name}|^2 <= 1"
                    f" (got {power!r})"
                )
        _freeze(self, "r", r)
        _freeze(self, "t", t)
        _freeze(self, "t_prime", tp)


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
        object.__setattr__(self, "N", _real(self.N, "N", 0.0, strict=True))
        for name in ("eta", "eta_prime"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0, 1.0))
        object.__setattr__(self, "M", _real(self.M, "M", 1.0))


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
        probs = np.asarray(_reals(self.probs, "probs"), dtype=float)
        n_max = _index(self.n_max, "n_max")
        if n_max < 0 or probs.shape != (n_max + 1, n_max + 1):
            raise ValidationError("probs must be a (n_max+1) x (n_max+1) matrix")
        tail = _check_mass(probs, "probabilities", self.tail_mass, "tail_mass")
        _freeze(self, "probs", probs)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "tail_mass", tail)


def effective_params(src: MultimodeSource) -> EffectiveSource:
    """The one effective mode pair (M = 1) that src is filtered into, exact up to rounding;
    ``dataclasses.replace(effective_params(src), M=m)`` models m identical such pairs.

    With s = sinh r, x = t s and y = t' s, the arm means are n = sum |x|^2 and
    n' = sum |y|^2, and since cosh r = s + exp(-r) the pair moment <ab> is
    S = A + D, A = sum x y, D = sum t t' s exp(-r).  The excess over the
    classical bound, E = |S|^2 - n n' = 2 Re(A conj(D)) + |D|^2 - G, takes the
    Gram determinant G = n n' - |A|^2 >= 0 as n |y - (A/n) conj(x)|^2, so
    that no near-equal terms cancel.  Then eta = E/n', eta' = E/n and
    N = n n'/E; Cauchy-Schwarz keeps eta, eta' <= 1 up to rounding.

    Raises:
        ClassicalRegimeError: if E <= 0 (an arm mean of 0 included): the
            correlations then admit a classical model.  So does E < 1e-300,
            which double precision cannot resolve from 0.
        ValidationError: if an arm mean exceeds 1e20 (r above about 23.7),
            where the rounding of G could move eta by more than 1e-9.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN mean fails below
        s = np.sinh(src.r)
        x, y = src.t * s, src.t_prime * s
        n_bar, n_bar_prime = float(np.sum(np.abs(x) ** 2)), float(np.sum(np.abs(y) ** 2))
    if not (n_bar <= 1e20 and n_bar_prime <= 1e20):
        raise ValidationError(
            f"r up to {float(src.r.max())!r} gives arm means above 1e20 (r about 23.7)"
        )
    excess = 0.0
    if n_bar > 0.0 and n_bar_prime > 0.0:
        A = complex(np.sum(x * y))
        D = complex(np.sum(src.t * src.t_prime * s * np.exp(-src.r)))
        gram = n_bar * float(np.sum(np.abs(y - (A / n_bar) * np.conj(x)) ** 2))
        excess = 2.0 * (A * D.conjugate()).real + abs(D) ** 2 - gram
    if excess < 1e-300:
        raise ClassicalRegimeError(
            "|<ab>|^2 <= <n><n'>: correlations admit a classical model and the"
            " arm transmissions cannot be inferred"
        )
    dim, bright = sorted((n_bar, n_bar_prime))  # dim / E >= 1: overflows only where N does
    return EffectiveSource(
        N=bright * (dim / excess),
        eta=min(excess / n_bar_prime, 1.0),
        eta_prime=min(excess / n_bar, 1.0),
    )


def generating_fn_value(src: EffectiveSource, x: float, y: float) -> float:
    """Xi(x, y) for x, y in [0, 1]: exp(-M log1p(N t)) with t = u + v (1 - u),
    u = eta (1 - x) and v = eta' (1 - y), a sum of nonnegative terms, so no rounded base
    near 1 is raised to the power -M.  Xi(1, 1) = 1.  The grid's row 0 and the arm walks
    of ``suggest_n_max`` start from it; the pair law and ``analysis`` form their own."""
    x, y = _real(x, "x", 0.0, 1.0), _real(y, "y", 0.0, 1.0)
    u, v = src.eta * (1.0 - x), src.eta_prime * (1.0 - y)
    return math.exp(-src.M * math.log1p(src.N * (u + v * (1.0 - u))))


_PairLaw = collections.namedtuple("_PairLaw", "split lone_a k theta w cells")


def _log1p_excess(y: float, log1p_y: float, scale: float = 1.0) -> float:
    """scale (log1p(y) - y) <= 0 for y > -1, given log1p(y); near 0, where that
    cancels, by its series, multiplied in an order that underflows last."""
    if abs(y) > 0.125:
        return scale * (log1p_y - y)
    return -(scale * y) * y * sum((-y) ** j / (j + 2) for j in range(20))  # to 1e-18 relative


def _pair_law(src: EffectiveSource) -> _PairLaw:
    """The one law of the pairs that reach a detector.  Each lands in both arms, arm a
    alone or arm b alone at eta eta', eta (1 - eta') and eta' (1 - eta), of sum k, and a
    pulse holds J ~ NegBin(M, w) of them, P(J = j) = Gamma(M + j) / (Gamma(M) j!) w**j
    (1 - w)**M, w = theta / (1 + theta), theta = N k.  split = (v, a, b) are the chances
    over k, formed as (``_LIFT`` eta) eta' / (``_LIFT`` k) and alike (see ``_LIFT``; no
    lifted product exceeds 2**600): the plain quotient unless a product underflows;
    lone_a = a / (a + b), alike, is arm a's share of the one-arm pairs (0 if none).
    cells are the chances of one, several and no reaching pairs: M w (1 - w)**M,
    1 - (1 - w)**M (1 + M w) from two logs <= 0 that do not cancel, and
    (1 - w)**M = (1 + theta)**(-M)."""
    eta, etap = src.eta, src.eta_prime
    shares = eta * etap, eta * (1.0 - etap), etap * (1.0 - eta)
    k = shares[0] + (shares[1] + shares[2])
    v, a, b = (_LIFT * eta) * etap, (_LIFT * eta) * (1.0 - etap), (_LIFT * etap) * (1.0 - eta)
    split = np.array([v, a, b]) / (_LIFT * k) if k > 0.0 else np.zeros(3)
    lone_a = a / (a + b) if a + b > 0.0 else 0.0
    theta = src.N * k
    w, log1p_theta = theta / (1.0 + theta), math.log1p(theta)  # log1p(-w) = -log1p(theta)
    y = src.M * w
    several = _log1p_excess(-w, -log1p_theta, src.M) + _log1p_excess(y, math.log1p(y))
    empty = math.exp(-src.M * log1p_theta)
    return _PairLaw(split, lone_a, k, theta, w, np.array([y * empty, -math.expm1(several), empty]))


def _pair_walk(M: float, w: float, j: int = 0, t: float = 1.0):
    """Yield (t_j, r_j) for j, j + 1, ... of J ~ NegBin(M, w): t_j is P(J = j) scaled to
    start at t, and r_j = P(J = j + 1) / P(J = j) = w (M + j) / (j + 1) the pmf ratio,
    formed with M + j as (M + j - 1) + 1, the rounding the sampler's photon table and
    so its random streams are fixed to.  At w = 1/M the t_j from t_0 = 1 are the
    coefficients of x**j, x = M w, in P(J = j) / P(J = 0)."""
    while True:
        r = w * (M + (j - 1) + 1.0) / (j + 1.0)
        yield t, r
        t, j = t * r, j + 1


def _series_coefficients(src: EffectiveSource, n_max: int) -> np.ndarray:
    """Taylor coefficients of [A - Bx - Cy - Dxy]**(-M) up to order n_max.

    Differentiating the closed form in x and matching powers gives

        rho[n+1, m] = (B (n+M) rho[n, m] + C (n+1) rho[n+1, m-1]
                       + D (n+M) rho[n, m-1]) / (A (n+1))

    with A > 0 and B, C, D >= 0, so every update adds nonnegative terms and
    no cancellation occurs.  Row 0 is a binomial series from rho[0, 0] = Xi(0, 0);
    where it is not finite in double precision (Xi(0, 0) underflows while the
    product of its ratios overflows), PairStatsError is raised.

    A cell on the anti-diagonal n + m = s + 1 needs only diagonals s and
    s - 1, each a vector indexed by n.  K = min(_BLOCK, n_max) diagonals are
    swept at a time into a (K + 2) x (n_max + 1) scratch, by five ufunc calls
    each, and then stored in one assignment through ``sheared``, the grid read
    with row stride n_max, whose [n, s] is cell (n, s - n): the K cells of a
    block in one grid row are contiguous.  The block from diagonal s0 sweeps
    only its grid band, the rows max(1, s0 - n_max) <= n < min(s0 + K, n_max + 1),
    on row views cut from one 2-D slice of the scratch for the outputs and one
    for the inputs, which reach one column lower (n - 1): once per block, or
    once per call while n_max <= K, where every band is 1 ... n_max.  Scratch
    right of the band is never written, so it holds the zeros that a cell with
    m < 0 must read; stale scratch left of it feeds only cells with m > n_max.
    A cell of the band off the grid is swept too.  One with m < 0 is 0 and
    lands on a cell of a later block, which overwrites it.  One with m > n_max
    would land on a finished cell of the next row, so the rows that leave the
    grid inside a block are stored through a triangular mask.  The grid is bit
    for bit the one-diagonal sweep's.  It takes O(n_max**2) time: five ufunc
    calls a diagonal over at most n_max + 1 rows, and one store a block.
    """
    N, eta, etap, M = src.N, src.eta, src.eta_prime, src.M
    A = N + 1.0 - N * (1.0 - eta) * (1.0 - etap)
    B = N * eta * (1.0 - etap)
    C = N * (1.0 - eta) * etap
    D = N * eta * etap

    size = n_max + 1
    top = np.zeros(2 * size - 1)  # row 0 by diagonal s, 0 past the grid
    m = np.arange(1, size)
    top[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod((C / A) * (M + m - 1.0) / m, out=top[1:size])
        top[:size] *= generating_fn_value(src, 0.0, 0.0)
    if not math.isfinite(top[n_max]):  # past an overflow the product stays inf or NaN
        raise PairStatsError(
            f"row 0 overflows at n_max={n_max}: Xi(0, 0) times the product of its"
            " ratios is not finite in double precision"
        )
    scale = (np.arange(n_max) + M) / (A * m)  # row n -> n+1
    b, c, d = B * scale, C / A, D * scale
    K = min(_BLOCK, max(n_max, 1))
    diags = np.zeros((K + 2, size))  # diagonals s0 - 2 ... s0 + K - 1, indexed by n
    probs = np.zeros((size, size))
    probs[0, 0] = diags[1, 0] = top[0]
    tmp = np.empty(n_max)
    sheared = np.ndarray((size, 2 * size - 1), float, probs, 0, (8 * n_max, 8))
    band = None
    for s0 in range(1, 2 * n_max + 1, K):
        k = min(K, 2 * n_max + 1 - s0)
        diags[2 : k + 2, 0] = top[s0 : s0 + k]
        lo, hi = max(1, s0 - n_max), min(s0 + k, size)  # the rows n of the block's grid band
        if band != (lo, hi):  # every block has the band [1, n_max] while n_max <= K
            band = lo, hi
            ins, outs = diags[: K + 1, lo - 1 : hi - 1], diags[1:, lo:hi]
            views = list(zip(pairwise(ins), pairwise(outs)))
            bb, dd, t = b[lo - 1 : hi - 1], d[lo - 1 : hi - 1], tmp[: hi - lo]
        for (older, x), (x_next, out) in views[:k]:
            np.multiply(bb, x, out=out)
            np.multiply(dd, older, out=t)
            out += t
            np.multiply(x_next, c, out=t)
            out += t
        part, full = max(0, s0 - n_max), max(0, s0 + k - 1 - n_max)
        block = diags[2 : k + 2].T
        sheared[full : s0 + k, s0 : s0 + k] = block[full : s0 + k]
        if full > part:  # rows that leave the grid inside the block
            rule = _EDGE[n_max + part - s0 : k - 1, :k]
            np.copyto(sheared[part:full, s0 : s0 + k], block[part:full], where=rule)
        diags[:2] = diags[k : k + 2]
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
    n_max = _index(n_max, "n_max", 0, _N_CAP)
    tail_bound = None if tail_bound is None else _real(tail_bound, "tail_bound", 0.0, strict=True)
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
    """Smallest cutoff, at least 2, whose out-of-grid mass is certified below
    ``tail_bound``.  The floor keeps the two-photon cells on the grid: at weak
    pumping a cut at 1 leaves them to a tail that rounds to 0.

    Each arm's count is NegBin(M, N eta / (1 + N eta)); the mass outside the square
    grid is at most the sum of the two arms' tails, each bounded by a geometric
    comparison once the pmf ratio r falls below one.  Raises TruncationError when no
    cutoff up to ``_N_CAP`` = 4096 meets the bound, with the tail bound reached at
    the cap (inf if an arm's pmf ratio is still at least one there)."""
    tail_bound = _real(tail_bound, "tail_bound", 0.0, strict=True)

    def arm_cutoff(eta: float, x: float, y: float) -> tuple[int, float]:
        """First n <= _N_CAP (else _N_CAP) whose arm tail bound P(n + 1) / (1 - r_(n+1))
        is within half the bound, with that bound, walked from the pmf at 0, Xi(x, y)."""
        walk = _pair_walk(src.M, src.N * eta / (1.0 + src.N * eta), 0, generating_fn_value(src, x, y))
        for n, (p, ratio) in enumerate(islice(walk, 1, _N_CAP + 2)):
            tail = p / (1.0 - ratio) if ratio < 1.0 else math.inf
            if tail <= 0.5 * tail_bound:
                return n, tail
        return _N_CAP, tail

    n_a, tail_a = arm_cutoff(src.eta, 0.0, 1.0)
    n_b, tail_b = arm_cutoff(src.eta_prime, 1.0, 0.0)
    if max(tail_a, tail_b) > 0.5 * tail_bound:
        tail = tail_a + tail_b
        raise TruncationError(
            f"tail bound {tail:.3e} at the cap n_max={_N_CAP} exceeds the requested"
            f" {tail_bound:.3e}",
            tail_mass=tail,
        )
    return max(n_a, n_b, 2)


# -- text formats -------------------------------------------------------------

def format_distribution(dist: JointDistribution) -> str:
    return format_matrix({"n_max": dist.n_max, "tail_mass": dist.tail_mass}, dist.probs)


def parse_distribution(text: str) -> JointDistribution:
    header, matrix = parse_matrix(text, "distribution", {"n_max": int, "tail_mass": float})
    return JointDistribution(probs=matrix, **header)
