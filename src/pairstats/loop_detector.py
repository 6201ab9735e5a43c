"""Time-multiplexed click detector with B binary output paths.

A photon entering the arm leaves through path i with probability w_i, and a
path fires (one click) when at least one photon exits through it.  The
conditional probability of k clicks given n photons is built one of two ways.
When the B' paths of nonzero weight are exactly equal, it is the occupancy
chain of balls in bins, whose integer step matrix is raised to its first L
powers so that one matrix product fills L photon numbers.  Otherwise the
paths are added one at a time, each taking a binomial share of the photons,
whose rows come 64 photon numbers at a time from one row and a 65-tap
kernel.  The simulated click numbers are drawn in ascending photon number, one
group of equal n at a time: one path per photon, whose distinct paths are
counted along one reshape of the group, or one multinomial per pulse past 32
photons or 64 paths of nonzero weight.  Losses
are not modelled here; they are absorbed into the arm transmissions of the
source model, so the response matrices describe lossless detectors with
P[1, 1] = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fileio import format_matrix, parse_matrix
from .errors import DegenerateInputError, ValidationError
from .model import _LIFT, _N_CAP, _TOL, JointDistribution, _check_mass, _counts, _freeze, _index, _reals

_BLOCK = 64  # photon numbers per block of response_matrix: its kernel has _BLOCK + 1 taps
_PER_PHOTON_MAX = 32  # the most photons of a pulse whose clicks are drawn one path per photon
_PHOTONS = np.arange(1, _PER_PHOTON_MAX + 2)  # the photon numbers that bound the groups of the click draw


@dataclass(frozen=True)
class PathWeights:
    """Exit probabilities of the detector paths; nonnegative and summing to 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(_reals(self.w, "path weights"), dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValidationError("path weights must be a non-empty 1-d sequence")
        _check_mass(w, "path weights")
        _freeze(self, "w", w)

    @property
    def B(self) -> int:
        return self.w.size


def uniform_weights(B: int = 8) -> PathWeights:
    """Equal-splitting weight vector for a B-path detector."""
    B = _index(B, "B", 1)
    return PathWeights(np.full(B, 1.0 / B))


@dataclass(frozen=True)
class DetectorResponse:
    """Conditional click matrix P[k, n] for one detector arm of B = rows - 1 paths.

    Columns are probability distributions over the click number k for a fixed
    photon number n; k never exceeds min(n, B).  P is the response's whole
    record: the path weights behind it belong to the calibration.
    """

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(_reals(self.P, "P"), dtype=float)
        if P.ndim != 2 or P.shape[0] < 2 or P.shape[1] < 1:
            raise ValidationError("P must have at least 2 rows and at least one column")
        B = P.shape[0] - 1
        if not np.all(np.isfinite(P)) or np.any(P < 0.0):
            raise ValidationError("click probabilities must be finite and >= 0")
        colsums = P.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > _TOL):
            raise ValidationError("each column of P must sum to 1 within 1e-12")
        if abs(P[0, 0] - 1.0) > _TOL:
            raise ValidationError("P[0, 0] must be 1")
        if P.shape[1] > 1 and abs(P[1, 1] - 1.0) > _TOL:
            raise ValidationError("P[1, 1] must be 1 for a lossless detector")
        k = np.arange(B + 1)[:, None]
        n = np.arange(P.shape[1])[None, :]
        if np.any(P[k > np.minimum(n, B)] > _TOL):
            raise ValidationError("P[k, n] must vanish for k > min(n, B)")
        _freeze(self, "P", P)

    @property
    def B(self) -> int:
        return self.P.shape[0] - 1

    @property
    def n_max(self) -> int:
        return self.P.shape[1] - 1


@dataclass(frozen=True)
class ClickDistribution:
    """Joint click probabilities p[k, l]; ``deficit`` is the mass lost to the
    photon-number truncation of the underlying distribution."""

    p: np.ndarray
    deficit: float = 0.0

    def __post_init__(self):
        p = np.asarray(_reals(self.p, "click probabilities"), dtype=float)
        if p.ndim != 2:
            raise ValidationError("p must be a matrix")
        deficit = _check_mass(p, "click probabilities", self.deficit, "deficit")
        _freeze(self, "p", p)
        object.__setattr__(self, "deficit", deficit)


def response_matrix(weights: PathWeights, n_max: int) -> DetectorResponse:
    """Conditional click probabilities P[k, n] for 0 <= k <= B, 0 <= n <= n_max.

    When the B' nonzero weights are exactly equal, photon n + 1 lands in one of
    the k paths already hit or in one of the B' - k others:

        P[k, n + 1] = (k P[k, n] + (B' - k + 1) P[k - 1, n]) / B'

    that is, P[:, n + 1] = T P[:, n] with B'T integer and bidiagonal (k on the
    diagonal, B' - k + 1 below).  Its columns sum to B', so (B'T)^j holds
    integers up to B'^j and is exact in doubles for j <= L, the largest L <=
    ``_BLOCK`` with B'^L <= 2^53 (33 at B' = 3, 17 at 8, 13 at 16, 8 at 64),
    or n_max if that is smaller (but at least 1): no block needs more powers.
    One matrix product of the stacked powers with column n0 fills a block:

        P[:, n0 + j] = ((B'T)^j P[:, n0]) / B'^j,   j = 1 .. L

    in O(B'^2 n_max) time and n_max / L products; rows k > B' stay 0.  Every
    term is nonnegative, so nothing cancels, and each column rounds once per
    block instead of once per photon.  Scratch: one copy of P and L (B' + 1)^2
    doubles of powers, 264 KiB at B' = 64.  The chain runs on P times
    ``_LIFT``, so that an entry on its way below the smallest normal double
    keeps its digits until one final rounding (unscaled, k / B' > 1/2 would
    round it back up to the smallest subnormal at every photon); a product
    reaches at most 2^600 B'^L <= 2^653.

    Otherwise the paths are added one at a time; after i of them, P[k, n] is the
    probability that n photons confined to those paths occupy exactly k.
    Path i takes a Binomial(n, p) share of them, p = w_i / (w_1 + ... + w_i):

        new[k, n] = (1-p)^n P[k, n] + sum_{m<n} C(n, m) (1-p)^m p^(n-m) P[k-1, m]

    Each update is a convex combination, so nothing cancels.  Path u + 1 reads
    stage u alone, L = min(``_BLOCK``, n_max + 1) photon numbers at a time: the
    rows of n0 + j are the row of n0 convolved with K[j, i] = C(j, i) (1-p)^i p^(j-i),
    built by Pascal's rule for all paths at once.  A block is (P @ W) @ K^T, with
    W[m, i] = row[m - i] for m - i < n0, plus the row's last entry and the stay term.
    Scratch: two stages, 2 paths (L + 1)^2 kernel doubles and an (n_max + 1) x L
    window.  n_max is at most ``_N_CAP`` = 4096, as for ``joint_distribution``.
    """
    n_max = _index(n_max, "n_max", 0, _N_CAP)
    w = weights.w
    paths = np.flatnonzero(w)
    if np.all(w[paths] == w[paths[0]]):
        b = paths.size
        top = min(_BLOCK, max(n_max, 1))  # no block needs more than n_max powers
        L = max(j for j in range(1, top + 1) if b**j <= 2**53)  # (B'T)^j stays exact
        powers = np.empty((L, b + 1, b + 1))  # powers[j - 1] = (B'T)^j, in integers
        powers[0] = np.diag(np.arange(b + 1.0)) + np.diag(np.arange(b, 0.0, -1), -1)
        for j in range(1, L):
            np.matmul(powers[0], powers[j - 1], out=powers[j])
        denom = np.cumprod(np.full((L, 1), float(b)), axis=0)  # B'^j, exact
        cols = np.zeros((n_max + 1, w.size + 1))  # cols[n] = _LIFT P[:, n]
        cols[0, 0] = _LIFT
        for n0 in range(0, n_max, L):
            m = min(L, n_max - n0)
            ways = powers[:m].reshape(m * (b + 1), b + 1) @ cols[n0, : b + 1]
            cols[n0 + 1 : n0 + m + 1, : b + 1] = ways.reshape(m, b + 1) / denom[:m]
        return DetectorResponse(P=cols.T.copy() * (1.0 / _LIFT))
    L = min(_BLOCK, n_max + 1)
    p = np.array([[w[i] / w[: i + 1].sum()] for i in paths])
    q = 1.0 - p
    pascal = np.zeros((paths.size, L + 1, L + 2))  # [u, j, i + 1] = K[j, i] of path u
    pascal[:, 0, 1] = 1.0
    for j in range(L):
        pascal[:, j + 1, 1 : j + 3] = p * pascal[:, j, 1 : j + 3] + q * pascal[:, j, : j + 2]
    kern = pascal[:, :, 1:]
    k = np.arange(L)
    stay, inner = kern[:, k, k], kern[:, :L, :L].copy()
    inner[:, k, k] = 0.0
    blocks = [(n0, min(n0 + L, n_max + 1)) for n0 in range(0, n_max + 1, L)]
    P = np.eye(1, n_max + 1)  # stage 0: no path, no click
    for u in range(paths.size):
        new = np.zeros((u + 2 if u + 1 < paths.size else w.size + 1, n_max + 1))
        for n0, n1 in blocks:
            b, up, keep = n1 - n0, new[1 : u + 2, n0:n1], new[: u + 1, n0:n1]
            edge = row[n0] * P[:, n0:n1] if n0 else P[:, :n1]  # the row's last entry
            np.matmul(edge, inner[u, :b, :b].T, out=up)
            keep += stay[u, :b] * edge
            if n0:  # window[m - lo, i] = row[m - i] for 0 <= m - i < n0, in float64 steps
                lo = np.argmax(row > 0.0)  # row[:lo] has underflowed to 0
                pad = np.concatenate((np.zeros(L - 1), row[:n0], np.zeros(b)))
                window = np.lib.stride_tricks.as_strided(pad[L - 1 + lo :], (n1 - lo, b), (8, -8))
                up += (P[:, lo:n1] @ window) @ kern[u, :b, :b].T
            if n1 <= n_max:  # row[m] = C(n1, m) (1-p)^m p^(n1-m), for the next block
                row = np.convolve(row, kern[u, L]) if n0 else kern[u, L]
        P = new
    return DetectorResponse(P=P)


def simulate_clicks_batch(
    ns: np.ndarray, weights: PathWeights, rng: np.random.Generator
) -> np.ndarray:
    """Click numbers for a 1-d array of photon numbers of any integer dtype, up to
    2**63 - 1: entry i is the number of paths hit when ns[i] photons scatter
    independently over the paths, so a pulse of 0 or 1 photon draws nothing.

    The pulses are drawn in ascending photon number (a stable sort, skipped when
    ns is already in order).  With at most 64 paths of nonzero weight, a pulse of
    2 <= n <= ``_PER_PHOTON_MAX`` photons draws one path per photon from n
    consecutive uniforms u: floor(u B') where the B' paths of nonzero weight are
    exactly equal, else the number of their cumulative weights, over their total,
    that are <= u, so a path of zero weight is never drawn.  The paths are counted
    one photon-number group at a time: two photons click twice unless their paths
    agree, and n >= 3 OR their path bits along a (pulses, n) reshape and count the
    set bits.  The other pulses of n >= 2 then draw their path occupancies from one
    multinomial each; a draw of no pulse is not made."""
    ns = np.asarray(ns)
    if ns.ndim != 1:
        raise ValidationError("photon numbers must be a 1-d array")
    if ns.dtype.kind not in "iu":
        raise ValidationError("photon numbers must be integers >= 0")
    ns = ns.astype(np.int64, copy=False)  # a uint64 past 2**63 - 1 wraps below 0
    order = ns.argsort(kind="stable") if (ns[1:] < ns[:-1]).any() else None
    if order is not None:
        ns = ns[order]
    if ns.size and ns[0] < 0:
        raise ValidationError("photon numbers must be integers >= 0 and at most 2**63 - 1")
    live = weights.w[weights.w > 0.0]
    cut = _PER_PHOTON_MAX if live.size <= 64 else 1
    edges = ns.searchsorted(_PHOTONS[: cut + 1]).tolist()  # ns[edges[j - 1]:edges[j]] hold j photons
    k = np.zeros(ns.size, np.int64)
    k[edges[0] :] = 1
    groups = [(n, edges[n - 1], edges[n]) for n in range(2, cut + 1) if edges[n] > edges[n - 1]]
    if groups:
        u = rng.random(int(ns[edges[1] : edges[cut]].sum()))
        if live.min() == live.max():
            path = np.multiply(u, live.size, out=u).astype(np.uint8)
        else:
            path = np.zeros(u.size, np.uint8)
            cdf = np.cumsum(live)
            for edge in cdf[:-1] / cdf[-1]:  # B' - 1 passes beat a binary search per photon
                path += u >= edge
        bits = np.min_scalar_type((1 << live.size) - 1)  # a bit for each path
        at = 0
        for n, start, stop in groups:
            photons = path[at : at + n * (stop - start)]
            if n == 2:
                np.subtract(2, photons[::2] == photons[1::2], out=k[start:stop])
            else:
                hit = np.bitwise_or.reduce(np.left_shift(1, photons, dtype=bits).reshape(-1, n), axis=1)
                k[start:stop] = np.bitwise_count(hit)
            at += photons.size
    if edges[cut] < ns.size:
        k[edges[cut] :] = np.count_nonzero(rng.multinomial(ns[edges[cut] :], live), axis=1)
    if order is None:
        return k
    clicks = np.empty_like(k)
    clicks[order] = k
    return clicks


@dataclass(frozen=True)
class CalibrationResult:
    """Path weights estimated from ``total`` calibration clicks."""

    weights: PathWeights
    total: int

    @property
    def stderr(self) -> np.ndarray:
        """Per-bin standard errors sqrt(w (1 - w) / total)."""
        w = self.weights.w
        return np.sqrt(w * (1.0 - w) / self.total)

    @property
    def max_rel_stderr(self) -> float:
        """Largest stderr_i / w_i; inf when a path never clicked."""
        w = self.weights.w
        return float(np.divide(self.stderr, w, out=np.full(w.shape, np.inf), where=w > 0).max())


def calibrate(bin_counts) -> CalibrationResult:
    """Estimate path weights from per-bin click counts taken at low intensity.

    Assumes at most one photon per pulse (the caller's responsibility), under
    which the counts are multinomial and w_hat_i = counts_i / total is the
    maximum-likelihood estimate with standard error sqrt(w (1 - w) / total).
    A path that never clicked would be a dead path in the response, so it
    raises DegenerateInputError naming the empty paths (every path, if none clicked).
    """
    counts, total = _counts(bin_counts, "bin counts")
    if counts.ndim != 1 or counts.size < 1:
        raise ValidationError("bin counts must be a non-empty 1-d sequence")
    if (empty := np.flatnonzero(counts == 0)).size:
        raise DegenerateInputError(f"calibration paths {empty.tolist()} never clicked")
    return CalibrationResult(weights=PathWeights(counts / total), total=total)


def _cut_responses(resp_a: DetectorResponse, resp_b: DetectorResponse, n_max: int, B=None):
    """Both click matrices cut at n_max; ValidationError if one covers fewer
    photons or, given a histogram's B, has another number of paths."""
    for name, resp in (("resp_a", resp_a), ("resp_b", resp_b)):
        if B is not None and resp.B != B:
            raise ValidationError(f"{name} has B={resp.B} but histogram has B={B}")
        if resp.n_max < n_max:
            raise ValidationError(f"{name} covers n <= {resp.n_max} < n_max={n_max}")
    return resp_a.P[:, : n_max + 1], resp_b.P[:, : n_max + 1]


def apply_response(
    rho: JointDistribution, resp_a: DetectorResponse, resp_b: DetectorResponse
) -> ClickDistribution:
    """Joint click distribution p[k, l] = sum_{n,m} P[k,n] P'[l,m] rho[n,m].

    The total click mass equals 1 - rho.tail_mass; the missing part is
    reported as the deficit.

    Pa is multiplied by ``_LIFT`` before the two products and the result by
    1 / ``_LIFT`` after them, so that a product of a small response entry and a
    small grid cell stays normal.  Where none was subnormal unscaled, the result
    is bit for bit the unscaled one; no entry grows past 2^600 on the way.  The
    two products take O(B n_max**2 + B**2 n_max) time.
    """
    Pa, Pb = _cut_responses(resp_a, resp_b, rho.n_max)
    p = (Pa * _LIFT) @ rho.probs @ Pb.T
    p *= 1.0 / _LIFT
    return ClickDistribution(p=p, deficit=rho.tail_mass)


# -- text formats -------------------------------------------------------------

def format_response(resp: DetectorResponse) -> str:
    """The click matrix under a ``# B=... n_max=...`` header."""
    return format_matrix({"B": resp.B, "n_max": resp.n_max}, resp.P)


def parse_response(text: str) -> DetectorResponse:
    header, matrix = parse_matrix(text, "response", {"B": int, "n_max": int})
    if matrix.shape != (header["B"] + 1, header["n_max"] + 1):
        raise ValidationError("response matrix shape disagrees with its header")
    return DetectorResponse(P=matrix)
