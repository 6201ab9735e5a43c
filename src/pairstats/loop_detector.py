"""Time-multiplexed click detector with B binary output paths.

A photon entering the arm leaves through path i with probability w_i, and a
path fires (one click) when at least one photon exits through it.  The
conditional probability of k clicks given n photons is built by adding the
paths one at a time, each taking a binomial share of the photons.  Losses
are not modelled here; they are absorbed into the arm transmissions of the
source model, so the response matrices describe lossless detectors with
P[1, 1] = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fileio import format_matrix, parse_matrix
from .errors import DegenerateInputError, ValidationError
from .model import _N_CAP, _TOL, JointDistribution, _check_mass, _freeze, _index

_BLOCK = 64  # binomial rows applied per matrix product in response_matrix


@dataclass(frozen=True)
class PathWeights:
    """Exit probabilities of the detector paths; nonnegative and summing to 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if w.ndim != 1 or w.size < 1:
            raise ValidationError("path weights must be a non-empty 1-d sequence")
        _check_mass(w, "path weights")
        _freeze(self, "w", w)

    @property
    def B(self) -> int:
        return self.w.size


def uniform_weights(B: int = 8) -> PathWeights:
    """Equal-splitting weight vector for a B-path detector."""
    B = _index(B, "B")
    if B < 1:
        raise ValidationError("B must be >= 1")
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
        P = np.asarray(self.P, dtype=float)
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
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2:
            raise ValidationError("p must be a matrix")
        deficit = _check_mass(p, "click probabilities", self.deficit, "deficit")
        _freeze(self, "p", p)
        object.__setattr__(self, "deficit", deficit)


def response_matrix(weights: PathWeights, n_max: int) -> DetectorResponse:
    """Conditional click probabilities P[k, n] for 0 <= k <= B, 0 <= n <= n_max.

    The paths are added one at a time; after i of them, P[k, n] is the
    probability that n photons confined to those paths occupy exactly k.
    Path i takes a Binomial(n, p) share of them, p = w_i / (w_1 + ... + w_i):

        new[k, n] = (1-p)^n P[k, n] + sum_{m<n} C(n, m) (1-p)^m p^(n-m) P[k-1, m]

    Each update is a convex combination, so nothing cancels.  The binomial
    rows come from Pascal's rule, which keeps the column sums within rounding
    of 1 at large n_max, and are applied ``_BLOCK`` rows per matrix product.
    n_max is at most ``_N_CAP`` = 4096, as for ``joint_distribution``.
    """
    n_max = _index(n_max, "n_max")
    if not 0 <= n_max <= _N_CAP:
        raise ValidationError(f"n_max must lie in [0, {_N_CAP}] (got {n_max})")
    w = weights.w
    P = np.zeros((w.size + 1, n_max + 1))
    P[0, 0] = 1.0
    block = np.zeros((_BLOCK, n_max + 1))
    for used, i in enumerate(np.flatnonzero(w)):
        p = w[i] / w[: i + 1].sum()
        row = np.zeros(n_max + 3)  # row[m + 1] = C(n, m) (1-p)^m p^(n-m); row[0] = 0
        row[1] = 1.0
        new = np.zeros_like(P)
        for n0 in range(0, n_max + 1, _BLOCK):
            n1 = min(n0 + _BLOCK, n_max + 1)
            for j, n in enumerate(range(n0, n1)):
                block[j, :n1] = row[1 : n1 + 1]
                row[1 : n + 3] = p * row[1 : n + 3] + (1.0 - p) * row[: n + 2]
            rows = block[: n1 - n0, :n1]
            stay = rows[:, n0:].diagonal().copy()
            np.fill_diagonal(rows[:, n0:], 0.0)
            old = P[: used + 1]
            new[1 : used + 2, n0:n1] = old[:, :n1] @ rows.T
            new[: used + 1, n0:n1] += stay * old[:, n0:n1]
        P = new
    return DetectorResponse(P=P)


def simulate_clicks_batch(
    ns: np.ndarray, weights: PathWeights, rng: np.random.Generator
) -> np.ndarray:
    """Click numbers for an array of photon numbers: entry i is the number of
    paths hit when ns[i] photons scatter independently over the paths."""
    ns = np.asarray(ns)
    if ns.dtype.kind not in "iu" or np.any(ns < 0):
        raise ValidationError("photon numbers must be integers >= 0")
    k = np.zeros(ns.shape, dtype=np.int64)
    k[ns == 1] = 1
    multi = np.flatnonzero(ns >= 2)
    counts = rng.multinomial(ns[multi], weights.w)
    k[multi] = np.count_nonzero(counts > 0, axis=-1)
    return k


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
    raises DegenerateInputError naming the empty paths.
    """
    counts = np.atleast_1d(np.asarray(bin_counts))
    if counts.ndim != 1 or counts.size < 1:
        raise ValidationError("bin counts must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(counts)) or np.any(counts < 0) or np.any(counts != np.floor(counts)):
        raise ValidationError("bin counts must be finite nonnegative integers")
    total = sum(int(c) for c in counts)
    if total == 0:
        raise DegenerateInputError("all calibration bins are empty")
    if (empty := np.flatnonzero(counts == 0)).size:
        raise DegenerateInputError(f"calibration paths {empty.tolist()} never clicked")
    return CalibrationResult(weights=PathWeights(counts / total), total=total)


def apply_response(
    rho: JointDistribution, resp_a: DetectorResponse, resp_b: DetectorResponse
) -> ClickDistribution:
    """Joint click distribution p[k, l] = sum_{n,m} P[k,n] P'[l,m] rho[n,m].

    The total click mass equals 1 - rho.tail_mass; the missing part is
    reported as the deficit.
    """
    for name, resp in (("resp_a", resp_a), ("resp_b", resp_b)):
        if resp.n_max < rho.n_max:
            raise ValidationError(
                f"{name} covers n <= {resp.n_max} but rho is truncated at {rho.n_max}"
            )
    cols = rho.n_max + 1
    p = resp_a.P[:, :cols] @ rho.probs @ resp_b.P[:, :cols].T
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
