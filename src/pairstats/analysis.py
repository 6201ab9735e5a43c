"""Source quality estimators computed from a joint photon-number distribution.

Implements the equivalent mode number (from the excess marginal variance),
the overall efficiency through the normalized count-difference statistic,
and the pair-contamination parameters for the single- and double-pair
sectors.  The contour map of contamination against efficiency and production
rate needs no distribution: it is closed-form in the pair-number law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._fileio import format_matrix
from .errors import (
    DegenerateInputError,
    PairStatsError,
    SubPoissonianMarginalError,
    ValidationError,
)
# perfbench's traced run wraps analysis.joint_distribution and analysis.suggest_n_max
from .model import JointDistribution, _index, joint_distribution, suggest_n_max  # noqa: F401


@dataclass(frozen=True)
class SourceCharacterization:
    """Bundle of all source estimates with per-field status.

    ``status`` maps each derived field to "ok" or to the name of the error
    that prevented its evaluation (the value is then NaN).
    """

    mean_n: float
    mean_n_prime: float
    var_n: float
    var_n_prime: float
    M_hat: float
    eta_hat: float
    eps2: float
    eps4: float
    p11: float
    p22: float
    status: dict = field(default_factory=dict)


def _moments(rho: JointDistribution):
    """First and second moments of the captured grid, renormalized by its mass."""
    captured = float(rho.probs.sum())
    if captured <= 0.0:
        raise DegenerateInputError("distribution carries no probability mass")
    n = np.arange(rho.n_max + 1, dtype=float)
    pa = rho.probs.sum(axis=1)
    pb = rho.probs.sum(axis=0)
    mean_a = float(pa @ n) / captured
    mean_b = float(pb @ n) / captured
    var_a = float(pa @ n**2) / captured - mean_a**2
    var_b = float(pb @ n**2) / captured - mean_b**2
    cov = float(n @ rho.probs @ n) / captured - mean_a * mean_b
    return mean_a, mean_b, var_a, var_b, cov


def _mode_number(mean: float, var: float) -> float:
    """Equivalent number of modes <n>^2 / ((dn)^2 - <n>) from arm a's moments.

    Equals M exactly for the source model and is independent of the pump
    strength; requires a super-Poissonian marginal.
    """
    if mean <= 0.0:
        raise DegenerateInputError("arm a marginal mean vanishes")
    if var <= mean:
        raise SubPoissonianMarginalError(
            f"arm a marginal variance {var!r} does not exceed its mean {mean!r}"
        )
    return mean**2 / (var - mean)


def _delta_squared(mean_a, mean_b, var_a, var_b, cov) -> float:
    """Mean square of the normalized count difference between the arms.

    delta = (n/<n> - n'/<n'>) / sqrt(1/<n> + 1/<n'>); classical beams give
    <delta^2> >= 1, the pair source gives 1 - 2/(1/eta + 1/eta').  Written
    with mean ratios and no squared means, so that tiny means cannot underflow.
    """
    if mean_a <= 0.0 or mean_b <= 0.0:
        raise DegenerateInputError("a marginal mean vanishes")
    num = var_a * (mean_b / mean_a) + var_b * (mean_a / mean_b) - 2.0 * cov
    return num / (mean_a + mean_b)


def _contamination(rho: JointDistribution, which: int) -> float:
    """1 - rho[c, c] / P(n + m >= which), c = which / 2: for which=2 the share
    of multiphoton events that are not a lone pair, for which=4 the share of
    four-photon-sector events that are not a double pair.

    The tail, all at n + m > n_max, lies wholly in the sector iff n_max >= which - 1.
    """
    if rho.n_max < which - 1:
        raise DegenerateInputError(f"grid too small to resolve the {which}-photon sector")
    n = np.arange(rho.n_max + 1)
    denom = float(rho.probs[(n[:, None] + n[None, :]) >= which].sum()) + rho.tail_mass
    if denom <= 0.0:
        raise DegenerateInputError(f"{which}-photon sector is empty")
    c = which // 2
    return 1.0 - float(rho.probs[c, c]) / denom


def _rate_coefficients(v: float, M: float, which: int) -> list[tuple[int, float]]:
    """(i, a_i) with rho[1, 1] (which=2) or rho[2, 2] (which=4) = (1 - w)^M sum a_i w^i.

    With eta = eta', J ~ NegBin(M, w) pairs reach a detector, w = N k / (1 + N k),
    k = 1 - (1 - eta)^2: P(J = j) = (1 - w)^M t_j, t_j = (M)_j w^j / j!.  Each is
    a twin with probability v = eta / (2 - eta), else one photon in either arm.
    """
    q2 = (1.0 - v) ** 2
    if which == 2:
        return [(1, M * v), (2, 0.25 * M * (M + 1.0) * q2)]
    c2 = 0.5 * M * (M + 1.0)
    c3, c4 = c2 * (M + 2.0), c2 * (M + 2.0) * (M + 3.0)
    return [(2, c2 * v * v), (3, 0.5 * c3 * v * q2), (4, c4 * q2 * q2 / 32.0)]


def _bisect(rising, hi: float) -> float:
    """Smallest w in (0, hi] with ``rising(w)``, to 1e-12 relative or to the last bit."""
    lo = 0.0
    while hi - lo > 1e-12 * hi and lo < (mid := 0.5 * (lo + hi)) < hi:
        if rising(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _solve_w(target: float, v: float, M: float, which: int) -> float | None:
    """Smallest w with pair rate R(w) == target, or None when unachievable.

    R is log-concave, so (1 - w) R' - M R changes sign once in (0, 1), at the
    peak; divided by (1 - w)^(M - 1) w^(c - 1), c = which / 2, it cannot underflow.
    "R(w) >= target or past the peak" is thus monotone in w: one bisection
    finds the solution, or the peak when the target lies above R there.
    """
    coeffs, c = _rate_coefficients(v, M, which), which // 2

    def rate(w: float) -> float:
        return math.exp(M * math.log1p(-w)) * sum(a * w**i for i, a in coeffs)

    w = _bisect(
        lambda w: rate(w) >= target
        or sum(a * w ** (i - c) * (i * (1 - w) - M * w) for i, a in coeffs) < 0,
        1.0,
    )
    return None if target > rate(w) * (1.0 + 1e-9) else w


def _law_contamination(w: float, v: float, M: float, which: int) -> float:
    """eps = P(n + m >= which, off (c, c)) / P(n + m >= which), c = which / 2.

    Both sum nonnegative terms t_j of the J law of ``_rate_coefficients``,
    scaled to t_c = 1: nothing cancels or underflows.  t_(j+1) / t_j = r_j =
    w (M + j) / (j + 1) falls toward w < 1, so once r_j < 1 the terms after
    t_j sum to at most t_j r_j / (1 - r_j).
    """
    t = [1.0]
    for j in range(which // 2, which):
        t.append(t[-1] * w * (M + j) / (j + 1))
    term, j, rest = t[-1], which, 0.0
    while (r := w * (M + j) / (j + 1)) >= 1.0 or term * r > (1.0 - r) * 1e-17 * rest:
        term *= r
        j += 1
        rest += term
    q = 1.0 - v
    if which == 2:
        return (t[1] * (1.0 - 0.5 * q * q) + rest) / (t[0] * v + t[1] + rest)
    num = 0.5 * t[1] * v * (3.0 - v * v) + t[2] * (1.0 - 0.375 * q**4) + rest
    return num / (t[0] * v * v + t[1] * (1.0 - q**3) + t[2] + rest)


def contamination_map(eta_grid, rate_grid, M: float = 1.0, which: int = 2) -> np.ndarray:
    """Contamination versus efficiency and production rate, on a grid.

    For every (eta, rate) cell of the balanced-loss source, the pump is
    solved on the rising branch so that the single-pair rate rho[1, 1]
    (double-pair rate rho[2, 2] for which=4) equals the requested rate, and
    the contamination there is evaluated, both in closed form from the law of
    the pairs that reach a detector (no grid).  Unachievable rates yield NaN.

    Returns:
        Matrix of shape (len(eta_grid), len(rate_grid)).
    """
    which = _index(which, "which")
    if which not in (2, 4):
        raise ValidationError("which must be 2 or 4")
    if not (math.isfinite(M) and M >= 1.0):
        raise ValidationError("M must be finite and >= 1")
    etas = np.atleast_1d(np.asarray(eta_grid, dtype=float))
    rates = np.atleast_1d(np.asarray(rate_grid, dtype=float))
    if etas.size == 0 or rates.size == 0:
        raise ValidationError("grids must be non-empty")
    if not np.all((etas > 0.0) & (etas <= 1.0)):
        raise ValidationError("eta grid values must lie in (0, 1]")
    if not np.all(np.isfinite(rates) & (rates > 0.0)):
        raise ValidationError("rate grid values must be finite and > 0")

    out = np.full((etas.size, rates.size), np.nan)
    for i, eta in enumerate(etas):
        v = float(eta) / (2.0 - float(eta))
        for j, rate in enumerate(rates):
            w = _solve_w(float(rate), v, M, which)
            if w is not None:
                out[i, j] = _law_contamination(w, v, M, which)
    return out


def characterize(rho: JointDistribution) -> SourceCharacterization:
    """Every source estimate of rho, recording failures per field instead of raising:
    M_hat from arm a, the efficiency eta_hat = 1 - <delta^2> (status
    "warning:nonpositive" when it is <= 0, as for classical or noisy data),
    and the contaminations eps2, eps4, which need n_max >= 1 and >= 3."""
    status: dict = {}
    values: dict = {}

    def attempt(name, fn):
        try:
            values[name] = float(fn())
            status[name] = "ok"
        except PairStatsError as exc:
            values[name] = float("nan")
            status[name] = type(exc).__name__

    try:
        moments = _moments(rho)
    except DegenerateInputError:
        moments = (0.0,) * 5  # M_hat and eta_hat then record DegenerateInputError
    mean_n, mean_np, var_n, var_np, _ = moments

    attempt("M_hat", lambda: _mode_number(mean_n, var_n))
    attempt("eta_hat", lambda: 1.0 - _delta_squared(*moments))
    if status["eta_hat"] == "ok" and not values["eta_hat"] > 0.0:
        status["eta_hat"] = "warning:nonpositive"
    attempt("eps2", lambda: _contamination(rho, 2))
    attempt("eps4", lambda: _contamination(rho, 4))
    p11 = float(rho.probs[1, 1]) if rho.n_max >= 1 else float("nan")
    p22 = float(rho.probs[2, 2]) if rho.n_max >= 2 else float("nan")
    return SourceCharacterization(
        mean_n=mean_n,
        mean_n_prime=mean_np,
        var_n=var_n,
        var_n_prime=var_np,
        p11=p11,
        p22=p22,
        status=status,
        **values,
    )


# -- text formats -------------------------------------------------------------

def characterization_record(char: SourceCharacterization) -> dict:
    """Every estimate in field order, then its ``status_<name>``."""
    pairs = {f.name: getattr(char, f.name) for f in fields(char) if f.name != "status"}
    pairs.update((f"status_{name}", val) for name, val in char.status.items())
    return pairs


def format_map(eps: np.ndarray, eta_grid, rate_grid, M: float, which: int) -> str:
    """The contamination matrix under a ``# which=... M=... eta=... rate=...``
    header; a NaN cell is an unreachable rate."""
    grids = {"eta": np.atleast_1d(eta_grid), "rate": np.atleast_1d(rate_grid)}
    return format_matrix({"which": which, "M": M, **grids}, eps)
