"""Source quality estimators computed from a joint photon-number distribution.

Implements the equivalent mode number (from the marginal factorial moments),
the overall efficiency through the normalized count-difference statistic,
and the pair-contamination parameters for the single- and double-pair
sectors.  A model source's contaminations (``source_contamination``) and the
contour map of contamination against efficiency and production rate need no
distribution: both are closed-form in ``model``'s law of the pairs that reach a
detector, J ~ NegBin(M, w).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from itertools import accumulate, islice

import numpy as np

from ._fileio import format_matrix
from .errors import (
    DegenerateInputError,
    PairStatsError,
    SubPoissonianMarginalError,
    ValidationError,
)
from .model import _LIFT, EffectiveSource, JointDistribution, _index, _pair_law, _pair_walk, _real, _reals
# perfbench's traced run wraps analysis.joint_distribution and analysis.suggest_n_max
from .model import joint_distribution, suggest_n_max  # noqa: F401


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
    """Means <n>, <n'> and factorial moments <n(n-1)>, <n'(n'-1)>, <nn'> of the
    captured grid, renormalized by its mass.  Each is a sum of nonnegative
    terms, so nothing cancels."""
    captured = float(rho.probs.sum())
    if captured <= 0.0:
        raise DegenerateInputError("distribution carries no probability mass")
    n = np.arange(rho.n_max + 1, dtype=float)
    pa = rho.probs.sum(axis=1)
    pb = rho.probs.sum(axis=0)
    mean_a = float(pa @ n) / captured
    mean_b = float(pb @ n) / captured
    fact_a = float(pa @ (n * (n - 1.0))) / captured
    fact_b = float(pb @ (n * (n - 1.0))) / captured
    cross = float(n @ rho.probs @ n) / captured
    return mean_a, mean_b, fact_a, fact_b, cross


def _mode_number(mean: float, fact: float) -> float:
    """Equivalent number of modes <n>^2 / ((dn)^2 - <n>) from arm a's moments,
    written as <n> / (<n(n-1)>/<n> - <n>): the excess variance without the
    cancellation of (dn)^2 - <n>.

    Equals M at any pump strength on the whole distribution, but a grid cut by
    its tail mass can miss the tail's share of <n(n-1)>: by 6.5e-3 relative at
    N = 1e-6, M = 100, eta = 0.6, cut at suggest_n_max(src, 1e-12).  Requires
    a super-Poissonian marginal, <n(n-1)> > <n>^2.
    """
    if mean <= 0.0:
        raise DegenerateInputError("arm a marginal mean vanishes")
    excess = fact / mean - mean
    if excess <= 0.0:
        raise SubPoissonianMarginalError(
            f"arm a factorial moment <n(n-1)>={fact!r} does not exceed <n>^2 for <n>={mean!r}"
        )
    return mean / excess


def _efficiency(mean_a, mean_b, fact_a, fact_b, cross) -> float:
    """1 - <delta^2>, the efficiency estimate from the normalized count difference.

    delta = (n/<n> - n'/<n'>) / sqrt(1/<n> + 1/<n'>); classical beams give
    <delta^2> >= 1, the pair source gives 1 - 2/(1/eta + 1/eta').  In factorial
    moments, 1 - <delta^2> = (2<nn'> - <n(n-1)><n'>/<n> - <n'(n'-1)><n>/<n'>)
    / (<n> + <n'>): mean ratios and no squared means, so that tiny means
    cannot underflow.
    """
    if mean_a <= 0.0 or mean_b <= 0.0:
        raise DegenerateInputError("a marginal mean vanishes")
    num = 2.0 * cross - fact_a * (mean_b / mean_a) - fact_b * (mean_a / mean_b)
    return num / (mean_a + mean_b)


def _sector(rho: JointDistribution, which: int) -> np.ndarray:
    """The cells of rho with n + m >= which."""
    n = np.arange(rho.n_max + 1)
    return (n[:, None] + n[None, :]) >= which


def _contamination(rho: JointDistribution, which: int) -> float:
    """1 - rho[c, c] / P(n + m >= which), c = which / 2: for which=2 the share
    of multiphoton events that are not a lone pair, for which=4 the share of
    four-photon-sector events that are not a double pair.

    The tail, all at n + m > n_max, lies wholly in the sector iff n_max >= which - 1.
    """
    if rho.n_max < which - 1:
        raise DegenerateInputError(f"grid too small to resolve the {which}-photon sector")
    denom = float(rho.probs[_sector(rho, which)].sum()) + rho.tail_mass
    if denom <= 0.0:
        raise DegenerateInputError(f"{which}-photon sector is empty")
    c = which // 2
    return 1.0 - float(rho.probs[c, c]) / denom


def _tail_swamps(rho: JointDistribution, which: int) -> bool:
    """Whether the value of ``_contamination`` rests on the tail it adds to the
    sector: the tail is at least 1e-3 of the sector's mass off the cell (c, c),
    and rho[c, c] > 0 (else the value is 1 whatever the tail).  On an exact grid
    the tail is 1 - sum rounded, and at weak pumping that rounding is as large
    as the mass off the cell."""
    c = which // 2
    if rho.tail_mass == 0.0 or rho.probs[c, c] == 0.0:
        return False
    off = _sector(rho, which)
    off[c, c] = False
    return rho.tail_mass >= 1e-3 * float(rho.probs[off].sum())


def _diagonal_cell(rho: JointDistribution, c: int) -> float:
    """rho[c, c], the rate of exactly c photons in each arm."""
    if rho.n_max < c:
        raise DegenerateInputError(f"grid too small to hold rho[{c}, {c}]")
    return rho.probs[c, c]


def _rate_coefficients(v: float, M: float, which: int) -> list[tuple[int, float]]:
    """(j, b_j) with rho[1, 1] (which=2) or rho[2, 2] (which=4) = (1 - x/M)^M sum b_j x^j
    at eta = eta', x = M w, a = b = (1 - v)/2: the x^j coefficient of ``_pair_walk`` times
    the chance j!/(i! l! l!) v^i (ab)^l that i twins and l lone pairs per arm give (c, c)."""
    c, ab = which // 2, 0.25 * (1.0 - v) ** 2
    chances = (v, 2.0 * ab) if which == 2 else (v * v, 6.0 * v * ab, 6.0 * ab * ab)  # l = 0 ... c
    coeffs = islice(_pair_walk(M, 1.0 / M), c, which + 1)
    return [(c + l, t * chance) for l, ((t, _), chance) in enumerate(zip(coeffs, chances))]


def _solve_x(target: float, v: float, M: float, which: int) -> float | None:
    """Smallest x = M w with pair rate R(x) == target, or None when unachievable.

    R is log-concave, so (1 - w) R' - M R changes sign once, at the peak;
    divided by (1 - w)^(M - 1) (x/M)^(c - 1), c = which / 2, it is sum b_i x^(i-c)
    (i (1 - x/M) - x), which cannot underflow, and each of its terms is negative
    past x = which, so the peak lies below min(M, which) and no power overflows.
    "R(x) >= target or past the peak" is thus monotone in x: one bisection
    finds the solution, or the peak when the target lies above R there.
    """
    coeffs, c = _rate_coefficients(v, M, which), which // 2

    def rate(x: float) -> float:
        return math.exp(M * math.log1p(-x / M)) * sum(b * x**i for i, b in coeffs)

    def past_peak(x: float) -> bool:
        return sum(b * x ** (i - c) * (i * (1 - x / M) - x) for i, b in coeffs) < 0

    lo, hi = 0.0, min(M, float(which))  # bisect to 1e-12 relative or to the last bit
    while hi - lo > 1e-12 * hi and lo < (x := 0.5 * (lo + hi)) < hi:
        if rate(x) >= target or past_peak(x):
            hi = x
        else:
            lo = x
    return None if target > rate(hi) * (1.0 + 1e-9) else hi


def _law_contamination(x: float, M: float, which: int, v: float, a: float, b: float) -> float:
    """eps = P(n + m >= which, off (c, c)) / P(n + m >= which), c = which / 2.

    J ~ NegBin(M, x/M) pairs reach a detector, P(J = j) = (1 - x/M)^M t_j, t_j the x^j
    coefficient of ``_pair_walk`` times x^j; each lands in both arms, arm a alone or arm b
    alone with chances v, a, b.  With s = a + b, h = 1 + s + s^2 (v h = 1 - s^3) and rest =
    sum_(j>which) t_j, eps2 = (t_2 (1 - 2ab) + rest) / (t_1 v + t_2 + rest), eps4 = (t_3 v
    (h - 6ab) + t_4 (1 - 6a^2 b^2) + rest) / (t_2 v^2 + t_3 v h + t_4 + rest): nonnegative
    terms, each above at most its match below, so nothing cancels and eps <= 1.  Where
    P(J > which) >= 1/2, t_j = P(J = j) and rest = P(J > which): a huge x reads 1, as
    P(J = j) <= x^j e^-x.  Elsewhere t_c = ``_LIFT`` (the sums stay below 2^606), so the
    terms stay normal while x^2, x v and v^2 exceed 2^-1622 (eta = eta' ~ 1e-230 at N = 1),
    and the pmf ratio r_j = t_(j+1) / t_j, x times the walk's, falls toward x/M < 1: past
    r_j < 1 the tail is <= t_j r_j / (1 - r_j)."""
    c, walk = which // 2, _pair_walk(M, 1.0 / M)  # x^j coefficients: no tiny w = x/M is formed
    ratios = [x * r for _, r in islice(walk, which)]  # r_0 ... r_(which-1)
    p0 = math.exp(M * math.log1p(-x / M)) if x < M else 0.0  # P(J = 0); 0 if w rounds to 1
    p = list(accumulate(ratios, operator.mul, initial=p0))
    t, rest = p[c:], 1.0 - math.fsum(p)
    if rest < 0.5:
        t = list(accumulate(ratios[c:], operator.mul, initial=_LIFT))
        term, rest = t[-1], 0.0
        for _, r in walk:  # on from r_which
            if (r := x * r) < 1.0 and term * r <= (1.0 - r) * 1e-17 * rest:
                break
            term, rest = term * r, rest + term * r
    if which == 2:
        num, den = t[1] * (1.0 - 2.0 * a * b) + rest, t[0] * v + t[1] + rest
    else:
        h = 1.0 + (a + b) * (1.0 + a + b)
        num = t[1] * v * (h - 6.0 * a * b) + t[2] * (1.0 - 6.0 * (a * b) ** 2) + rest
        den = t[0] * v * v + t[1] * v * h + t[2] + rest
    if den <= 0.0:
        raise DegenerateInputError(f"the {which}-photon sector underflows to 0")
    return num / den


def source_contamination(src: EffectiveSource) -> tuple[float, float]:
    """(eps2, eps4) of the model source at any N, M and arms, with no grid, from its
    ``_pair_law`` of J ~ NegBin(M, w) reaching pairs and their split.  Raises
    DegenerateInputError when no pair reaches a detector (eta = eta' = 0) or a sector
    underflows to 0."""
    law = _pair_law(src)
    if law.k == 0.0:
        raise DegenerateInputError("no pair reaches a detector (eta = eta_prime = 0)")
    return tuple(_law_contamination(src.M * law.w, src.M, which, *law.split.tolist()) for which in (2, 4))


def contamination_map(eta_grid, rate_grid, M: float = 1.0, which: int = 2) -> np.ndarray:
    """Contamination versus efficiency and production rate, on a grid.

    For every (eta, rate) cell of the balanced-loss source, the pump is solved on
    the rising branch so that the single-pair rate rho[1, 1] (double-pair rate
    rho[2, 2] for which=4) equals the rate, and the contamination there is taken,
    both in closed form with no grid, at any finite M >= 1.  An unachievable rate
    yields NaN.

    Returns:
        Matrix of shape (len(eta_grid), len(rate_grid)).
    """
    which = _index(which, "which")
    if which not in (2, 4):
        raise ValidationError("which must be 2 or 4")
    M = _real(M, "M", 1.0)
    etas = np.asarray(_reals(eta_grid, "eta grid"), dtype=float)
    rates = np.asarray(_reals(rate_grid, "rate grid"), dtype=float)
    if etas.size == 0 or rates.size == 0:
        raise ValidationError("grids must be non-empty")
    if not np.all((etas > 0.0) & (etas <= 1.0)):
        raise ValidationError("eta grid values must lie in (0, 1]")
    if not np.all(np.isfinite(rates) & (rates > 0.0)):
        raise ValidationError("rate grid values must be finite and > 0")

    out = np.full((etas.size, rates.size), np.nan)
    for i, eta in enumerate(etas):
        v = float(eta) / (2.0 - float(eta))  # _pair_law's split at eta = eta', eta^2 / k, in closed form
        for j, rate in enumerate(rates):
            x = _solve_x(float(rate), v, M, which)
            if x is not None:
                out[i, j] = _law_contamination(x, M, which, v, 0.5 * (1.0 - v), 0.5 * (1.0 - v))
    return out


def characterize(rho: JointDistribution) -> SourceCharacterization:
    """Every source estimate of rho, recording failures per field instead of raising:
    M_hat from arm a, the efficiency eta_hat = 1 - <delta^2> (status
    "warning:nonpositive" when it is <= 0, as for classical or noisy data),
    the contaminations eps2, eps4, which need n_max >= 1 and >= 3 (status
    "warning:tail_mass" when rho's tail is at least 1e-3 of the sector's mass
    off the diagonal cell), and the cells p11, p22, which need n_max >= 1 and >= 2."""
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
    mean_n, mean_np, fact_n, fact_np, _ = moments

    attempt("M_hat", lambda: _mode_number(mean_n, fact_n))
    attempt("eta_hat", lambda: _efficiency(*moments))
    if status["eta_hat"] == "ok" and not values["eta_hat"] > 0.0:
        status["eta_hat"] = "warning:nonpositive"
    attempt("eps2", lambda: _contamination(rho, 2))
    attempt("eps4", lambda: _contamination(rho, 4))
    for name, which in (("eps2", 2), ("eps4", 4)):
        if status[name] == "ok" and _tail_swamps(rho, which):
            status[name] = "warning:tail_mass"
    attempt("p11", lambda: _diagonal_cell(rho, 1))
    attempt("p22", lambda: _diagonal_cell(rho, 2))
    return SourceCharacterization(
        mean_n=mean_n,
        mean_n_prime=mean_np,
        var_n=fact_n + mean_n - mean_n**2,
        var_n_prime=fact_np + mean_np - mean_np**2,
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
