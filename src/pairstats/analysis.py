"""Source quality estimators computed from a joint photon-number distribution.

Implements the equivalent mode number (from the excess marginal variance),
the overall efficiency through the normalized count-difference statistic,
and the pair-contamination parameters for the single- and double-pair
sectors, together with the contour-map generator that traces contamination
against efficiency and production rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from ._fileio import fmt, format_mapping
from .errors import (
    DegenerateInputError,
    PairStatsError,
    SubPoissonianMarginalError,
    ValidationError,
)
from .model import EffectiveSource, JointDistribution, joint_distribution, suggest_n_max

_TAIL_REPORT = 1e-9


@dataclass(frozen=True)
class SourceCharacterization:
    """Bundle of all source estimates with per-field status.

    ``status`` maps each derived field to "ok" or to the name of the error
    that prevented its evaluation (the value is then NaN).  ``intervals``
    holds half-widths for estimates whose truncation uncertainty can be
    bracketed exactly, populated when the tail mass is non-negligible.
    """

    mean_n: float
    mean_n_prime: float
    var_n: float
    var_n_prime: float
    M_hat: float
    delta_sq: float
    eta_hat: float
    eps2: float
    eps4: float
    p11: float
    p22: float
    status: dict = field(default_factory=dict)
    intervals: dict = field(default_factory=dict)


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


def marginal_moments(rho: JointDistribution, arm: str = "a") -> tuple[float, float]:
    """Mean and variance of one arm's marginal ('a' or 'b')."""
    mean_a, mean_b, var_a, var_b, _ = _moments(rho)
    if arm == "a":
        return mean_a, var_a
    if arm == "b":
        return mean_b, var_b
    raise ValidationError("arm must be 'a' or 'b'")


def mode_number(rho: JointDistribution, arm: str = "a") -> float:
    """Equivalent number of modes <n>^2 / ((dn)^2 - <n>) from one arm.

    Equals M exactly for the source model and is independent of the pump
    strength; requires a super-Poissonian marginal.
    """
    mean, var = marginal_moments(rho, arm)
    if mean <= 0.0:
        raise DegenerateInputError(f"arm {arm} marginal mean vanishes")
    if var <= mean:
        raise SubPoissonianMarginalError(
            f"arm {arm} marginal variance {var!r} does not exceed its mean {mean!r}"
        )
    return mean**2 / (var - mean)


def delta_squared(rho: JointDistribution) -> float:
    """Mean square of the normalized count difference between the arms.

    delta = (n/<n> - n'/<n'>) / sqrt(1/<n> + 1/<n'>); classical beams give
    <delta^2> >= 1, the pair source gives 1 - 2/(1/eta + 1/eta').
    """
    mean_a, mean_b, var_a, var_b, cov = _moments(rho)
    if mean_a <= 0.0 or mean_b <= 0.0:
        raise DegenerateInputError("a marginal mean vanishes")
    num = var_a / mean_a**2 + var_b / mean_b**2 - 2.0 * cov / (mean_a * mean_b)
    return num / (1.0 / mean_a + 1.0 / mean_b)


def efficiency(rho: JointDistribution) -> float:
    """Average overall efficiency 1 - <delta^2>.

    Positive for nonclassically correlated arms; a nonpositive result (noisy
    or classical data) is returned with a warning rather than raised.
    """
    value = 1.0 - delta_squared(rho)
    if value <= 0.0:
        warnings.warn(
            f"efficiency estimate {value!r} is not positive; the data look"
            " classical or too noisy",
            stacklevel=2,
        )
    return value


def _sector_mass(rho: JointDistribution, min_total: int) -> float:
    """Probability of total photon number >= min_total, tail included.

    All truncated mass sits at n or m above n_max, so adding the tail is
    exact whenever n_max + 1 >= min_total and an upper bound otherwise.
    """
    n = np.arange(rho.n_max + 1)
    mask = (n[:, None] + n[None, :]) >= min_total
    return float(rho.probs[mask].sum()) + rho.tail_mass


def contamination2(rho: JointDistribution) -> float:
    """Fraction of multiphoton events that are not a lone photon pair."""
    if rho.n_max < 1:
        raise DegenerateInputError("grid too small to resolve the pair sector")
    denom = _sector_mass(rho, 2)
    if denom <= 0.0:
        raise DegenerateInputError("multiphoton sector is empty")
    return 1.0 - float(rho.probs[1, 1]) / denom


def contamination4(rho: JointDistribution) -> float:
    """Fraction of four-photon-sector events that are not a double pair."""
    if rho.n_max < 2:
        raise DegenerateInputError("grid too small to resolve the double-pair sector")
    denom = _sector_mass(rho, 4)
    if denom <= 0.0:
        raise DegenerateInputError("four-photon sector is empty")
    return 1.0 - float(rho.probs[2, 2]) / denom


def _closed_form_rate(N: float, eta: float, M: float, which: int) -> float:
    """rho[1, 1] (which=2) or rho[2, 2] (which=4) of the balanced source.

    With eta = eta' the generating function is A^-M (1 - b x - b y - d xy)^-M,
    b = N eta (1 - eta) / A, d = N eta^2 / A; in rising factorials (M)_k,
    rho11 = A^-M (M d + (M)_2 b^2) and
    rho22 = A^-M ((M)_2 d^2 / 2 + (M)_3 b^2 d + (M)_4 b^4 / 4).
    """
    A = N + 1.0 - N * (1.0 - eta) * (1.0 - eta)
    b2 = (N * eta * (1.0 - eta) / A) ** 2
    d = N * eta * eta / A
    if which == 2:
        return A**-M * M * (d + (M + 1.0) * b2)
    quad = 0.5 * d * d + (M + 2.0) * b2 * (d + 0.25 * (M + 3.0) * b2)
    return A**-M * M * (M + 1.0) * quad


def _invert_rate(target: float, eta: float, M: float, which: int) -> float | None:
    """Smallest N with production rate == target, or None when unachievable.

    The rate rises from zero, peaks, and falls.  The peak is bracketed by
    doubling N and located by golden-section search on log N; the equation is
    then solved by bisection on the rising branch.
    """

    def rate(N: float) -> float:
        return _closed_form_rate(N, eta, M, which)

    n = 1e-6
    while rate(2.0 * n) > rate(n):
        n *= 2.0
        if n > 1e12:
            break
    golden = 0.5 * (math.sqrt(5.0) - 1.0)
    lo, hi = math.log(0.5 * n), math.log(2.0 * n)
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = rate(math.exp(x1)), rate(math.exp(x2))
    while hi - lo > 1e-10:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = rate(math.exp(x2))
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = rate(math.exp(x1))
    peak_x, peak_val = (math.exp(x1), f1) if f1 >= f2 else (math.exp(x2), f2)

    if target > peak_val:
        return None if target > peak_val * (1.0 + 1e-9) else peak_x
    lo = min(1e-12, peak_x * 1e-9)
    while rate(lo) > target:
        lo *= 1e-3
        if lo < 1e-300:
            return lo
    hi = peak_x
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if rate(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def contamination_map(
    eta_grid, rate_grid, M: float = 1.0, which: int = 2
) -> np.ndarray:
    """Contamination versus efficiency and production rate, on a grid.

    For every (eta, rate) cell the pump parameter N is solved so that the
    balanced-loss source produces the requested single-pair rate rho[1, 1]
    (double-pair rate rho[2, 2] for which=4), and the corresponding
    contamination is evaluated.  Unachievable rates yield NaN.

    Returns:
        Matrix of shape (len(eta_grid), len(rate_grid)).
    """
    if which not in (2, 4):
        raise ValidationError("which must be 2 or 4")
    if not (math.isfinite(M) and M >= 1.0):
        raise ValidationError("M must be finite and >= 1")
    etas = np.atleast_1d(np.asarray(eta_grid, dtype=float))
    rates = np.atleast_1d(np.asarray(rate_grid, dtype=float))
    if etas.size == 0 or rates.size == 0:
        raise ValidationError("grids must be non-empty")
    if not (np.all(np.isfinite(etas)) and np.all(np.isfinite(rates))):
        raise ValidationError("grid values must be finite")
    if np.any(etas <= 0.0) or np.any(etas > 1.0):
        raise ValidationError("eta grid values must lie in (0, 1]")
    if np.any(rates <= 0.0):
        raise ValidationError("rate grid values must be > 0")

    out = np.full((etas.size, rates.size), np.nan)
    for i, eta in enumerate(etas):
        for j, rate in enumerate(rates):
            N = _invert_rate(float(rate), float(eta), M, which)
            if N is None:
                continue
            src = EffectiveSource(N=N, eta=float(eta), eta_prime=float(eta), M=M)
            rho = joint_distribution(src, suggest_n_max(src, 1e-12))
            out[i, j] = contamination2(rho) if which == 2 else contamination4(rho)
    return out


def characterize(rho: JointDistribution) -> SourceCharacterization:
    """Evaluate every estimator, recording failures per field instead of raising."""
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
        mean_n, mean_np, var_n, var_np, _ = _moments(rho)
    except DegenerateInputError:
        mean_n = mean_np = var_n = var_np = 0.0

    attempt("M_hat", lambda: mode_number(rho, "a"))
    attempt("delta_sq", lambda: delta_squared(rho))
    if status["delta_sq"] == "ok":
        values["eta_hat"] = 1.0 - values["delta_sq"]
        status["eta_hat"] = (
            "ok" if values["eta_hat"] > 0.0 else "warning:nonpositive"
        )
    else:
        values["eta_hat"] = float("nan")
        status["eta_hat"] = status["delta_sq"]
    attempt("eps2", lambda: contamination2(rho))
    attempt("eps4", lambda: contamination4(rho))
    p11 = float(rho.probs[1, 1]) if rho.n_max >= 1 else float("nan")
    p22 = float(rho.probs[2, 2]) if rho.n_max >= 2 else float("nan")

    intervals: dict = {}
    if rho.tail_mass > _TAIL_REPORT:
        for name, which in (("eps2", 2), ("eps4", 4)):
            if status[name] != "ok":
                continue
            box = _sector_mass(rho, which) - rho.tail_mass
            if box <= 0.0:
                continue
            peak = float(rho.probs[which // 2, which // 2])
            intervals[name] = 0.5 * abs(peak / box - peak / (box + rho.tail_mass))

    return SourceCharacterization(
        mean_n=mean_n,
        mean_n_prime=mean_np,
        var_n=var_n,
        var_n_prime=var_np,
        p11=p11,
        p22=p22,
        status=status,
        intervals=intervals,
        **values,
    )


# -- text formats -------------------------------------------------------------

def format_characterization(char: SourceCharacterization) -> str:
    pairs = {
        f.name: getattr(char, f.name)
        for f in fields(char)
        if f.name not in ("status", "intervals")
    }
    for name, val in char.intervals.items():
        pairs[f"interval_{name}"] = val
    for name, val in char.status.items():
        pairs[f"status_{name}"] = val
    return format_mapping(pairs)


def format_map(
    eps: np.ndarray, eta_grid, rate_grid, M: float, which: int
) -> str:
    lines = [
        f"# which={which} M={fmt(M)} sentinel=nan",
        "# eta=" + ",".join(fmt(v) for v in np.atleast_1d(eta_grid)),
        "# rate=" + ",".join(fmt(v) for v in np.atleast_1d(rate_grid)),
    ]
    for row in np.atleast_2d(eps):
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"
