"""Maximum-likelihood recovery of the joint photon-number distribution.

Click data are multinomial over the (k, l) cells with cell probabilities
linear in rho, so the likelihood is inverted by the classical multiplicative
expectation-maximization update for positive linear models:

    rho[n, m] <- rho[n, m] * sum_{k,l} P[k,n] P'[l,m] (f[k,l]/F) / p[k,l]

The update keeps rho nonnegative, preserves its normalization exactly
(columns of P and P' each sum to one), and never decreases the
log-likelihood.  Plain EM converges slowly on these inversions, so
``em_reconstruct`` runs it inside SQUAREM cycles (Varadhan & Roland,
Scand. J. Stat. 35, 335 (2008)): two plain steps, a squared extrapolation
along them, and one stabilising step, kept only when the log-likelihood
does not fall below the second plain step's.  Click numbers above B carry
no information about photon numbers beyond the detector's resolution, so
support claimed at n much larger than B is determined by the data only
weakly; callers choose n_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fileio import format_matrix, parse_matrix
from .errors import SupportError, ValidationError
from .loop_detector import DetectorResponse
from .model import JointDistribution, _freeze, _index

_SQUAREM_TRIALS = 4  # extrapolation lengths tried per cycle


@dataclass(frozen=True)
class ClickHistogram:
    """Joint click counts f[k, l] accumulated over a known number of pulses."""

    f: np.ndarray
    pulses: int

    def __post_init__(self):
        f = np.asarray(self.f)
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] < 1:
            raise ValidationError("f must be a square (B+1) x (B+1) matrix")
        if not np.all(np.isfinite(f)) or np.any(f < 0) or np.any(f != np.floor(f)):
            raise ValidationError("click counts must be finite nonnegative integers")
        pulses = _index(self.pulses, "pulses")
        if not 0 < pulses < 2**63:
            raise ValidationError("pulses must be > 0 and < 2**63")
        # an exact total bounds every count by pulses, so the int64 cast is safe
        if sum(int(v) for v in f.flat) > pulses:
            raise ValidationError("total counts cannot exceed the number of pulses")
        f = f.astype(np.int64)
        _freeze(self, "f", f)
        object.__setattr__(self, "pulses", pulses)

    @property
    def B(self) -> int:
        return self.f.shape[0] - 1


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of an expectation-maximization run.

    The trace holds the log-likelihood of each accepted iterate and is
    non-decreasing up to floating-point resolution.  ``ll_gap_bound`` bounds
    how far the final log-likelihood lies below the maximum: with the EM
    multiplier g at the returned rho and F counts, the likelihood is concave
    and sum(rho * g) = 1, so LL* - LL <= F * (max g - 1).  It is infinite
    when unknown.
    """

    rho: JointDistribution
    log_likelihood_trace: tuple
    iterations: int
    converged: bool
    ll_gap_bound: float = math.inf

    def __post_init__(self):
        trace = tuple(float(v) for v in self.log_likelihood_trace)
        if not trace:
            raise ValidationError("log-likelihood trace must be non-empty")
        # 1e-10 absolute slack, widened by a few ulp once |LL| makes 1e-10
        # unrepresentable in double precision.
        slack = 1e-10 + 4.0 * np.spacing(max(abs(v) for v in trace))
        diffs = np.diff(trace)
        if diffs.size and float(diffs.min()) < -slack:
            raise ValidationError(
                f"log-likelihood trace decreases by {-float(diffs.min()):.3e}"
            )
        object.__setattr__(self, "log_likelihood_trace", trace)
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "converged", bool(self.converged))
        bound = float(self.ll_gap_bound)
        if not bound >= 0.0:
            raise ValidationError(f"ll_gap_bound must be >= 0 (got {bound!r})")
        object.__setattr__(self, "ll_gap_bound", bound)


def log_likelihood(
    hist: ClickHistogram,
    rho: JointDistribution,
    resp_a: DetectorResponse,
    resp_b: DetectorResponse,
) -> float:
    """Multinomial log-likelihood sum_{k,l} f[k,l] ln p[k,l] of rho.

    Cells with zero counts contribute nothing.  Raises ValidationError when a
    response's B differs from the histogram's or it does not cover rho's
    grid, and SupportError when a nonzero count falls in a cell of zero model
    probability.
    """
    return _forward(_observed_cells(hist, resp_a, resp_b, rho.n_max), rho.probs)[0]


def _observed_cells(
    hist: ClickHistogram, resp_a: DetectorResponse, resp_b: DetectorResponse, n_max: int
):
    """evaluate(rho) -> (LL, EM multiplier) over the observed cells of hist, or
    None when one has zero probability; the responses, checked to have hist's
    B and to cover n_max, are cut at n_max."""
    for name, resp in (("resp_a", resp_a), ("resp_b", resp_b)):
        if resp.B != hist.B:
            raise ValidationError(f"{name} has B={resp.B} but histogram has B={hist.B}")
        if resp.n_max < n_max:
            raise ValidationError(f"{name} covers n <= {resp.n_max} < n_max={n_max}")
    Pa = resp_a.P[:, : n_max + 1]
    Pb = resp_b.P[:, : n_max + 1]
    cells = np.flatnonzero(hist.f)  # observed cells, as flat indices
    counts = hist.f.take(cells)
    freqs = counts / counts.sum()
    ratio = np.zeros(hist.f.shape)

    def evaluate(r):
        p = (Pa @ r @ Pb.T).take(cells)
        if not (p > 0.0).all():
            return None
        np.put(ratio, cells, freqs / p)
        return math.fsum((counts * np.log(p)).tolist()), Pa.T @ ratio @ Pb

    return evaluate


def _forward(evaluate, r):
    """``evaluate(r)``, raising SupportError where it gives None."""
    state = evaluate(r)
    if state is None:
        raise SupportError("observed clicks in cells of zero model probability")
    return state


def _check_em_args(
    hist: ClickHistogram,
    resp_a: DetectorResponse,
    resp_b: DetectorResponse,
    n_max: int,
    tol: float,
    max_iter: int,
):
    """Validate the arguments of :func:`em_reconstruct`; return the total count
    and the histogram's observed-cell evaluator."""
    n_max = _index(n_max, "n_max")
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tol must be finite and >= 0 (got {tol!r})")
    if _index(max_iter, "max_iter") < 1:
        raise ValidationError(f"max_iter must be >= 1 (got {max_iter!r})")
    total = int(hist.f.sum())
    if total <= 0:
        raise ValidationError("histogram is empty")
    observed = int(np.argwhere(hist.f > 0).max())
    if n_max < observed:
        raise ValidationError(
            f"n_max={n_max} is below the largest observed click number {observed}"
        )
    return total, _observed_cells(hist, resp_a, resp_b, n_max)


def em_reconstruct(
    hist: ClickHistogram,
    resp_a: DetectorResponse,
    resp_b: DetectorResponse,
    n_max: int,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    init: JointDistribution | None = None,
) -> ReconstructionResult:
    """Recover rho from a click histogram by SQUAREM-accelerated EM.

    Starts from the uniform distribution on the (n_max+1)^2 grid (or from
    ``init``) and runs SQUAREM cycles of the multiplicative update F.  A
    cycle takes two plain steps, x1 = F(x0) and x2 = F(x1), then tries the
    extrapolation x0 - 2 a r + a^2 v, with r = x1 - x0, v = x2 - 2 x1 + x0
    and a = min(-|r|/|v|, -1), followed by one stabilising step F.  The
    stabilised point replaces x2 only if the extrapolation is nonnegative,
    gives every observed cell positive probability, and the stabilised
    log-likelihood is at least LL(x2).  Otherwise a is halved toward -1, and
    after a few halvings the cycle keeps x2.  The log-likelihood of the
    accepted iterates therefore never decreases.

    The run stops once a plain step from the current iterate gains less than
    tol * max(1, |LL|); it then returns that step's output with
    ``converged=True``.  ``iterations`` counts forward evaluations: each
    computes the click probabilities, the log-likelihood and the EM
    multiplier at one point.  Every plain step and every trial or stabilised
    point costs one; the starting point is free.  After ``max_iter``
    evaluations the run returns its last accepted iterate with
    ``converged=False``, which is reported through the flag, not an
    exception.

    Args:
        hist: observed joint click counts.
        resp_a: response matrix of arm a; must cover n_max.
        resp_b: response matrix of arm b; must cover n_max.
        n_max: truncation order of the reconstructed grid; must reach the
            largest observed click number.
        tol: finite and >= 0; stop when a plain step gains less than
            tol * max(1, |LL|).
        max_iter: >= 1; the budget of forward evaluations.
        init: optional starting distribution on the same grid.
    """
    total, evaluate = _check_em_args(hist, resp_a, resp_b, n_max, tol, max_iter)
    if init is None:
        rho = np.full((n_max + 1, n_max + 1), 1.0 / (n_max + 1) ** 2)
    else:
        if init.n_max != n_max:
            raise ValidationError("init grid size disagrees with n_max")
        rho = init.probs.copy()
        rho /= rho.sum()

    def step(r, g):
        new = r * g
        # F(r) sums to one for any r; renormalize only if rounding shows
        drift = new.sum()
        if abs(drift - 1.0) > 1e-13:
            new /= drift
        return new

    ll, g = _forward(evaluate, rho)
    trace = [ll]
    converged = False
    iterations = 0
    cycle = [rho]  # accepted iterates since the last extrapolation
    while iterations < max_iter:
        prev = ll
        rho = step(rho, g)
        ll, g = _forward(evaluate, rho)
        iterations += 1
        trace.append(ll)
        if ll - prev < tol * max(1.0, abs(ll)):
            converged = True
            break
        cycle.append(rho)
        if len(cycle) < 3:
            continue
        x0, x1, x2 = cycle
        cycle = [x2]
        r = x1 - x0
        v = x2 - x1 - r
        norm_v = float(np.linalg.norm(v))
        if norm_v == 0.0:
            continue
        alpha = min(-float(np.linalg.norm(r)) / norm_v, -1.0)
        for _ in range(_SQUAREM_TRIALS):
            if alpha == -1.0 or iterations + 2 > max_iter:
                break
            trial = x0 - 2.0 * alpha * r + alpha * alpha * v
            alpha = 0.5 * (alpha - 1.0)
            if trial.min() < 0.0:
                continue
            state = evaluate(trial)
            iterations += 1
            if state is None:
                continue
            trial = step(trial, state[1])
            state = evaluate(trial)
            iterations += 1
            if state is not None and state[0] >= ll:
                rho, (ll, g) = trial, state
                trace.append(ll)
                cycle = [rho]
                break
    return ReconstructionResult(
        rho=JointDistribution(probs=rho, n_max=n_max, tail_mass=0.0),
        log_likelihood_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
        ll_gap_bound=total * max(0.0, float(g.max()) - 1.0),
    )


# -- text formats -------------------------------------------------------------

def format_histogram(hist: ClickHistogram) -> str:
    return format_matrix({"pulses": hist.pulses, "B": hist.B}, hist.f)


def parse_histogram(text: str) -> ClickHistogram:
    header, matrix = parse_matrix(text, "histogram", {"pulses": int, "B": int})
    if matrix.shape != (header["B"] + 1, header["B"] + 1):
        raise ValidationError("histogram shape disagrees with its header")
    return ClickHistogram(f=matrix, pulses=header["pulses"])


def em_record(result: ReconstructionResult) -> dict:
    """The ``em_*`` keys of ``summary.txt`` and ``reconstruct --report-out``;
    ``em_edge_mass`` is the mass on the last row and column of rho."""
    rho = result.rho.probs
    return {
        "em_converged": result.converged,
        "em_iterations": result.iterations,
        "em_log_likelihood": result.log_likelihood_trace[-1],
        "em_ll_gap_bound": result.ll_gap_bound,
        "em_edge_mass": rho[-1].sum() + rho[:-1, -1].sum(),
    }
