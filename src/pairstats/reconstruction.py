"""Maximum-likelihood recovery of the joint photon-number distribution.

Click data are multinomial over the (k, l) cells with cell probabilities
linear in rho, so the likelihood is inverted by the classical multiplicative
expectation-maximization update for positive linear models:

    rho[n, m] <- rho[n, m] * sum_{k,l} P[k,n] P'[l,m] (f[k,l]/F) / p[k,l]

The update keeps rho nonnegative and never decreases the log-likelihood.
Its output sums to one for any positive rho, normalized or not: with
p = P rho P'^T and g the sum above, sum_{n,m} rho[n,m] g[n,m] =
sum_{k,l} (f[k,l]/F) p[k,l] / p[k,l] = 1, so it is never renormalized.
A fit evaluates p and g on the flattened grid through one design matrix, row
(k, l) of each observed cell holding P[k,n] P'[l,m] at column (n, m), while it
has at most _DESIGN_MAX entries; on larger grids, where it would be slower and
grow as cells * (n_max+1)^2, through products with P and P' on both sides.  Plain
EM converges slowly on these inversions, so ``em_reconstruct`` runs it inside
SQUAREM cycles (Varadhan & Roland, Scand. J. Stat. 35, 335 (2008)): two plain
steps, a squared extrapolation along them, and one stabilising step, kept only
when the log-likelihood does not fall below the second plain step's.  An
observed cell of zero model probability makes the log-likelihood -inf, which
each evaluation checks, raising SupportError.  The fit and ``log_likelihood``
silence numpy's divide warning, and only it, for that log(0).  Click numbers
above B carry no information about photon numbers beyond the detector's
resolution, so support claimed at n much larger than B is determined by the
data only weakly; callers choose n_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fileio import format_matrix, parse_matrix
from .errors import SupportError, ValidationError
from .loop_detector import DetectorResponse, _cut_responses
from .model import JointDistribution, _counts, _freeze, _index, _real

_SQUAREM_TRIALS = 4  # extrapolation lengths tried per cycle
_MAX_PULSES = 2**63 - 1  # click counts are int64
EM_TOL = 1e-10  # default stop: a plain step gains less than EM_TOL * max(1, |LL|)
EM_MAX_ITER = 100_000  # default budget of forward evaluations
# design-matrix entries (120 KB) past which the two-sided products are used.
# With the evaluations of this module (x86-64, one BLAS thread, B = 8 with every
# cell observed) the design is faster up to n_max 14 (18,225 entries: 12% at
# n_max 13, 8% at 14) and 2% slower at 15 (20,736); the bound stays below n_max
# 13 (15,876) so that those fits keep the two-sided products and their bytes
_DESIGN_MAX = 15_000


@dataclass(frozen=True)
class ClickHistogram:
    """Joint click counts f[k, l] accumulated over a known number of pulses."""

    f: np.ndarray
    pulses: int

    def __post_init__(self):
        f, total = _counts(self.f, "click counts")
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] < 1:
            raise ValidationError("f must be a square (B+1) x (B+1) matrix")
        pulses = _index(self.pulses, "pulses", 1, _MAX_PULSES)
        # an exact total bounds every count by pulses, so the int64 cast is safe
        if total > pulses:
            raise ValidationError("total counts cannot exceed the number of pulses")
        _freeze(self, "f", f.astype(np.int64))
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
        object.__setattr__(self, "iterations", _index(self.iterations, "iterations", 0))
        if not isinstance(self.converged, (bool, np.bool_)):
            raise ValidationError(f"converged must be a bool (got {self.converged!r})")
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
    evaluate = _observed_cells(hist, resp_a, resp_b, rho.n_max)
    with np.errstate(divide="ignore"):
        return evaluate(rho.probs.ravel())[0]


def _observed_cells(
    hist: ClickHistogram, resp_a: DetectorResponse, resp_b: DetectorResponse, n_max: int
):
    """evaluate(rho) -> (LL, g, p) over the observed cells of hist, for rho flat on the
    (n_max+1)^2 grid: p the observed cells' click probabilities, LL = counts . log p as a
    Python float, and g the EM multiplier, flat on the grid.

    Support is checked through LL, which costs no pass over p: every observed count is
    positive, so a cell of zero probability makes LL -inf and a NaN in p makes it NaN,
    and either raises SupportError before g is formed.  Call evaluate under
    np.errstate(divide="ignore"), which silences that log(0) only; ``em_reconstruct``
    enters it once around its loop and ``log_likelihood`` once per call, since entering
    it costs about 1 us, an eighth of an evaluation.  The responses, checked to have
    hist's B and cover n_max, are cut at n_max."""
    Pa, Pb = _cut_responses(resp_a, resp_b, n_max, hist.B)
    cells = np.flatnonzero(hist.f)
    counts = hist.f.take(cells).astype(float)
    freqs = counts / counts.sum()
    grid = (n_max + 1, n_max + 1)
    if cells.size * grid[0] * grid[1] <= _DESIGN_MAX:
        k, l = np.divmod(cells, hist.B + 1)
        design = (Pa[k, :, None] * Pb[l, None, :]).reshape(cells.size, grid[0] * grid[1])

        # ndarray.dot runs the same BLAS gemv and ddot as @, bit for bit, without
        # the matmul ufunc's dispatch, about 0.3 us a call on these sizes
        def forward(r):
            return design.dot(r)

        def back(w):
            return w.dot(design)

    else:
        ratio = np.zeros(hist.f.shape)

        def forward(r):
            return (Pa @ r.reshape(grid) @ Pb.T).take(cells)

        def back(w):
            ratio.flat[cells] = w
            return (Pa.T @ ratio @ Pb).ravel()

    def evaluate(r):
        p = forward(r)
        ll = float(counts.dot(np.log(p)))
        if not ll > -math.inf:
            raise SupportError("observed clicks in cells of zero model probability")
        return ll, back(freqs / p), p

    return evaluate


def _check_em_args(
    hist: ClickHistogram, resp_a: DetectorResponse, resp_b: DetectorResponse, n_max: int
) -> int:
    """Validate the fit inputs that :func:`em_reconstruct` shares with
    ``bootstrap_characterize``; return the total count."""
    n_max = _index(n_max, "n_max")
    total = int(hist.f.sum())
    if total <= 0:
        raise ValidationError("histogram is empty")
    observed = int(np.argwhere(hist.f > 0).max())
    if n_max < observed:
        raise ValidationError(
            f"n_max={n_max} is below the largest observed click number {observed}"
        )
    _cut_responses(resp_a, resp_b, n_max, hist.B)
    return total


def em_reconstruct(
    hist: ClickHistogram,
    resp_a: DetectorResponse,
    resp_b: DetectorResponse,
    n_max: int,
    tol: float = EM_TOL,
    max_iter: int = EM_MAX_ITER,
) -> ReconstructionResult:
    """Recover rho from a click histogram by SQUAREM-accelerated EM.

    Starts from the uniform distribution on the (n_max+1)^2 grid and runs
    SQUAREM cycles of the multiplicative update F, whose output sums to one
    for any positive input (see the module docstring).  A cycle takes two
    plain steps, x1 = F(x0) and x2 = F(x1), then tries the extrapolation
    x0 - 2 a r + a^2 v, with r = x1 - x0, v = x2 - 2 x1 + x0 and
    a = min(-|r|/|v|, -1), followed by one stabilising step F.  The
    stabilised point replaces x2 only if the extrapolation is nonnegative,
    gives every observed cell positive probability, and the stabilised
    log-likelihood is at least LL(x2).  Otherwise a is halved toward -1, and
    after a few halvings the cycle keeps x2.

    The run stops once a plain step from the current iterate gains less than
    tol * max(1, |LL|); it then returns that step's output with
    ``converged=True``, or the current iterate if rounding made the step
    lose log-likelihood: the trace of accepted iterates never decreases.
    ``iterations`` counts forward evaluations: each computes the click
    probabilities, the log-likelihood and the EM multiplier at one point.
    Every plain step and every trial or stabilised point costs one; the
    starting point is free.  After ``max_iter`` evaluations the run returns
    its last accepted iterate with ``converged=False``, which is reported
    through the flag, not an exception.

    Args:
        hist: observed joint click counts.
        resp_a: response matrix of arm a; must cover n_max.
        resp_b: response matrix of arm b; must cover n_max.
        n_max: truncation order of the reconstructed grid; must reach the
            largest observed click number.
        tol: finite and >= 0; stop when a plain step gains less than
            tol * max(1, |LL|).
        max_iter: >= 1; the budget of forward evaluations.
    """
    tol = _real(tol, "tol", 0.0)
    _index(max_iter, "max_iter", 1)
    total = _check_em_args(hist, resp_a, resp_b, n_max)
    rho = np.full((n_max + 1) ** 2, 1.0 / (n_max + 1) ** 2)

    evaluate = _observed_cells(hist, resp_a, resp_b, n_max)
    with np.errstate(divide="ignore"):  # see _observed_cells
        ll, g, _ = evaluate(rho)
        trace = [ll]
        converged = False
        iterations = 0
        cycle = [rho]  # accepted iterates since the last extrapolation
        while iterations < max_iter:
            state = evaluate(new := rho * g)
            iterations += 1
            gain = state[0] - ll
            if gain >= 0.0:  # a step that rounding makes lose LL is not taken
                rho, (ll, g, _) = new, state
                trace.append(ll)
            if gain < tol * max(1.0, abs(ll)):
                converged = True
                break
            cycle.append(rho)
            if len(cycle) < 3:
                continue
            x0, x1, x2 = cycle
            cycle = [x2]
            r = x1 - x0
            v = x2 - x1 - r
            norm_v = math.sqrt(v @ v)
            if norm_v == 0.0:
                continue
            alpha = min(-math.sqrt(r @ r) / norm_v, -1.0)
            for _ in range(_SQUAREM_TRIALS):
                if alpha == -1.0 or iterations + 2 > max_iter:
                    break
                trial = x0 - 2.0 * alpha * r + alpha * alpha * v
                alpha = 0.5 * (alpha - 1.0)
                if trial.min() < 0.0:
                    continue
                try:  # an evaluation counts even when it fails
                    iterations += 1
                    trial = trial * evaluate(trial)[1]
                    iterations += 1
                    state = evaluate(trial)
                except SupportError:
                    continue
                if state[0] >= ll:
                    rho, (ll, g, _) = trial, state
                    trace.append(ll)
                    cycle = [rho]
                    break
    return ReconstructionResult(
        rho=JointDistribution(probs=rho.reshape(n_max + 1, n_max + 1), n_max=n_max, tail_mass=0.0),
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
