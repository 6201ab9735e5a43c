"""Slow exact constructions of the joint distribution, used as test oracles.

``row_scan_coefficients`` solves the recurrence of ``pairstats.model`` row by
row instead of in blocks of anti-diagonals, and ``diagonal_sweep_coefficients``
one anti-diagonal at a time, storing each diagonal into the grid as it goes,
in the same operation order as the block sweep.  The other two share no code
with them: ``joint_distribution_oracle`` rebuilds the distribution from the
physical process, and ``closed_form_cell`` sums the closed-form double series
of one cell in high-precision decimal arithmetic, where nothing underflows.
``filtered_moments`` gives the moments of a multimode source the textbook way,
accurate only where |<ab>|^2 - <n><n'> does not cancel and r is moderate.
``response_matrix_per_path`` builds the click matrix of ``pairstats.loop_detector``
one path at a time, advancing one Pascal row per photon number.
``response_matrix_exact`` gives the exact click law of a few paths by
inclusion-exclusion in rational arithmetic, rounded once to floats.
``sample_pulses_per_pulse`` is the law oracle of the sampler of
``pairstats.pipeline``: it draws every non-empty pulse in full, single-pair
pulses included.  ``reaching_pair_cells`` gives its chances of one, several
and no reaching pairs in a pulse in high-precision decimal arithmetic.
``source_contamination_decimal`` gives a source's eps2 and eps4 as one minus
the diagonal cell over its sector, in decimal arithmetic whose precision grows
as the reaching pairs grow rare.  ``reaching_pairs_reference``,
``multi_pair_terms_reference``, ``pulse_law_reference`` and
``suggest_n_max_reference`` are the sampler's pair law, its photon table and the
cutoff search as they stood before the pair law moved into ``pairstats.model``.
``law_contamination_reference`` is the contamination law of ``pairstats.analysis``
as it stood before its scaled head was lifted out of the subnormal range.
``simulate_clicks_batch_reference`` is the per-pulse click draw of
``pairstats.loop_detector`` as it stood before the draw went by photon-number
group; it is now that draw's law oracle.  ``bin_occupancy_reference`` is the
calibration tallies as they stood before the click draw made fewer passes, to hold
those to bit for bit, random stream included.  ``simulate_experiment_serial`` and
``simulate_calibration_serial`` run the pulse blocks of ``pairstats.pipeline``
one after another in the calling thread, so that the thread pool's results can
be held to them bit for bit.  ``observed_cells_two_sided`` evaluates the EM
likelihood of ``pairstats.reconstruction`` on the 2-D grid by products with
the response matrices on both sides, summing it exactly, to hold both of that
module's evaluators to.  ``squarem_reference`` is that module's SQUAREM fit as
it stood before its evaluations were made cheaper, to hold the fit to bit for
bit.
"""

import dataclasses
import itertools
import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.signal import convolve2d, lfilter
from scipy.stats import binom

from pairstats import pipeline
from pairstats.errors import DegenerateInputError, SupportError, TruncationError, ValidationError
from pairstats.loop_detector import _cut_responses
from pairstats.model import _N_CAP, EffectiveSource, JointDistribution, MultimodeSource, generating_fn_value
from pairstats.pipeline import (
    _STAGE_CALIBRATION,
    _STAGE_MAIN,
    _bin_occupancy,
    _block_clicks,
    _block_rng,
    _pulse_law,
    _sample_pulses,
)
from pairstats.reconstruction import ClickHistogram


def _coefficients(src: EffectiveSource, num=float):
    """A, B, C, D of the generating function [A - Bx - Cy - Dxy]**(-M), computed
    in the number type ``num`` (float, or Decimal in the current context)."""
    N, eta, etap = num(src.N), num(src.eta), num(src.eta_prime)
    A = N + 1 - N * (1 - eta) * (1 - etap)
    return A, N * eta * (1 - etap), N * (1 - eta) * etap, N * eta * etap


def row_scan_coefficients(src: EffectiveSource, n_max: int) -> np.ndarray:
    """The grid of ``model._series_coefficients``, solved row by row.

    Row n+1 follows from row n by the first-order linear scan
    rho[n+1, m] = w[m] + (C/A) rho[n+1, m-1] along m, which lfilter runs.
    """
    A, B, C, D = _coefficients(src)
    M = src.M
    size = n_max + 1
    probs = np.zeros((size, size))
    m = np.arange(1, size)
    probs[0] = A**-M * np.concatenate(([1.0], np.cumprod((C / A) * (M + m - 1.0) / m)))
    for n in range(n_max):
        scale = (n + M) / (A * (n + 1.0))
        w = B * scale * probs[n]
        w[1:] += D * scale * probs[n, :-1]
        probs[n + 1] = lfilter([1.0], [1.0, -C / A], w)
    return probs


def diagonal_sweep_coefficients(src: EffectiveSource, n_max: int) -> np.ndarray:
    """The grid of ``model._series_coefficients``, one anti-diagonal at a time.

    Diagonal s is a vector indexed by n, zero outside the grid; its cells
    lo ... hi are stored into the grid with stride n_max.  Where row 0 is not
    finite in double precision, the grid is returned with only that row.
    """
    A, B, C, D = _coefficients(src)
    M = src.M
    size = n_max + 1
    probs = np.zeros((size, size))
    m = np.arange(1, size)
    with np.errstate(over="ignore", invalid="ignore"):
        probs[0] = generating_fn_value(src, 0.0, 0.0) * np.concatenate(
            ([1.0], np.cumprod((C / A) * (M + m - 1.0) / m))
        )
    if not np.isfinite(probs[0]).all():
        return probs
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


def joint_distribution_oracle(
    src: EffectiveSource, n_max: int, tail_bound: float | None = None
) -> JointDistribution:
    """Reference construction of the joint distribution from the physical process.

    Per mode pair the pair number j is geometric, P(j) = N^j/(N+1)^(j+1); the
    arms keep Binomial(j, eta) and Binomial(j, eta_prime) photons.  The M-mode
    result is the M-fold 2-d convolution of the single-mode distribution.
    The sum over j is truncated where the geometric tail drops below 1e-17,
    so every retained cell is exact to well under 1e-12.  Requires integer M.
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


def closed_form_cell(src: EffectiveSource, n: int, m: int) -> float:
    """rho[n, m] from the closed-form double series, to 50 significant digits.

    With [A - Bx - Cy - Dxy]**(-M) the generating function, b = B/A, c = C/A
    and d = (AD + BC)/A^2,

        rho[n, m] = A^-M (M)_n (M)_m
                    sum_{k <= min(n, m)} d^k b^(n-k) c^(m-k)
                                         / (k! (M)_k (n-k)! (m-k)!)

    where (M)_k is the rising factorial.  Every term is nonnegative.  A, B, C
    and D are formed in decimal from the exact values of the float inputs, so
    no double rounding of A enters A^-M.  Decimal arithmetic has no underflow,
    so cells far below 1e-300 stay exact; double precision lgamma would lose
    ~1e-12 to the rounding of log(1000!) alone.  Requires 0 < eta, eta_prime
    < 1, so that b and c are positive.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        A, B, C, D = _coefficients(src, Decimal)
        M = Decimal(src.M)
        b, c, d = B / A, C / A, (A * D + B * C) / (A * A)
        term = b**n * c**m / (math.factorial(n) * math.factorial(m))  # k = 0
        total = term
        for k in range(min(n, m)):
            term *= d * (n - k) * (m - k) / (b * c * (k + 1) * (M + k))
            total += term
        for j in (*range(n), *range(m)):
            total *= M + j
        return float(total / A**M)


def filtered_moments(src: MultimodeSource) -> tuple[float, float, complex]:
    """Arm means <n>, <n'> and pair moment <ab> of the filtered modes, from the
    thermal occupation sinh^2 r and the pair amplitude sinh r cosh r of each mode."""
    occupation = np.sinh(src.r) ** 2
    n_bar = float(np.sum(np.abs(src.t) ** 2 * occupation))
    n_bar_prime = float(np.sum(np.abs(src.t_prime) ** 2 * occupation))
    S = complex(np.sum(src.t * src.t_prime * np.sinh(src.r) * np.cosh(src.r)))
    return n_bar, n_bar_prime, S


def response_matrix_per_path(w: np.ndarray, n_max: int) -> np.ndarray:
    """Click matrix P[k, n] of the recurrence of ``pairstats.response_matrix``, one path
    at a time: path i takes a Binomial(n, p) share, p = w_i / (w_1 + ... + w_i),
    and its Pascal row advances one photon number per step.  The binomial rows
    are applied 64 rows per matrix product."""
    block = 64
    P = np.zeros((w.size + 1, n_max + 1))
    P[0, 0] = 1.0
    rows = np.zeros((block, n_max + 1))
    for used, i in enumerate(np.flatnonzero(w)):
        p = w[i] / w[: i + 1].sum()
        row = np.zeros(n_max + 3)  # row[m + 1] = C(n, m) (1-p)^m p^(n-m); row[0] = 0
        row[1] = 1.0
        new = np.zeros_like(P)
        for n0 in range(0, n_max + 1, block):
            n1 = min(n0 + block, n_max + 1)
            for j, n in enumerate(range(n0, n1)):
                rows[j, :n1] = row[1 : n1 + 1]
                row[1 : n + 3] = p * row[1 : n + 3] + (1.0 - p) * row[: n + 2]
            part = rows[: n1 - n0, :n1]
            stay = part[:, n0:].diagonal().copy()
            np.fill_diagonal(part[:, n0:], 0.0)
            old = P[: used + 1]
            new[1 : used + 2, n0:n1] = old[:, :n1] @ part.T
            new[: used + 1, n0:n1] += stay * old[:, n0:n1]
        P = new
    return P


def response_matrix_chain(w: np.ndarray, n_max: int) -> np.ndarray:
    """Click matrix P[k, n] of equal nonzero weights by the occupancy chain, one
    photon at a time: photon n + 1 lands in one of the k paths already hit or in
    one of the B' - k others,

        P[k, n + 1] = (k P[k, n] + (B' - k + 1) P[k - 1, n]) / B'

    on P scaled by 2^600, so that an entry on its way below the smallest normal
    double is rounded once, at the end; rows past the B' live paths stay 0."""
    b = np.count_nonzero(w)
    hit, free = np.arange(1.0, b + 1), np.arange(b, 0.0, -1)  # k and B' - k + 1
    cols = np.zeros((n_max + 1, w.size + 1))  # cols[n] = 2^600 P[:, n]
    cols[0, 0] = 2.0**600
    for n in range(n_max):
        step = np.multiply(hit, cols[n, 1 : b + 1], out=cols[n + 1, 1 : b + 1])
        step += free * cols[n, :b]
        step /= b
    return cols.T * 2.0**-600


def response_matrix_exact(w, n_max: int) -> np.ndarray:
    """Exact click matrix P[k, n] of the normalized weights w / sum(w), B <= 6.

    With the weights taken exactly as fractions c_i / C over the common
    denominator C = sum c_i, the paths in a set T hold all n photons with
    probability (c_T / C)^n, and inclusion-exclusion over T gives

        P[k, n] = C^-n sum_{t <= k} (-1)^(k-t) C(B-t, k-t) sum_{|T|=t} c_T^n

    in integers; each entry is rounded to a float once, at the end.
    """
    B = len(w)
    if B > 6:
        raise ValidationError("the exact oracle enumerates 2^B path sets; B must be <= 6")
    weights = [Fraction(float(x)) for x in w]
    scale = math.lcm(*(x.denominator for x in weights))
    c = [int(x * scale) for x in weights]
    total = sum(c)
    sets = [itertools.combinations(range(B), t) for t in range(B + 1)]
    sums = [[sum(c[i] for i in T) for T in group] for group in sets]
    powers = [[1] * len(group) for group in sums]
    P = np.zeros((B + 1, n_max + 1))
    for n in range(n_max + 1):
        per_size = [sum(group) for group in powers]
        for k in range(B + 1):
            terms = [(-1) ** (k - t) * math.comb(B - t, k - t) * per_size[t] for t in range(k + 1)]
            P[k, n] = sum(terms) / total**n  # int / int rounds once
        powers = [[x * y for x, y in zip(p, group)] for p, group in zip(powers, sums)]
    return P


def sample_pulses_per_pulse(src: EffectiveSource, rng: np.random.Generator, size: int):
    """Photon numbers (n, m) of those of ``size`` pulses that hold a pair reaching
    a detector, each drawn in full; the rest are left out.

    One binomial draw counts the pulses with a reaching pair, with probability
    S = 1 - (1+theta)**(-M), theta = N (eta + eta' - eta eta').  Each draws its
    first arrival t on [0, 1] by inversion, the rate Gamma(M + 1, theta / (1 +
    theta t)) given t, Poisson(rate (1 - t)) later pairs, and two binomial
    splits of its pairs.
    """
    both = src.eta * src.eta_prime
    single = src.eta * (1.0 - src.eta_prime) + src.eta_prime * (1.0 - src.eta)
    k = both + single
    if k == 0.0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    theta = src.N * k
    nonempty = -math.expm1(-src.M * math.log1p(theta))
    u = rng.random(rng.binomial(size, nonempty))
    t = np.minimum(np.expm1(-np.log1p(-u * nonempty) / src.M) / theta, 1.0)
    rate = rng.gamma(src.M + 1.0, theta / (1.0 + theta * t))
    pairs = 1 + rng.poisson(rate * (1.0 - t))
    in_both = rng.binomial(pairs, both / k)
    a_only = 0
    if single > 0.0:
        a_only = rng.binomial(pairs - in_both, src.eta * (1.0 - src.eta_prime) / single)
    return a_only + in_both, pairs - a_only


def reaching_pair_cells(M: float, theta: float) -> tuple[float, float, float]:
    """P(K = 1), P(K >= 2) and P(K = 0) for K ~ NegBin(M, theta/(1 + theta)), the
    reaching pairs of a pulse, from the plain formulas M theta (1 + theta)**(-M-1),
    1 - P(K = 0) - P(K = 1) and (1 + theta)**(-M) in decimal arithmetic.  As
    theta falls, P(K >= 2) ~ M (M + 1) theta**2 / 2 cancels more digits, so the
    precision grows to keep 40 digits past them; nothing underflows in decimal.
    """
    with localcontext() as ctx:
        ctx.prec = 40 + 2 * max(0, -math.floor(math.log10(theta)))
        t, m = Decimal(theta), Decimal(M)
        empty = (-m * (1 + t).ln()).exp()
        one = m * t / (1 + t) * empty
        return float(one), float(1 - empty - one), float(empty)


def source_contamination_decimal(src: EffectiveSource) -> tuple[float, float]:
    """eps2 = 1 - rho[1, 1] / P(n + m >= 2) and eps4 = 1 - rho[2, 2] / P(n + m >= 4)
    from the reaching-pair law, in high-precision decimal arithmetic.

    J ~ NegBin(M, theta/(1 + theta)) pairs reach a detector, theta = N k with
    k = eta + eta' - eta eta'; each is seen in both arms (v = eta eta'/k), in arm a
    alone (a = eta (1 - eta')/k) or in arm b alone (b = eta' (1 - eta)/k).  The
    sectors are one minus their complements, so digits cancel: P(n + m >= 4) is of
    order theta**4, and eps4, of order theta, is one minus a ratio near 1.  So the
    precision grows to keep 60 digits past 5 log10(1/theta) of them; nothing
    underflows in decimal.  theta must be positive in double precision.
    """
    theta = src.N * (src.eta + src.eta_prime * (1.0 - src.eta))
    with localcontext() as ctx:
        ctx.prec = 60 + 5 * max(0, -math.floor(math.log10(theta)))
        N, eta, etap, M = (Decimal(val) for val in (src.N, src.eta, src.eta_prime, src.M))
        k = eta + etap - eta * etap
        theta = N * k
        p = [(-M * (1 + theta).ln()).exp()]
        for j in range(1, 5):
            p.append(p[-1] * (M + j - 1) / j * theta / (1 + theta))
        v, a, b = eta * etap / k, eta * (1 - etap) / k, etap * (1 - eta) / k
        rho11 = p[1] * v + 2 * p[2] * a * b
        rho22 = p[2] * v**2 + 6 * p[3] * v * a * b + 6 * p[4] * (a * b) ** 2
        sector2 = 1 - p[0] - p[1] * (a + b)
        sector4 = 1 - p[0] - p[1] - p[2] * (1 - v**2) - p[3] * (a + b) ** 3
        return float(1 - rho11 / sector2), float(1 - rho22 / sector4)


# The pair law as the sampler and the cutoff search formed it before it moved into
# ``pairstats.model._pair_law`` and ``_pair_walk``, copied to hold them to bit for bit.

def _log1p_excess_reference(y: float, log1p_y: float, scale: float = 1.0) -> float:
    if abs(y) > 0.125:
        return scale * (log1p_y - y)
    return -(scale * y) * y * sum((-y) ** j / (j + 2) for j in range(20))


def reaching_pairs_reference(src: EffectiveSource):
    """(shares, k, cells): the arm shares eta eta', eta (1-eta'), eta' (1-eta), their
    sum k and the chances that a pulse holds one, several and no reaching pairs."""
    both = src.eta * src.eta_prime
    shares = np.array([both, src.eta * (1.0 - src.eta_prime), src.eta_prime * (1.0 - src.eta)])
    k = both + (shares[1] + shares[2])
    theta = src.N * k
    x, log1p_theta = theta / (1.0 + theta), math.log1p(theta)
    y = src.M * x
    several = _log1p_excess_reference(-x, -log1p_theta, src.M) + _log1p_excess_reference(y, math.log1p(y))
    empty = math.exp(-src.M * log1p_theta)
    return shares, k, np.array([y * empty, -math.expm1(several), empty])


def multi_pair_terms_reference(M: float, theta: float) -> np.ndarray:
    """Weights of K = 2, 3, ... given K >= 2, up from 1 by the pmf ratio, to the
    first term past the mode that is <= 1e-18 of the first."""
    x = theta / (1.0 + theta)
    terms = [1.0]
    while True:
        ratio = x * (M + len(terms) + 1.0) / (len(terms) + 2.0)
        if ratio < 1.0 and terms[-1] * ratio <= 1e-18:
            return np.array(terms)
        terms.append(terms[-1] * ratio)


def pulse_law_reference(src: EffectiveSource):
    """(split, cells, table): the sampler's single-pair split, pulse-kind chances and,
    where M (M + 1) theta**2 < 2, its photon table (n, m, weights), else None."""
    shares, k, cells = reaching_pairs_reference(src)
    theta = src.N * k
    if not (k > 0.0 and src.M * (src.M + 1.0) * theta * theta < 2.0):
        return (shares / k if k > 0.0 else None), cells, None
    terms = multi_pair_terms_reference(src.M, theta)
    v, a, b = split = shares / k
    size = terms.size + 2
    weights = np.zeros((size, size))
    given_K = np.zeros((size + 1, size + 1))
    given_K[1, 1] = 1.0
    for K in range(1, size):
        given_K[1:, 1:] = v * given_K[:-1, :-1] + a * given_K[:-1, 1:] + b * given_K[1:, :-1]
        if K >= 2:
            weights += terms[K - 2] * given_K[1:, 1:]
    n, m = np.nonzero(weights)
    return split, cells, (n, m, weights[n, m])


def suggest_n_max_reference(src: EffectiveSource, tail_bound: float = 1e-10) -> int:
    """The cutoff search with its arm walks in line; TruncationError as there."""

    def arm_cutoff(eta: float, x: float, y: float) -> tuple[int, float]:
        q = src.N * eta / (1.0 + src.N * eta)
        p = generating_fn_value(src, x, y)
        for n in range(_N_CAP + 1):
            ratio_next = q * (src.M + n + 1.0) / (n + 2.0)
            p_next = p * q * (src.M + n) / (n + 1.0)
            if ratio_next < 1.0:
                tail = p_next / (1.0 - ratio_next)
                if tail <= 0.5 * tail_bound:
                    return n, tail
            p = p_next
        return _N_CAP, tail if ratio_next < 1.0 else math.inf

    n_a, tail_a = arm_cutoff(src.eta, 0.0, 1.0)
    n_b, tail_b = arm_cutoff(src.eta_prime, 1.0, 0.0)
    if max(tail_a, tail_b) > 0.5 * tail_bound:
        raise TruncationError("tail bound at the cap", tail_mass=tail_a + tail_b)
    return max(n_a, n_b, 2)


# The contamination law as it stood before its scaled head was lifted by
# ``pairstats.model._LIFT``, with the pmf-ratio walk of ``_pair_walk`` in line,
# copied to hold ``pairstats.analysis._law_contamination`` to bit for bit.

def law_contamination_reference(x: float, M: float, which: int, v: float, a: float, b: float) -> float:
    """eps2 (which=2) or eps4 (which=4) of J ~ NegBin(M, x/M) reaching pairs split v, a, b,
    with the scaled head started at t_c = 1; DegenerateInputError where it underflows."""

    def walk():  # (t_j, r_j) from t_0 = 1 at w = 1/M: the x^j coefficients
        t, j = 1.0, 0
        while True:
            r = (1.0 / M) * (M + (j - 1) + 1.0) / (j + 1.0)
            yield t, r
            t, j = t * r, j + 1

    c, coefficients = which // 2, walk()
    ratios = [x * r for _, r in itertools.islice(coefficients, which)]
    p0 = math.exp(M * math.log1p(-x / M)) if x < M else 0.0
    p = list(itertools.accumulate(ratios, operator.mul, initial=p0))
    t, rest = p[c:], 1.0 - math.fsum(p)
    if rest < 0.5:
        t = list(itertools.accumulate(ratios[c:], operator.mul, initial=1.0))
        term, rest = t[-1], 0.0
        for _, r in coefficients:
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


# The click draw and the calibration tallies as they stood before the click
# draw made fewer passes over the pulses.

_POPCOUNT_REFERENCE = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.int64)


def simulate_clicks_batch_reference(ns: np.ndarray, weights, rng: np.random.Generator) -> np.ndarray:
    """Click numbers of photon numbers ns: one path per photon for 2 to 32 photons
    over at most 64 paths of nonzero weight, else one multinomial a pulse."""
    ns = np.asarray(ns)
    k = np.zeros(ns.shape, dtype=np.int64)
    k[ns == 1] = 1
    cdf = np.cumsum(weights.w[weights.w > 0.0])
    cut = 32 if cdf.size <= 64 else 1
    few = np.flatnonzero((ns >= 2) & (ns <= cut))
    if few.size:
        photons = ns[few]
        u = rng.random(photons.sum())
        path = np.zeros(u.size, np.uint8)
        for edge in cdf[:-1] / cdf[-1]:
            path += u >= edge
        bits = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= cdf.size)
        starts = np.concatenate(([0], np.cumsum(photons[:-1])))
        hit = np.bitwise_or.reduceat((bits(1) << np.arange(cdf.size, dtype=bits))[path], starts)
        k[few] = _POPCOUNT_REFERENCE[hit.view(np.uint8).reshape(few.size, -1)].sum(axis=1)
    many = np.flatnonzero(ns > cut)
    counts = rng.multinomial(ns[many], weights.w)
    k[many] = np.count_nonzero(counts > 0, axis=-1)
    return k


def bin_occupancy_reference(ones, ns, weights, rng: np.random.Generator) -> np.ndarray:
    """Per-path tallies of pulses in which the path saw a photon: ``ones`` pulses of one, and ``ns``."""
    counts = rng.multinomial(ns[ns >= 1], weights.w)
    return (counts > 0).sum(axis=0) + rng.multinomial(ones, weights.w)


def nonempty_pulses(singles, n, m, counts):
    """Photon numbers (n, m) of every non-empty pulse of a ``_sample_pulses`` draw:
    its counts of (1, 1), (1, 0) and (0, 1) pulses spelled out, then its cells
    (n, m), each repeated by its count."""
    ones = np.repeat([[1, 1], [1, 0], [0, 1]], singles, axis=0)
    return np.concatenate([ones[:, 0], np.repeat(n, counts)]), np.concatenate([ones[:, 1], np.repeat(m, counts)])


def pulse_blocks(src: EffectiveSource, pulses: int, seed: int, stage: int):
    """Yield (singles, n, m, counts, rng) per block of up to ``pipeline.BLOCK_SIZE``
    pulses, in block order: the block's ``_sample_pulses`` draw, and its stream for
    the clicks, all drawn from one ``_pulse_law`` of the source."""
    size, law = pipeline.BLOCK_SIZE, _pulse_law(src)
    for block, start in enumerate(range(0, pulses, size)):
        rng = _block_rng(seed, stage, block)
        yield *_sample_pulses(law, rng, min(size, pulses - start)), rng


def simulate_experiment_serial(cfg) -> ClickHistogram:
    """``pairstats.simulate_experiment`` with its blocks run one after another."""
    B = cfg.weights_a.B
    counts = np.zeros((B + 1) * (B + 1), dtype=np.int64)
    for draw in pulse_blocks(cfg.source, cfg.pulses, cfg.seed, _STAGE_MAIN):
        counts += _block_clicks(cfg.weights_a, cfg.weights_b, *draw)
    counts[0] += cfg.pulses - counts.sum()  # the pulses left out are empty
    return ClickHistogram(f=counts.reshape(B + 1, B + 1), pulses=cfg.pulses)


def simulate_calibration_serial(cfg) -> tuple[np.ndarray, np.ndarray]:
    """``pairstats.simulate_calibration`` with its blocks run one after another."""
    low = dataclasses.replace(cfg.source, N=cfg.calibration_N)
    bins_a = np.zeros(cfg.weights_a.B, dtype=np.int64)
    bins_b = np.zeros(cfg.weights_b.B, dtype=np.int64)
    for (both, a_only, b_only), n, m, counts, rng in pulse_blocks(
        low, cfg.calibration_pulses, cfg.seed, _STAGE_CALIBRATION
    ):
        bins_a += _bin_occupancy(both + a_only, np.repeat(n, counts), cfg.weights_a, rng)
        bins_b += _bin_occupancy(both + b_only, np.repeat(m, counts), cfg.weights_b, rng)
    return bins_a, bins_b


def observed_cells_two_sided(hist: ClickHistogram, resp_a, resp_b, n_max: int):
    """``reconstruction._observed_cells`` on the 2-D grid: evaluate(rho)
    -> (LL, EM multiplier, p) for rho on the (n_max+1)^2 grid, with p = P rho P'^T
    over the observed cells, g = P^T (f/F / p) P' on the grid and LL summed
    exactly by ``math.fsum``."""
    Pa, Pb = _cut_responses(resp_a, resp_b, n_max)
    cells = np.flatnonzero(hist.f)
    counts = hist.f.take(cells)
    freqs = counts / counts.sum()

    def evaluate(r):
        p = (Pa @ r @ Pb.T).take(cells)
        if not (p > 0.0).all():
            raise SupportError("observed clicks in cells of zero model probability")
        ratio = np.zeros(hist.f.shape)
        np.put(ratio, cells, freqs / p)
        return math.fsum((counts * np.log(p)).tolist()), Pa.T @ ratio @ Pb, p

    return evaluate


def squarem_reference(
    hist: ClickHistogram,
    resp_a,
    resp_b,
    n_max: int,
    tol: float,
    max_iter: int,
    design_max: int = 15_000,
):
    """``reconstruction.em_reconstruct`` as it was before its evaluations were made
    cheaper: the same evaluators, each checking p for a zero cell before its log and
    run outside any ``np.errstate``, and the same SQUAREM loop.  ``design_max`` is the fit's bound on the design
    matrix's entries, past which it used the two-sided products.  Returns (rho on
    the 2-D grid, trace tuple, iterations, converged, ll_gap_bound), which the fit
    must reproduce bit for bit."""
    Pa, Pb = _cut_responses(resp_a, resp_b, n_max, hist.B)
    cells = np.flatnonzero(hist.f)
    counts = hist.f.take(cells).astype(float)
    freqs = counts / counts.sum()
    grid = (n_max + 1, n_max + 1)
    if cells.size * grid[0] * grid[1] <= design_max:
        k, l = np.divmod(cells, hist.B + 1)
        design = (Pa[k, :, None] * Pb[l, None, :]).reshape(cells.size, grid[0] * grid[1])

        def forward(r):
            return design @ r

        def back(w):
            return w @ design

    else:
        ratio = np.zeros(hist.f.shape)

        def forward(r):
            return (Pa @ r.reshape(grid) @ Pb.T).take(cells)

        def back(w):
            ratio.flat[cells] = w
            return (Pa.T @ ratio @ Pb).ravel()

    def evaluate(r):
        p = forward(r)
        if not p.min(initial=1.0) > 0.0:
            raise SupportError("observed clicks in cells of zero model probability")
        return counts @ np.log(p), back(freqs / p), p

    rho = np.full((n_max + 1) ** 2, 1.0 / (n_max + 1) ** 2)
    ll, g, _ = evaluate(rho)
    trace = [ll]
    converged = False
    iterations = 0
    cycle = [rho]
    while iterations < max_iter:
        state = evaluate(new := rho * g)
        iterations += 1
        gain = state[0] - ll
        if gain >= 0.0:
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
        for _ in range(4):
            if alpha == -1.0 or iterations + 2 > max_iter:
                break
            trial = x0 - 2.0 * alpha * r + alpha * alpha * v
            alpha = 0.5 * (alpha - 1.0)
            if trial.min() < 0.0:
                continue
            try:
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
    gap = int(hist.f.sum()) * max(0.0, float(g.max()) - 1.0)
    return rho.reshape(grid), tuple(float(v) for v in trace), iterations, converged, gap
