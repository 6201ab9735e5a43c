"""Output checks that decide whether a benchmark operation succeeded.

Every check derives from an invariant the program documents:

* a distribution is finite and nonnegative, and its mass plus its tail is 1;
* ``forward``: the tail is within the bound that ``suggest_n_max`` was asked for;
* ``readme_run`` and ``inversion``: EM reports ``converged``, ``run_full``
  records no stage failure and the estimates are finite;
* ``readme_run``: ``eta_hat`` is within 15 % of the true transmission, the
  tolerance of acceptance criterion 9.  ``M_hat`` has no bound: at 1M pulses
  it ranges over about 16.4-19.9 across seeds.

A result the program itself marks as bad (a tail above the requested bound,
an unconverged fit, a stage failure, a NaN estimate with an error status) is
*flagged*: the operation counts as failed.  A result that breaks an
invariant without saying so (non-finite or negative numbers, mass plus tail
away from 1, an estimate outside its tolerance) is *wrong*: the operation
fails and the run is reported as not correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MASS_TOL = 1e-9  # mass + tail = 1 is validated at 1e-12; allow summation-order drift
KKT_SUPPORT_FLOOR = 1e-9  # cells of the fitted rho above this count as its support
ETA_REL_TOL = 0.15


@dataclass
class Verdict:
    flagged: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.flagged or self.wrong)

    def reasons(self) -> list:
        return [f"flagged: {m}" for m in self.flagged] + [f"wrong: {m}" for m in self.wrong]


def check_mass(verdict: Verdict, what: str, probs, tail: float) -> None:
    """Finite, nonnegative, and mass + tail = 1."""
    probs = np.asarray(probs, dtype=float)
    if not (np.all(np.isfinite(probs)) and math.isfinite(tail)):
        verdict.wrong.append(f"{what} has non-finite entries")
        return
    if np.any(probs < 0.0) or tail < 0.0:
        verdict.wrong.append(f"{what} has negative entries")
    total = float(probs.sum()) + tail
    if abs(total - 1.0) > MASS_TOL:
        verdict.wrong.append(f"{what} mass + tail = {total!r}")


def check_fit(verdict: Verdict, result) -> None:
    """A reconstruction result: a valid distribution and a converged fit."""
    rho = result.rho
    check_mass(verdict, "reconstructed rho", rho.probs, rho.tail_mass)
    if not result.converged:
        verdict.flagged.append(f"EM not converged after {result.iterations} iterations")


def check_estimates(verdict: Verdict, char, names=("M_hat", "eta_hat", "eps2", "eps4")) -> None:
    for name in names:
        value = getattr(char, name)
        if math.isfinite(value):
            continue
        status = char.status.get(name, "ok")
        if status == "ok":
            verdict.wrong.append(f"{name} is {value!r} with status ok")
        else:
            verdict.flagged.append(f"{name} is undefined ({status})")


def kkt_residual(hist, resp_a, resp_b, result) -> float:
    """max |g - 1| on the support of the fitted rho, g = Pa^T (f/F / p) Pb.

    At a maximum of the multinomial likelihood over the simplex, g equals 1
    wherever rho is positive, so the residual measures how far EM stopped
    from its optimum.
    """
    n_max = result.rho.n_max
    Pa = resp_a.P[:, : n_max + 1]
    Pb = resp_b.P[:, : n_max + 1]
    rho = result.rho.probs
    p = Pa @ rho @ Pb.T
    freqs = hist.f / hist.f.sum()
    ratio = np.divide(freqs, p, out=np.zeros_like(p), where=hist.f > 0)
    g = Pa.T @ ratio @ Pb
    support = rho > KKT_SUPPORT_FLOOR
    return float(np.max(np.abs(g[support] - 1.0)))
