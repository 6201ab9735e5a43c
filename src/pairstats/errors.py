"""Exception types shared across the package."""


class PairStatsError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PairStatsError, ValueError):
    """An input violates a documented invariant; the message names the constraint."""


class ClassicalRegimeError(PairStatsError):
    """The joint moments satisfy |<ab>|^2 <= <n><n'>.

    Such moments are reproducible by classically correlated beams, so the arm
    transmissions cannot be inferred from them.
    """


class TruncationError(PairStatsError):
    """The photon-number cutoff is too small for the requested tail bound."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(message)
        self.tail_mass = tail_mass


class DegenerateInputError(PairStatsError):
    """The input carries no information about the requested quantity."""


class SubPoissonianMarginalError(PairStatsError):
    """Marginal variance does not exceed its mean; the mode-number estimate is undefined.

    Usually a finite-sample artifact; collecting more data may resolve it.
    """


class SupportError(PairStatsError):
    """Observed clicks fall in cells where the model assigns zero probability."""
