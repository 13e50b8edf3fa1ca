"""Exception hierarchy for the toolkit."""


class PThetaError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PThetaError):
    """Input outside the admissible parameter or argument domain."""


class InfeasibleToleranceError(PThetaError):
    """Requested tolerance needs a truncation order beyond the configured cap."""


class RangeOverflowError(PThetaError):
    """A result, an intermediate product, or an error bound overflows binary64."""


class IndeterminateSignError(PThetaError):
    """A sign decision was requested but |value| <= err."""


class ContourError(PThetaError):
    """Winding-number contour could not be resolved (zero too close, or
    adaptive refinement exhausted)."""


class UnresolvedBracketError(PThetaError):
    """A sign change could not be refined to a root; usually signals a
    near-double zero."""


class CountMismatchError(PThetaError):
    """Polynomial-root count inside a region disagrees with the winding count."""


class StepUnderflowError(PThetaError):
    """Continuation step shrank below the floor without an identified collision."""


class AmbiguousIndexError(PThetaError):
    """An index anchor claims two zeros (or none) during index assignment."""


class SeparationValidationError(PThetaError):
    """A computed separating line fails its own side-assignment check."""


class SeedFailureError(PThetaError):
    """A seeded double-zero solve converged outside the k-th odd-to-even gap
    (q > 0) or the k-th anchor interval (q < 0), so its index is not k."""


class ConvergenceError(PThetaError):
    """An iterative solve failed to converge."""
