"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(SolverError):
    """Operands have incompatible shapes."""


class SingularMatrixError(SolverError):
    """A matrix required to be invertible is numerically singular."""


class InvalidShiftError(SolverError):
    """A doubling shift parameter violates its admissibility bound."""


class BudgetExceededError(SolverError):
    """Growing the block bases would exceed the configured column budget."""


class ParseError(SolverError):
    """A Matrix Market file could not be parsed."""


class UnsupportedFieldError(ParseError):
    """The Matrix Market field or symmetry is outside the supported set."""


class ConfigError(SolverError):
    """A configuration key, value or flag combination is invalid."""
