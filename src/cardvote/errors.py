"""Exception hierarchy shared across the package."""


class CardvoteError(Exception):
    """Base class for all package-specific errors."""


class NormalizationError(CardvoteError):
    """Raised when a vector cannot be affinely mapped onto [0, 1] with both
    endpoints attained (constant input)."""


class UndefinedRatioError(CardvoteError):
    """Raised when a welfare-ratio denominator is zero."""


class PreconditionError(CardvoteError):
    """Raised when an operation's stated precondition is violated."""


class OutOfRangeError(PreconditionError, IndexError):
    """Raised when a candidate index or quota lies outside a profile's or
    preference's candidates; still an IndexError for callers catching one."""


class WeightError(CardvoteError):
    """Raised for mixture weights that are negative or do not sum to one."""


class BudgetError(CardvoteError):
    """Raised when an enumeration would exceed its configured budget;
    ``needed`` is its step count, or the text of a lower bound on it."""

    def __init__(self, needed: int | str, budget: int, what: str):
        try:
            count = str(needed)
        except ValueError:  # more digits than int() converts to text
            count = f"at least 2**{needed.bit_length() - 1}"
        super().__init__(f"{what} needs {count} steps, budget is {budget}")


class GridError(CardvoteError):
    """Raised when a preference is not on the expected utility grid."""


class DegenerateProjectionError(CardvoteError):
    """Raised when projecting a profile empties the rounded-welfare
    denominator (every voter ends up valuing candidate 1 below 1/2)."""


class MechanismSpecError(CardvoteError):
    """Raised for unparseable mechanism specification strings."""


class DataError(CardvoteError):
    """Raised for malformed experiment data (e.g. nonpositive ratios in a
    slope fit)."""
