"""Exception hierarchy shared across the package."""


class RecurrenceLabError(Exception):
    """Base class for all package-specific errors."""


class AlphabetMismatchError(RecurrenceLabError):
    """Two objects over different alphabets were combined."""


class SourceExhaustedError(RecurrenceLabError):
    """A finite base sequence was read past its end."""


class CapacityError(RecurrenceLabError):
    """A materialization or digit cap was exceeded."""


class PhiParseError(RecurrenceLabError):
    """Rate-function expression could not be parsed.

    Carries the character offset of the failure when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None
                         else f"{message} (at offset {position})")
        self.position = position


class PhiDomainError(RecurrenceLabError):
    """Rate function evaluated outside its domain."""


class SearchCapError(RecurrenceLabError):
    """A bounded witness search ran out of budget."""


class GuardError(RecurrenceLabError):
    """Parameters fall outside the supported regime table."""


class RefusalError(RecurrenceLabError):
    """Requested profile has zero-dimensional level set; no plan exists.

    ``classification`` holds the full classifier output for reporting.
    """

    def __init__(self, message: str, classification: dict | None = None):
        super().__init__(message)
        self.classification = classification or {}


class PlanValidityError(RecurrenceLabError):
    """An insertion plan violates the structural requirements."""


class EstimationImpossibleError(RecurrenceLabError):
    """A trajectory contains no exact entries to estimate from."""
