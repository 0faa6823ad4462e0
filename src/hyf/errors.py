"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input data violates a structural requirement."""


class NonMonotoneTimes(ValidationError):
    """Observation times are not strictly increasing."""


class LengthMismatch(ValidationError):
    """times and values differ in length."""


class TooFewPoints(ValidationError):
    """A series needs at least two observations to form an interval."""


class CrossSeriesTie(ValidationError):
    """The same timestamp appears in both series."""


class IndexOutOfRange(IndexError):
    """Point or interval index outside the valid range."""


class EmptyPattern(ValueError):
    """Pattern counting requires a non-empty pattern."""


class ZeroOverlaps(ValueError):
    """The loss ratio is undefined when no intervals overlap."""


class NonPositiveRate(ValueError):
    """Poisson rates must be strictly positive."""


class RejectionBudgetExceeded(RuntimeError):
    """Too many resamples without meeting the acceptance conditions."""


class DetectorDisagreement(RuntimeError):
    """Two detectors that must agree gave different answers; a bug."""


class TickParseError(Exception):
    """A tick file that cannot be read (line 0) or parsed, at a 1-based line."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path, self.line, self.message = path, line, message

    def __reduce__(self):
        # pickle would rebuild it from its one formatted arg; a forked
        # reader sends it through a pipe
        return type(self), (self.path, self.line, self.message)
