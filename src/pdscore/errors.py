"""Exception types shared across the package."""


class PdsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PdsError, ValueError):
    """Input violates a documented precondition or invariant."""


class DimensionMismatch(ValidationError):
    pass


class DuplicateLabel(ValidationError):
    pass


class EmptyIntersection(ValidationError):
    pass


class UnknownPerturbation(ValidationError, KeyError):
    def __str__(self) -> str:  # KeyError would repr() the message
        return ValueError.__str__(self)


class ZeroVector(ValidationError):
    pass


class ZeroSignVector(ZeroVector):
    pass


class BadIndex(ValidationError, IndexError):
    pass


class BadParameter(ValidationError):
    pass


class NonpositiveScale(BadParameter):
    pass


class NonpositiveNorm(BadParameter):
    pass


class ZeroPredictionNorm(ValidationError):
    pass


class DegeneratePair(PdsError):
    """No finite scale threshold exists: two candidates tie in the limit but not in distance."""


class BadSpec(ValidationError):
    pass


class ZeroLibrarySize(ValidationError):
    pass


class MissingControl(ValidationError):
    pass


class EmptyPerturbation(ValidationError):
    pass


class ParseError(PdsError):
    """A file could not be parsed; carries a 1-based line and column."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class DuplicateRowLabel(ParseError, DuplicateLabel):
    """A row label repeated in an input file, at the line that repeats it."""
