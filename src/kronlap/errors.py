"""Exception types shared across the package."""


class KronlapError(Exception):
    """Base class for kronlap-specific failures."""


class SizeLimitError(KronlapError, ValueError):
    """A dense materialization would exceed the configured cap."""


class SingularMatrixError(KronlapError, ArithmeticError):
    """Pivoted factorization found the matrix singular to tolerance."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class MatrixMarketError(KronlapError, ValueError):
    """Malformed Matrix Market content; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
