"""Exception types shared across the package."""


class ModformError(Exception):
    """Base class for all package errors."""


class ParseError(ModformError):
    """Syntax or well-formedness error in a theory file."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class SignatureError(ModformError):
    """Arity mismatch, unknown symbol, or duplicate declaration."""


class LimitExceeded(ModformError):
    """An enumeration would exceed the configured size limit: `estimate`
    is its size or, with `lower_bound`, a size it passes."""

    def __init__(self, message, estimate=None, lower_bound=False):
        self.estimate = estimate
        if estimate is not None:
            size = "more than" if lower_bound else "estimated size"
            message = f"{message} ({size} {estimate})"
        super().__init__(message)


class HeadroomError(ModformError):
    """The index set is too small for the requested fresh-element construction.

    Raised where a construction needs a surjection from the index set onto
    the blocks of a structure extending a prescribed partial assignment and
    no such surjection exists.  Callers that implement gated checks catch
    this and report the instance as inconclusive rather than failed.
    """


class InterpretationError(ModformError):
    """A theory interpretation violates its functionality contract."""


class SiteError(ModformError):
    """Invalid Moerdijk site data (arrow set not open or not closed)."""


class InvariantError(ModformError):
    """A theorem the checker relies on failed on computed data: a checker
    bug, not bad input."""
