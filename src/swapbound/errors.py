"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SwapBoundError(Exception):
    """Base class for all package errors."""


class ParseError(SwapBoundError):
    """Input text could not be parsed.

    Carries ``line`` and ``offset`` (1-based) when the underlying reader
    provides them.
    """

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, offset {offset})"
        super().__init__(message)
        self.line = line
        self.offset = offset


class ValidationError(SwapBoundError):
    """Structurally valid input violating a domain constraint."""


class UnsupportedError(SwapBoundError):
    """Input uses a feature outside the supported subset."""


class NumericalError(SwapBoundError):
    """A numerical kernel produced non-finite or inconsistent results."""


class SizeGuardError(ValidationError):
    """An exact routine was invoked beyond its enforced size guard."""
