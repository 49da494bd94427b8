"""Exception types shared across the package."""

from __future__ import annotations


class QuboprepError(Exception):
    """Base class for all package-specific errors."""


class FormatError(QuboprepError):
    """A problem or graph file could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SizeGuardError(QuboprepError):
    """A hard size guard was exceeded: an oracle was asked to enumerate too
    many variables, coefficients are too large in magnitude for exact
    int64 arithmetic (Σ|a|·scale ≥ 2**62), or a graph's indices do not fit
    int32 (more than 2**31 − 1 arcs)."""


class SolverValidationError(QuboprepError):
    """An external solver or solution failed validation (e.g. non-clique)."""
