"""Exception types shared across the package."""

from __future__ import annotations


class PolydiffError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PolydiffError):
    """Operands disagree on variable count, codomain size, or argument count."""


class NotHomogeneousError(PolydiffError):
    """Polarization input is not homogeneous of the required degree."""


class ConeDomainError(PolydiffError):
    """A cone-restricted function was queried outside the positive cone."""


class MissingSampleError(PolydiffError):
    """A table-backed function has no value for the requested point."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"no tabulated value at point {tuple(str(c) for c in point)}")


class ExtensionHypothesisError(PolydiffError):
    """An extension hypothesis failed; names the condition and carries a witness."""

    def __init__(self, condition, witness=None, message=None):
        self.condition = condition
        self.witness = witness
        detail = message or f"extension hypothesis violated: condition {condition}"
        super().__init__(detail)


class ResourceLimitError(PolydiffError):
    """An input would make a computation exceed a fixed size limit."""


class ParseError(PolydiffError):
    """Syntax or identifier error in a polynomial expression, with position."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")
