"""Exception types shared across the package."""

__all__ = ["ShapeError", "InvalidStateError", "UnsupportedFormatError"]


class ShapeError(ValueError):
    """Operands live on incompatible tensor-product spaces."""


class InvalidStateError(ValueError):
    """A state fails a required invariant (normalization, Hermiticity, positivity)."""


class UnsupportedFormatError(ValueError):
    """A report cannot be rendered in the requested output format."""
