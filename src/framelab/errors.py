"""Shared exception types."""

__all__ = ["TruncationError"]


class TruncationError(ValueError):
    """A truncated infinite sum carries more error than the caller allows."""
