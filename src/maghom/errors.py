"""Shared exception types."""


class MaghomError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(MaghomError, ValueError):
    """Invalid graph construction, input, or operation."""


class ParseError(GraphError):
    """Malformed edge-list input.  Carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceCapError(MaghomError):
    """A size cap on an exhaustive computation was exceeded."""
