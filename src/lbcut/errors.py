"""Exception types shared across the package."""


class LbcutError(Exception):
    """Base class for all package-specific errors."""


class GraphError(LbcutError):
    """Malformed graph or instance (self-loop, duplicate edge, bad id)."""


class InvalidCut(LbcutError):
    """Cut set has members that are invalid for the graph or instance."""


class NoVertexCut(LbcutError):
    """No vertex s-t cut exists because s and t are adjacent; raised by
    ``Instance`` and by ``min_vertex_cut``, which takes a bare graph."""


class InvalidAssignment(LbcutError):
    """Assignment violates a domain or a hard constraint."""


class InvalidDecomposition(LbcutError):
    """Not a tree, or not a decomposition of the graph or CSP it is used on."""


class ResourceExceeded(LbcutError):
    """Work would exceed its budget: a dynamic-programming table's entries,
    or the assignments ``oracle.brute_force_csp`` would enumerate."""


class ParseError(LbcutError):
    """Malformed instance or decomposition file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UsageError(LbcutError):
    """Invalid combination of command-line options or parameters."""
