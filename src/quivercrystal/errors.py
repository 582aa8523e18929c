"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: QuiverParseError -> 2,
DomainError -> 1, ResourceLimitError -> 3.  InvariantViolation signals a
bug in this library, never bad user input.  The default resource bounds
are defined here once, for the library and the CLI alike.
"""

DEFAULT_SEARCH_LIMIT = 10_000_000  # min_epsilon candidates and reds, --pm-dot nodes
DEFAULT_VERTEX_BUDGET = 200_000  # vertices, crystal_graph.generate


class QuiverCrystalError(Exception):
    """Base class for all errors raised by this package."""


class QuiverParseError(QuiverCrystalError):
    """Malformed quiver, module or operator-word description."""


class DomainError(QuiverCrystalError):
    """Structurally valid input outside the supported domain."""


class ResourceLimitError(QuiverCrystalError):
    """A configurable search bound was exceeded."""


class InvariantViolation(QuiverCrystalError):
    """An internal consistency check failed; indicates a bug."""
