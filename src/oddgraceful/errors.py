"""Exception hierarchy shared across the toolkit."""


class OddGracefulError(Exception):
    """Base class for all toolkit-specific errors."""


class OddCycleError(OddGracefulError):
    """Cycle length is odd: such graphs never admit an odd graceful labeling."""


class CycleTooSmallError(OddGracefulError):
    """Cycle length below the smallest meaningful cycle."""


class PathTooShortError(OddGracefulError):
    """Path too short for the requested construction.

    ``required`` carries the smallest acceptable path length.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class SelfLoopError(OddGracefulError):
    """An edge list contains a self-loop."""


class EmptyGraphError(OddGracefulError):
    """Graph has no edges; a labeling problem needs at least one."""


class MissingVertexLabelError(OddGracefulError):
    """A labeling does not hold exactly one label per vertex of its topology."""


class GraphSpecError(OddGracefulError):
    """Syntax error in a textual graph spec; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class InputTooLargeError(OddGracefulError):
    """An input past a size the program refuses before it allocates anything."""


class DocumentError(OddGracefulError):
    """Malformed labeling document or edge-list file."""
