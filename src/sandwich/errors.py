"""Error taxonomy.

Every library error carries a stable machine-readable ``code`` so the CLI
can emit structured error JSON without string matching.
"""


class SandwichError(Exception):
    code = "error"

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message)
        self.location = location

    @property
    def message(self) -> str:
        return str(self)


class FormatError(SandwichError):
    """Text or JSON input that does not parse."""

    code = "format"


class RangeError(SandwichError):
    """Index or position outside its legal range."""

    code = "range"


class StrandMismatchError(SandwichError):
    """Objects built over different strand counts were combined."""

    code = "strand-mismatch"


class NotSandwichedError(SandwichError):
    """Blow-down stalled: no (-1) curve but the graph is nonempty."""

    code = "not-sandwiched"


class InternalInconsistencyError(SandwichError):
    """A redundant cross-check failed; indicates a bug, not bad input."""

    code = "internal-inconsistency"


class NoLayoutError(SandwichError):
    """A valid cluster that has no unbraided wiring layout."""

    code = "no-layout"


class ProximityViolationError(SandwichError):
    code = "proximity-violation"


class WeightMismatchError(SandwichError):
    code = "weight-mismatch"


class MultiplicityNotOneError(SandwichError):
    code = "multiplicity-not-one"


class ArcAtOuterError(SandwichError):
    code = "arc-at-outer"
