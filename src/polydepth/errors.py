"""Exception types shared across the package, and the default search cap
that ``OrderExceedsCap`` reports.

Plain ``ValueError`` is reserved for malformed input (bad tables, bad JSON,
bad matrix shapes at construction time).  The classes below mark computations
that are well formed but fall outside a rule's hypotheses; callers such as
``depth.best_bound`` catch them and turn them into structured outcomes.
"""

from __future__ import annotations

DEFAULT_SEARCH_CAP = 64
"""Largest group order a subgroup search accepts unless told otherwise.  It
lives here, beside ``OrderExceedsCap``, so that code which only compares an
order with it need not load ``finitegroup``, which re-exports it."""


class PolydepthError(Exception):
    """Base class for hypothesis failures of the bound machinery."""


class CompositionNotZero(PolydepthError):
    """Consecutive boundary maps do not compose to zero."""


class DimensionMismatch(PolydepthError):
    """Boundary-map shapes are incompatible with each other."""


class OrderExceedsCap(PolydepthError):
    """Group order is beyond the configured subgroup-search cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"group order {order} exceeds search cap {cap}")
        self.order = order
        self.cap = cap


class DimensionExceedsCap(PolydepthError):
    """Space dimension is beyond the cap on what the command line renders."""

    def __init__(self, dim: int, cap: int):
        super().__init__(f"space dimension {dim} exceeds the cap {cap}")
        self.dim = dim
        self.cap = cap


class UnsupportedConstruction(PolydepthError):
    """The space falls outside the closed list of supported shapes."""


class NotFinitelyGenerated(PolydepthError):
    """A cover homology group needed by the general rule is not (known to be)
    finitely generated in the given degree."""

    def __init__(self, degree: int, message: str | None = None):
        super().__init__(
            message
            or f"homology of the universal cover is not finitely generated in degree {degree}"
        )
        self.degree = degree


class DimensionNotTwo(PolydepthError):
    """The two-dimensional rule was applied to a space of a different dimension."""


class CdNotFinite(PolydepthError):
    """Elementary amenable descriptor declared without finite cohomological
    dimension; its splitting length is not defined by any implemented rule."""
