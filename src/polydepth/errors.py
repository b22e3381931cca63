"""Exception types shared across the package, the default search cap
that ``OrderExceedsCap`` reports, and the base of the value records.

Plain ``ValueError`` is reserved for malformed input (bad tables, bad JSON,
bad matrix shapes at construction time).  The classes below mark computations
that are well formed but fall outside a rule's hypotheses; callers such as
``depth.best_bound`` catch them and turn them into structured outcomes.

A ``Record`` names its fields once, in ``__slots__``; its ``__init__`` takes
them in that order, checks them and stores each with ``_set``.  The base
gives ``==`` (same class, equal field tuples), ``hash`` of the field tuple,
``repr`` as ``Name(field=value, ...)``, refused assignment and deletion, and
``replace`` and pickling, which build through the constructor and so re-run
its checks.
"""

from __future__ import annotations

from operator import attrgetter

DEFAULT_SEARCH_CAP = 64
"""Largest group order a subgroup search accepts unless told otherwise.  It
lives here, beside ``OrderExceedsCap``, so that code which only compares an
order with it need not load ``finitegroup``, which re-exports it."""


_set = object.__setattr__  # stores a field from a record's __init__


class Record:
    """Base of a frozen value type with slotted fields (module docstring)."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the field tuple: attrgetter of one name returns the bare value
        names = cls.__slots__
        if len(names) == 1:
            get = attrgetter(*names)
            cls._values = staticmethod(lambda record: (get(record),))
        else:
            cls._values = attrgetter(*names) if names else staticmethod(lambda record: ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self.__slots__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)

    def replace(self, **changes):
        """This record with `changes` applied, built by the constructor."""
        return type(self)(**dict(zip(self.__slots__, self._values(self)), **changes))


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
