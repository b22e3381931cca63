"""Exception types shared across the package, the default search cap
that ``OrderExceedsCap`` reports, and the base of the value records.

Plain ``ValueError`` is reserved for malformed input (bad tables, bad JSON,
bad matrix shapes at construction time), which the reading rules at the end
refuse; their one integer rule (`_check_int`, `_int_row` for a row) reads a
bool as 1 or 0, matrix entries included.  A list of space nodes that are
all exactly ``{"sphere": n}``, n a plain int, is read by one list rule
(`_sphere_dims`) in C-level passes; any other list goes node by node
through the shape and integer rules, so its first fault is named in node
order either way.  The classes below mark
computations that are well formed but fall outside a rule's hypotheses;
callers such as ``depth.best_bound`` catch them and turn them into
structured outcomes.

A ``Record`` names its fields once, in ``__slots__``; its ``__init__`` takes
them in that order, checks them and stores each with ``_set``.  The base
gives ``==`` (same class, equal field tuples), ``hash`` of the field tuple,
``repr`` as ``Name(field=value, ...)``, refused assignment and deletion, and
``replace`` and pickling, which build through the constructor and so re-run
its checks.
"""

from __future__ import annotations

import re
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

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
    """Space dimension is beyond ``topology.MAX_DIMENSION``, the cap of the space reader."""

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


_INT_ONLY = frozenset((int,))


def _int_row(values: Sequence, what: str) -> Sequence[int]:
    """The integer rule of `_check_int` for a row read from outside: `values`
    itself when every entry is a plain int (one C-level type scan), else a
    tuple of its entries read by `_check_int`, a bool as 0 or 1, so the
    first entry of another type is the one named."""
    if _INT_ONLY.issuperset(map(type, values)):
        return values
    return tuple([_check_int(x, what) for x in values])


_DICT_ONLY, _LENGTH_ONE = frozenset((dict,)), frozenset((1,))
_sphere_value = itemgetter("sphere")


def _sphere_dims(nodes: list) -> list[int] | None:
    """The dimensions of a list of space nodes that are all exactly
    ``{"sphere": n}``, a dict with that one key and n a plain int, read in
    C-level passes: type, length, the key with its value (a dict of length
    1 without the key raises KeyError), value type.  Else None, and the
    list is left to the per-node rules.  A bool, a float, a dict subclass
    or an extra key anywhere gives None; a plain n < 1 does not, and is
    refused where its ``Sphere`` is built."""
    if not (_DICT_ONLY.issuperset(map(type, nodes)) and _LENGTH_ONE.issuperset(map(len, nodes))):
        return None
    try:
        dims = list(map(_sphere_value, nodes))
    except KeyError:
        return None
    return dims if _INT_ONLY.issuperset(map(type, dims)) else None


def _check_int(x, what: str) -> int:
    """The integer rule for one value read from outside: an int, with a
    bool read as 0 or 1; anything else is refused by its type."""
    if type(x) is int:
        return x
    if not isinstance(x, int):
        raise ValueError(f"{what} must be int, got {type(x).__name__}")
    return int(x)


# The integer rule for a token of a text grammar: an optional '-' and ASCII
# digits.  Python's int() also takes a '+', '_' between digits, surrounding
# spaces and non-ASCII digits, so tokens are matched before int() reads them.
# The tokens of a text of ASCII digits and whitespace only are digit runs,
# which pass the rule, so one match of the text replaces a check per token.
_INT_TOKEN = re.compile("-?[0-9]+")
_DIGITS_AND_SPACE = re.compile(r"[0-9\s]*", re.ASCII)


def _check_token(token: str, what: str) -> int:
    """The token rule for one integer token of a text grammar."""
    if _INT_TOKEN.fullmatch(token) is None:
        raise ValueError(
            f"non-integer token in {what}: {token!r} "
            "(an integer token is an optional '-' and ASCII digits)"
        )
    return int(token)


def _as_list(items, what: str) -> list | tuple:
    # a list or tuple as it is, any other iterable read into a list
    if isinstance(items, (list, tuple)):
        return items
    if not isinstance(items, Iterable):
        raise ValueError(f"{what} must be iterable, got {type(items).__name__}")
    return list(items)


def _fields(obj, what: str, required=(), allowed=(), lists=()) -> dict:
    """`obj` when it is an object with every key of `required`, no key
    outside `required` and `allowed`, and a list under each key of `lists`
    that it has; anything else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    if not obj.keys() >= set(required):
        raise ValueError(f"{what} needs the fields {'/'.join(required)}")
    unknown = obj.keys() - {*required, *allowed}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key in lists:
        if key in obj and not isinstance(obj[key], list):
            raise ValueError(f"{what} {key} must be a list, got {type(obj[key]).__name__}")
    return obj


def _one_of(obj, what: str, tags: tuple[str, ...], lists=()) -> tuple[str, object]:
    """The (tag, value) of an object whose one key is one of `tags`; a tag in
    `lists` must hold a list."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(
            f"{what} must be an object with exactly one of the keys {'/'.join(tags)}"
        )
    (tag, value), = obj.items()
    if tag not in tags:
        raise ValueError(f"unknown {what} tag {tag!r}")
    if tag in lists and not isinstance(value, list):
        raise ValueError(f"{what} {tag} must be a list, got {type(value).__name__}")
    return tag, value
