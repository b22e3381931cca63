"""Fundamental-group descriptors.

Depth bounds never compute a group from a presentation (that is undecidable);
they consume one of five declared shapes: trivial, finite (a Cayley table),
finitely generated abelian, free of known rank, or elementary amenable with a
known Hirsch length and a flag saying whether the cohomological dimension is
finite.  The descriptor records exactly what the bound formulas need.

Only the finite shape needs ``finitegroup`` and ``catalog``.  They are
imported where a finite descriptor is read or written, so a command that
never meets one does not load them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .abelian import FgAbelianGroup, from_cyclic_factors, parse_abelian, render_abelian
from .errors import OrderExceedsCap
from .intlinalg import _check_int

if TYPE_CHECKING:
    from .finitegroup import FiniteGroup


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class Finite:
    group: FiniteGroup


@dataclass(frozen=True)
class FgAbelian:
    group: FgAbelianGroup


@dataclass(frozen=True)
class Free:
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("Free requires rank >= 1; use free() to normalize rank 0")


@dataclass(frozen=True)
class ElementaryAmenable:
    hirsch: int
    cd_finite: bool

    def __post_init__(self):
        if self.hirsch < 0:
            raise ValueError(f"Hirsch length must be >= 0, got {self.hirsch}")


Pi1Descriptor = Union[Trivial, Finite, FgAbelian, Free, ElementaryAmenable]


def free(rank: int) -> Pi1Descriptor:
    """Free group of the given rank; rank 0 normalizes to Trivial."""
    if rank < 0:
        raise ValueError(f"free rank must be >= 0, got {rank}")
    return Trivial() if rank == 0 else Free(rank)


def fg_abelian(group: FgAbelianGroup) -> Pi1Descriptor:
    """Finitely generated abelian descriptor; the trivial group normalizes
    to Trivial."""
    return Trivial() if group.is_trivial else FgAbelian(group)


def render_pi1(d: Pi1Descriptor) -> str:
    if isinstance(d, Trivial):
        return "1"
    if isinstance(d, Finite):
        return d.group.name or f"finite(order {d.group.order})"
    if isinstance(d, FgAbelian):
        return render_abelian(d.group)
    if isinstance(d, Free):
        return "Z" if d.rank == 1 else f"F{d.rank}"
    if isinstance(d, ElementaryAmenable):
        tail = "" if d.cd_finite else ", cd infinite"
        return f"elementary amenable(h={d.hirsch}{tail})"
    raise TypeError(f"not a Pi1Descriptor: {d!r}")


def pi1_to_json(d: Pi1Descriptor) -> dict:
    if isinstance(d, Trivial):
        return {"trivial": True}
    if isinstance(d, Finite):
        from .catalog import CATALOG, catalog_group

        name = d.group.name
        if name in CATALOG and catalog_group(name) == d.group:
            return {"finite": {"catalog": name}}
        return {"finite": {"table": [list(row) for row in d.group.table]}}
    if isinstance(d, FgAbelian):
        return {
            "abelian": {
                "free_rank": d.group.free_rank,
                "torsion": list(d.group.torsion),
            }
        }
    if isinstance(d, Free):
        return {"free": d.rank}
    if isinstance(d, ElementaryAmenable):
        return {
            "elementary_amenable": {"hirsch": d.hirsch, "cd_finite": d.cd_finite}
        }
    raise TypeError(f"not a Pi1Descriptor: {d!r}")


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


def _finite_from_json(obj, cap: int | None = None) -> Finite:
    from .catalog import catalog_group
    from .finitegroup import FiniteGroup, parse_cayley_table

    if isinstance(obj, str):
        return Finite(parse_cayley_table(obj, cap=cap))
    tag, value = _one_of(obj, "finite descriptor", ("catalog", "table"), lists=("table",))
    if tag == "catalog":
        return Finite(catalog_group(value))
    # refuse an over-cap order before the O(n^3) group-axiom check
    if cap is not None and len(value) > cap:
        raise OrderExceedsCap(len(value), cap)
    return Finite(FiniteGroup(value))


def pi1_from_json(obj, cap: int | None = None) -> Pi1Descriptor:
    """Parse the tagged-union JSON form; raises ValueError on anything that
    does not match exactly one known tag with a well-formed value.  Every
    number is a JSON integer (a bool reads as 0 or 1) and ``cd_finite`` is a
    JSON boolean.

    With a ``cap``, a Cayley table of order above it raises
    ``OrderExceedsCap`` before its group axioms are checked."""
    tag, value = _one_of(
        obj, "group descriptor", ("trivial", "finite", "abelian", "free", "elementary_amenable")
    )
    if tag == "trivial":
        if value is not True:
            raise ValueError('trivial descriptor must be {"trivial": true}')
        return Trivial()
    if tag == "finite":
        return _finite_from_json(value, cap)
    if tag == "abelian":
        if isinstance(value, str):
            return fg_abelian(parse_abelian(value))
        body = _fields(
            value, "abelian descriptor", (), ("free_rank", "torsion"), lists=("torsion",)
        )
        return fg_abelian(
            from_cyclic_factors(
                _check_int(body.get("free_rank", 0), "free rank"),
                [_check_int(t, "torsion orders") for t in body.get("torsion", [])],
            )
        )
    if tag == "free":
        return free(_check_int(value, "free rank"))
    body = _fields(value, "elementary_amenable descriptor", ("hirsch",), ("cd_finite",))
    cd_finite = body.get("cd_finite", False)
    if not isinstance(cd_finite, bool):
        raise ValueError(f"cd_finite must be true or false, got {type(cd_finite).__name__}")
    return ElementaryAmenable(_check_int(body["hirsch"], "Hirsch length"), cd_finite)
