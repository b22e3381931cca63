"""Fundamental-group descriptors.

Depth bounds never compute a group from a presentation (that is undecidable);
they consume one of five declared shapes: trivial, finite (a Cayley table),
finitely generated abelian, free of known rank, or elementary amenable with a
known Hirsch length and a flag saying whether the cohomological dimension is
finite.  The descriptor records exactly what the bound formulas need.

Descriptors are read by the rules of ``errors``.  Only the finite shape
needs ``finitegroup`` and only a catalog name ``catalog``, imported where a
finite descriptor is met, so a command that never meets one loads neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .abelian import FgAbelianGroup, from_cyclic_factors, parse_abelian, render_abelian
from .errors import Record, _check_int, _fields, _one_of, _set

if TYPE_CHECKING:
    from .finitegroup import FiniteGroup


class Trivial(Record):
    __slots__ = ()

    def __init__(self):
        pass


class Finite(Record):
    __slots__ = ("group",)

    def __init__(self, group: FiniteGroup):
        _set(self, "group", group)


class FgAbelian(Record):
    __slots__ = ("group",)

    def __init__(self, group: FgAbelianGroup):
        _set(self, "group", group)


class Free(Record):
    __slots__ = ("rank",)

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("Free requires rank >= 1; use free() to normalize rank 0")
        _set(self, "rank", rank)


class ElementaryAmenable(Record):
    __slots__ = ("hirsch", "cd_finite")

    def __init__(self, hirsch: int, cd_finite: bool):
        if hirsch < 0:
            raise ValueError(f"Hirsch length must be >= 0, got {hirsch}")
        _set(self, "hirsch", hirsch)
        _set(self, "cd_finite", cd_finite)


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


def _finite_from_json(obj, cap: int | None = None) -> Finite:
    from .finitegroup import FiniteGroup, _check_cap, parse_cayley_table

    if isinstance(obj, str):
        return Finite(parse_cayley_table(obj, cap=cap))
    tag, value = _one_of(obj, "finite descriptor", ("catalog", "table"), lists=("table",))
    if tag == "catalog":
        from .catalog import catalog_group

        return Finite(catalog_group(value))
    # the cap is the contract: an over-cap table is refused before any row is
    # read, so it exits 2 even when it is malformed as well
    _check_cap(len(value), cap)
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
