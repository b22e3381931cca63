"""Fundamental-group descriptors.

Depth bounds never compute a group from a presentation (that is undecidable);
they consume one of five declared shapes: trivial, finite (a Cayley table),
finitely generated abelian, free of known rank, or elementary amenable with a
known Hirsch length and a flag saying whether the cohomological dimension is
finite.  The descriptor records exactly what the bound formulas need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .abelian import FgAbelianGroup, parse_abelian, render_abelian
from .catalog import CATALOG, catalog_group
from .errors import OrderExceedsCap
from .finitegroup import FiniteGroup, parse_cayley_table


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
    if isinstance(obj, dict) and "catalog" in obj:
        return Finite(catalog_group(obj["catalog"]))
    if isinstance(obj, dict) and "table" in obj:
        rows = obj["table"]
        # refuse an over-cap order before the O(n^3) group-axiom check
        if cap is not None and isinstance(rows, list) and len(rows) > cap:
            raise OrderExceedsCap(len(rows), cap)
        return Finite(FiniteGroup(rows))
    if isinstance(obj, str):
        return Finite(parse_cayley_table(obj, cap=cap))
    raise ValueError(
        'finite descriptor needs {"catalog": name} or {"table": rows}'
    )


def pi1_from_json(obj, cap: int | None = None) -> Pi1Descriptor:
    """Parse the tagged-union JSON form; raises ValueError on anything that
    does not match exactly one known tag.

    With a ``cap``, a Cayley table of order above it raises
    ``OrderExceedsCap`` before its group axioms are checked."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(
            "group descriptor must be an object with exactly one of the keys "
            "trivial/finite/abelian/free/elementary_amenable"
        )
    (tag, value), = obj.items()
    if tag == "trivial":
        if value is not True:
            raise ValueError('trivial descriptor must be {"trivial": true}')
        return Trivial()
    if tag == "finite":
        return _finite_from_json(value, cap)
    if tag == "abelian":
        if isinstance(value, str):
            return fg_abelian(parse_abelian(value))
        if isinstance(value, dict):
            unknown = set(value) - {"free_rank", "torsion"}
            if unknown:
                raise ValueError(f"unknown abelian fields: {sorted(unknown)}")
            from .abelian import from_cyclic_factors

            return fg_abelian(
                from_cyclic_factors(
                    int(value.get("free_rank", 0)),
                    [int(t) for t in value.get("torsion", [])],
                )
            )
        raise ValueError("abelian descriptor must be a string or an object")
    if tag == "free":
        return free(int(value))
    if tag == "elementary_amenable":
        if not isinstance(value, dict) or "hirsch" not in value:
            raise ValueError("elementary_amenable needs a hirsch field")
        unknown = set(value) - {"hirsch", "cd_finite"}
        if unknown:
            raise ValueError(f"unknown elementary_amenable fields: {sorted(unknown)}")
        return ElementaryAmenable(
            hirsch=int(value["hirsch"]),
            cd_finite=bool(value.get("cd_finite", False)),
        )
    raise ValueError(f"unknown group descriptor tag {tag!r}")
