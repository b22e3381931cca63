"""Space descriptions and their integral homology.

Spaces are expression trees over four constructors: spheres (minimal cell
structure: one 0-cell, one n-cell), wedges, products, and explicit chain
complexes with a declared fundamental group.  Nested wedges and nested
products flatten when they are built.  Homology of explicit complexes is
exact (Smith normal form); wedges add reduced homology degreewise; products
follow the Kunneth formula with its Tor term (Hatcher, Algebraic Topology,
Thm 3B.6), where in primary form Z/p^a (x) Z/p^b = Tor(Z/p^a, Z/p^b) =
Z/p^min(a, b) and distinct primes give 0.

A homology profile stores only the degrees that carry homology (or a
not-finitely-generated verdict), and the wedge sum and the Kunneth fold
visit only those, so their cost follows the homology and not the
dimension.  The renderers still print every degree 0..dim.  Spaces
read from JSON are limited to dimension ``MAX_DIMENSION``, because that
dense output grows with the dimension.

The universal cover is built as another space expression, structurally:

* the circle is covered by the line, so its cover is the point;
* a higher sphere, and an explicit complex with trivial declared group,
  is its own cover;
* an explicit complex with nontrivial group is covered by its user-supplied
  cover complex, which has trivial group;
* a product is covered by the product of its factors' covers;
* a simply connected wedge is its own cover.

The one ordinary homology() then computes the cover's homology.  A single
verdict sits outside that path: a wedge of spheres (the whole space)
mixing a circle with at least one higher sphere has a cover whose homology
is not finitely generated in each degree where a higher sphere sits, and
the profile says exactly that.  Anything else, such as a wedge of circles
alone or an explicit complex with nontrivial group and no cover, raises
UnsupportedConstruction; no rule, no answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

from .abelian import (
    TRIVIAL_GROUP,
    FgAbelianGroup,
    _homology_group,
    _tor_torsion,
    direct_sum,
    render_abelian,
)
from .errors import (
    DEFAULT_SEARCH_CAP,
    CompositionNotZero,
    DimensionMismatch,
    NotFinitelyGenerated,
    UnsupportedConstruction,
)
from .intlinalg import IntMatrix, _check_int, invariant_factors
from .pi1 import (
    ElementaryAmenable,
    FgAbelian,
    Finite,
    Free,
    Pi1Descriptor,
    Trivial,
    _fields,
    _one_of,
    fg_abelian,
    free,
    pi1_from_json,
    pi1_to_json,
)

MAX_DIMENSION = 10**6
"""Largest space dimension the command line accepts.  Every rendering prints
one entry per degree up to the dimension: at this cap, ``homology --format
json`` prints about 85 MB.  A product's homology may hold at most this many
torsion summands, over all degrees, for the same reason."""


@dataclass(frozen=True)
class ChainComplex:
    """Finite chain complex of free abelian groups, given by cell counts per
    dimension and boundary matrices d_1 .. d_dim (d_k: k-chains to
    (k-1)-chains, rows indexed by (k-1)-cells), taken as given: a tuple of
    ints and a tuple of `IntMatrix`."""

    dim: int
    boundary: tuple[IntMatrix, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"dimension must be >= 0, got {self.dim}")
        if len(self.cells) != self.dim + 1:
            raise ValueError(
                f"need {self.dim + 1} cell counts for dimension {self.dim}, "
                f"got {len(self.cells)}"
            )
        if any(c < 0 for c in self.cells):
            raise ValueError("cell counts must be >= 0")
        if len(self.boundary) != self.dim:
            raise ValueError(
                f"need {self.dim} boundary maps for dimension {self.dim}, "
                f"got {len(self.boundary)}"
            )
        for k, b in enumerate(self.boundary, start=1):
            if (b.rows, b.cols) != (self.cells[k - 1], self.cells[k]):
                raise DimensionMismatch(
                    f"boundary map {k} has shape {b.rows}x{b.cols}, expected "
                    f"{self.cells[k - 1]}x{self.cells[k]}"
                )
        for k in range(1, self.dim):
            if not (self.boundary[k - 1] @ self.boundary[k]).is_zero():
                raise CompositionNotZero(
                    f"boundary maps {k} and {k + 1} do not compose to zero"
                )

    def boundary_map(self, k: int) -> IntMatrix:
        """d_k with the convention that maps outside 1..dim are zero maps of
        the right shape."""
        if 1 <= k <= self.dim:
            return self.boundary[k - 1]
        if k == 0:
            return IntMatrix.zeros(0, self.cells[0])
        if k == self.dim + 1:
            return IntMatrix.zeros(self.cells[self.dim], 0)
        return IntMatrix.zeros(0, 0)


def euler_characteristic(complex_: ChainComplex) -> int:
    total = 0
    for k, c in enumerate(complex_.cells):
        total += c if k % 2 == 0 else -c
    return total


@dataclass(frozen=True)
class Sphere:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Wedge:
    """Wedge of its parts; a nested wedge is spliced in, so parts are never
    wedges."""

    parts: tuple["SpaceExpr", ...]

    def __post_init__(self):
        parts = []
        for p in self.parts:
            parts.extend(p.parts if isinstance(p, Wedge) else (p,))
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise ValueError("wedge needs at least one part")


@dataclass(frozen=True)
class Product:
    """Product of its factors; a nested product is spliced in, so factors
    are never products."""

    factors: tuple["SpaceExpr", ...]

    def __post_init__(self):
        factors = []
        for f in self.factors:
            factors.extend(f.factors if isinstance(f, Product) else (f,))
        object.__setattr__(self, "factors", tuple(factors))
        if not self.factors:
            raise ValueError("product needs at least one factor")


@dataclass(frozen=True)
class Explicit:
    complex: ChainComplex
    pi1: Pi1Descriptor
    cover: ChainComplex | None = None


SpaceExpr = Union[Sphere, Wedge, Product, Explicit]


def wedge(*parts: SpaceExpr) -> SpaceExpr:
    """Wedge constructor that collapses the one-part case."""
    w = Wedge(parts)
    return w.parts[0] if len(w.parts) == 1 else w


def product(*factors: SpaceExpr) -> SpaceExpr:
    """Product constructor that collapses the one-factor case."""
    p = Product(factors)
    return p.factors[0] if len(p.factors) == 1 else p


def dim_of(space: SpaceExpr) -> int:
    if isinstance(space, Sphere):
        return space.n
    if isinstance(space, Wedge):
        return max(dim_of(p) for p in space.parts)
    if isinstance(space, Product):
        return sum(dim_of(f) for f in space.factors)
    if isinstance(space, Explicit):
        return space.complex.dim
    raise TypeError(f"not a SpaceExpr: {space!r}")


class HomologyProfile:
    """Homology groups by degree: ``groups`` maps a degree to its group, or
    to None when the group exists but is not finitely generated (and is
    withheld).

    Only degrees that carry something are stored, in ascending order: a
    nontrivial group or None.  Every other degree, above dim included, reads
    as the trivial group, so cost and memory follow the homology, not the
    dimension; a degree outside 0..dim is refused.  Equality is by content,
    so profiles of different declared dimensions compare equal when the
    extra degrees are trivial."""

    def __init__(self, dim: int, groups: dict[int, FgAbelianGroup | None]):
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        self.dim = dim
        self.groups: dict[int, FgAbelianGroup | None] = {}
        for k in sorted(groups):
            if not 0 <= k <= dim:
                raise ValueError(f"degree {k} is outside 0..{dim}")
            group = groups[k]
            if group is None or not group.is_trivial:
                self.groups[k] = group

    def group(self, k: int) -> FgAbelianGroup | None:
        return self.groups.get(k, TRIVIAL_GROUP)

    def fg(self, k: int) -> bool:
        return self.group(k) is not None

    def free_rank(self, k: int) -> int:
        group = self.group(k)
        if group is None:
            raise NotFinitelyGenerated(
                k, f"degree {k} is not finitely generated; no rank available"
            )
        return group.free_rank

    def __eq__(self, other):
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        return self.groups == other.groups

    def __repr__(self):
        parts = []
        for k, group in self.groups.items():
            text = "not f.g." if group is None else render_abelian(group)
            parts.append(f"H{k}={text}")
        return f"HomologyProfile({', '.join(parts) or 'trivial'})"


def render_profile(profile: HomologyProfile) -> str:
    """One line ``Hk = ...`` per degree 0..dim; only the stored degrees are
    rendered, every other one reads "0"."""
    lines = [f"H{k} = 0" for k in range(profile.dim + 1)]
    for k, group in profile.groups.items():
        text = "not finitely generated" if group is None else render_abelian(group)
        lines[k] = f"H{k} = {text}"
    return "\n".join(lines)


def profile_to_json(profile: HomologyProfile) -> dict:
    """The profile as a JSON object with one entry per degree 0..dim in
    ``groups`` and in ``finitely_generated``."""
    groups = {}
    fg = {}
    for k in range(profile.dim + 1):
        g = profile.group(k)
        groups[str(k)] = (
            None if g is None else {"free_rank": g.free_rank, "torsion": list(g.torsion)}
        )
        fg[str(k)] = profile.fg(k)
    return {"dim": profile.dim, "groups": groups, "finitely_generated": fg}


def _group_json_text(group: FgAbelianGroup | None) -> str:
    """One group's value as json.dumps(indent=2) writes it two levels deep."""
    if group is None:
        return "null"
    torsion = (
        "[\n        " + ",\n        ".join(map(str, group.torsion)) + "\n      ]"
        if group.torsion
        else "[]"
    )
    return (
        f'{{\n      "free_rank": {group.free_rank},\n      "torsion": {torsion}\n    }}'
    )


# degrees per chunk in a run of default lines: at most 133 KB of group JSON
# text for six-digit degrees
_RUN_DEGREES = 2048


def _degree_chunks(dim: int, stored: dict[int, str], default: str) -> Iterator[str]:
    """The lines '    "k": value,' for k = 0..dim, with no comma on the
    last one, where value is stored[k] (keys ascending) or else default.
    Each stored degree is one chunk; runs of default degrees are written by
    str.join, at most _RUN_DEGREES lines to a chunk."""
    sep = f'": {default},\n    "'

    def defaults(start: int, stop: int) -> Iterator[str]:
        for lo in range(start, stop, _RUN_DEGREES):
            hi = min(lo + _RUN_DEGREES, stop)
            keys = sep.join(map(str, range(lo, hi)))
            yield f'    "{keys}": {default}{"," if hi <= dim else ""}\n'

    start = 0
    for k, value in stored.items():
        yield from defaults(start, k)
        yield f'    "{k}": {value}{"," if k < dim else ""}\n'
        start = k + 1
    yield from defaults(start, dim + 1)


_TRIVIAL_GROUP_JSON = _group_json_text(TRIVIAL_GROUP)


def profile_json_chunks(profile: HomologyProfile) -> Iterator[str]:
    """The text of `profile_json_text` in pieces of bounded size, so that a
    caller can write a profile of any dimension without holding its whole
    text: each distinct group is rendered once and every trivial degree
    gets one constant string."""
    rendered = {g: _group_json_text(g) for g in set(profile.groups.values())}
    groups = {k: rendered[g] for k, g in profile.groups.items()}
    verdicts = {k: "false" for k, g in profile.groups.items() if g is None}
    yield f'{{\n  "dim": {profile.dim},\n  "groups": {{\n'
    yield from _degree_chunks(profile.dim, groups, _TRIVIAL_GROUP_JSON)
    yield '  },\n  "finitely_generated": {\n'
    yield from _degree_chunks(profile.dim, verdicts, "true")
    yield "  }\n}"


def profile_json_text(profile: HomologyProfile) -> str:
    """``json.dumps(profile_to_json(profile), indent=2)``: the join of
    `profile_json_chunks`.

    >>> print(profile_json_text(homology(Sphere(1))))
    {
      "dim": 1,
      "groups": {
        "0": {
          "free_rank": 1,
          "torsion": []
        },
        "1": {
          "free_rank": 1,
          "torsion": []
        }
      },
      "finitely_generated": {
        "0": true,
        "1": true
      }
    }
    """
    return "".join(profile_json_chunks(profile))


def homology_of_complex(complex_: ChainComplex) -> HomologyProfile:
    """Homology from the invariant factors of each boundary map: H_k reads
    the rank of d_k and the Smith diagonal of d_(k+1).  The constructor has
    already proved that consecutive maps compose to zero.

    >>> render_profile(homology_of_complex(EXAMPLE_COMPLEXES["projective-plane"]))
    'H0 = Z\\nH1 = Z/2\\nH2 = 0'
    """
    # diagonals[k] is the nonzero Smith diagonal of d_k; d_0 and d_(dim+1)
    # are zero maps
    diagonals = [()]
    diagonals.extend(invariant_factors(b) for b in complex_.boundary)
    diagonals.append(())
    groups = {
        k: _homology_group(complex_.cells[k], len(diagonals[k]), diagonals[k + 1])
        for k in range(complex_.dim + 1)
    }
    return HomologyProfile(complex_.dim, groups)


def homology(space: SpaceExpr) -> HomologyProfile:
    """Ordinary integral homology.

    >>> render_profile(homology(Sphere(2)))
    'H0 = Z\\nH1 = 0\\nH2 = Z'
    """
    if isinstance(space, Sphere):
        one = FgAbelianGroup(free_rank=1)
        return HomologyProfile(space.n, {0: one, space.n: one})
    if isinstance(space, Explicit):
        return homology_of_complex(space.complex)
    if isinstance(space, Wedge):
        # reduced homology adds up over the parts; each part is computed once
        # and only its stored degrees are visited
        profiles = [homology(part) for part in space.parts]
        summands: dict[int, list[FgAbelianGroup]] = {}
        for p in profiles:
            for k, group in p.groups.items():
                if k:
                    summands.setdefault(k, []).append(group)
        groups = {k: direct_sum(*parts) for k, parts in summands.items()}
        groups[0] = FgAbelianGroup(free_rank=1)
        return HomologyProfile(max(p.dim for p in profiles), groups)
    if isinstance(space, Product):
        # Kunneth over the stored degrees: H_n(X x Y) sums H_i(X) (x) H_j(Y) over
        # i + j = n and Tor(H_i(X), H_j(Y)) over i + j = n - 1.  Free ranks fold
        # as integers; torsion lists are touched only where a degree has some.
        ranks, torsion = {0: 1}, {}
        for factor in space.factors:
            groups = homology(factor).groups
            f_ranks = {j: g.free_rank for j, g in groups.items() if g.free_rank}
            f_torsion = {j: g.torsion for j, g in groups.items() if g.torsion}
            # RP^2 to the k has about 3^k / 2 summands: bound a step before it runs
            held, met = sum(map(len, torsion.values())), sum(map(len, f_torsion.values()))
            most = held * (sum(f_ranks.values()) + 2 * met) + met * sum(ranks.values())
            if most > MAX_DIMENSION:
                raise UnsupportedConstruction(
                    f"product homology may need more than {MAX_DIMENSION} torsion summands"
                )
            out_ranks, out_torsion = {}, {}
            for i, r in ranks.items():
                for j, q in f_ranks.items():
                    out_ranks[i + j] = out_ranks.get(i + j, 0) + r * q
            for j, t in f_torsion.items():
                for i, r in ranks.items():
                    out_torsion.setdefault(i + j, []).extend(t * r)
            for i, s in torsion.items():
                for j, q in f_ranks.items():
                    out_torsion.setdefault(i + j, []).extend(s * q)
                for j, t in f_torsion.items():
                    # Z/p^a (x) Z/p^b in degree i + j, and its Tor twin in i + j + 1
                    tor = _tor_torsion(s, t)
                    out_torsion.setdefault(i + j, []).extend(tor)
                    out_torsion.setdefault(i + j + 1, []).extend(tor)
            ranks, torsion = out_ranks, {k: t for k, t in out_torsion.items() if t}
        groups = {k: FgAbelianGroup(r) for k, r in ranks.items()}
        for k, t in torsion.items():
            groups[k] = FgAbelianGroup(ranks.get(k, 0), tuple(sorted(t)))
        return HomologyProfile(dim_of(space), groups)
    raise TypeError(f"not a SpaceExpr: {space!r}")


def poincare_polynomial(space: SpaceExpr) -> list[int]:
    """Coefficient list: coefficient of x^k is the free rank of H_k (the
    Betti number b_k), for every k in 0..dim; torsion does not count, so
    RP^2 gives [1, 0, 0]."""
    profile = homology(space)
    coeffs = [0] * (profile.dim + 1)
    for k, group in profile.groups.items():
        coeffs[k] = group.free_rank
    return coeffs


def sphere_wedge_counts(space: SpaceExpr) -> "dict[int, int] | None":
    """If the space is a sphere or a wedge of spheres, the number of spheres
    per degree; otherwise None."""
    if isinstance(space, Sphere):
        return {space.n: 1}
    if isinstance(space, Wedge):
        counts: dict[int, int] = {}
        for part in space.parts:
            if not isinstance(part, Sphere):
                return None
            counts[part.n] = counts.get(part.n, 0) + 1
        return counts
    return None


def sphere_product_dims(space: SpaceExpr) -> "list[int] | None":
    """If the space is a sphere or a product of spheres, the list of factor
    dimensions in order; otherwise None."""
    if isinstance(space, Sphere):
        return [space.n]
    if isinstance(space, Product):
        dims: list[int] = []
        for factor in space.factors:
            if not isinstance(factor, Sphere):
                return None
            dims.append(factor.n)
        return dims
    return None


def _cover(space: SpaceExpr) -> SpaceExpr:
    """The universal cover as a space expression, by the structural rules of
    the module docstring.  A supported space is its own cover exactly when it
    is simply connected."""
    if isinstance(space, Sphere):
        if space.n == 1:
            # covered by the line, which is contractible
            return Explicit(EXAMPLE_COMPLEXES["point"], Trivial())
        return space
    if isinstance(space, Explicit):
        if isinstance(space.pi1, Trivial):
            return space
        if space.cover is None:
            raise UnsupportedConstruction(
                "explicit complex with nontrivial fundamental group needs a "
                "user-supplied cover complex"
            )
        return Explicit(space.cover, Trivial())
    if isinstance(space, Product):
        return Product(tuple(_cover(f) for f in space.factors))
    if isinstance(space, Wedge):
        if all(_cover(p) == p for p in space.parts):
            return space
        if all(isinstance(p, Sphere) for p in space.parts):
            raise UnsupportedConstruction(
                "wedge of spheres with a circle inside a product: its cover "
                "rule applies only to the whole space"
            )
        raise UnsupportedConstruction(
            "wedge with a part that is not simply connected: no cover rule "
            "unless every part is a sphere"
        )
    raise TypeError(f"not a SpaceExpr: {space!r}")


def universal_cover_homology(space: SpaceExpr) -> HomologyProfile:
    """Homology of the universal cover: ordinary homology of the cover built
    by the structural rules, except for the one verdict on a wedge of
    spheres with a circle (see the module docstring).

    >>> rp2 = Explicit(EXAMPLE_COMPLEXES["projective-plane"],
    ...                fg_abelian(FgAbelianGroup(torsion=(2,))),
    ...                cover=EXAMPLE_COMPLEXES["sphere2"])
    >>> print(render_profile(universal_cover_homology(product(Sphere(2), rp2))))
    H0 = Z
    H1 = 0
    H2 = Z^2
    H3 = 0
    H4 = Z
    """
    counts = sphere_wedge_counts(space)
    if isinstance(space, Wedge) and counts is not None and 1 in counts:
        higher = [n for n in counts if n >= 2]
        if not higher:
            raise UnsupportedConstruction(
                "wedge of circles only: no cover rule in the supported list"
            )
        groups = {0: FgAbelianGroup(free_rank=1), **{n: None for n in higher}}
        return HomologyProfile(max(higher), groups)
    return homology(_cover(space))


def pi1_of(space: SpaceExpr) -> Pi1Descriptor:
    """Fundamental group over the supported constructions; combinations that
    leave the five descriptor shapes raise UnsupportedConstruction.  A product
    of finite groups whose order exceeds ``DEFAULT_SEARCH_CAP`` raises
    OrderExceedsCap before its table is built."""
    if isinstance(space, Sphere):
        return free(1) if space.n == 1 else Trivial()
    if isinstance(space, Explicit):
        return space.pi1
    if isinstance(space, Wedge):
        # free product of the parts; only free/trivial parts stay in the
        # descriptor family
        rank = 0
        for p in space.parts:
            d = pi1_of(p)
            if isinstance(d, Trivial):
                continue
            if isinstance(d, Free):
                rank += d.rank
            elif isinstance(d, FgAbelian) and d.group == FgAbelianGroup(free_rank=1):
                rank += 1
            else:
                raise UnsupportedConstruction(
                    "wedge part has a fundamental group that makes the free "
                    "product leave the supported descriptor shapes"
                )
        return free(rank)
    if isinstance(space, Product):
        finite_groups = []
        abelian = TRIVIAL_GROUP
        free_ranks: list[int] = []
        for f in space.factors:
            d = pi1_of(f)
            if isinstance(d, Trivial):
                continue
            if isinstance(d, Free):
                if d.rank == 1:
                    abelian = direct_sum(abelian, FgAbelianGroup(free_rank=1))
                else:
                    free_ranks.append(d.rank)
            elif isinstance(d, FgAbelian):
                abelian = direct_sum(abelian, d.group)
            elif isinstance(d, Finite):
                finite_groups.append(d.group)
            else:
                raise UnsupportedConstruction(
                    "product factor has a fundamental group outside the "
                    "supported descriptor shapes"
                )
        kinds = sum(
            (1 if finite_groups else 0, 1 if not abelian.is_trivial else 0,
             1 if free_ranks else 0)
        )
        if kinds > 1 or len(free_ranks) > 1:
            raise UnsupportedConstruction(
                "product mixes fundamental-group shapes with no descriptor "
                "for their direct product"
            )
        if free_ranks:
            return Free(free_ranks[0])
        if finite_groups:
            if len(finite_groups) == 1:
                return Finite(finite_groups[0])
            from .catalog import direct_product
            from .finitegroup import _check_cap

            # the product table is checked in O(order^3): refuse an order no
            # subgroup search would accept before building it
            _check_cap(math.prod(g.order for g in finite_groups), DEFAULT_SEARCH_CAP)
            return Finite(direct_product(*finite_groups))
        return fg_abelian(abelian)
    raise TypeError(f"not a SpaceExpr: {space!r}")


def complex_to_json(complex_: ChainComplex) -> dict:
    return {
        "cells": list(complex_.cells),
        "boundary": [b.to_rows() for b in complex_.boundary],
    }


def complex_from_json(obj) -> ChainComplex:
    """Read ``{"cells": [...], "boundary": [...]}``: cell counts are JSON
    integers and each boundary map is a list of rows.  Anything malformed,
    maps that do not fit the cell counts or do not compose to zero included,
    raises ValueError."""
    _fields(obj, "chain complex", ("cells",), ("boundary",), lists=("cells", "boundary"))
    cells = [_check_int(c, "cell counts") for c in obj["cells"]]
    if not cells:
        raise ValueError("cells list must be nonempty")
    raw = obj.get("boundary", [])
    if len(raw) != len(cells) - 1:
        raise ValueError(
            f"need {len(cells) - 1} boundary matrices for {len(cells)} cell "
            f"counts, got {len(raw)}"
        )
    boundary = [
        IntMatrix.from_rows(rows, cols=cells[k + 1]) for k, rows in enumerate(raw)
    ]
    try:
        return ChainComplex(
            dim=len(cells) - 1, boundary=tuple(boundary), cells=tuple(cells)
        )
    except (DimensionMismatch, CompositionNotZero) as err:
        # a file that is not a chain complex is malformed input
        raise ValueError(f"chain complex JSON: {err}") from None


def space_to_json(space: SpaceExpr) -> dict:
    if isinstance(space, Sphere):
        return {"sphere": space.n}
    if isinstance(space, Wedge):
        return {"wedge": [space_to_json(p) for p in space.parts]}
    if isinstance(space, Product):
        return {"product": [space_to_json(f) for f in space.factors]}
    if isinstance(space, Explicit):
        body = {
            "complex": complex_to_json(space.complex),
            "pi1": pi1_to_json(space.pi1),
        }
        if space.cover is not None:
            body["cover"] = complex_to_json(space.cover)
        return {"explicit": body}
    raise TypeError(f"not a SpaceExpr: {space!r}")


def space_from_json(obj) -> SpaceExpr:
    """Read a space expression: an object with one tag, ``sphere`` (a JSON
    integer), ``wedge`` or ``product`` (a list of spaces) or ``explicit``.
    Anything malformed raises ValueError; a Cayley table above
    ``DEFAULT_SEARCH_CAP``, which no search takes, raises OrderExceedsCap
    before its O(order^3) axiom check."""
    tag, value = _one_of(
        obj, "space", ("sphere", "wedge", "product", "explicit"), lists=("wedge", "product")
    )
    if tag == "sphere":
        return Sphere(_check_int(value, "sphere dimension"))
    if tag == "wedge":
        return wedge(*map(space_from_json, value))
    if tag == "product":
        return product(*map(space_from_json, value))
    body = _fields(value, "explicit space", ("complex", "pi1"), ("cover",))
    cover = complex_from_json(body["cover"]) if "cover" in body else None
    complex_ = complex_from_json(body["complex"])
    return Explicit(complex_, pi1_from_json(body["pi1"], cap=DEFAULT_SEARCH_CAP), cover)


def _cc(cells: tuple[int, ...], *boundary) -> ChainComplex:
    return ChainComplex(dim=len(cells) - 1, boundary=tuple(boundary), cells=cells)


EXAMPLE_COMPLEXES: dict[str, ChainComplex] = {
    "point": _cc((1,)),
    "interval": _cc((2, 1), IntMatrix.from_rows([[-1], [1]])),
    "circle": _cc((1, 1), IntMatrix.from_rows([[0]])),
    "sphere2": _cc((1, 0, 1), IntMatrix.zeros(1, 0), IntMatrix.zeros(0, 1)),
    "sphere3": _cc(
        (1, 0, 0, 1),
        IntMatrix.zeros(1, 0),
        IntMatrix.zeros(0, 0),
        IntMatrix.zeros(0, 1),
    ),
    "torus": _cc(
        (1, 2, 1), IntMatrix.zeros(1, 2), IntMatrix.from_rows([[0], [0]])
    ),
    "projective-plane": _cc(
        (1, 1, 1), IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]])
    ),
    "klein-bottle": _cc(
        (1, 2, 1), IntMatrix.zeros(1, 2), IntMatrix.from_rows([[2], [0]])
    ),
    "genus2-surface": _cc(
        (1, 4, 1), IntMatrix.zeros(1, 4), IntMatrix.from_rows([[0]] * 4)
    ),
}
