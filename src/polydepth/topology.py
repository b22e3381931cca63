"""Space descriptions and their integral homology.

Spaces are expression trees over four constructors: spheres (minimal cell
structure: one 0-cell, one n-cell), wedges, products, and explicit chain
complexes with a declared fundamental group.  Nested wedges and nested
products flatten when they are built.  A read shares one ``Sphere`` per
dimension, and reads a wedge or product list of plain sphere leaves in
C-level passes (``errors._sphere_dims``), any other list node by node.
Homology of explicit complexes is exact (Smith normal form).  Spheres,
wedges and products are one integer fold over free ranks and torsion by
degree, with the dimension (``_fold``): a wedge adds its parts' reduced
homology into one pair of accumulators (``_add``).  A wedge of spheres
alone is counted by dimension in C-level passes, one dict update per
dimension; any other wedge takes one dict update per sphere and folds
each other part object once.  Its H_0 is Z plus one Z for each component
of a part past the first; a part's H_0 torsion is dropped, as a cellular
H_0 has none.  (``dim_of`` still visits every part: skipping repeated
part objects by ``id`` costs more than the calls it saves.)  Products
follow the Kunneth formula with its Tor term (Hatcher, Algebraic
Topology, Thm 3B.6), where in primary form Z/p^a (x) Z/p^b =
Tor(Z/p^a, Z/p^b) = Z/p^min(a, b) and distinct primes give 0.  A
product is refused (UnsupportedConstruction) before its Kunneth steps
when its total Betti number would pass ``MAX_BETTI``, and before a step
when its summands would pass ``MAX_DIMENSION`` or the pairs of degrees
combined would pass ``MAX_KUNNETH_PAIRS``.

A homology profile stores only the degrees that carry homology (or a
not-finitely-generated verdict), and the fold visits only those, so its
cost follows the homology, not the dimension.  Output names every degree
0..dim, written from the stored degrees: a run of trivial degrees goes out
an aligned block of 1000 degrees at a time, each one join over a table of
degree names (``_degree_runs``), written as made, in pieces that a caller
writes one by one, so the text is never held whole and costs one Python
step per block and per stored degree.  All JSON, here and in ``depth``, is
one tree per form whose per-degree maps are lazy `_Degrees` nodes:
`_json_chunks`, the one JSON writer, writes it, and `_plain` expands it to
the ``*_to_json`` dict.  `space_from_json` refuses a space of dimension
above ``MAX_DIMENSION`` (DimensionExceedsCap), for every caller, because the
size of that output grows with the dimension, and an expression nested
more than ``MAX_NESTING`` wedge and product lists deep (ValueError),
because the fold, pi1 and the cover recurse once per level.

The cover's homology is the fold of the universal cover by structural
rules, the cover itself never built:

* the circle is covered by the line, so its cover has the point's
  homology;
* a higher sphere, and an explicit complex with trivial declared group,
  is its own cover;
* an explicit complex with nontrivial group is covered by its user-supplied
  cover complex, which has trivial group and homology in no degree above
  the complex's dimension (else ValueError, naming the degree);
* a cover has the dimension of the space it covers, so its profile names
  the same degrees as the space's own;
* a product is covered by the product of its factors' covers;
* a wedge follows one rule (Hatcher, Algebraic Topology, 1.2-1.3, 2.2).
  Its simply connected parts are the rest, split off in one pass that pi1
  and the cover share (``_split``).  pi1 is free on the others' ranks when
  all are free, else pi1 of the one other part X (van Kampen), else
  refused.  The cover is X~ with a copy of the rest at each of the
  n = |pi1 X| lifts of the base point: for finite n the wedge of X~ and n
  copies of the rest (at most ``MAX_DIMENSION`` parts and summands).  For
  infinite n (a tree for several circles, X~ the point) it is no finite
  complex, and its fold is H(X~) with a not-f.g. verdict in each degree of
  the rest's reduced homology (``_wedge_cover`` makes every such verdict).
  A wedge folds the same at the top level and as a product factor; a
  product refuses a factor whose fold carries a verdict, so a rest with no
  reduced homology and no disconnected part, such as a point, passes.
  n is known for a finite or torsion abelian group, infinite for a free
  group, free abelian rank or Hirsch length >= 1; Hirsch length 0 refuses.

Anything else, such as an explicit complex with nontrivial group and no
cover, raises UnsupportedConstruction; no rule, no answer.

Only explicit complexes need integer linear algebra, so `intlinalg` is
imported, as a module (``from . import intlinalg``, so that every call
reads ``intlinalg.<name>``), inside the functions that build, read, check
or reduce one (``ChainComplex``, `complex_from_json`,
`homology_of_complex` and the explicit branch of `_top_free_rank`), and
``EXAMPLE_COMPLEXES`` is built on first access (PEP 562 ``__getattr__``).
A cold ``homology`` or ``bound`` on spheres, wedges and products never
loads it.
"""

from __future__ import annotations

import json
import math
from collections import Counter, namedtuple
from itertools import chain, groupby, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Union

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
    DimensionExceedsCap,
    DimensionMismatch,
    NotFinitelyGenerated,
    Record,
    UnsupportedConstruction,
    _check_int,
    _fields,
    _one_of,
    _set,
    _sphere_dims,
)
from .pi1 import (
    ElementaryAmenable,
    FgAbelian,
    Finite,
    Free,
    Pi1Descriptor,
    Trivial,
    fg_abelian,
    free,
    pi1_from_json,
    pi1_to_json,
)

if TYPE_CHECKING:
    from .intlinalg import IntMatrix

MAX_DIMENSION = 10**6
"""The largest dimension `space_from_json` accepts.  Profiles and bound
reports are stored sparse, but every rendering names each degree up to the
dimension, a block of 1000 degrees at a time: at this cap, ``homology
--format json`` prints about 85 MB.  A product's homology may hold at most
this many torsion summands, over all degrees, since each of them is
stored."""

MAX_NESTING = 100
"""The most wedge and product lists `space_from_json` accepts around one
node.  The fold, the cover rule and pi1 recurse about three Python frames
per level, so at this cap a request stays far below the interpreter's
default limit of 1000 frames (deeper expressions end in RecursionError at
about 330 levels)."""

MAX_BETTI = 10**1000
"""The largest total Betti number (the sum of the free ranks over all
degrees) a product's homology may have: it is the product of its factors'
totals, so it is checked before any Kunneth step runs.  Every rank then
prints in at most 1001 digits, below the interpreter's default limit of
4300 digits for converting an int to text."""

MAX_KUNNETH_PAIRS = 5 * 10**6
"""The most pairs of stored degrees, one of the product so far and one of
the next factor, that the Kunneth steps of a product may combine in all.
Each step is checked before it runs.  The product of 2235 circles is just
under it, and takes about 2 s on a 2-vCPU host."""

# pi1 of the circle as an abelian group: a wedge counts it as free of rank 1
_Z = FgAbelian(FgAbelianGroup(free_rank=1))


class ChainComplex(Record):
    """Finite chain complex of free abelian groups, given by cell counts per
    dimension and boundary matrices d_1 .. d_dim (d_k: k-chains to
    (k-1)-chains, rows indexed by (k-1)-cells), taken as given: a tuple of
    ints and a tuple of `IntMatrix`.  The constructor checks the shapes and
    proves d_k d_(k+1) = 0 for every k with `intlinalg._composes_to_zero`,
    exactly and without forming the product; maps that do not compose to
    zero raise `CompositionNotZero`."""

    __slots__ = ("dim", "boundary", "cells")

    def __init__(self, dim: int, boundary: tuple[IntMatrix, ...], cells: tuple[int, ...]):
        from . import intlinalg

        if dim < 0:
            raise ValueError(f"dimension must be >= 0, got {dim}")
        if len(cells) != dim + 1:
            raise ValueError(
                f"need {dim + 1} cell counts for dimension {dim}, got {len(cells)}"
            )
        if any(c < 0 for c in cells):
            raise ValueError("cell counts must be >= 0")
        if len(boundary) != dim:
            raise ValueError(
                f"need {dim} boundary maps for dimension {dim}, got {len(boundary)}"
            )
        for k, b in enumerate(boundary, start=1):
            if (b.rows, b.cols) != (cells[k - 1], cells[k]):
                raise DimensionMismatch(
                    f"boundary map {k} has shape {b.rows}x{b.cols}, expected "
                    f"{cells[k - 1]}x{cells[k]}"
                )
        for k in range(1, dim):
            if not intlinalg._composes_to_zero(boundary[k - 1], boundary[k]):
                raise CompositionNotZero(
                    f"boundary maps {k} and {k + 1} do not compose to zero"
                )
        _set(self, "dim", dim)
        _set(self, "boundary", boundary)
        _set(self, "cells", cells)

    def boundary_map(self, k: int) -> IntMatrix:
        """d_k with the convention that maps outside 1..dim are zero maps of
        the right shape."""
        if 1 <= k <= self.dim:
            return self.boundary[k - 1]
        from . import intlinalg

        if k == 0:
            return intlinalg.IntMatrix.zeros(0, self.cells[0])
        if k == self.dim + 1:
            return intlinalg.IntMatrix.zeros(self.cells[self.dim], 0)
        return intlinalg.IntMatrix.zeros(0, 0)


def euler_characteristic(complex_: ChainComplex) -> int:
    total = 0
    for k, c in enumerate(complex_.cells):
        total += c if k % 2 == 0 else -c
    return total


class Sphere(Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {n}")
        _set(self, "n", n)


# a wedge of spheres is folded by these, in C-level passes
_SPHERE_ONLY, _sphere_n = frozenset((Sphere,)), attrgetter("n")


def _spliced(items, cls, field: str) -> tuple:
    """`items` with each one of class `cls` replaced by its tuple `field`;
    one scan in C when there is none."""
    items = tuple(items)
    if cls not in map(type, items):
        return items
    return tuple(chain.from_iterable(getattr(i, field) if type(i) is cls else (i,) for i in items))


class Wedge(Record):
    """Wedge of its parts; a nested wedge is spliced in, so parts are never
    wedges."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[SpaceExpr, ...]):
        spliced = _spliced(parts, Wedge, "parts")
        if not spliced:
            raise ValueError("wedge needs at least one part")
        _set(self, "parts", spliced)


class Product(Record):
    """Product of its factors; a nested product is spliced in, so factors
    are never products."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[SpaceExpr, ...]):
        spliced = _spliced(factors, Product, "factors")
        if not spliced:
            raise ValueError("product needs at least one factor")
        _set(self, "factors", spliced)


class Explicit(Record):
    __slots__ = ("complex", "pi1", "cover")

    def __init__(
        self, complex: ChainComplex, pi1: Pi1Descriptor, cover: ChainComplex | None = None
    ):
        _set(self, "complex", complex)
        _set(self, "pi1", pi1)
        _set(self, "cover", cover)


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
        return max(map(dim_of, space.parts))
    if isinstance(space, Product):
        return sum(map(dim_of, space.factors))
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


def _profile_text_chunks(profile: HomologyProfile) -> Iterator[str]:
    """The text of `render_profile` in pieces of at most 1000 lines."""
    texts = {
        k: "not finitely generated" if group is None else render_abelian(group)
        for k, group in profile.groups.items()
    }
    return _degree_chunks(0, profile.dim, texts, "0", ("H", " = ", "\n"))


def render_profile(profile: HomologyProfile) -> str:
    """One line ``Hk = ...`` per degree 0..dim; only the stored degrees are
    rendered, every other one reads "0"."""
    return "".join(_profile_text_chunks(profile))


# a JSON object keyed by the degrees start..dim: stored[k] (keys ascending) or else
# default, where no value holds another node
_Degrees = namedtuple("_Degrees", "start dim stored default")


def _plain(value):
    """`value` with each `_Degrees` node expanded to its dense dict, in
    fresh containers, so that no two degrees share a value."""
    if isinstance(value, _Degrees):
        start, dim, stored, default = value
        return {str(k): _plain(stored.get(k, default)) for k in range(start, dim + 1)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return [_plain(v) for v in value] if isinstance(value, list) else value


def _json_chunks(value, level: int = 0) -> Iterator[str]:
    """``json.dumps(_plain(value), indent=2)`` nested `level` deep, for a tree
    of string-keyed dicts, lists, strings, ints, bools, None and `_Degrees`
    nodes, each written by `_degree_chunks`; the text between nodes is one chunk."""
    parts = _json_parts(value, "  " * level, [])
    for is_text, run in groupby(parts, lambda part: isinstance(part, str)):
        yield from ["".join(run)] if is_text else chain.from_iterable(run)


def _json_leaf(value) -> str | None:
    """The text of a scalar or an empty container, else None."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if not isinstance(value, (dict, list, _Degrees)):
        raise TypeError(f"not a JSON value: {value!r}")
    if not (value.start <= value.dim if isinstance(value, _Degrees) else value):
        return "[]" if isinstance(value, list) else "{}"
    return None


def _json_parts(value, indent: str, out: list) -> list:
    """`out` with the text of `value` at `indent` appended: strings, and the
    lines of each `_Degrees` node, its distinct values (by id) rendered once."""
    leaf = _json_leaf(value)
    if leaf is not None:
        out.append(leaf)
        return out
    inner = indent + "  "
    if isinstance(value, _Degrees):
        unique = {id(v): v for v in (value.default, *value.stored.values())}
        texts = {i: "".join(_json_parts(v, inner, [])) for i, v in unique.items()}
        stored = {k: texts[id(v)] for k, v in value.stored.items()}
        lines = (f'{inner}"', '": ', ",\n")
        out += "{\n", _degree_chunks(*value[:2], stored, texts[id(value.default)], lines)
    elif isinstance(value, dict):
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(f"{sep}{json.encoder.encode_basestring_ascii(key)}: ")
            _json_parts(item, inner, out)
            sep = ",\n" + inner
    else:
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = ",\n" + inner
    out.append(f"\n{indent}{']' if isinstance(value, list) else '}'}")
    return out


def _profile_tree(profile: HomologyProfile) -> dict:
    """The layout of `profile_to_json`.  Equal groups share one tree, found by
    their shape (free_rank, torsion), which hashes in C; None if not f.g."""
    dim, held = profile.dim, profile.groups
    shapes = {k: None if g is None else (g.free_rank, g.torsion) for k, g in held.items()}
    trees = {s: {"free_rank": s[0], "torsion": [*s[1]]} for s in {(0, ()), *shapes.values()} if s}
    groups = _Degrees(0, dim, {k: trees.get(s) for k, s in shapes.items()}, trees[0, ()])
    verdicts = _Degrees(0, dim, {k: False for k, s in shapes.items() if s is None}, True)
    return {"dim": dim, "groups": groups, "finitely_generated": verdicts}


def profile_to_json(profile: HomologyProfile) -> dict:
    """The profile as a JSON object, one entry per degree 0..dim in each map."""
    return _plain(_profile_tree(profile))


# the degrees 0..999, and "000" .. "999", the last three digits of every degree from 1000 up
_NAMES = tuple(map(str, range(1000)))
_LOW_DIGITS = tuple(f"{i:03d}" for i in range(1000))


def _degree_runs(start: int, stop: int, sep: str) -> Iterator[tuple[str, str]]:
    """``sep.join(map(str, range(start, stop)))`` in pieces that join by
    `sep`, one (head, body) per aligned block of 1000 degrees.  Every degree
    in [1000q, 1000q + 999] is a head ("" for q = 0, else str(q)) followed by
    an entry of a table (`_NAMES`, else `_LOW_DIGITS`), so a body is one
    join of a table slice: one Python step per block, not one str() per degree."""
    lo = start
    while lo < stop:
        q, a = divmod(lo, 1000)
        hi = min(stop, 1000 * (q + 1))
        head, names = (str(q), _LOW_DIGITS) if q else ("", _NAMES)
        yield head, (sep + head).join(names[a : hi - 1000 * q])
        lo = hi


def _degree_chunks(
    start: int, dim: int, stored: dict[int, str], default: str, lines: tuple[str, str, str]
) -> Iterator[str]:
    """The degree lines ``head + str(k) + mid + value`` for k = start..dim,
    each followed by `tail` but the last, where (head, mid, tail) = `lines`
    and value is stored[k] (keys ascending, in start..dim) or else default;
    nothing when start > dim.  Each stored degree is one chunk, and a run of
    default lines, joined by tail + head, a `_degree_runs` block at a time:
    its head and line end around its body, which is not copied again.  So a
    chunk holds at most 1000 degrees: 1000 lines where default is one line."""
    head, mid, tail = lines
    line_end = f"{mid}{default}{tail}"
    sep = f"{line_end}{head}"
    items = stored.items()
    if start <= dim and dim not in stored:  # the last degree ends the tail run
        items = chain(items, ((dim, default),))
    for k, value in items:
        for block_head, body in _degree_runs(start, k, sep):
            yield from (f"{head}{block_head}", body, line_end)
        yield f"{head}{k}{mid}{value}{tail if k < dim else ''}"
        start = k + 1


def profile_json_chunks(profile: HomologyProfile) -> Iterator[str]:
    """The text of `profile_json_text` in pieces of bounded size: the tree
    of `profile_to_json`, written by `_json_chunks`."""
    return _json_chunks(_profile_tree(profile))


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

    The maps are reduced top-down, d_dim first.  Each row that the
    elimination of d_(k+1) matched, a row cleared by one of its leading
    unit pivots, is a column of d_k that can go without changing d_k's
    Smith form (see `intlinalg._eliminate`), so d_k is reduced without it.

    >>> from polydepth.topology import EXAMPLE_COMPLEXES
    >>> render_profile(homology_of_complex(EXAMPLE_COMPLEXES["projective-plane"]))
    'H0 = Z\\nH1 = Z/2\\nH2 = 0'
    """
    from . import intlinalg

    # diagonals[k] is the nonzero Smith diagonal of d_k; d_0 and d_(dim+1)
    # are zero maps
    diagonals: list[tuple[int, ...]] = [()] * (complex_.dim + 2)
    drop: frozenset[int] = frozenset()
    for k in range(complex_.dim, 0, -1):
        diagonals[k], drop = intlinalg._eliminate(complex_.boundary[k - 1], drop)
    groups = {
        k: _homology_group(complex_.cells[k], len(diagonals[k]), diagonals[k + 1])
        for k in range(complex_.dim + 1)
    }
    return HomologyProfile(complex_.dim, groups)


def _fold(space: SpaceExpr, cover: bool = False) -> tuple[dict, dict, int]:
    """(free ranks by degree, torsion by degree as unsorted prime powers,
    dimension) of a space, or with `cover` of its universal cover: Smith
    form for an explicit complex, else integer sums and products."""
    if isinstance(space, Explicit):
        complex_ = space.complex
        if cover and not isinstance(space.pi1, Trivial):
            if space.cover is None:
                raise UnsupportedConstruction(
                    "explicit complex with nontrivial fundamental group needs a "
                    "user-supplied cover complex"
                )
            complex_ = space.cover
        groups, dim = homology_of_complex(complex_).groups, space.complex.dim
        above = [k for k in groups if k > dim]
        if above:
            raise ValueError(
                f"cover complex has homology in degree {above[0]}, above the "
                f"dimension {dim} of the complex it covers"
            )
        ranks = {k: g.free_rank for k, g in groups.items() if g.free_rank}
        return ranks, {k: [*g.torsion] for k, g in groups.items() if g.torsion}, dim
    if isinstance(space, Product):
        # Kunneth: H_n(X x Y) sums H_i(X) (x) H_j(Y) over i + j = n and
        # Tor(H_i(X), H_j(Y)) over i + j = n - 1, visiting only stored degrees
        folds, betti = [], 1
        for f in space.factors:
            folds.append(_fold(f, cover))
            if None in folds[-1][0].values():
                raise UnsupportedConstruction(
                    "wedge with infinite fundamental group and simply connected "
                    "parts inside a product: its cover is not a finite complex"
                )
        for f_ranks, _, _ in folds:
            betti *= sum(f_ranks.values())
            if betti > MAX_BETTI:
                raise UnsupportedConstruction(
                    "product homology has a total Betti number above "
                    f"10^{len(str(MAX_BETTI)) - 1}"
                )
        ranks, torsion, dim, pairs = {0: 1}, {}, 0, 0
        for f_ranks, f_torsion, f_dim in folds:
            dim += f_dim
            # RP^2 to the k has about 3^k / 2 summands, and the circle to
            # the k holds k + 1 degrees: bound a step before it runs
            held, met = sum(map(len, torsion.values())), sum(map(len, f_torsion.values()))
            most = held * (sum(f_ranks.values()) + 2 * met) + met * sum(ranks.values())
            if most > MAX_DIMENSION:
                raise UnsupportedConstruction(
                    f"product homology may need more than {MAX_DIMENSION} torsion summands"
                )
            pairs += (len(ranks) + len(torsion)) * (len(f_ranks) + len(f_torsion))
            if pairs > MAX_KUNNETH_PAIRS:
                raise UnsupportedConstruction(
                    f"product homology needs more than {MAX_KUNNETH_PAIRS} "
                    "Kunneth pairs of degrees"
                )
            out_ranks, out_torsion = {}, {}
            for i, r in ranks.items():
                for j, q in f_ranks.items():
                    out_ranks[i + j] = out_ranks.get(i + j, 0) + r * q
                for j, t in f_torsion.items():
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
        return ranks, torsion, dim
    if not isinstance(space, (Sphere, Wedge)):
        raise TypeError(f"not a SpaceExpr: {space!r}")
    if cover and isinstance(space, Wedge):
        return _wedge_cover(space)
    if cover and space.n == 1:
        # the circle is covered by the line, which is contractible
        return {0: 1}, {}, 1
    ranks, torsion = {0: 1}, {}
    return ranks, torsion, _add(space, ranks, torsion, 1, {})


def _add(space: SpaceExpr, ranks: dict, torsion: dict, times: int, folds: dict) -> int:
    """Add `times` copies of the reduced homology of `space`, H_0 torsion
    dropped, into the accumulators; the dimension.  A wedge of spheres
    only adds one count per dimension; any part but a sphere or wedge is
    folded once per object, kept in `folds` by id."""
    if isinstance(space, Sphere):
        ranks[space.n] = ranks.get(space.n, 0) + times
        return space.n
    if isinstance(space, Wedge):
        parts = space.parts
        if not _SPHERE_ONLY.issuperset(map(type, parts)):
            return max([_add(part, ranks, torsion, times, folds) for part in parts])
        dims = list(map(_sphere_n, parts))
        for n, copies in Counter(dims).items():
            ranks[n] = ranks.get(n, 0) + copies * times
        return max(dims)
    fold = folds.get(id(space))
    if fold is None:
        fold = folds[id(space)] = _fold(space)
    part_ranks, part_torsion, dim = fold
    for k, r in part_ranks.items():
        if k:
            ranks[k] = ranks.get(k, 0) + r * times
        elif r > 1:
            ranks[0] = ranks.get(0, 0) + (r - 1) * times
    for k, t in part_torsion.items():
        if k:
            torsion.setdefault(k, []).extend(t * times)
    return dim


def _profile(ranks: dict, torsion: dict, dim: int) -> HomologyProfile:
    """The profile of a `_fold`: its groups are built here, once per shape
    (free rank, torsion), which hashes in C, and degrees of one shape share it.
    A rank of None marks a degree that is not finitely generated, whatever
    its torsion."""
    shapes = {k: (ranks.get(k, 0), tuple(sorted(torsion.get(k, ())))) for k in {*ranks, *torsion}}
    groups = {s: None if s[0] is None else FgAbelianGroup(*s) for s in set(shapes.values())}
    return HomologyProfile(dim, {k: groups[shape] for k, shape in shapes.items()})


def homology(space: SpaceExpr) -> HomologyProfile:
    """Ordinary integral homology: Smith form for an explicit complex, else
    the integer fold of `_fold`, whose groups are built once at the end.

    >>> render_profile(homology(Sphere(2)))
    'H0 = Z\\nH1 = 0\\nH2 = Z'
    """
    if isinstance(space, Explicit):
        return homology_of_complex(space.complex)
    return _profile(*_fold(space))


def _top_free_rank(space: SpaceExpr) -> int:
    """The free rank of H_dim(space), dim its dimension.

    For an explicit complex it is c_dim - rank d_dim: there is no
    (dim+1)-cell, so H_dim = ker d_dim, a subgroup of the free group
    C_dim and so free, of rank c_dim - rank d_dim by rank-nullity.  Only
    d_dim is reduced; the maps below it play no part.  Any other space
    reads it from its integer `_fold`, with no profile built.

    >>> from polydepth.topology import EXAMPLE_COMPLEXES
    >>> _top_free_rank(Explicit(EXAMPLE_COMPLEXES["klein-bottle"], Trivial()))
    0
    >>> _top_free_rank(wedge(Sphere(1), Sphere(2), Sphere(2)))
    2
    """
    if isinstance(space, Explicit):
        from . import intlinalg

        complex_ = space.complex
        return complex_.cells[complex_.dim] - intlinalg.rank(complex_.boundary_map(complex_.dim))
    ranks, _, dim = _fold(space)
    return ranks.get(dim, 0)


def poincare_polynomial(space: SpaceExpr) -> list[int]:
    """Coefficient list: coefficient of x^k is the free rank of H_k (the
    Betti number b_k), for every k in 0..dim; torsion does not count, so
    RP^2 gives [1, 0, 0]."""
    ranks, _, dim = _fold(space)
    return [ranks.get(k, 0) for k in range(dim + 1)]


# pi1 of a circle and of a higher sphere
_FREE_1, _TRIVIAL = Free(1), Trivial()


def _split(parts: tuple[SpaceExpr, ...]) -> tuple[list, list]:
    """The parts of a wedge in one pass, each distinct object once, by
    identity (a read shares one `Sphere` per dimension): (others, rest), the
    parts that are not simply connected as (part, pi1, copies) and the
    simply connected ones as (part, copies).  A wedge of spheres is grouped
    by dimension instead, in C-level passes as `_add` folds it: one sphere
    per dimension, in order of first appearance, the circles the others."""
    if _SPHERE_ONLY.issuperset(map(type, parts)):
        dims = list(map(_sphere_n, parts))
        spheres = dict(zip(dims, parts))
        copies = Counter(dims)
        circles = copies.pop(1, 0)
        rest = [(spheres[n], c) for n, c in copies.items()]
        return ([(spheres[1], _FREE_1, circles)] if circles else []), rest
    objects = dict(zip(map(id, parts), parts))
    split = [(objects[i], pi1_of(objects[i]), c) for i, c in Counter(map(id, parts)).items()]
    rest = [(part, copies) for part, d, copies in split if isinstance(d, Trivial)]
    return [s for s in split if not isinstance(s[1], Trivial)], rest


def _wedge_cover(space: Wedge) -> tuple[dict, dict, int]:
    """The `_fold` of the cover by the wedge rule of the module docstring,
    at the top level and as a product factor alike.  When it is no finite
    complex, that is the fold of X~ with a rank of None (not f.g.) in each
    degree where the rest has reduced homology or a part past its first
    component.  A rest with neither adds no verdict."""
    others, rest = _split(space.parts)
    if not others:
        return _fold(space)
    part, d, copies = others[0]
    if (len(others) > 1 or copies > 1) and not all(isinstance(p, Sphere) for p, _, _ in others):
        raise UnsupportedConstruction(
            "wedge with several parts that are not simply connected: a cover "
            "rule exists only when they are all circles"
        )
    if isinstance(d, ElementaryAmenable) and not d.hirsch:
        raise UnsupportedConstruction("wedge part of Hirsch length 0: its order is unknown")
    if not (isinstance(d, Finite) or (isinstance(d, FgAbelian) and not d.group.free_rank)):
        ranks, torsion, dim = _fold(part, cover=True)
        if rest:
            # infinitely many copies of the rest
            rest_ranks, rest_torsion, folds = {}, {}, {}
            dim = max(dim, *(_add(p, rest_ranks, rest_torsion, 1, folds) for p, _ in rest))
            ranks.update(dict.fromkeys({*rest_ranks, *rest_torsion}))
        return ranks, torsion, dim
    n = d.group.order if isinstance(d, Finite) else math.prod(d.group.torsion)
    # n copies of each part of the rest, counted with its degrees and summands
    folds = {id(p): _fold(p) for p, _ in rest}
    held = sum(c * (1 + len(r) + sum(map(len, t.values())))
               for (_, c), (r, t, _) in zip(rest, folds.values()))
    if n * held > MAX_DIMENSION:
        raise UnsupportedConstruction(f"wedge cover: over {MAX_DIMENSION} parts and summands")
    ranks, torsion, dim = _fold(part, cover=True)
    if rest:
        # the wedge of X~ and the copies: H_0 is Z, then the copies' components
        ranks[0] = 1
        torsion.pop(0, None)
        dim = max(dim, *(_add(p, ranks, torsion, n * c, folds) for p, c in rest))
    return ranks, torsion, dim


def universal_cover_homology(space: SpaceExpr) -> HomologyProfile:
    """Homology of the universal cover: the profile of ``_fold(space,
    True)``, the one cover rule for every caller.  A wedge whose cover is
    not a finite complex gives H(X~) with its not-f.g. verdicts, which a
    product refuses in a factor (see the module docstring).

    >>> from polydepth.topology import EXAMPLE_COMPLEXES
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
    return _profile(*_fold(space, True))


def pi1_of(space: SpaceExpr) -> Pi1Descriptor:
    """Fundamental group over the supported constructions; combinations that
    leave the five descriptor shapes raise UnsupportedConstruction.  A product
    of finite groups whose order exceeds ``DEFAULT_SEARCH_CAP`` raises
    OrderExceedsCap before its table is built."""
    if isinstance(space, Sphere):
        return _FREE_1 if space.n == 1 else _TRIVIAL
    if isinstance(space, Explicit):
        return space.pi1
    if isinstance(space, Wedge):
        # van Kampen: a free product of free groups (Z counts), or of one group
        others, _ = _split(space.parts)
        ranks = [c * (d.rank if isinstance(d, Free) else int(d == _Z)) for _, d, c in others]
        if all(ranks):
            return free(sum(ranks))
        if len(others) == 1 and others[0][2] == 1:
            return others[0][1]
        raise UnsupportedConstruction("free product of the wedge parts' groups has no descriptor")
    if isinstance(space, Product):
        finite_groups = []
        abelian = TRIVIAL_GROUP
        free_ranks: list[int] = []
        for f in space.factors:
            d = pi1_of(f)
            if isinstance(d, Trivial):
                continue
            if isinstance(d, Free) and d.rank > 1:
                free_ranks.append(d.rank)
            elif isinstance(d, (Free, FgAbelian)):
                abelian = direct_sum(abelian, _Z.group if isinstance(d, Free) else d.group)
            elif isinstance(d, Finite):
                finite_groups.append(d.group)
            else:
                raise UnsupportedConstruction(
                    "product factor has a fundamental group outside the "
                    "supported descriptor shapes"
                )
        if bool(finite_groups) + (not abelian.is_trivial) + len(free_ranks) > 1:
            raise UnsupportedConstruction(
                "product mixes fundamental-group shapes with no descriptor "
                "for their direct product"
            )
        if free_ranks:
            return Free(free_ranks[0])
        if finite_groups:
            if len(finite_groups) == 1:
                return Finite(finite_groups[0])
            from .finitegroup import _check_cap, direct_product

            # the cap is the contract: no search takes an order above it, so
            # the product table (order^2 entries) is not built for one
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
    a complex with no 0-cell and maps that do not fit the cell counts or do
    not compose to zero included, raises ValueError."""
    from . import intlinalg

    _fields(obj, "chain complex", ("cells",), ("boundary",), lists=("cells", "boundary"))
    cells = [_check_int(c, "cell counts") for c in obj["cells"]]
    if not cells:
        raise ValueError("cells list must be nonempty")
    if cells[0] == 0:  # a CW complex of a nonempty space has a vertex
        raise ValueError("a complex needs a 0-cell: cells[0] is 0")
    raw = obj.get("boundary", [])
    if len(raw) != len(cells) - 1:
        raise ValueError(
            f"need {len(cells) - 1} boundary matrices for {len(cells)} cell "
            f"counts, got {len(raw)}"
        )
    boundary = [
        intlinalg.IntMatrix.from_rows(rows, cols=cells[k + 1]) for k, rows in enumerate(raw)
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


_SPACE_TAGS, _SPACE_LISTS = ("sphere", "wedge", "product", "explicit"), ("wedge", "product")


def space_from_json(obj) -> SpaceExpr:
    """Read a space expression: an object with one tag, ``sphere`` (a JSON
    integer), ``wedge`` or ``product`` (a list of spaces) or ``explicit``.
    Anything malformed raises ValueError, and so does a list nested inside
    ``MAX_NESTING`` others; a Cayley table above ``DEFAULT_SEARCH_CAP``,
    which no search takes, raises OrderExceedsCap before its rows are read,
    so it exits 2 even when it is malformed.  Once read, a space above
    ``MAX_DIMENSION`` raises DimensionExceedsCap.

    A list that `_sphere_dims` reads as plain sphere leaves gets one
    ``Sphere`` per new dimension, built in order of first appearance, so a
    dimension below 1 is refused as it would be node by node."""
    spheres: dict[int, Sphere] = {}

    def read(obj, depth: int) -> SpaceExpr:
        # depth: the wedge and product lists around obj
        tag, value = _one_of(obj, "space", _SPACE_TAGS, _SPACE_LISTS)
        if tag == "sphere":
            n = _check_int(value, "sphere dimension")
            return spheres.get(n) or spheres.setdefault(n, Sphere(n))
        if tag != "explicit":
            if depth == MAX_NESTING:
                raise ValueError(
                    f"space nested more than {MAX_NESTING} wedge and product lists deep"
                )
            dims = _sphere_dims(value)
            if dims is None:
                parts = map(read, value, repeat(depth + 1))
            else:
                for n in dict.fromkeys(dims):
                    if n not in spheres:
                        spheres[n] = Sphere(n)
                parts = map(spheres.__getitem__, dims)
            return wedge(*parts) if tag == "wedge" else product(*parts)
        body = _fields(value, "explicit space", ("complex", "pi1"), ("cover",))
        cover = complex_from_json(body["cover"]) if "cover" in body else None
        complex_ = complex_from_json(body["complex"])
        return Explicit(complex_, pi1_from_json(body["pi1"], cap=DEFAULT_SEARCH_CAP), cover)

    space = read(obj, 0)
    if (dim := dim_of(space)) > MAX_DIMENSION:
        raise DimensionExceedsCap(dim, MAX_DIMENSION)
    return space


def _cc(cells: tuple[int, ...], *boundary) -> ChainComplex:
    return ChainComplex(dim=len(cells) - 1, boundary=tuple(boundary), cells=cells)


def _example_complexes() -> dict[str, ChainComplex]:
    from .intlinalg import IntMatrix

    return {
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


def __getattr__(name: str):
    """``EXAMPLE_COMPLEXES``, the named complexes of the docs and the
    ``euler`` suite, is built on first access (PEP 562), so that a space
    with no explicit complex never loads `intlinalg`; it is then a module
    global like any other."""
    if name != "EXAMPLE_COMPLEXES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    examples = globals()["EXAMPLE_COMPLEXES"] = _example_complexes()
    return examples
