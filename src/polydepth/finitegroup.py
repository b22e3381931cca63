"""Finite groups as Cayley tables: subgroups, complements, retracts, and the
three splitting-series lengths with explicit witnesses.

The three lengths come from three different searches:

* ``n1`` — longest chain from the whole group down to the trivial subgroup in
  which every term is normal in the whole group and has some complement there
  (the complement itself need not be normal);
* ``n2`` — longest strictly decreasing chain in which every term is a retract
  of the whole group (no normality required between consecutive terms);
* ``n3`` — recursive: one plus the maximum of ``n3`` over proper retracts,
  where each recursion step works inside the subgroup with the operation
  restricted to it.

They are provably equal for finite groups; computing them independently and
comparing is the point (see ``verify_prop32``).  Witness chains are chosen by
a fixed deterministic ordering (larger subgroups first, then smaller member
mask); lengths are the contract, witnesses are evidence.

Subgroups are bitmasks over element indices, so all the searches are integer
arithmetic on Python ints.  Each group builds its subgroup lattice once, by
cyclic extension (Neubüser 1960) with one canonical parent per subgroup
(McKay 1998): the least generators x_0, x_1, ... of the cyclic subgroups,
larger subgroups first, give each subgroup K one canonical sequence, the
x_i in K that `_span` keeps, and K is built only as the join of the span H
of that sequence without its last term x_i with <x_i>.  So each subgroup
is built exactly once, and a candidate <H, x_i> that would hold some x_j
with j < i outside H is refused, many of them from the left coset x_i H
alone, before any join (the proof is in ``_lattice``).  All three
searches read that one lattice, which is indexed by order.  The ``n3``
recursion reads the subgroups of each retract off the shared lattice,
since the subgroups of H are exactly the subgroups of G inside H.

The chain searches of ``n1``/``n2`` and the ``n3`` recursion read only the
orders that can hold a term and stop early on a bound, both by Lagrange.
Below a subgroup H they scan the subgroups of each proper divisor of |H|,
larger orders first: no subgroup of another order lies in H.  A strictly
decreasing chain of subgroups from H down to 1 has at most Omega(|H|)
steps, where Omega counts prime factors with multiplicity (each index is
at least a prime).  An order whose bound cannot strictly beat the best
chain so far is skipped, and a scan stops once its best chain meets the
bound.  ``n1``/``n2`` keep their candidates in buckets by order for this.
The scan order and the strict comparison are those of a full scan, so the
witnesses are the same.

One function, ``_complement``, decides whether H has a complement (or a
normal complement) in a subgroup A: it looks only among the subgroups of
order |A|/|H| and takes the least mask, so witnesses do not depend on which
search asks.  ``n1``, ``n2``, ``n3``'s retract filter and ``is_retract``
all call it.  One predicate, ``_normal_in``, decides whether K is normal in
a subgroup A: K = <T> is normal in A = <S> exactly when sts^-1 lies in K
for every s in S and t in T, so it conjugates a generating set of K by one
of A only and stops at the first conjugate that leaves K.  ``is_normal``
asks it with A = G.  The searches ask it through ``_normal_subgroups``,
which keeps per group, for each ambient A and order, the lattice's
subgroups of that order that are normal in A: ``n1`` walks those of G, and
``_complement`` reads a normal complement off them, so each subgroup's
normality in G is decided once for ``n1``, ``n2`` and ``is_retract``
together, and in a retract once for the whole ``n3`` recursion.  Each group
caches its lattice, indexed by order, those normal subgroups, and one
generating set per subgroup in the lattice: the lattice builds each
subgroup K as <H, x> and records K's canonical sequence, H's followed by x.
One function, ``_span``, says which subgroup a list of elements generates:
it keeps each element outside the span of those kept before it and joins it
on with ``_join_cyclic``, and what it keeps depends on the table alone.
Light's test in the constructor checks what it keeps of the whole table, a
subgroup outside the lattice takes that as its generating set, and
``subgroup_from_members`` accepts a member set that is its own span, the
one subgroup check (``_is_subgroup``) that ``is_normal``, ``is_complement``
and ``is_retract`` also ask before they answer.

One function reads no lattice: ``primary_decomposition`` gives a table
that commutes as a direct sum of prime-power cyclic groups, from the
number of elements of each p-power order, so its splitting length is the
summand count of ``abelian.sl_abelian``.  Only ``depth.sl_of`` asks it;
the three searches, ``verify_prop32`` and the ``sl`` command's witness
chain stay on the lattice.
"""

from __future__ import annotations

from collections import Counter
from functools import total_ordering
from itertools import product
from math import prod
from operator import itemgetter
from typing import Iterable

from .abelian import FgAbelianGroup, _factor
from .errors import (
    _DIGITS_AND_SPACE,
    DEFAULT_SEARCH_CAP,
    OrderExceedsCap,
    Record,
    _as_list,
    _check_token,
    _int_row,
    _set,
)


class FiniteGroup:
    """Group on elements 0..n-1 given by its multiplication table.

    Element 0 is the identity.  The constructor checks the full group axioms
    (Latin square, identity, associativity), so a ``FiniteGroup`` that exists
    is a group; downstream searches never re-validate.  Associativity is
    checked by Light's test on a set that generates the table, O(n^2 log n)
    for a group.  Tables that are groups by construction (a subgroup's
    restriction, a direct product) come in through the private ``_trusted``,
    which skips the axiom check.
    """

    __slots__ = (
        "order",
        "table",
        "name",
        "_inv",
        "_generators",
        "_masks_by_order",
        "_normal_by_ambient",
    )

    def __init__(self, table: Iterable[Iterable[int]], name: str | None = None):
        tbl = tuple(
            tuple(_int_row(_as_list(row, "Cayley table rows"), "Cayley table entries"))
            for row in table
        )
        n = len(tbl)
        if n == 0:
            raise ValueError("empty Cayley table")
        identity = tuple(range(n))
        elements = frozenset(identity)
        for i, row in enumerate(tbl):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if not elements.issuperset(row):
                x = next(x for x in row if x not in elements)
                raise ValueError(f"entry {x} out of range in row {i}")
        if tbl[0] != identity or tuple(row[0] for row in tbl) != identity:
            raise ValueError("element 0 does not act as a two-sided identity")
        for a, row in enumerate(tbl):
            if len(set(row)) != n:
                raise ValueError(f"row {a} is not a permutation")
        for b, column in enumerate(zip(*tbl)):
            if len(set(column)) != n:
                raise ValueError(f"column {b} is not a permutation")
        # Light's test: the b with (ab)c = a(bc) for all a, c are closed
        # under the operation, and the span of what `_span` keeps is made of
        # table products of those elements whatever the tests find, so the
        # table is associative once they pass (at most log2(n) for a group).
        for b in _span(tbl, range(n))[0]:
            tb = tbl[b]
            # row a of each side: a(bc) and (ab)c over all c
            if list(map(itemgetter(*tb), tbl)) != [tbl[ta[b]] for ta in tbl]:
                a, c = next(
                    (a, c)
                    for a, ta in enumerate(tbl)
                    for c in range(n)
                    if tbl[ta[b]][c] != ta[tb[c]]
                )
                raise ValueError(f"associativity fails at ({a},{b},{c})")
        self._store(tbl, name)

    @classmethod
    def _trusted(cls, table: tuple[tuple[int, ...], ...], name: str | None = None) -> FiniteGroup:
        """A group from a table of ints that is a group by construction, such
        as a subgroup's restricted table or a direct product of groups: the
        axiom check is skipped."""
        g = cls.__new__(cls)
        g._store(table, name)
        return g

    def _store(self, tbl: tuple[tuple[int, ...], ...], name: str | None) -> None:
        n = len(tbl)
        self.order = n
        self.table = tbl
        self.name = name
        self._inv = tuple(tbl[a].index(0) for a in range(n))
        self._generators: dict[int, tuple[int, ...]] = {}
        self._masks_by_order: dict[int, list[int]] | None = None
        self._normal_by_ambient: dict[tuple[int, int], list[int]] = {}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def element_order(self, a: int) -> int:
        return _cyclic_mask(self, a).bit_count()

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        label = self.name or f"order-{self.order} group"
        return f"FiniteGroup({label})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@total_ordering
class Subgroup(Record):
    """Subgroup of some fixed ambient group, stored as a member bitmask."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if mask < 1 or not mask & 1:
            raise ValueError("a subgroup must contain the identity (bit 0)")
        _set(self, "mask", mask)

    def __lt__(self, other):
        return self.mask < other.mask if other.__class__ is Subgroup else NotImplemented

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def contains(self, a: int) -> bool:
        return bool((self.mask >> a) & 1)

    @classmethod
    def from_members(cls, members: Iterable[int]) -> Subgroup:
        mask = 0
        for a in members:
            mask |= 1 << a
        return cls(mask)


class SeriesResult(Record):
    """A maximal series: its length, the chain of subgroups from the whole
    group down to the trivial one, and one witness complement per term
    (complements taken in the ambient group)."""

    __slots__ = ("length", "witness", "complements")

    def __init__(
        self, length: int, witness: tuple[Subgroup, ...], complements: tuple[Subgroup, ...]
    ):
        if length != len(witness) - 1:
            raise ValueError(
                f"series length {length} does not match a witness of {len(witness)} terms"
            )
        if len(complements) != len(witness):
            raise ValueError(
                f"{len(complements)} complements for a witness of {len(witness)} terms"
            )
        _set(self, "length", length)
        _set(self, "witness", witness)
        _set(self, "complements", complements)


def _check_cap(order: int, cap: int | None) -> None:
    """The one rule for the search cap: an order above `cap` raises
    OrderExceedsCap, whatever else is wrong with the input; None is no cap."""
    if cap is not None and order > cap:
        raise OrderExceedsCap(order, cap)


def _cyclic_mask(g: FiniteGroup, x: int) -> int:
    """Mask of the cyclic subgroup <x>."""
    table = g.table
    mask, y = 1, x
    while y:
        mask |= 1 << y
        y = table[y][x]
    return mask


def _cyclic_generators(g: FiniteGroup) -> list[int]:
    """One generator x per nontrivial cyclic subgroup <x>, the least one,
    larger subgroups first and then by x."""
    by_mask: dict[int, int] = {}
    for x in range(1, g.order):
        by_mask.setdefault(_cyclic_mask(g, x), x)
    return [x for _, x in sorted((-m.bit_count(), x) for m, x in by_mask.items())]


def _join_cyclic(
    table: tuple[tuple[int, ...], ...], h: int, h_members: list[int], x: int
) -> tuple[int, list[int]]:
    """Mask and member list of <H, x>, the members in no set order.  The
    set grows by whole left cosets of H, so it is closed under right
    multiplication by H; closing it under right multiplication by x as well
    makes it the generated subgroup."""
    mask, members = h, list(h_members)
    for a in members:  # grows while it is walked
        b = table[a][x]
        if not (mask >> b) & 1:
            row = table[b]
            for c in h_members:
                coset_elem = row[c]
                mask |= 1 << coset_elem
                members.append(coset_elem)
    return mask, members


def _span(
    table: tuple[tuple[int, ...], ...], elements: Iterable[int]
) -> tuple[tuple[int, ...], int]:
    """The elements, in order, outside the subgroup generated by those kept
    before them, and the mask of that subgroup.  The span is made of table
    products of kept elements, and what is kept depends on the table alone."""
    kept, span, members = [], 1, [0]
    for x in elements:
        if not (span >> x) & 1:
            span, members = _join_cyclic(table, span, members, x)
            kept.append(x)
    return tuple(kept), span


def _lattice(g: FiniteGroup) -> dict[int, list[int]]:
    """Every subgroup mask of G by order, orders ascending and each list by
    mask, built once per group by cyclic extension (Neubüser) in which each
    subgroup is built exactly once, from its canonical parent (McKay's
    canonical augmentation).

    Let x_0, x_1, ... be the least generators of the nontrivial cyclic
    subgroups, larger subgroups first (`_cyclic_generators`).  The
    canonical sequence of a subgroup K is what `_span` keeps of the x_i in
    K, in order; it spans K.  A cyclic K's sequence is then its one
    generator, which keeps short the generating sets recorded here, and
    `_normal_in` conjugates those.  The search starts at the trivial
    subgroup, whose sequence is empty.  At a subgroup H whose sequence ends
    before x_s, it takes each x = x_i with i >= s, joins K = <H, x>, and
    accepts K when every x_j in K with j < i lies in H.  An accepted K is
    recorded in `g._generators` with H's sequence followed by x, and the
    search goes on from K at x_i+1.

    * Uniqueness: below x_i an accepted K holds only the x_j of H, which
      span H, so `_span` keeps H's sequence and then x: that is K's
      canonical sequence.  It names H and x, so K is built once.
    * Completeness: take any K other than 1, and let x_i end its canonical
      sequence and H be the span of the terms before it.  Every x_j in K
      with j < i is in the span H of the terms kept before x_i, so H holds
      the same x_j below x_i and K's sequence without x_i is H's canonical
      sequence.  By induction on the length, H is reached with s <= i, and
      from there x_i passes every test.
    * Skips lose nothing.  Since <H, x> = <H, xh> for every h in H, the
      search reads the left coset xH before any join, row x of the table
      at H's members through one `itemgetter` per H (C-level passes), and
      drops the x_j in it from those left to try.  An x in H gives K = H, no
      new subgroup.  If x lies in a coset x_j H tried before, or xH holds
      some x_j with j < i, then K holds such an x_j outside H, and the
      acceptance test would refuse K anyway."""
    if g._masks_by_order is None:
        table = g.table
        gens = g._generators
        cyclics = _cyclic_generators(g)
        # x_i is bit i of `rank`, so a sum of ranks names a set of the x_i;
        # below[i] is the member mask of x_0 .. x_i-1
        rank = [0] * g.order
        below = [0]
        for i, x in enumerate(cyclics):
            rank[x] = 1 << i
            below.append(below[i] | 1 << x)
        rank_of = rank.__getitem__
        every = (1 << len(cyclics)) - 1
        masks = [1]
        # (H, its members, its sequence, the x_i left to try); only sums
        # and joins read the members, so their order does not matter
        todo: list[tuple[int, list[int], tuple[int, ...], int]] = [(1, [0], (), every)]
        while todo:
            h, h_members, h_gens, untried = todo.pop()
            untried &= ~sum(map(rank_of, h_members))
            # row x of the table read at H's members is the coset xH; the
            # trivial H gives {x}, whose rank is x's own bit
            pick = itemgetter(*h_members) if h != 1 else None
            while untried:
                low = untried & -untried
                i = low.bit_length() - 1
                x = cyclics[i]
                coset = sum(map(rank_of, pick(table[x]))) if pick else low
                untried &= ~coset
                if coset & (low - 1):  # xH holds some x_j with j < i
                    continue
                k, k_members = _join_cyclic(table, h, h_members, x)
                if not (k ^ h) & below[i]:  # K \ H holds no x_j with j < i
                    k_gens = gens[k] = h_gens + (x,)
                    masks.append(k)
                    todo.append((k, k_members, k_gens, every & -(low << 1)))  # x_j, j > i
        by_order: dict[int, list[int]] = {}
        for m in sorted(masks, key=lambda m: (m.bit_count(), m)):
            by_order.setdefault(m.bit_count(), []).append(m)
        g._masks_by_order = by_order
    return g._masks_by_order


def _generating_set(g: FiniteGroup, mask: int) -> tuple[int, ...]:
    """A generating set of the subgroup `mask`: the one the lattice recorded,
    or, for a mask outside the lattice (the trivial subgroup, or a subgroup
    of a group whose lattice was never built), the members that `_span`
    keeps in index order, cached per group."""
    gens = g._generators.get(mask)
    if gens is None:
        gens = g._generators[mask] = _span(g.table, _bits(mask))[0]
    return gens


def _normal_in(g: FiniteGroup, k: int, ambient: int) -> bool:
    """K is normal in the subgroup A = `ambient` exactly when aka^-1 lies in
    K for every a in a generating set of A and k in one of K; stops at the
    first conjugate outside K."""
    table = g.table
    inv = g._inv
    k_gens = _generating_set(g, k)
    for a in _generating_set(g, ambient):
        ai = inv[a]
        ta = table[a]
        for x in k_gens:
            if not (k >> table[ta[x]][ai]) & 1:
                return False
    return True


def all_subgroups(g: FiniteGroup, cap: int = DEFAULT_SEARCH_CAP) -> list[Subgroup]:
    """Complete subgroup list, sorted by (order, member mask)."""
    _check_cap(g.order, cap)
    return [Subgroup(m) for masks in _lattice(g).values() for m in masks]


class _OutsideGroup(ValueError, IndexError):
    """A member set names an element index at or past the group's order: a
    malformed input, and an index past the end of the Cayley table."""


def _is_subgroup(g: FiniteGroup, mask: int) -> bool:
    """Whether the member set `mask` is a subgroup of G, which it is exactly
    when it is its own `_span`.  A mask that names an element at or past
    |G| is no subset of G, and raises ValueError."""
    if mask >> g.order:
        raise _OutsideGroup(
            f"member set holds element {mask.bit_length() - 1}, "
            f"outside a group of order {g.order}"
        )
    return _span(g.table, _bits(mask))[1] == mask


def subgroup_from_members(g: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Validated construction: the member set must already be a subgroup of
    G (see `_is_subgroup`), else ValueError."""
    sub = Subgroup.from_members(members)
    if not _is_subgroup(g, sub.mask):
        raise ValueError("member set is not closed under the group operation")
    return sub


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """Whether H is a normal subgroup of G (False for a member set that is
    no subgroup)."""
    return _is_subgroup(g, h.mask) and _normal_in(g, h.mask, (1 << g.order) - 1)


def is_complement(g: FiniteGroup, h: Subgroup, k: Subgroup) -> bool:
    """K complements H when both are subgroups, they meet only in the
    identity and HK is all of G (equivalently |H| * |K| = |G| once the
    intersection is trivial)."""
    both = _is_subgroup(g, h.mask) & _is_subgroup(g, k.mask)  # `&`: check both
    return both and (h.mask & k.mask) == 1 and h.order * k.order == g.order


def is_retract(g: FiniteGroup, h: Subgroup, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """A retract is a subgroup with a normal complement."""
    _check_cap(g.order, cap)
    return _is_subgroup(g, h.mask) and (
        _complement(g, (1 << g.order) - 1, h.mask, normal=True) is not None
    )


def restrict_to_subgroup(
    g: FiniteGroup, sub: Subgroup, name: str | None = None
) -> FiniteGroup:
    """The subgroup as a standalone group; element order follows member order,
    so the identity stays at index 0.  A product that leaves the member set
    raises KeyError, so a table that gets built is that of a subgroup and is
    not checked again."""
    members = sub.members()
    index = {glob: loc for loc, glob in enumerate(members)}
    table = tuple(tuple(index[g.table[a][b]] for b in members) for a in members)
    return FiniteGroup._trusted(table, name=name)


def direct_product(*groups: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """The direct product; element (x1, ..., xk) has the mixed-radix index
    of its coordinates, the first factor most significant, which is the
    lexicographic order in which itertools.product lists the pairs of rows
    and of entries.  A product of groups is a group, so its table is not
    checked again."""
    if not groups:
        raise ValueError("direct product needs at least one factor")
    table = groups[0].table
    for g in groups[1:]:
        k = g.order
        table = tuple(
            tuple(x * k + y for x, y in product(ra, rb)) for ra, rb in product(table, g.table)
        )
    auto = "x".join(g.name or f"G{g.order}" for g in groups)
    return FiniteGroup._trusted(table, name=name or auto)


def _normal_subgroups(g: FiniteGroup, ambient: int, order: int) -> list[int]:
    """The lattice's masks of the given order that lie in the subgroup
    A = `ambient` and are normal in it, in lattice order.  Each (A, order)
    is decided once per group, so `_normal_in` meets each subgroup at most
    once per ambient."""
    key = (ambient, order)
    found = g._normal_by_ambient.get(key)
    if found is None:
        found = g._normal_by_ambient[key] = [
            k for k in _lattice(g).get(order, ()) if k & ambient == k and _normal_in(g, k, ambient)
        ]
    return found


def _complement(g: FiniteGroup, ambient: int, h: int, normal: bool) -> int | None:
    """The least mask of a complement of H in the subgroup A = `ambient`: a
    subgroup of A of order |A|/|H| that meets H trivially and, when `normal`
    is set, is normal in A.  None when H has no such complement.  The
    candidates are the normal subgroups of A of that order that
    `_normal_subgroups` keeps, or, without `normal`, the lattice's
    subgroups of that order inside A; both lists are in lattice order, so
    the first that meets H trivially is the least complement."""
    # every caller passes a subgroup H of A (`is_retract` asks
    # `_is_subgroup` first), so |H| divides |A| by Lagrange
    order = ambient.bit_count() // h.bit_count()
    cands = _normal_subgroups(g, ambient, order) if normal else _lattice(g).get(order, ())
    for k in cands:
        if k & h == 1 and k & ambient == k:
            return k
    return None


def _omega(n: int) -> int:
    """The number of prime factors of n, counted with multiplicity.  A
    strictly decreasing chain of subgroups from H down to 1 has at most
    Omega(|H|) steps: by Lagrange each index is at least a prime, and the
    indices multiply to |H|."""
    return sum(e for _, e in _factor(n))


def _longest_chain(full: int, cands: dict[int, int]) -> SeriesResult:
    """Longest strictly decreasing chain (by inclusion) from `full` to the
    trivial mask through keys of `cands`, with the complement witness that
    `cands` holds for each term.  Both endpoints are always candidates, and
    every candidate is a subgroup.

    The candidates are kept in buckets by order, each bucket by mask.  Below
    a subgroup `mask` the scan reads only the buckets of the proper divisors
    of |mask|, larger orders first: by Lagrange no subgroup of another order
    lies in `mask`.  It skips a bucket whose Omega bound cannot beat the
    best chain so far, leaves it once the best is beyond that bound, and
    stops once the best reaches the bound of |mask|.  That is the order
    (larger subgroups first, then by mask) and the strict comparison of a
    full scan, so the first longest chain in that order wins, as there."""
    buckets: dict[int, list[int]] = {}
    for m in sorted(cands):
        buckets.setdefault(m.bit_count(), []).append(m)
    # order -> (its Omega bound, [(Omega bound, masks) of each proper
    # divisor's bucket, larger orders first])
    orders = sorted(buckets, reverse=True)
    omega = {k: _omega(k) for k in orders}
    below = {
        k: (omega[k], [(omega[d], buckets[d]) for d in orders if d < k and not k % d])
        for k in orders
    }
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def down(mask: int) -> tuple[int, tuple[int, ...]]:
        if mask == 1:
            return 0, (1,)
        hit = memo.get(mask)
        if hit is not None:
            return hit
        most, divisors = below[mask.bit_count()]
        best_len = -1
        best_chain: tuple[int, ...] = ()
        for bound, masks in divisors:
            if bound < best_len:
                continue
            for c in masks:
                if c & mask == c:
                    length, chain = down(c)
                    if length + 1 > best_len:
                        best_len = length + 1
                        best_chain = (mask,) + chain
                        if best_len > bound:  # no later mask of this order beats it
                            break
            if best_len == most:
                break
        memo[mask] = (best_len, best_chain)
        return memo[mask]

    length, chain = down(full)
    return SeriesResult(
        length=length,
        witness=tuple(Subgroup(m) for m in chain),
        complements=tuple(Subgroup(cands[m]) for m in chain),
    )


def n1(g: FiniteGroup, cap: int = DEFAULT_SEARCH_CAP) -> SeriesResult:
    """Longest series of subgroups normal in G, each with some complement in G.

    >>> zmod6 = FiniteGroup([[ (a + b) % 6 for b in range(6)] for a in range(6)])
    >>> n1(zmod6).length
    2
    """
    _check_cap(g.order, cap)
    full = (1 << g.order) - 1
    cands: dict[int, int] = {}
    for order in _lattice(g):
        for s in _normal_subgroups(g, full, order):
            k = _complement(g, full, s, normal=False)
            if k is not None:
                cands[s] = k
    return _longest_chain(full, cands)


def n2(g: FiniteGroup, cap: int = DEFAULT_SEARCH_CAP) -> SeriesResult:
    """Longest strictly decreasing chain of retracts of G; the stored
    complement witnesses are the normal complements."""
    _check_cap(g.order, cap)
    full = (1 << g.order) - 1
    cands: dict[int, int] = {}
    for masks in _lattice(g).values():
        for s in masks:
            k = _complement(g, full, s, normal=True)
            if k is not None:
                cands[s] = k
    return _longest_chain(full, cands)


def _n3_chain(g: FiniteGroup, cap: int) -> tuple[int, tuple[int, ...]]:
    """n3 with its chain.  The proper retracts of each subgroup H are read
    off the shared lattice (the subgroups of H are the subgroups of G inside
    H), larger first and then by mask, with the Omega bound of
    ``_longest_chain``: a subgroup whose bound cannot beat the best so far
    is not tested for a normal complement.  A subgroup R of H is a retract
    when `_complement` finds one among the normal subgroups of H of order
    |H|/|R|, which are decided once per H and order for the whole
    recursion, and kept with the group."""
    _check_cap(g.order, cap)
    by_order = _lattice(g)
    omega = {k: _omega(k) for k in by_order}
    orders = sorted(by_order, reverse=True)
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def rec(mask: int) -> tuple[int, tuple[int, ...]]:
        if mask == 1:
            return 0, (1,)
        hit = memo.get(mask)
        if hit is not None:
            return hit
        size = mask.bit_count()
        most = omega[size] - 1
        best_len = -1
        best_chain: tuple[int, ...] = ()
        for k in orders:
            # once best_len is `most`, every proper order fails the bound
            if k >= size or size % k or omega[k] <= best_len:
                continue
            for r in by_order[k]:
                if r & mask == r and _complement(g, mask, r, normal=True) is not None:
                    length, chain = rec(r)
                    if length > best_len:
                        best_len = length
                        best_chain = chain
                        if best_len == most:
                            break
        result = (1 + best_len, (mask,) + best_chain)
        memo[mask] = result
        return result

    return rec((1 << g.order) - 1)


def n3(g: FiniteGroup, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Recursive length: 0 for the trivial group, else one plus the maximum
    over proper retracts, with retracts recomputed inside each subgroup
    (its subgroups read off G's lattice)."""
    return _n3_chain(g, cap)[0]


class Prop32Report(Record):
    """The three lengths computed independently, with witnesses."""

    __slots__ = ("order", "name", "n1", "n2", "n3", "n3_chain")

    def __init__(
        self, order: int, name: str | None, n1: SeriesResult, n2: SeriesResult, n3: int,
        n3_chain: tuple[Subgroup, ...],
    ):
        _set(self, "order", order)
        _set(self, "name", name)
        _set(self, "n1", n1)
        _set(self, "n2", n2)
        _set(self, "n3", n3)
        _set(self, "n3_chain", n3_chain)

    @property
    def equal(self) -> bool:
        return self.n1.length == self.n2.length == self.n3

    @property
    def value(self) -> int:
        return self.n1.length


def verify_prop32(g: FiniteGroup, cap: int = DEFAULT_SEARCH_CAP) -> Prop32Report:
    """Compute n1, n2, n3 by their separate searches and report whether they
    agree.  Disagreement means a bug (or a counterexample); callers must
    surface it loudly rather than picking one value."""
    r1 = n1(g, cap)
    r2 = n2(g, cap)
    v3, chain = _n3_chain(g, cap)
    return Prop32Report(
        order=g.order,
        name=g.name,
        n1=r1,
        n2=r2,
        n3=v3,
        n3_chain=tuple(Subgroup(m) for m in chain),
    )


def primary_decomposition(g: FiniteGroup) -> FgAbelianGroup | None:
    """G as a direct sum of prime-power cyclic groups when its table
    commutes, else None.  No subgroup is enumerated.  A finite abelian G
    whose p-part is Z/p^l_1 + ... + Z/p^l_r has c_j = p^s_j elements x with
    x^(p^j) = 1, where s_j = min(l_1, j) + ... + min(l_r, j), so
    s_j - s_(j-1) counts the l_i that are at least j, and the l_i follow
    (Rotman, *An Introduction to the Theory of Groups*, ch. 6).  The counts
    come from element orders, one `_cyclic_mask` per element.

    A table that commutes but is no group, which only ``_trusted`` admits,
    can give counts of no such form: ValueError, also under ``python -O``,
    unless every c_j is a power of p and the summands multiply to |G|.

    >>> zmod12 = FiniteGroup([[(a + b) % 12 for b in range(12)] for a in range(12)])
    >>> primary_decomposition(zmod12)
    FgAbelianGroup(free_rank=0, torsion=(3, 4))
    """
    table = g.table
    if table != tuple(zip(*table)):
        return None
    by_order = Counter(_cyclic_mask(g, x).bit_count() for x in range(g.order))
    torsion: list[int] = []
    for p, e in _factor(g.order):
        # s[j] = log_p c_j for j = 0 .. e; only the identity has order 1
        count, s = 1, [0]
        for j in range(1, e + 1):
            count += by_order[p**j]
            power, log = count, 0
            while power % p == 0:
                power //= p
                log += 1
            if power != 1:
                raise ValueError(
                    f"not an abelian group: {count} elements have order dividing {p**j}"
                )
            s.append(log)
        # at_least[j - 1] counts the l_i >= j
        at_least = [b - a for a, b in zip(s, s[1:])] + [0]
        for j in range(1, e + 1):
            torsion += [p**j] * (at_least[j - 1] - at_least[j])
    if prod(torsion) != g.order:
        raise ValueError(
            f"not an abelian group: summands {sorted(torsion)} do not multiply to {g.order}"
        )
    return FgAbelianGroup(0, tuple(sorted(torsion)))


def describe_subgroup(g: FiniteGroup, sub: Subgroup) -> str:
    """Short structural label: "1" for trivial, the group's name (or "Zn" /
    "Gn") for the whole group, "Zk" for cyclic proper subgroups, "Hk" for
    the rest.  Used in witness renderings like "Z6>Z3>1"."""
    if sub.order == 1:
        return "1"
    is_cyclic = any(_cyclic_mask(g, x) == sub.mask for x in sub.members())
    if sub.order == g.order:
        if g.name:
            return g.name
        return f"Z{g.order}" if is_cyclic else f"G{g.order}"
    return f"Z{sub.order}" if is_cyclic else f"H{sub.order}"


def render_series(g: FiniteGroup, series: SeriesResult) -> str:
    return ">".join(describe_subgroup(g, s) for s in series.witness)


def parse_cayley_table(
    text: str, name: str | None = None, cap: int | None = None
) -> FiniteGroup:
    """Cayley-table text format: the order n on the first line, then n lines
    of n whitespace-separated element indices; index 0 is the identity.
    Each token follows the token rule of ``errors``: an optional '-' and
    ASCII digits.

    With a ``cap``, a declared order above it raises ``OrderExceedsCap``
    before the table is read or its group axioms are checked."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty Cayley table input")
    _check_cap(_check_token(tokens[0], "Cayley table"), cap)
    if _DIGITS_AND_SPACE.fullmatch(text) is None:
        for t in tokens:
            _check_token(t, "Cayley table")
    values = list(map(int, tokens))
    n = values[0]
    if n < 1:
        raise ValueError(f"declared order must be >= 1, got {n}")
    if len(values) != 1 + n * n:
        raise ValueError(
            f"expected {n * n} table entries for order {n}, got {len(values) - 1}"
        )
    rows = [values[1 + i * n : 1 + (i + 1) * n] for i in range(n)]
    return FiniteGroup(rows, name=name)


def format_cayley_table(g: FiniteGroup) -> str:
    lines = [str(g.order)]
    lines.extend(" ".join(str(x) for x in row) for row in g.table)
    return "\n".join(lines) + "\n"
