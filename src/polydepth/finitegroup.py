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
cyclic extension (Neubüser 1960): every subgroup H found is joined with the
cyclic subgroups it lacks.  Since <H, x> = <H, xh> for every h in H, one
join per left coset xH is enough, and a generator in a coset already tried
is skipped; the set of subgroups found is the same.  All three searches
read that one lattice, which is also indexed by order.  The ``n3``
recursion reads the subgroups of each retract off the shared lattice, since
the subgroups of H are exactly the subgroups of G inside H.

The chain searches of ``n1``/``n2`` and the ``n3`` recursion stop early on
a bound: a strictly decreasing chain of subgroups from H down to 1 has at
most Omega(|H|) steps, where Omega counts prime factors with multiplicity
(each index is at least a prime, by Lagrange).  A candidate whose bound
cannot strictly beat the best chain so far is skipped, and a scan stops
once its best chain meets the bound.  The scan order and the strict
comparison are those of a full scan, so the witnesses are the same.

One function, ``_complement``, decides whether H has a complement (or a
normal complement) in a subgroup A: it looks only among the subgroups of
order |A|/|H| and takes the least mask, so witnesses do not depend on which
search asks.  ``n1``, ``n2``, ``n3``'s retract filter and ``is_retract`` all
call it.  Normality of a complement in A is read from normalizers computed
once per subgroup and cached on the group.  Normality of a term in the
whole group, which ``n1`` and ``is_normal`` test, conjugates only by a
generating set of G, built once per group: H is normal exactly when every
generator conjugates H into H, and the test stops at the first conjugate
that leaves H.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .abelian import _factor
from .errors import DEFAULT_SEARCH_CAP, OrderExceedsCap
from .intlinalg import _as_list, _check_int, _check_token


class FiniteGroup:
    """Group on elements 0..n-1 given by its multiplication table.

    Element 0 is the identity.  The constructor checks the full group axioms
    (Latin square, identity, associativity), so a ``FiniteGroup`` that exists
    is a group; downstream searches never re-validate.  Tables that are
    groups by construction (a subgroup's restriction, a direct product) come
    in through the private ``_trusted``, which skips the O(n^3) check.
    """

    __slots__ = (
        "order",
        "table",
        "name",
        "_inv",
        "_generators",
        "_subgroup_masks",
        "_masks_by_order",
        "_normalizers",
    )

    def __init__(self, table: Iterable[Iterable[int]], name: str | None = None):
        rows = (_as_list(row, "Cayley table rows") for row in table)
        tbl = tuple(tuple(_check_int(x, "Cayley table entries") for x in row) for row in rows)
        n = len(tbl)
        if n == 0:
            raise ValueError("empty Cayley table")
        for i, row in enumerate(tbl):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise ValueError(f"entry {x} out of range in row {i}")
        for a in range(n):
            if tbl[0][a] != a or tbl[a][0] != a:
                raise ValueError("element 0 does not act as a two-sided identity")
        for a in range(n):
            if len(set(tbl[a])) != n:
                raise ValueError(f"row {a} is not a permutation")
        for b in range(n):
            if len({tbl[a][b] for a in range(n)}) != n:
                raise ValueError(f"column {b} is not a permutation")
        for a in range(n):
            ta = tbl[a]
            for b in range(n):
                ab_row = tbl[ta[b]]
                tb = tbl[b]
                for c in range(n):
                    if ab_row[c] != ta[tb[c]]:
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
        self._generators: tuple[int, ...] | None = None
        self._subgroup_masks: tuple[int, ...] | None = None
        self._masks_by_order: dict[int, list[int]] = {}
        self._normalizers: dict[int, int] = {}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

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


@dataclass(frozen=True, order=True)
class Subgroup:
    """Subgroup of some fixed ambient group, stored as a member bitmask."""

    mask: int

    def __post_init__(self):
        if self.mask < 1 or not self.mask & 1:
            raise ValueError("a subgroup must contain the identity (bit 0)")

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


@dataclass(frozen=True)
class SeriesResult:
    """A maximal series: its length, the chain of subgroups from the whole
    group down to the trivial one, and one witness complement per term
    (complements taken in the ambient group)."""

    length: int
    witness: tuple[Subgroup, ...]
    complements: tuple[Subgroup, ...]

    def __post_init__(self):
        if self.length != len(self.witness) - 1:
            raise ValueError(
                f"series length {self.length} does not match a witness of "
                f"{len(self.witness)} terms"
            )
        if len(self.complements) != len(self.witness):
            raise ValueError(
                f"{len(self.complements)} complements for a witness of "
                f"{len(self.witness)} terms"
            )


def _check_cap(order: int, cap: int):
    if order > cap:
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
    """One generator x per nontrivial cyclic subgroup <x>, the least one."""
    by_mask: dict[int, int] = {}
    for x in range(1, g.order):
        by_mask.setdefault(_cyclic_mask(g, x), x)
    return list(by_mask.values())


def _join_cyclic(g: FiniteGroup, h: int, h_members: list[int], x: int) -> int:
    """Mask of <H, x>.  The set grows by whole left cosets of H, so it is
    closed under right multiplication by H; closing it under right
    multiplication by x as well makes it the generated subgroup."""
    table = g.table
    mask = h
    members = list(h_members)
    for a in members:  # grows while it is walked
        b = table[a][x]
        if not (mask >> b) & 1:
            row = table[b]
            for c in h_members:
                coset_elem = row[c]
                mask |= 1 << coset_elem
                members.append(coset_elem)
    return mask


def _lattice(g: FiniteGroup) -> tuple[int, ...]:
    """Every subgroup mask of G, sorted by (order, mask), built once per group
    by cyclic extension (Neubüser): starting from the trivial subgroup, join
    each subgroup found with each cyclic subgroup it does not contain.  Every
    subgroup is a join of cyclic subgroups, so nothing is missed.  Since
    <H, x> = <H, xh> for every h in H, one join per left coset xH is enough:
    a generator in a coset already tried (H itself included) is skipped.  The
    same pass groups the masks by order in ``g._masks_by_order``."""
    if g._subgroup_masks is None:
        table = g.table
        cyclics = _cyclic_generators(g)
        found = {1}
        frontier = [1]
        while frontier:
            fresh = []
            for h in frontier:
                h_members = _bits(h)
                tried = h
                for x in cyclics:
                    if not (tried >> x) & 1:
                        row = table[x]
                        for c in h_members:
                            tried |= 1 << row[c]
                        k = _join_cyclic(g, h, h_members, x)
                        if k not in found:
                            found.add(k)
                            fresh.append(k)
            frontier = fresh
        g._subgroup_masks = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
        for m in g._subgroup_masks:
            g._masks_by_order.setdefault(m.bit_count(), []).append(m)
    return g._subgroup_masks


def _generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """A generating set of G, cached per group: the elements, in index
    order, that lie outside the span of those kept before them."""
    if g._generators is None:
        gens = []
        span = 1
        for x in range(1, g.order):
            if not (span >> x) & 1:
                span = _join_cyclic(g, span, _bits(span), x)
                gens.append(x)
        g._generators = tuple(gens)
    return g._generators


def _is_normal(g: FiniteGroup, h: int) -> bool:
    """H is normal in G exactly when aHa^-1 lies in H for every a in a
    generating set of G; stops at the first conjugate outside H."""
    table = g.table
    inv = g._inv
    members = _bits(h)
    for a in _generating_set(g):
        ai = inv[a]
        ta = table[a]
        for x in members:
            if not (h >> table[ta[x]][ai]) & 1:
                return False
    return True


def all_subgroups(g: FiniteGroup, cap: int = DEFAULT_SEARCH_CAP) -> list[Subgroup]:
    """Complete subgroup list, sorted by (order, member mask)."""
    _check_cap(g.order, cap)
    return [Subgroup(m) for m in _lattice(g)]


def subgroup_from_members(g: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Validated construction: the member set must already be a subgroup."""
    sub = Subgroup.from_members(members)
    # a finite set that holds the identity and is closed under the operation
    # is a subgroup
    elems = sub.members()
    table = g.table
    if any(not (sub.mask >> table[a][b]) & 1 for a in elems for b in elems):
        raise ValueError("member set is not closed under the group operation")
    return sub


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    return _is_normal(g, h.mask)


def is_complement(g: FiniteGroup, h: Subgroup, k: Subgroup) -> bool:
    """K complements H when they meet only in the identity and HK is all of G
    (equivalently |H| * |K| = |G| once the intersection is trivial)."""
    return (h.mask & k.mask) == 1 and h.order * k.order == g.order


def is_retract(g: FiniteGroup, h: Subgroup, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """A retract is a subgroup with a normal complement."""
    _check_cap(g.order, cap)
    return _complement(g, (1 << g.order) - 1, h.mask, normal=True) is not None


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


def _complement(g: FiniteGroup, ambient: int, h: int, normal: bool) -> int | None:
    """The least mask of a complement of H in the subgroup A = `ambient`: a
    subgroup of A of order |A|/|H| that meets H trivially and, when `normal`
    is set, is normal in A.  None when H has no such complement."""
    size, h_order = ambient.bit_count(), h.bit_count()
    # only is_retract's caller can pass a member set that is no subgroup
    if size % h_order:
        return None
    _lattice(g)
    for k in g._masks_by_order.get(size // h_order, ()):
        if k & h == 1 and k & ambient == k:
            if not normal or _normalizer(g, k) & ambient == ambient:
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
    `cands` holds for each term.  Both endpoints are always candidates.
    The scan skips a candidate whose Omega bound cannot beat the best chain
    so far and stops once the best reaches the bound of `mask`; the first
    longest chain in scan order wins, as in a full scan."""
    omega = {k: _omega(k) for k in {m.bit_count() for m in cands}}
    ordered = [
        (c, omega[c.bit_count()]) for c in sorted(cands, key=lambda m: (-m.bit_count(), m))
    ]
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def down(mask: int) -> tuple[int, tuple[int, ...]]:
        if mask == 1:
            return 0, (1,)
        hit = memo.get(mask)
        if hit is not None:
            return hit
        most = omega[mask.bit_count()]
        best_len = -1
        best_chain: tuple[int, ...] = ()
        for c, bound in ordered:
            if bound >= best_len and c != mask and c & mask == c:
                length, chain = down(c)
                if length + 1 > best_len:
                    best_len = length + 1
                    best_chain = (mask,) + chain
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
    full = (1 << g.order) - 1
    cands: dict[int, int] = {}
    for s in all_subgroups(g, cap):
        if _is_normal(g, s.mask):
            k = _complement(g, full, s.mask, normal=False)
            if k is not None:
                cands[s.mask] = k
    return _longest_chain(full, cands)


def n2(g: FiniteGroup, cap: int = DEFAULT_SEARCH_CAP) -> SeriesResult:
    """Longest strictly decreasing chain of retracts of G; the stored
    complement witnesses are the normal complements."""
    full = (1 << g.order) - 1
    cands: dict[int, int] = {}
    for s in all_subgroups(g, cap):
        k = _complement(g, full, s.mask, normal=True)
        if k is not None:
            cands[s.mask] = k
    return _longest_chain(full, cands)


def _normalizer(g: FiniteGroup, k: int) -> int:
    """Mask of N_G(K), cached per group: K is normal in a subgroup H exactly
    when H lies in N_G(K), so one conjugation pass per K serves every H."""
    found = g._normalizers.get(k)
    if found is None:
        table = g.table
        members = _bits(k)
        found = 0
        for a, ai in enumerate(g._inv):
            ta = table[a]
            if all((k >> table[ta[x]][ai]) & 1 for x in members):
                found |= 1 << a
        g._normalizers[k] = found
    return found


def _n3_chain(g: FiniteGroup, cap: int) -> tuple[int, tuple[int, ...]]:
    """n3 with its chain.  The proper retracts of each subgroup H are read
    off the shared lattice (the subgroups of H are the subgroups of G inside
    H), larger first and then by mask, with the Omega bound of
    ``_longest_chain``: a subgroup whose bound cannot beat the best so far
    is not tested for a normal complement."""
    _check_cap(g.order, cap)
    _lattice(g)
    by_order = g._masks_by_order
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


@dataclass(frozen=True)
class Prop32Report:
    """The three lengths computed independently, with witnesses."""

    order: int
    name: str | None
    n1: SeriesResult
    n2: SeriesResult
    n3: int
    n3_chain: tuple[Subgroup, ...]

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


# a Cayley text of ASCII digits and whitespace only: its tokens are digit
# runs, which pass the token rule, so one pass over the text replaces a check
# per token (a text with any other character is checked token by token)
_DIGITS_AND_SPACE = re.compile(r"[0-9\s]*", re.ASCII)


def parse_cayley_table(
    text: str, name: str | None = None, cap: int | None = None
) -> FiniteGroup:
    """Cayley-table text format: the order n on the first line, then n lines
    of n whitespace-separated element indices; index 0 is the identity.
    Each token follows the token rule of ``intlinalg``: an optional '-' and
    ASCII digits.

    With a ``cap``, a declared order above it raises ``OrderExceedsCap``
    before the table is read or its group axioms are checked."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty Cayley table input")
    declared = _check_token(tokens[0], "Cayley table")
    if cap is not None and declared > cap:
        raise OrderExceedsCap(declared, cap)
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
