"""The shared subgroup lattice, the complement search and the n3 search
that filters it.

Each group builds its subgroup lattice once, by cyclic extension that
builds each subgroup exactly once, from the prefix of its canonical
sequence (the least cyclic generators inside it that `_span` keeps), and
n3 reads the subgroups of every retract off that one lattice.  These tests
check the lattice against an independent generator-subset oracle on the
whole catalog and on S4, against Gaussian-binomial subspace counts on
elementary abelian groups up to order 64, and against the known counts of
the nonsolvable A5 and S5, built from permutations.  On the catalog, the
relabelled large groups and those of order 64 they check that no mask is
listed twice, that each subgroup's recorded generators are its canonical
sequence, and that the family of member sets is carried onto itself by
two more relabellings, which change the canonical parents.  They check n3
against a recursion that restricts the table to each proper retract and
starts over there.  The chain search, which stops early on an Omega bound,
is checked against an exhaustive longest-chain search on random candidate
families, and every length against the bound itself.  The complements that
n1, n2 and ``is_retract`` find, and ``is_normal``, which conjugates by
generators only, are checked against naive complement and normality tests
on raw tables, also on groups too large for the power-set oracles and on
products of two catalog groups; so is normality inside every subgroup,
which n3's retract filter asks.  Each step of n3's witness chain is
checked to be a retract inside the term before it, by a naive complement
and normality test on that term's own table, and its length against the
recursive definition.  A ``verify_prop32`` decides each subgroup's
normality in G once and builds one lattice, and a group built by
restriction or product starts with none of another group's decisions.  Two
full ``Prop32Report``s on relabelled tables are pinned to values recorded
before the lattice was shared, and six of order 64 to values recorded
before the searches stopped early.
"""

import collections
import json
import pathlib
import random

import pytest

from polydepth.catalog import (
    catalog_group,
    catalog_names,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
)
from polydepth import finitegroup
from polydepth.finitegroup import (
    FiniteGroup,
    Subgroup,
    _complement,
    _cyclic_generators,
    _lattice,
    _longest_chain,
    _n3_chain,
    _normal_in,
    _span,
    all_subgroups,
    is_normal,
    is_retract,
    n1,
    n2,
    n3,
    restrict_to_subgroup,
    subgroup_from_members,
    verify_prop32,
)
from oracles import (
    _is_complement_naive,
    _is_normal_naive,
    _normal_in_naive,
    closed_naive,
    factor_naive,
    generated_subgroups_naive,
    longest_chain_naive,
    longest_chain_scan_naive,
    n3_naive,
    restrict_table,
    subspace_count_naive,
)

DATA = pathlib.Path(__file__).parent / "data"


def relabelling(n: int, seed: int) -> list[int]:
    """A seeded random renaming of 0..n-1 that keeps 0 in place."""
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    return [0] + rest


def relabelled(group: FiniteGroup, seed: int) -> FiniteGroup:
    """The same group under a seeded random renaming of its elements; the
    identity keeps index 0, so subgroup masks are scattered over the bits."""
    n = group.order
    pi = relabelling(n, seed)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[pi[a]][pi[b]] = pi[group.table[a][b]]
    return FiniteGroup(table)


def _z2_power(k: int) -> FiniteGroup:
    return direct_product(*[cyclic(2)] * k)


# name -> (group factory, relabelling seed, search cap)
LARGE = {
    "D4xZ2xZ2": (lambda: direct_product(dihedral(4), cyclic(2), cyclic(2)), 1, 32),
    "Z2^5": (lambda: _z2_power(5), 2, 32),
    "D16": (lambda: dihedral(16), 3, 32),
    "Z2^4xZ3": (lambda: direct_product(_z2_power(4), cyclic(3)), 4, 48),
}


# name -> (group factory, relabelling seed) for the order-64 groups whose
# reports are pinned in prop32_pinned_64.json (see record_prop32_pinned_64.py)
ORDER_64 = {
    "Z2^6": (lambda: _z2_power(6), 5),
    "D32": (lambda: dihedral(32), 6),
    "D4xD4": (lambda: direct_product(dihedral(4), dihedral(4)), 7),
    "Z4^3": (lambda: direct_product(cyclic(4), cyclic(4), cyclic(4)), 8),
    "Q8xZ2^3": (lambda: direct_product(dicyclic(2), _z2_power(3)), 9),
    "D4xZ2^3": (lambda: direct_product(dihedral(4), _z2_power(3)), 10),
}


def large_group(name: str) -> tuple[FiniteGroup, int]:
    build, seed, cap = LARGE[name]
    return relabelled(build(), seed), cap


@pytest.mark.parametrize("name", catalog_names())
def test_lattice_matches_generator_subset_oracle(name):
    g = catalog_group(name)
    expected = set(generated_subgroups_naive([list(r) for r in g.table]))
    got = [frozenset(s.members()) for s in all_subgroups(g)]
    assert len(got) == len(set(got))
    assert set(got) == expected


@pytest.mark.parametrize("p, k, seed, count", [(2, 5, 11, 374), (2, 6, 12, 2825), (3, 3, 13, 28)])
def test_elementary_abelian_lattice_matches_subspace_count(p, k, seed, count):
    # the subgroups of (Z/p)^k are the subspaces of F_p^k
    assert subspace_count_naive(p, k) == count
    g = relabelled(direct_product(*[cyclic(p)] * k), seed)
    subs = all_subgroups(g, p**k)
    assert len(subs) == len({s.mask for s in subs}) == count


def _n3_by_restriction(g: FiniteGroup, cap: int) -> int:
    """1 + the largest n3 over proper retracts, each retract restricted to a
    standalone table so that its n3 builds a lattice of its own."""
    if g.order == 1:
        return 0
    full = (1 << g.order) - 1
    best = 0
    for sub in all_subgroups(g, cap):
        if sub.mask != full and is_retract(g, sub, cap):
            best = max(best, n3(restrict_to_subgroup(g, sub), cap))
    return 1 + best


@pytest.mark.parametrize("name", list(LARGE))
def test_n3_matches_recursion_through_restricted_tables(name):
    g, cap = large_group(name)
    assert n3(g, cap) == _n3_by_restriction(g, cap)


def _report_to_json(report) -> dict:
    def series(s):
        return {
            "length": s.length,
            "witness": [m.mask for m in s.witness],
            "complements": [m.mask for m in s.complements],
        }

    return {
        "order": report.order,
        "n1": series(report.n1),
        "n2": series(report.n2),
        "n3": report.n3,
        "n3_chain": [m.mask for m in report.n3_chain],
    }


@pytest.mark.parametrize("name", ["D4xZ2xZ2", "Z2^4xZ3"])
def test_prop32_report_pinned(name):
    pinned = json.loads((DATA / "prop32_pinned.json").read_text())
    g, cap = large_group(name)
    assert _report_to_json(verify_prop32(g, cap)) == pinned[name]


@pytest.mark.parametrize("name", list(ORDER_64))
def test_prop32_report_pinned_order_64(name):
    pinned = json.loads((DATA / "prop32_pinned_64.json").read_text())
    g, cap = _group_and_cap(name)
    assert _report_to_json(verify_prop32(g, cap)) == pinned[name]


@pytest.mark.parametrize("name", list(LARGE) + list(ORDER_64) + catalog_names())
def test_lengths_within_omega_bound(name):
    # a strictly decreasing chain of subgroups has at most Omega(|G|) steps
    g, cap = _group_and_cap(name)
    omega = sum(e for _, e in factor_naive(g.order))
    report = verify_prop32(g, cap)
    assert max(report.n1.length, report.n2.length, report.n3) <= omega


# Q8xZ2^3 and Z2^6 have the most subgroups of the pinned order-64 groups
CHAIN_GROUPS = list(LARGE) + ["D4xD4", "Q8xZ2^3", "Z2^6"]


def _series_masks(series) -> tuple[int, list[int], list[int]]:
    return (
        series.length,
        [s.mask for s in series.witness],
        [s.mask for s in series.complements],
    )


@pytest.mark.parametrize("name", CHAIN_GROUPS)
def test_longest_chain_matches_naive_on_random_candidate_sets(name):
    # the order buckets and the Omega bound prune the chain search; on
    # random families of subgroups, each term given a random complement,
    # the length, the witness and the complements must be those of a full
    # scan with no pruning
    g, cap = _group_and_cap(name)
    full = (1 << g.order) - 1
    masks = [s.mask for s in all_subgroups(g, cap)]
    rng = random.Random(name)
    # the full scan is quadratic in the candidates: Z2^6 (2825 subgroups)
    # gets fewer random sets
    for _ in range(20 if len(masks) < 1000 else 4):
        chosen = [m for m in masks if m in (1, full) or rng.random() < 0.3]
        cands = {m: rng.choice(masks) for m in chosen}
        series = _longest_chain(full, cands)
        sets = [frozenset(Subgroup(m).members()) for m in chosen]
        assert series.length == longest_chain_naive(sets, sets[-1], sets[0])
        assert _series_masks(series) == longest_chain_scan_naive(full, cands)
        terms = [s.mask for s in series.witness]
        assert terms[0] == full and terms[-1] == 1 and set(terms) <= set(chosen)
        assert all(b != a and b & a == b for a, b in zip(terms, terms[1:]))


@pytest.mark.parametrize("name", CHAIN_GROUPS)
def test_n1_n2_chains_match_naive_scan(name, monkeypatch):
    # every chain search that n1 and n2 make, on their own candidates,
    # gives the witness and the complements of a full scan
    searched = []
    fast = finitegroup._longest_chain

    def checked(full, cands):
        series = fast(full, cands)
        assert _series_masks(series) == longest_chain_scan_naive(full, cands)
        searched.append(full)
        return series

    monkeypatch.setattr(finitegroup, "_longest_chain", checked)
    g, cap = _group_and_cap(name)
    report = verify_prop32(g, cap)
    assert report.equal and len(searched) == 2


def _naive_view(g: FiniteGroup, cap: int):
    """The table as lists, every subgroup of the lattice as a member set
    keyed by its mask, and the masks of those the naive test finds normal."""
    table = [list(r) for r in g.table]
    subs = {s.mask: frozenset(s.members()) for s in all_subgroups(g, cap)}
    normal = {m for m, members in subs.items() if _is_normal_naive(table, members)}
    return table, subs, normal


def _group_and_cap(name: str) -> tuple[FiniteGroup, int]:
    if name in ORDER_64:
        build, seed = ORDER_64[name]
        return relabelled(build(), seed), 64
    return large_group(name) if name in LARGE else (catalog_group(name), 32)


@pytest.mark.parametrize("name", list(LARGE) + catalog_names())
def test_is_normal_matches_naive_on_every_subgroup(name):
    g, cap = _group_and_cap(name)
    table, subs, normal = _naive_view(g, cap)
    for sub in all_subgroups(g, cap):
        assert is_normal(g, sub) == (sub.mask in normal), sub


# the catalog groups up to order 16, and D4xZ2 relabelled so that its
# subgroup masks are scattered over the bits
UP_TO_16 = [name for name in catalog_names() if catalog_group(name).order <= 16]


@pytest.mark.parametrize("name", UP_TO_16 + ["D4xZ2 relabelled"])
def test_normal_in_matches_naive_on_every_pair_of_subgroups(name):
    # n3's retract filter asks whether a complement K is normal in a proper
    # subgroup A, which the predicate decides from a generating set of A
    if name in UP_TO_16:
        g = catalog_group(name)
    else:
        g = relabelled(direct_product(dihedral(4), cyclic(2)), 14)
    table = [list(r) for r in g.table]
    subs = {s.mask: frozenset(s.members()) for s in all_subgroups(g)}
    for a, a_members in subs.items():
        for k, k_members in subs.items():
            if k & a == k:
                expected = _normal_in_naive(table, k_members, a_members)
                assert _normal_in(g, k, a) == expected, (k, a)


@pytest.mark.parametrize("name", list(LARGE))
def test_is_retract_matches_naive_normal_complement(name):
    g, cap = large_group(name)
    table, subs, normal = _naive_view(g, cap)
    for sub in all_subgroups(g, cap):
        h = subs[sub.mask]
        expected = any(
            _is_complement_naive(table, h, k) for m, k in subs.items() if m in normal
        )
        assert is_retract(g, sub, cap) == expected, sub


def _check_series_complements(g: FiniteGroup, cap: int) -> None:
    """Each complement of an n1 and an n2 witness term is the least mask
    of a naive complement of it, normal in G for n2."""
    table, subs, normal = _naive_view(g, cap)
    for series, need_normal in ((n1(g, cap), False), (n2(g, cap), True)):
        for term, comp in zip(series.witness, series.complements):
            h = subs[term.mask]
            least = min(
                m
                for m, k in subs.items()
                if (m in normal or not need_normal) and _is_complement_naive(table, h, k)
            )
            assert comp.mask == least, (term, need_normal)


@pytest.mark.parametrize("name", list(LARGE) + catalog_names())
def test_series_complements_are_least_naive_complements(name):
    _check_series_complements(*_group_and_cap(name))


# pairs of nontrivial catalog groups whose product is within the cap of 32
PRODUCT_PAIRS = [
    (a, b)
    for i, a in enumerate(catalog_names())
    for b in catalog_names()[i:]
    if 2 <= catalog_group(a).order <= catalog_group(b).order
    and catalog_group(a).order * catalog_group(b).order <= 32
]


@pytest.mark.parametrize("a, b", PRODUCT_PAIRS, ids=[f"{a}x{b}" for a, b in PRODUCT_PAIRS])
def test_product_series_complements_are_least_naive_complements(a, b):
    _check_series_complements(direct_product(catalog_group(a), catalog_group(b)), 32)


def _is_retract_naive(table, term: int, r: int, candidates: list[int]) -> bool:
    """Whether R is a retract of the subgroup `term`, both given as masks:
    some candidate K inside it, closed under the raw table, is a complement
    of R in that term and normal in it, both decided on the term's own
    restricted table."""
    members = Subgroup(term).members()
    index = {a: i for i, a in enumerate(members)}
    inner = restrict_table(table, frozenset(members))
    local = lambda mask: frozenset(index[a] for a in Subgroup(mask).members())  # noqa: E731
    h = local(r)
    return any(
        closed_naive(table, k)
        and _is_complement_naive(inner, h, local(k))
        and _normal_in_naive(inner, local(k), range(len(inner)))
        for k in candidates
        if k & term == k
    )


@pytest.mark.parametrize("name", catalog_names())
def test_n3_chain_is_a_chain_of_naive_retracts(name):
    # each term of n3's witness chain is a retract of the one before it,
    # inside that term, and the chain is as long as the recursive
    # definition run on restricted tables
    g = catalog_group(name)
    expected = n3_naive([list(r) for r in g.table])
    for h in (g, relabelled(g, 31), relabelled(g, 32)):
        table = [list(r) for r in h.table]
        length, chain = _n3_chain(h, 32)
        masks = [s.mask for s in all_subgroups(h)]
        assert chain[0] == (1 << h.order) - 1 and chain[-1] == 1
        assert length == len(chain) - 1 == expected
        for term, r in zip(chain, chain[1:]):
            assert r != term and r & term == r
            assert _is_retract_naive(table, term, r, masks), (term, r)


def test_verify_prop32_decides_each_normality_once(monkeypatch):
    # n1 decides which subgroups are normal in G once, and n2, n3 and the
    # complement search read those decisions instead of asking again
    g, cap = large_group("D4xZ2xZ2")
    full = (1 << g.order) - 1
    asked = collections.Counter()
    builds = [0]

    def counting_normal_in(group, k, ambient):
        asked[k, ambient] += 1
        return _normal_in(group, k, ambient)

    def counting_cyclic_generators(group):
        builds[0] += 1
        return _cyclic_generators(group)

    monkeypatch.setattr(finitegroup, "_normal_in", counting_normal_in)
    monkeypatch.setattr(finitegroup, "_cyclic_generators", counting_cyclic_generators)
    report = verify_prop32(g, cap)
    assert report.equal and report.value == 4
    assert builds[0] == 1
    assert max(asked.values()) == 1
    assert sum(n for (k, a), n in asked.items() if a == full) == len(all_subgroups(g, cap)) == 158
    # the decisions stay with the group: asking again decides nothing anew
    asked.clear()
    verify_prop32(g, cap)
    assert is_retract(g, report.n2.witness[1], cap)
    assert not asked and builds[0] == 1


def test_trusted_groups_start_with_empty_caches():
    # a restriction to the whole group and a product with Z1 have G's very
    # table, but none of G's lattice or normality decisions
    g, cap = large_group("D4xZ2xZ2")
    report = _report_to_json(verify_prop32(g, cap))
    assert g._masks_by_order is not None and g._normal_by_ambient
    full = Subgroup((1 << g.order) - 1)
    same = [restrict_to_subgroup(g, full), direct_product(g, cyclic(1))]
    retract = Subgroup(report["n2"]["witness"][1])
    for h in same + [restrict_to_subgroup(g, retract), direct_product(g, cyclic(2))]:
        assert h._masks_by_order is None
        assert h._normal_by_ambient == {} and h._generators == {}
    for h in same:
        assert h.table == g.table and h._normal_by_ambient is not g._normal_by_ambient
        assert _report_to_json(verify_prop32(h, cap)) == report
        assert h._normal_by_ambient == g._normal_by_ambient
    # a complement asked of one group is decided in its own cache only
    h = FiniteGroup._trusted(g.table)
    assert _complement(h, full.mask, retract.mask, normal=True) is not None
    assert len(h._normal_by_ambient) == 1


ALL_GROUPS = catalog_names() + list(LARGE) + list(ORDER_64)


def _least_cyclic_generators_naive(table) -> list[int]:
    """The least generator of each nontrivial cyclic subgroup, larger
    subgroups first and then by index, from raw powers of every element."""
    least: dict[frozenset[int], int] = {}
    for x in range(1, len(table)):
        powers, y = {0}, x
        while y:
            powers.add(y)
            y = table[y][x]
        least.setdefault(frozenset(powers), x)
    return [x for _, x in sorted((-len(c), x) for c, x in least.items())]


def _check_lattice_is_canonical(g: FiniteGroup) -> list[int]:
    """The lattice's masks, after checking that it lists each once, sorted
    by (order, mask), and recorded each subgroup other than 1 with its
    canonical sequence as generating set: what `_span` keeps of the least
    cyclic generators inside it, in their order."""
    cyclics = _least_cyclic_generators_naive(g.table)
    assert _cyclic_generators(g) == cyclics
    masks = [m for ms in _lattice(g).values() for m in ms]
    assert len(masks) == len(set(masks))
    assert masks == sorted(masks, key=lambda m: (m.bit_count(), m))
    for k in masks[1:]:
        inside = [x for x in cyclics if (k >> x) & 1]
        assert g._generators[k] == _span(g.table, inside)[0], k
    return masks


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_lattice_builds_each_subgroup_once_from_its_canonical_sequence(name):
    g, _ = _group_and_cap(name)
    assert _check_lattice_is_canonical(g)[0] == 1


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_lattice_maps_onto_itself_under_relabelling(name):
    # renaming the elements reorders the cyclic generators, so the search
    # builds each subgroup from another canonical parent; the family of
    # member sets must be the image of the original one all the same
    g, cap = _group_and_cap(name)
    family = [frozenset(s.members()) for s in all_subgroups(g, cap)]
    for seed in (23, 24):
        pi = relabelling(g.order, seed)
        h = relabelled(g, seed)
        got = {frozenset(s.members()) for s in all_subgroups(h, cap)}
        assert got == {frozenset(pi[a] for a in m) for m in family}
        assert len(got) == len(family)


def permutation_group(generators: list[tuple[int, ...]]) -> FiniteGroup:
    """The group the permutations generate, as a Cayley table: the identity
    is element 0, and a times b is the permutation i -> a[b[i]]."""
    identity = tuple(range(len(generators[0])))
    elements = [identity]
    index = {identity: 0}
    for a in elements:  # grows while it is walked
        for s in generators:
            b = tuple(a[i] for i in s)
            if b not in index:
                index[b] = len(elements)
                elements.append(b)
    return FiniteGroup(
        [[index[tuple(a[i] for i in b)] for b in elements] for a in elements]
    )


def _symmetric(n: int) -> FiniteGroup:
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    return permutation_group([cycle, swap])


def _alternating_5() -> FiniteGroup:
    return permutation_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])


def test_permutation_groups_have_the_expected_orders():
    assert _symmetric(4).order == 24
    assert _alternating_5().order == 60
    assert _symmetric(5).order == 120


def test_s4_lattice_matches_generator_subset_oracle():
    g = _symmetric(4)
    masks = _check_lattice_is_canonical(g)
    got = {frozenset(s.members()) for s in all_subgroups(g)}
    assert got == set(generated_subgroups_naive([list(r) for r in g.table]))
    assert len(masks) == len(got) == 30


@pytest.mark.parametrize(
    "build, cap, count",
    # the known subgroup counts of the nonsolvable A5 and S5
    [(_alternating_5, 64, 59), (lambda: _symmetric(5), 120, 156)],
    ids=["A5", "S5"],
)
def test_nonsolvable_lattices_have_the_known_counts(build, cap, count):
    g = build()
    masks = _check_lattice_is_canonical(g)
    subs = all_subgroups(g, cap)
    assert [s.mask for s in subs] == masks
    assert len(subs) == count
    for s in subs:
        assert subgroup_from_members(g, s.members()) == s
