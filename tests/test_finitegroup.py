"""Finite-group engine tests.

Groups of order at most 8 are checked against the exhaustive power-set
oracles in oracles.py.  Larger pinned values are hand derivations recorded in
the test body; structural properties (witness validity, determinism,
monotonicity) run across the catalog.
"""

import ast
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from polydepth.abelian import from_cyclic_factors
from polydepth.catalog import (
    catalog_abelian_factors,
    catalog_group,
    catalog_names,
    cyclic,
    dihedral,
)
from polydepth.errors import OrderExceedsCap
from polydepth.finitegroup import (
    DEFAULT_SEARCH_CAP,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    describe_subgroup,
    direct_product,
    format_cayley_table,
    is_complement,
    is_normal,
    is_retract,
    n1,
    n2,
    n3,
    parse_cayley_table,
    primary_decomposition,
    render_series,
    restrict_to_subgroup,
    subgroup_from_members,
    verify_prop32,
    _generating_set,
    _span,
)
from oracles import (
    abelian_summands_naive,
    associative_naive,
    closed_naive,
    direct_product_naive,
    fails_associativity,
    intercalate_swaps,
    light_generators_naive,
    n1_naive,
    n2_naive,
    n3_naive,
    powerset_subgroups,
    random_loop,
    retracts_naive,
    table_fault_naive,
    _is_normal_naive,
)
from test_lattice import relabelled

SMALL = [
    name
    for name in catalog_names()
    if catalog_group(name).order <= 8
]
UP_TO_16 = [name for name in catalog_names() if catalog_group(name).order <= 16]


# A Latin square with two-sided identity 0 that is not associative.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            FiniteGroup([])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="length"):
            FiniteGroup([[0, 1], [1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            FiniteGroup([[0, 1], [1, 7]])

    def test_rejects_bad_identity(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup([[1, 0], [0, 1]])

    def test_rejects_repeated_row_entry(self):
        with pytest.raises(ValueError, match="row 1"):
            FiniteGroup([[0, 1, 2], [1, 1, 2], [2, 0, 1]])

    def test_rejects_nonassociative_loop(self):
        with pytest.raises(ValueError, match="associativity"):
            FiniteGroup(NONASSOC_LOOP)

    def test_subgroup_needs_identity_bit(self):
        with pytest.raises(ValueError, match="identity"):
            Subgroup(0b10)

    def test_subgroup_from_members_rejects_nonclosed(self):
        g = catalog_group("Z6")
        with pytest.raises(ValueError, match="not closed"):
            subgroup_from_members(g, [0, 1])
        assert subgroup_from_members(g, [0, 2, 4]).order == 3


def _agrees_with_associativity_oracle(table) -> bool:
    """The constructor accepts `table` exactly when the n^3 oracle finds it
    associative, and a refusal names a triple where associativity fails."""
    try:
        FiniteGroup(table)
    except ValueError as e:
        m = re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)", str(e))
        assert m, e
        assert fails_associativity(table, *map(int, m.groups())), e
        return not associative_naive(table)
    return associative_naive(table)


class TestAssociativityOracle:
    """Light's test in the constructor against the check of every triple."""

    @pytest.mark.parametrize("name", UP_TO_16)
    def test_intercalate_swaps_of_catalog_tables(self, name):
        squares = intercalate_swaps([list(r) for r in catalog_group(name).table])
        for table in squares:
            assert _agrees_with_associativity_oracle(table), table

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_loops(self, n):
        rng = random.Random(16000 + n)
        for _ in range(40):
            table = random_loop(n, rng)
            assert _agrees_with_associativity_oracle(table), table

    @pytest.mark.parametrize("name", catalog_names())
    def test_tested_elements_match_a_rebuilt_closure(self, name):
        # the group, its products with each catalog group within the cap,
        # and two relabellings of each: Light's test checks the elements
        # that a closure rebuilt after every test would, and they are the
        # generating set of the whole group when no lattice recorded one
        g = catalog_group(name)
        tables = [g] + [
            direct_product(g, h)
            for h in map(catalog_group, catalog_names())
            if g.order * h.order <= DEFAULT_SEARCH_CAP
        ]
        for k, t in enumerate(tables):
            for h in (t, relabelled(t, 2 * k + 1), relabelled(t, 2 * k + 2)):
                tested = _span(h.table, range(h.order))[0]
                assert list(tested) == light_generators_naive(h.table), h.table
                full = (1 << h.order) - 1
                assert tested == _generating_set(FiniteGroup._trusted(h.table), full)


def _members(mask: int) -> list[int]:
    return [a for a in range(mask.bit_length()) if (mask >> a) & 1]


def _agrees_with_closure_oracle(g: FiniteGroup, mask: int) -> bool:
    """`subgroup_from_members` accepts the members of `mask` exactly when
    every product of two of them is a member, and refuses with the one
    message otherwise."""
    try:
        sub = subgroup_from_members(g, _members(mask))
    except ValueError as e:
        assert str(e) == "member set is not closed under the group operation"
        return not closed_naive(g.table, mask)
    return sub.mask == mask and closed_naive(g.table, mask)


class TestClosureOracle:
    """The closure check of `subgroup_from_members` against every product
    of two members."""

    @pytest.mark.parametrize("name", UP_TO_16)
    def test_subgroups_and_one_element_more(self, name):
        g = catalog_group(name)
        for s in all_subgroups(g):
            assert _agrees_with_closure_oracle(g, s.mask), s
            for x in range(g.order):
                if not s.contains(x):
                    assert _agrees_with_closure_oracle(g, s.mask | 1 << x), (s, x)

    @pytest.mark.parametrize("name", UP_TO_16)
    def test_random_member_sets(self, name):
        g = catalog_group(name)
        rng = random.Random(19000 + g.order)
        for _ in range(60):
            mask = rng.getrandbits(g.order) | 1
            assert _agrees_with_closure_oracle(g, mask), _members(mask)

    def test_member_outside_the_table_raises_index_error(self):
        g = catalog_group("Z6")
        for members in ([0, 6], [0, 2, 4, 6], [0, 1, 9]):
            with pytest.raises(IndexError) as err:
                subgroup_from_members(g, members)
            # the one subgroup check refuses it as malformed input too
            assert isinstance(err.value, ValueError)
            assert f"element {max(members)}, outside a group of order 6" in str(err.value)


def _corrupted_tables(table, rng: random.Random, count: int):
    """`count` copies of `table`, each with one to three faults: the last
    row dropped, an entry added to or dropped from a row, two entries of a
    row swapped, or an entry set to -1, n, an element, True, False or 1.0.
    Half the faults fall in the first two rows, so that faults often meet
    in one row."""
    n = len(table)
    for _ in range(count):
        rows = [list(r) for r in table]
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(6)
            pool = rows[:2] if rng.random() < 0.5 else rows
            row = rng.choice(pool) if pool else []
            at = rng.randrange(len(row) + 1)
            if kind == 0 and rows:
                del rows[-1]
            elif kind == 1:
                row.insert(at, rng.randrange(n))
            elif at == len(row):
                continue
            elif kind == 2:
                del row[at]
            elif kind == 3:
                other = rng.randrange(len(row))
                row[at], row[other] = row[other], row[at]
            else:
                row[at] = rng.choice((-1, n, rng.randrange(n), True, False, 1.0))
        yield rows


class TestRefusalOrder:
    """The constructor refuses a corrupted table with the message of the
    first fault that a check of one value at a time finds."""

    @pytest.mark.parametrize("name", UP_TO_16)
    def test_seeded_corruptions_of_catalog_tables(self, name):
        g = catalog_group(name)
        rng = random.Random(18000 + g.order)
        for rows in _corrupted_tables(g.table, rng, 72):
            expected = table_fault_naive(rows)
            if expected == "associativity fails":
                assert _agrees_with_associativity_oracle(rows), rows
                continue
            try:
                h = FiniteGroup(rows)
            except ValueError as e:
                assert str(e) == expected, rows
            else:
                assert expected is None, rows
                # a bool entry is read as 0 or 1
                assert {type(x) for row in h.table for x in row} == {int}, rows

    @pytest.mark.parametrize("row, first", [([3, -1, 0], 3), ([0, 4, 3], 4)])
    def test_first_entry_out_of_range_is_named(self, row, first):
        rows = [[0, 1, 2], row, [2, 0, 1]]
        with pytest.raises(ValueError) as err:
            FiniteGroup(rows)
        expected = f"entry {first} out of range in row 1"
        assert str(err.value) == table_fault_naive(rows) == expected


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polydepth"


def _name(node: ast.AST) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _table_rule_uses(path: pathlib.Path) -> set[str]:
    """Which of `_trusted` (any reference) and a call of `OrderExceedsCap`
    the module at `path` holds."""
    uses = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if _name(node) == "_trusted":
            uses.add("_trusted")
        if isinstance(node, ast.Call) and _name(node.func) == "OrderExceedsCap":
            uses.add("OrderExceedsCap(...)")
    return uses


def test_only_finitegroup_trusts_tables_and_refuses_orders():
    # a table skips the axiom check, and an order is held to the cap, only
    # in the module that owns Cayley tables
    uses = {path.name: _table_rule_uses(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: u for name, u in uses.items() if u} == {
        "finitegroup.py": {"_trusted", "OrderExceedsCap(...)"}
    }


# the rules that read outside input: integers, tokens, lists, object shapes
READING_RULES = frozenset({
    "_INT_ONLY", "_int_row", "_check_int", "_INT_TOKEN", "_DIGITS_AND_SPACE",
    "_check_token", "_as_list", "_fields", "_one_of", "_sphere_dims",
})


def _reading_rule_uses(path: pathlib.Path) -> tuple[set[str], set[str], bool]:
    """The reading rules the module at `path` defines, the modules it
    imports any of them from, and whether it calls ``re.compile``."""
    defined, sources, compiles = set(), set(), False
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(_name(t) for t in targets)
        elif isinstance(node, ast.ImportFrom):
            if READING_RULES & {alias.name for alias in node.names}:
                sources.add(node.module)
        elif isinstance(node, ast.Call) and _name(node.func) == "compile":
            compiles |= _name(getattr(node.func, "value", None)) == "re"
    return defined & READING_RULES, sources, compiles


def test_only_errors_owns_the_reading_rules():
    # each reading rule is defined once, in `errors`, every import of one
    # names `errors`, and no other module compiles a pattern of its own
    uses = {path.name: _reading_rule_uses(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: d for name, (d, _, _) in uses.items() if d} == {"errors.py": READING_RULES}
    assert set().union(*(sources for _, sources, _ in uses.values())) == {"errors"}
    assert {name for name, (_, _, compiles) in uses.items() if compiles} == {"errors.py"}


def test_only_span_and_the_lattice_join_subgroups():
    # every span of a list of elements is built by `_span`; the lattice
    # joins one subgroup with one cyclic subgroup at a time
    tree = ast.parse((SRC / "finitegroup.py").read_text(encoding="utf-8"))
    callers = {
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and _name(node.func) == "_join_cyclic"
    }
    assert callers == {"_span", "_lattice"}


def test_only_sl_of_reads_the_primary_decomposition():
    # the n1/n2/n3 searches and the `sl` command's witness stay on the
    # lattice; only `depth.sl_of` answers from the decomposition
    callers = {
        (path.name, f.name)
        for path in sorted(SRC.glob("*.py"))
        for f in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and _name(node.func) == "primary_decomposition"
    }
    assert callers == {("depth.py", "sl_of")}


class TestBasicOps:
    def test_mul_inv_element_order(self):
        g = catalog_group("S3")
        for a in range(g.order):
            assert g.mul(a, g.inv(a)) == 0
            assert g.mul(g.inv(a), a) == 0
        assert sorted(g.element_order(a) for a in range(6)) == [1, 2, 2, 2, 3, 3]

    def test_equality_is_by_table(self):
        assert cyclic(4) == cyclic(4, name="other")
        assert cyclic(4) != cyclic(5)
        assert hash(cyclic(4)) == hash(cyclic(4, name="other"))

    def test_restriction_of_cyclic_subgroup(self):
        g = catalog_group("S3")
        rot = subgroup_from_members(g, [0, 3, 4])
        h = restrict_to_subgroup(g, rot)
        assert h.order == 3
        assert sorted(h.element_order(a) for a in range(3)) == [1, 3, 3]


class TestTrustedTables:
    """Subgroup restrictions and direct products skip the axiom check: the
    validating constructor must accept each such table and build an equal
    group."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_group_and_its_restrictions_validate(self, name):
        g = catalog_group(name)
        assert FiniteGroup(g.table) == g
        for sub in all_subgroups(g):
            h = restrict_to_subgroup(g, sub)
            assert FiniteGroup(h.table) == h

    def test_direct_products_up_to_the_cap_validate(self):
        groups = [catalog_group(name) for name in catalog_names()]
        checked = 0
        for i, a in enumerate(groups):
            for b in groups[i:]:
                if a.order * b.order <= DEFAULT_SEARCH_CAP:
                    p = direct_product(a, b)
                    assert FiniteGroup(p.table) == p, (a, b)
                    assert (p.table, p.name) == direct_product_naive(a, b), (a, b)
                    checked += 1
        assert checked > 100


ABELIAN = [name for name in catalog_names() if catalog_abelian_factors(name) is not None]

# commuting tables with identity 0 that are Latin squares but no groups; the
# first is unipotent (x * x = 0 for every x), so all six elements have order
# dividing 2, no power of 2; the second gives the summands 2 and 2
COMMUTING_NON_GROUPS = [
    (
        [[0, 1, 2, 3, 4, 5], [1, 0, 3, 4, 5, 2], [2, 3, 0, 5, 1, 4],
         [3, 4, 5, 0, 2, 1], [4, 5, 1, 2, 0, 3], [5, 2, 4, 1, 3, 0]],
        "6 elements have order dividing 2",
    ),
    (
        [[0, 1, 2, 3, 4, 5], [1, 0, 3, 4, 5, 2], [2, 3, 0, 5, 1, 4],
         [3, 4, 5, 0, 2, 1], [4, 5, 1, 2, 3, 0], [5, 2, 4, 1, 0, 3]],
        r"summands \[2, 2\] do not multiply to 6",
    ),
]


class TestPrimaryDecomposition:
    """The summands of a commuting table read from its element orders,
    against the invariant factors of its relation matrix and the catalog's
    own factors, under relabellings too."""

    @pytest.mark.parametrize("name", ABELIAN)
    def test_abelian_catalog_groups(self, name):
        g = catalog_group(name)
        expected = from_cyclic_factors(0, list(catalog_abelian_factors(name)))
        for table in [g] + [relabelled(g, seed) for seed in range(3)]:
            got = primary_decomposition(table)
            assert got == expected
            assert got.torsion == abelian_summands_naive(table.table)

    @pytest.mark.parametrize("name", [n for n in catalog_names() if n not in ABELIAN])
    def test_a_table_that_does_not_commute_gives_none(self, name):
        g = catalog_group(name)
        assert primary_decomposition(g) is None
        assert primary_decomposition(relabelled(g, 0)) is None

    @pytest.mark.parametrize(
        "names",
        [("Z2xZ2xZ2xZ2", "Z2xZ2"), ("Z4xZ4", "Z4"), ("Z8", "Z8"), ("Z2xZ8", "Z3"), ("Z2", "Z24")],
    )
    def test_products_up_to_the_cap(self, names):
        g = relabelled(direct_product(*map(catalog_group, names)), 1)
        factors = [q for n in names for q in catalog_abelian_factors(n)]
        assert primary_decomposition(g) == from_cyclic_factors(0, factors)
        assert primary_decomposition(g).torsion == abelian_summands_naive(g.table)

    @pytest.mark.parametrize("table, message", COMMUTING_NON_GROUPS)
    def test_a_commuting_table_that_is_no_group_raises(self, table, message):
        with pytest.raises(ValueError, match="associativity"):
            FiniteGroup(table)
        trusted = FiniteGroup._trusted(tuple(map(tuple, table)))
        with pytest.raises(ValueError, match=message):
            primary_decomposition(trusted)


class TestSubgroupEnumeration:
    @pytest.mark.parametrize("name", SMALL)
    def test_matches_powerset_oracle(self, name):
        g = catalog_group(name)
        expected = {frozenset(s) for s in powerset_subgroups([list(r) for r in g.table])}
        got = {frozenset(s.members()) for s in all_subgroups(g)}
        assert got == expected

    def test_sorted_by_order_then_mask(self):
        subs = all_subgroups(catalog_group("D4"))
        keys = [(s.order, s.mask) for s in subs]
        assert keys == sorted(keys)
        assert len(subs) == 10

    @pytest.mark.parametrize(
        "n,count",
        # dihedral subgroup count is tau(n) + sigma(n)
        [(3, 6), (4, 10), (5, 8), (6, 16), (7, 10), (8, 19)],
    )
    def test_dihedral_subgroup_counts(self, n, count):
        assert len(all_subgroups(dihedral(n))) == count

    def test_elementary_abelian_rank_four_count(self):
        # subspace counts of F2^4: 1 + 15 + 35 + 15 + 1
        assert len(all_subgroups(catalog_group("Z2xZ2xZ2xZ2"))) == 67

    def test_cap_enforced(self):
        g = catalog_group("Z24")
        with pytest.raises(OrderExceedsCap) as err:
            all_subgroups(g, cap=16)
        assert err.value.order == 24 and err.value.cap == 16
        with pytest.raises(OrderExceedsCap):
            n1(g, cap=8)
        with pytest.raises(OrderExceedsCap):
            n2(g, cap=8)
        with pytest.raises(OrderExceedsCap):
            n3(g, cap=8)
        with pytest.raises(OrderExceedsCap):
            is_retract(g, Subgroup(1), cap=8)
        assert n1(g, cap=24).length == 2


class TestPredicates:
    def test_normality_in_s3(self):
        g = catalog_group("S3")
        rot = subgroup_from_members(g, [0, 3, 4])
        refl = next(
            s for s in all_subgroups(g) if s.order == 2
        )
        assert is_normal(g, rot)
        assert not is_normal(g, refl)

    @pytest.mark.parametrize("name", SMALL)
    def test_normality_matches_oracle(self, name):
        g = catalog_group(name)
        table = [list(r) for r in g.table]
        for s in all_subgroups(g):
            assert is_normal(g, s) == _is_normal_naive(table, frozenset(s.members()))

    def test_predicates_answer_false_for_a_set_that_is_no_subgroup(self):
        # {0, 1} in Z6 meets the normal subgroup {0, 2, 4} in the identity
        # and 2 * 3 = 6, but it is no subgroup
        g = catalog_group("Z6")
        bad, h3 = Subgroup(0b11), subgroup_from_members(g, [0, 2, 4])
        assert not is_retract(g, bad)
        assert not is_normal(g, bad)
        assert not is_complement(g, bad, h3)
        assert not is_complement(g, h3, bad)
        with pytest.raises(ValueError, match="not closed under the group operation"):
            subgroup_from_members(g, bad.members())

    def test_predicates_refuse_a_set_outside_the_group(self):
        # element 10 of a group of order 6
        g = catalog_group("Z6")
        bad, h3 = Subgroup((1 << 10) | 1), subgroup_from_members(g, [0, 2, 4])
        for ask in (
            lambda: is_retract(g, bad),
            lambda: is_normal(g, bad),
            lambda: is_complement(g, bad, h3),
            lambda: is_complement(g, h3, bad),
            lambda: subgroup_from_members(g, bad.members()),
        ):
            with pytest.raises(ValueError, match="element 10, outside a group of order 6"):
                ask()
        # the search cap is still checked before the member set
        with pytest.raises(OrderExceedsCap):
            is_retract(g, bad, cap=4)

    def test_complements_in_z6(self):
        g = catalog_group("Z6")
        h3 = subgroup_from_members(g, [0, 2, 4])
        h2 = subgroup_from_members(g, [0, 3])
        assert is_complement(g, h3, h2) and is_complement(g, h2, h3)
        assert not is_complement(g, h3, h3)
        assert is_retract(g, h3) and is_retract(g, h2)

    def test_index_two_subgroup_without_normal_complement(self):
        # the rotation subgroup of S3 is complemented only by non-normal
        # reflection subgroups, so it is not a retract
        g = catalog_group("S3")
        rot = subgroup_from_members(g, [0, 3, 4])
        refl = next(s for s in all_subgroups(g) if s.order == 2)
        assert is_complement(g, rot, refl)
        assert not is_retract(g, rot)
        assert is_retract(g, refl)

    def test_set_whose_size_does_not_divide_the_order_is_no_retract(self):
        # {0, 1, 2} in Z4 is no subgroup; the trivial subgroup meets it in
        # the identity, but 3 * 1 != 4, so it is no complement
        assert not is_retract(catalog_group("Z4"), Subgroup(0b111))

    @pytest.mark.parametrize("name", SMALL)
    def test_retracts_match_oracle(self, name):
        g = catalog_group(name)
        table = [list(r) for r in g.table]
        expected = {frozenset(s) for s in retracts_naive(table)}
        got = {
            frozenset(s.members()) for s in all_subgroups(g) if is_retract(g, s)
        }
        assert got == expected


class TestSeriesLengths:
    @pytest.mark.parametrize("name", SMALL)
    def test_small_groups_match_naive_oracles(self, name):
        g = catalog_group(name)
        table = [list(r) for r in g.table]
        assert n1(g).length == n1_naive(table)
        assert n2(g).length == n2_naive(table)
        assert n3(g) == n3_naive(table)

    @pytest.mark.parametrize(
        "name,value",
        [
            # hand-derived: candidates are the normal subgroups that admit a
            # complement; the chain below each pin is spelled out in comments
            ("Z1", 0),
            ("Z2", 1),
            ("Z4", 1),      # Z2 has no complement inside Z4
            ("Z6", 2),      # Z6 > Z3 > 1 with complements Z2, Z6
            ("Z8", 1),
            ("Z12", 2),     # Z12 > Z4 > 1; Z2 and Z6 are never complemented
            ("Z2xZ2", 2),
            ("Z2xZ4", 2),
            ("Z2xZ2xZ2", 3),
            ("S3", 2),      # S3 > A3 > 1 (A3 complemented by a reflection)
            ("D4", 2),
            ("Q8", 1),      # every nontrivial subgroup contains the center
            ("A4", 2),      # normal subgroups are only 1, V4, A4
            ("D5", 2),      # 1, Z5, D5
            ("Dic3", 2),    # Dic3 > Z3 > 1; Z3 complemented by the Z4
            ("Q16", 1),     # unique involution sits inside every subgroup
            ("SD16", 2),    # SD16 > Z8 > 1; every order-4 subgroup meets Z8
            ("M16", 2),     # same shape as SD16
            ("D6", 3),      # D6 > D3 > Z3 > 1
        ],
    )
    def test_hand_pinned_values(self, name, value):
        g = catalog_group(name)
        assert n1(g).length == value
        assert n2(g).length == value
        assert n3(g) == value

    def test_witness_rendering(self):
        g6 = catalog_group("Z6")
        assert render_series(g6, n1(g6)) == "Z6>Z3>1"
        s3 = catalog_group("S3")
        assert render_series(s3, n1(s3)) == "S3>Z3>1"
        assert render_series(s3, n2(s3)) == "S3>Z2>1"
        a4 = catalog_group("A4")
        assert render_series(a4, n1(a4)) == "A4>H4>1"

    def test_n1_and_n2_witnesses_differ_in_s3(self):
        # the chains have equal length but need not share terms: A3 is normal
        # and complemented yet not a retract, a reflection is the reverse
        s3 = catalog_group("S3")
        r1, r2 = n1(s3), n2(s3)
        assert r1.length == r2.length == 2
        assert r1.witness[1].order == 3
        assert r2.witness[1].order == 2

    @pytest.mark.parametrize("name", catalog_names())
    def test_witness_chains_are_valid(self, name):
        g = catalog_group(name)
        if g.order > 16:
            return
        r1, r2 = n1(g), n2(g)
        full = (1 << g.order) - 1
        for series, retract_chain in ((r1, False), (r2, True)):
            chain = series.witness
            assert chain[0].mask == full and chain[-1].mask == 1
            for a, b in zip(chain, chain[1:]):
                assert b.mask != a.mask and b.mask & a.mask == b.mask
            for term, comp in zip(chain, series.complements):
                assert is_complement(g, term, comp)
                if retract_chain:
                    assert is_normal(g, comp)
                else:
                    assert is_normal(g, term)

    def test_n3_chain_terms_are_retracts_of_predecessors(self):
        g = catalog_group("D4xZ2")
        report = verify_prop32(g)
        chain = report.n3_chain
        assert chain[0].order == g.order and chain[-1].order == 1
        current = g
        members = tuple(range(g.order))
        for nxt in chain[1:]:
            local = Subgroup.from_members(
                members.index(x) for x in nxt.members()
            )
            assert is_retract(current, local)
            current = restrict_to_subgroup(current, local)
            members = tuple(members[i] for i in local.members())
        assert report.n3 == len(chain) - 1

    def test_deterministic_across_instances(self):
        a, b = dihedral(4), dihedral(4)
        assert n1(a) == n1(b)
        assert n2(a) == n2(b)
        assert verify_prop32(a).n3_chain == verify_prop32(b).n3_chain

    @pytest.mark.parametrize(
        "name", ["Z16", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2"]
    )
    def test_abelian_sixteens_match_primary_factor_count(self, name):
        from polydepth.abelian import from_cyclic_factors, sl_abelian
        from polydepth.catalog import catalog_abelian_factors

        factors = catalog_abelian_factors(name)
        expected = sl_abelian(from_cyclic_factors(0, list(factors)))
        assert n1(catalog_group(name)).length == expected


class TestProp32:
    @pytest.mark.parametrize(
        "name",
        [n for n in catalog_names() if catalog_group(n).order <= 12]
        + ["Q16", "SD16", "D4xZ2", "Z2xZ2xZ2xZ2", "Pauli16"],
    )
    def test_three_searches_agree(self, name):
        report = verify_prop32(catalog_group(name))
        assert report.equal, (name, report.n1.length, report.n2.length, report.n3)

    def test_report_contents(self):
        report = verify_prop32(catalog_group("Z6"))
        assert report.order == 6 and report.name == "Z6"
        assert report.value == 2
        assert len(report.n3_chain) == 3


class TestTableFormat:
    @pytest.mark.parametrize("name", ["Z6", "S3", "Q8"])
    def test_round_trip(self, name):
        g = catalog_group(name)
        text = format_cayley_table(g)
        back = parse_cayley_table(text, name=g.name)
        assert back == g and back.name == g.name

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="empty"):
            parse_cayley_table("  \n ")
        with pytest.raises(ValueError, match="non-integer"):
            parse_cayley_table("2\n0 1\n1 x")
        with pytest.raises(ValueError, match="expected 4 table entries"):
            parse_cayley_table("2\n0 1\n1")
        with pytest.raises(ValueError, match=">= 1"):
            parse_cayley_table("0")
        with pytest.raises(ValueError, match="identity"):
            parse_cayley_table("2\n1 0\n0 1")


class TestDescribe:
    def test_unnamed_group_label(self):
        g = cyclic(6, name=None)
        g = FiniteGroup(g.table)
        full = subgroup_from_members(g, range(6))
        assert describe_subgroup(g, full) == "Z6"
        s3 = FiniteGroup(catalog_group("S3").table)
        assert describe_subgroup(s3, subgroup_from_members(s3, range(6))) == "G6"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_subgroup_membership_properties(name, data):
    g = catalog_group(name)
    subs = all_subgroups(g)
    s = data.draw(st.sampled_from(subs))
    members = s.members()
    a = data.draw(st.sampled_from(members))
    b = data.draw(st.sampled_from(members))
    assert s.contains(g.mul(a, b))
    assert s.contains(g.inv(a))
    assert Subgroup.from_members(members) == s
