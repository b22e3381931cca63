"""Depth bound tests: sl dispatch, both bound families, best-bound
selection, forced rules, the retract-chain lower bound, the wedge depth
formula, and report serialization."""

import collections
import functools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    render_report_naive,
    report_to_json_naive,
    tensor_complex_naive,
    wedge_complex_naive,
)
from polydepth import depth
from polydepth.abelian import from_cyclic_factors, sl_abelian
from polydepth.catalog import catalog_abelian_factors, catalog_group, catalog_names, cyclic
from polydepth.depth import (
    GENERAL_ASSUMPTIONS,
    RULES,
    RETRACT_CHAIN_PROVENANCE,
    TWO_DIM_ASSUMPTIONS,
    DepthBoundReport,
    NoBoundApplicable,
    WedgeDepthResult,
    _retract_chain_length,
    best_bound,
    bound_2dim,
    bound_general,
    forced_bound,
    render_report,
    render_subwedge,
    report_json_chunks,
    report_json_text,
    report_to_json,
    sl_of,
    wedge_exact_depth,
)
from polydepth.errors import (
    CdNotFinite,
    DimensionNotTwo,
    NotFinitelyGenerated,
    OrderExceedsCap,
)
from polydepth import finitegroup
from polydepth.finitegroup import FiniteGroup, direct_product, n1
from polydepth.intlinalg import IntMatrix
from polydepth.pi1 import (
    ElementaryAmenable,
    FgAbelian,
    Finite,
    Free,
    Trivial,
    free,
)
from polydepth.topology import (
    EXAMPLE_COMPLEXES,
    ChainComplex,
    Explicit,
    Sphere,
    complex_from_json,
    complex_to_json,
    homology_of_complex,
    product,
    space_from_json,
    space_to_json,
    wedge,
)
from test_topology import _count_calls, _sphere_complex

S1, S2, S3, S5 = Sphere(1), Sphere(2), Sphere(3), Sphere(5)

DISC = ChainComplex(
    dim=2,
    boundary=(IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[1]])),
    cells=(1, 1, 1),
)


class TestSlOf:
    def test_trivial(self):
        assert sl_of(Trivial()) == 0

    def test_free_rank(self):
        assert sl_of(Free(2)) == 2
        assert sl_of(Free(7)) == 7

    def test_elementary_amenable_hirsch(self):
        assert sl_of(ElementaryAmenable(hirsch=3, cd_finite=True)) == 3
        with pytest.raises(CdNotFinite):
            sl_of(ElementaryAmenable(hirsch=3, cd_finite=False))

    def test_finite_dispatches_to_series_length(self):
        assert sl_of(Finite(catalog_group("S3"))) == 2
        assert sl_of(Finite(catalog_group("Q8"))) == 1
        assert sl_of(Finite(catalog_group("Z6"))) == 2

    def test_finite_respects_cap(self):
        with pytest.raises(OrderExceedsCap):
            sl_of(Finite(cyclic(65)))

    def test_a_commuting_table_is_held_to_the_cap_first(self, monkeypatch):
        read = _count_calls(monkeypatch, "primary_decomposition", finitegroup)
        with pytest.raises(OrderExceedsCap):
            sl_of(Finite(catalog_group("Z2xZ2xZ2xZ2")), cap=8)
        assert read == [0]

    def test_commuting_products_match_the_search(self):
        # sl of a finite abelian group is its primary summand count, n1 on
        # its table; a product of two catalog groups commutes when both do
        abelian = [
            catalog_group(n) for n in catalog_names() if catalog_abelian_factors(n) is not None
        ]
        pairs = [(a, b) for a in abelian for b in abelian if a.order * b.order <= 64]
        for a, b in pairs:
            g = direct_product(a, b)
            assert sl_of(Finite(g)) == n1(g).length, g
        assert len(pairs) == 354
        assert sl_of(Finite(FiniteGroup([[0]]))) == n1(FiniteGroup([[0]])).length == 0

    def test_a_commuting_table_runs_no_search(self, monkeypatch):
        searched = _count_calls(monkeypatch, "n1", finitegroup)
        g = direct_product(*[cyclic(2)] * 4, cyclic(4))
        assert sl_of(Finite(g)) == 5
        assert searched == [0]
        assert g._masks_by_order is None

    def test_a_table_that_does_not_commute_runs_n1_once(self, monkeypatch):
        searched = _count_calls(monkeypatch, "n1", finitegroup)
        assert sl_of(Finite(direct_product(catalog_group("D4"), cyclic(2)))) == 3
        assert searched == [1]

    def test_abelian_counts_primary_summands(self):
        assert sl_of(FgAbelian(from_cyclic_factors(2, [6]))) == 4

    @pytest.mark.parametrize(
        "name",
        [
            n
            for n in catalog_names()
            if catalog_abelian_factors(n) is not None
            and catalog_group(n).order <= 16
        ],
    )
    def test_abelian_bridge(self, name):
        # the same group through both descriptors gives the same length
        factors = catalog_abelian_factors(name)
        via_abelian = sl_abelian(from_cyclic_factors(0, list(factors)))
        via_table = n1(catalog_group(name)).length
        assert via_abelian == via_table


class TestBoundGeneral:
    def test_wedge_of_higher_spheres(self):
        report = bound_general(wedge(S2, S2, S3))
        assert report.bound == 3
        assert report.sl_pi1 == 0
        assert report.per_degree == {2: 2, 3: 1}
        assert report.applied_rule == "Cor-simply"
        assert report.assumptions_used == GENERAL_ASSUMPTIONS

    def test_circle_cross_sphere(self):
        report = bound_general(product(S1, S2))
        assert report.bound == 2
        assert report.sl_pi1 == 1
        assert report.per_degree == {2: 1, 3: 0}
        assert report.applied_rule == "Cor-abelian"

    def test_single_sphere(self):
        assert bound_general(S5).bound == 1
        assert bound_general(S5).per_degree == {2: 0, 3: 0, 4: 0, 5: 1}

    def test_circle_alone_is_free_rule(self):
        report = bound_general(S1)
        assert report.applied_rule == "Cor-free" and report.bound == 1

    def test_torus_uses_contractible_cover(self):
        report = bound_general(product(S1, S1))
        assert report.bound == 2
        assert report.per_degree == {2: 0}

    def test_not_fg_cover_is_inapplicable(self):
        with pytest.raises(NotFinitelyGenerated) as err:
            bound_general(wedge(S1, S2))
        assert err.value.degree == 2
        # the lowest degree without a finitely generated group is named
        with pytest.raises(NotFinitelyGenerated) as err:
            bound_general(wedge(S1, S5, S3))
        assert err.value.degree == 3

    def test_finite_pi1_with_supplied_cover(self):
        rp2 = Explicit(
            EXAMPLE_COMPLEXES["projective-plane"],
            Finite(catalog_group("Z2")),
            cover=EXAMPLE_COMPLEXES["sphere2"],
        )
        report = bound_general(rp2)
        assert report.applied_rule == "Cor-finite"
        assert report.bound == 1 + 1  # sl(Z2) = 1, H_2(S^2) one summand

    def test_amenable_pi1(self):
        klein = Explicit(
            EXAMPLE_COMPLEXES["klein-bottle"],
            ElementaryAmenable(hirsch=2, cd_finite=True),
            cover=EXAMPLE_COMPLEXES["point"],
        )
        report = bound_general(klein)
        assert report.applied_rule == "Cor-amenable"
        assert report.bound == 2


class TestBound2Dim:
    def test_wedge_with_circle(self):
        report = bound_2dim(wedge(S1, S2))
        assert report.bound == 2
        assert report.applied_rule == "Cor-free-2dim"
        assert report.per_degree == {2: 1}
        assert report.assumptions_used == TWO_DIM_ASSUMPTIONS

    def test_two_circles_one_sphere(self):
        report = bound_2dim(wedge(S1, S1, S2))
        assert report.bound == 3 and report.sl_pi1 == 2

    def test_contractible_disc(self):
        report = bound_2dim(Explicit(DISC, Trivial()))
        assert report.bound == 0
        assert report.applied_rule == "Thm4.8"

    def test_torus(self):
        report = bound_2dim(product(S1, S1))
        assert report.bound == 3
        assert report.applied_rule == "Cor-abelian-2dim"

    def test_klein_bottle_amenable(self):
        klein = Explicit(
            EXAMPLE_COMPLEXES["klein-bottle"],
            ElementaryAmenable(hirsch=2, cd_finite=True),
        )
        report = bound_2dim(klein)
        assert report.bound == 2
        assert report.applied_rule == "Cor-amenable-2dim"

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionNotTwo):
            bound_2dim(S3)
        with pytest.raises(DimensionNotTwo):
            bound_2dim(wedge(S2, S3))

    def test_agrees_with_general_when_simply_connected(self):
        for space in [S2, wedge(S2, S2), Explicit(EXAMPLE_COMPLEXES["sphere2"], Trivial())]:
            assert bound_2dim(space).bound == bound_general(space).bound


class TestBestBound:
    def test_prefers_2dim_when_general_dies(self):
        report = best_bound(wedge(S1, S2))
        assert isinstance(report, DepthBoundReport)
        assert report.applied_rule == "Cor-free-2dim"
        assert report.bound == 2
        assert report.exact_depth == 2

    def test_sphere_is_simply_connected_rule(self):
        report = best_bound(S2)
        assert report.applied_rule == "Cor-simply" and report.bound == 1

    def test_torus_picks_smaller_general_bound(self):
        report = best_bound(product(S1, S1))
        assert report.applied_rule == "Cor-abelian"
        assert report.bound == 2
        assert any("2-dim bound 3" in a for a in report.assumptions_used)

    def test_tie_prefers_general_family(self):
        report = best_bound(wedge(S2, S2))
        assert report.applied_rule == "Cor-simply"
        assert report.bound == 2
        assert any("both rules apply" in a for a in report.assumptions_used)

    def test_returned_bound_reproducible_by_named_rule(self):
        spaces = [S2, S5, wedge(S1, S2), product(S1, S2), product(S1, S1), wedge(S2, S3)]
        for space in spaces:
            report = best_bound(space)
            if report.applied_rule.endswith("2dim") or report.applied_rule == "Thm4.8":
                again = bound_2dim(space)
            else:
                again = bound_general(space)
            assert again.bound == report.bound

    def test_no_bound_when_cd_infinite(self):
        space = Explicit(DISC, ElementaryAmenable(hirsch=1, cd_finite=False))
        outcome = best_bound(space)
        assert isinstance(outcome, NoBoundApplicable)
        families = [family for family, _ in outcome.failures]
        assert families == ["Thm4.1", "Thm4.8"]
        assert all("CdNotFinite" in reason for _, reason in outcome.failures)

    def test_exact_depth_attachment(self):
        # exact where the retract chain (one step per sphere) meets the
        # bound: S^2 x S^3 has a chain of 2 and a bound of 3
        assert best_bound(wedge(S2, S2, S3)).exact_depth == 3
        assert best_bound(product(S1, S3)).exact_depth == 2
        assert best_bound(product(S1, S3)).provenance == RETRACT_CHAIN_PROVENANCE
        assert best_bound(product(S2, S3)).exact_depth is None
        assert best_bound(product(S1, S1)).exact_depth == 2

    def test_exact_depth_never_exceeds_bound(self):
        for space in [S2, S5, wedge(S1, S2), wedge(S2, S2, S3),
                      product(S1, S2), product(S1, S5)]:
            report = best_bound(space)
            if report.exact_depth is not None:
                assert report.exact_depth <= report.bound

    @pytest.mark.parametrize("k", range(1, 7))
    def test_a_power_of_rp2_builds_no_lattice(self, monkeypatch, k):
        # pi1 is Z2^k, whose table commutes: sl(pi1) = k is read off its
        # summands, and no subgroup of the order-2^k table is enumerated
        path = pathlib.Path(__file__).parent.parent / "spaces" / "rp2_with_cover.json"
        rp2 = json.loads(path.read_text(encoding="utf-8"))
        built = _count_calls(monkeypatch, "_lattice", finitegroup)
        report = best_bound(space_from_json({"product": [rp2] * k}))
        assert (report.applied_rule, report.bound) == (
            ("Thm4.8", 1) if k == 1 else ("Cor-finite", k + 2**k - 1)
        )
        assert built == [0]

    @pytest.mark.parametrize("left_is_rp2,bound", [(False, 4), (True, 5)])
    def test_product_with_covered_rp2(self, left_is_rp2, bound):
        # the cover of S^2 x RP^2 and of RP^2 x RP^2 is S^2 x S^2; sl(Z2) = 1
        # and sl(Z2 x Z2) = 2
        rp2 = Explicit(
            EXAMPLE_COMPLEXES["projective-plane"],
            Finite(catalog_group("Z2")),
            cover=EXAMPLE_COMPLEXES["sphere2"],
        )
        report = best_bound(product(rp2 if left_is_rp2 else S2, rp2))
        assert isinstance(report, DepthBoundReport)
        assert report.applied_rule == "Cor-finite"
        assert report.bound == bound
        assert report.per_degree == {2: 2, 3: 0, 4: 1}

    def test_wedge_of_circles_is_outside_both_rules(self):
        # dim 1 rules out the 2-dim bound, and a circle given as a complex
        # without a cover, next to another circle, has no cover rule, so the
        # honest answer is structured failure
        uncovered = Explicit(EXAMPLE_COMPLEXES["circle"], Free(1))
        outcome = best_bound(wedge(uncovered, S1))
        assert isinstance(outcome, NoBoundApplicable)
        reasons = dict(outcome.failures)
        assert "UnsupportedConstruction" in reasons["Thm4.1"]
        assert "DimensionNotTwo" in reasons["Thm4.8"]


    def test_wedge_of_circles_takes_the_free_rule(self):
        # pi1 = F2 and the tree covering the wedge is contractible
        report = best_bound(wedge(S1, S1))
        assert (report.applied_rule, report.bound, report.terms) == ("Cor-free", 2, {})
        assert (report.exact_depth, report.provenance) == (2, RETRACT_CHAIN_PROVENANCE)


SPACE_FILES = sorted((pathlib.Path(__file__).parent.parent / "spaces").glob("*.json"))
# the rules of each family as the paper names them: Thm 4.1 and its
# corollaries, Thm 4.8 and its 2-dimensional corollaries
FAMILY_RULES = {
    "Thm4.1": {"Thm4.1", "Cor-simply", "Cor-finite", "Cor-abelian", "Cor-free",
               "Cor-amenable"},
    "Thm4.8": {"Thm4.8", "Cor-free-2dim", "Cor-abelian-2dim", "Cor-amenable-2dim"},
}


def _load(path):
    return space_from_json(json.loads(path.read_text(encoding="utf-8")))


class TestForcedBound:
    def test_rules_are_both_families(self):
        assert RULES == FAMILY_RULES["Thm4.1"] | FAMILY_RULES["Thm4.8"]

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("path", SPACE_FILES, ids=lambda p: p.name)
    def test_runs_only_the_rules_family(self, path, rule):
        family = next(f for f, rules in FAMILY_RULES.items() if rule in rules)
        outcome = forced_bound(_load(path), rule)
        if isinstance(outcome, NoBoundApplicable):
            assert len(outcome.failures) == 1
            assert outcome.failures[0][0] == family
        elif rule == family:
            assert outcome.applied_rule in FAMILY_RULES[family]
        else:
            assert outcome.applied_rule == rule

    def test_family_name_is_that_family_bound(self):
        space = product(S1, S1)
        assert forced_bound(space, "Thm4.1") == bound_general(space)
        assert forced_bound(space, "Thm4.8") == bound_2dim(space)

    def test_mismatched_corollary_names_the_selected_one(self):
        outcome = forced_bound(product(S1, S1), "Cor-free")
        assert outcome == NoBoundApplicable(
            failures=(
                (
                    "Thm4.1",
                    "requested rule Cor-free, but the fundamental group class "
                    "selects Cor-abelian",
                ),
            )
        )

    @pytest.mark.parametrize("rule", ["Thm4.2", "", "cor-free", "Thm4.1 ", "best"])
    def test_unknown_rule_is_a_value_error(self, rule):
        with pytest.raises(ValueError, match="unknown rule"):
            forced_bound(S2, rule)

    @pytest.mark.parametrize(
        "space",
        [_load(p) for p in SPACE_FILES]
        + [S2, S5, wedge(S1, S2), wedge(S2, S2, S3), product(S1, S1), product(S1, S3)],
        ids=[p.name for p in SPACE_FILES] + [f"expr-{i}" for i in range(6)],
    )
    def test_best_bound_rule_reproduces_it(self, space):
        report = best_bound(space)
        if isinstance(report, NoBoundApplicable):
            return
        forced = forced_bound(space, report.applied_rule)
        assert (forced.bound, forced.sl_pi1, forced.per_degree) == (
            report.bound,
            report.sl_pi1,
            report.per_degree,
        )


class TestWedgeExactDepth:
    def test_pinned_examples(self):
        result = wedge_exact_depth({2: 2, 3: 1})
        assert (result.depth, result.capacity) == (3, 6)
        result = wedge_exact_depth({})
        assert (result.depth, result.capacity) == (0, 1)
        assert result.chain == ((),)
        result = wedge_exact_depth({5: 4})
        assert (result.depth, result.capacity) == (4, 5)

    def test_chain_grows_one_sphere_at_a_time(self):
        result = wedge_exact_depth({2: 2, 3: 1})
        assert result.chain[0] == ()
        assert result.chain[-1] == ((2, 2), (3, 1))
        assert len(result.chain) == result.depth + 1
        for before, after in zip(result.chain, result.chain[1:]):
            size = lambda c: sum(n for _, n in c)
            assert size(after) == size(before) + 1

    def test_render_subwedge(self):
        result = wedge_exact_depth({2: 2, 3: 1})
        assert [render_subwedge(c) for c in result.chain] == [
            "1",
            "S^2",
            "S^2 v S^2",
            "S^2 v S^2 v S^3",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            wedge_exact_depth({0: 1})
        with pytest.raises(ValueError):
            wedge_exact_depth({2: 0})
        # a degree or a count that is no int is refused, not truncated, and
        # a key like "2" cannot merge with the sphere degree 2
        for bad in ({2.5: 1}, {2: 1.9}, {"2": 1, 2: 1}):
            with pytest.raises(ValueError, match="must be int"):
                wedge_exact_depth(bad)

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.integers(2, 6), st.integers(1, 3), min_size=1, max_size=3
        )
    )
    def test_sharpness_against_best_bound(self, counts):
        parts = []
        for degree, count in sorted(counts.items()):
            parts.extend([Sphere(degree)] * count)
        result = wedge_exact_depth(counts)
        report = best_bound(wedge(*parts)) if len(parts) > 1 else best_bound(parts[0])
        assert report.bound == result.depth
        assert report.exact_depth == result.depth
        capacity = 1
        for count in counts.values():
            capacity *= count + 1
        assert result.capacity == capacity


# leaves of the retract-chain oracle: a sphere by its dimension, an example
# complex by its name with its true pi1 and, where pi1 is not trivial, its
# true cover
CHAIN_LEAVES = {
    "projective-plane": (Finite(catalog_group("Z2")), "sphere2"),
    "torus": (FgAbelian(from_cyclic_factors(2, [])), "point"),
    "klein-bottle": (ElementaryAmenable(hirsch=2, cd_finite=True), "point"),
    "circle": (Free(1), "point"),
    "sphere2": (Trivial(), None),
    "point": (Trivial(), None),
    "interval": (Trivial(), None),
}
POINT_COMPLEX = complex_to_json(EXAMPLE_COMPLEXES["point"])


def _chain_tree(rng, depth):
    """A random expression as a tree: ("sphere", n), ("explicit", name), or
    ("wedge" | "product", [children]); a product's cellular complex is kept
    small for the oracle's dense tensor product."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ("sphere", rng.randint(1, 3))
        return ("explicit", rng.choice(sorted(CHAIN_LEAVES)))
    if rng.random() < 0.5:
        return ("wedge", [_chain_tree(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    while True:
        factors = [_chain_tree(rng, depth - 1) for _ in range(2)]
        if math.prod(sum(_tree_complex(f)["cells"]) for f in factors) <= 200:
            return ("product", factors)


def _tree_space(tree):
    kind, value = tree
    if kind == "sphere":
        return Sphere(value)
    if kind == "explicit":
        pi1, cover = CHAIN_LEAVES[value]
        return Explicit(
            EXAMPLE_COMPLEXES[value], pi1, cover and EXAMPLE_COMPLEXES[cover]
        )
    return (wedge if kind == "wedge" else product)(*map(_tree_space, value))


def _tree_complex(tree):
    """The cellular chain complex of a tree, in chain complex JSON form, from
    the oracles' wedge and tensor constructions; "point" is the point."""
    kind, value = tree
    if kind == "point":
        return POINT_COMPLEX
    if kind == "sphere":
        return _sphere_complex(value)
    if kind == "explicit":
        return complex_to_json(EXAMPLE_COMPLEXES[value])
    if kind == "wedge":
        return wedge_complex_naive(*map(_tree_complex, value))
    return functools.reduce(tensor_complex_naive, map(_tree_complex, value))


def _smith_homology(complex_json):
    return homology_of_complex(complex_from_json(complex_json))


POINT_HOMOLOGY = _smith_homology(POINT_COMPLEX)


def _collapsible_leaves(tree, path=()):
    """The paths of the leaves whose Smith-form homology is not the point's."""
    kind, value = tree
    if kind in ("wedge", "product"):
        return [p for i, child in enumerate(value) for p in _collapsible_leaves(child, path + (i,))]
    if kind != "point" and _smith_homology(_tree_complex(tree)) != POINT_HOMOLOGY:
        return [path]
    return []


def _collapse(tree, path):
    """`tree` with the leaf at `path` replaced by a point."""
    if not path:
        return ("point", None)
    kind, children = tree
    return (kind, [_collapse(c, path[1:]) if i == path[0] else c for i, c in enumerate(children)])


def _summands(group):
    """The indecomposable summands of a f.g. abelian group, Z as 0 and
    Z/p^k as p^k, with multiplicity."""
    return collections.Counter({0: group.free_rank}) + collections.Counter(group.torsion)


def _is_proper_summand(small, big):
    """Whether `small` is a direct summand of `big` in every degree, and not
    all of it: by Krull-Schmidt, the summands of a f.g. abelian group are the
    sub-multisets of its indecomposable summands."""
    degrees = range(max(small.dim, big.dim) + 1)
    parts = [(_summands(small.group(k)), _summands(big.group(k))) for k in degrees]
    return all(s <= b for s, b in parts) and any(s != b for s, b in parts)


class TestRetractChain:
    """The lower bound of `_retract_chain_length` against a chain built by
    the oracles: collapse one leaf with nonzero reduced homology at a time,
    each step's cellular complex made by `wedge_complex_naive` and
    `tensor_complex_naive` and its homology read by Smith form."""

    @pytest.mark.parametrize("seed", range(8))
    def test_each_step_keeps_a_proper_summand_and_the_chain_has_lb_steps(self, seed):
        rng = random.Random(f"retract-chain-{seed}")
        for _ in range(10):
            tree = _chain_tree(rng, 3)
            lb = _retract_chain_length(_tree_space(tree))
            before = _smith_homology(_tree_complex(tree))
            steps = 0
            while leaves := _collapsible_leaves(tree):
                tree = _collapse(tree, rng.choice(leaves))
                after = _smith_homology(_tree_complex(tree))
                assert _is_proper_summand(after, before), tree
                before, steps = after, steps + 1
            assert steps == lb
            assert before == POINT_HOMOLOGY

    @pytest.mark.parametrize("seed", range(8))
    def test_lb_is_at_most_every_bound_that_applies(self, seed):
        rng = random.Random(f"retract-chain-{seed}")
        for _ in range(10):
            space = _tree_space(_chain_tree(rng, 3))
            lb = _retract_chain_length(space)
            bounds = [forced_bound(space, family) for family in ("Thm4.1", "Thm4.8")]
            applied = [r.bound for r in bounds if isinstance(r, DepthBoundReport)]
            assert all(lb <= bound for bound in applied), space_to_json(space)
            report = best_bound(space)
            if applied:
                exact = lb if lb == min(applied) else None
                assert (report.exact_depth, report.bound) == (exact, min(applied))
                assert report.provenance == (None if exact is None else RETRACT_CHAIN_PROVENANCE)
            else:
                assert isinstance(report, NoBoundApplicable)

    def test_the_euler_characteristic_settles_all_but_chi_1(self, monkeypatch):
        # the torus and the Klein bottle (chi 0) are not reduced; RP^2 and
        # the interval (chi 1) are, and only RP^2 counts
        calls = _count_calls(monkeypatch, "homology_of_complex", depth)
        leaves = {name: Explicit(EXAMPLE_COMPLEXES[name], Trivial()) for name in
                  ("torus", "klein-bottle", "projective-plane", "interval")}
        assert _retract_chain_length(wedge(leaves["torus"], leaves["klein-bottle"])) == 2
        assert calls[0] == 0
        assert _retract_chain_length(product(leaves["projective-plane"], leaves["interval"])) == 1
        assert calls[0] == 2


class TestReports:
    def test_text_first_line_pinned(self):
        text = render_report(best_bound(wedge(S1, S2)))
        assert text.splitlines()[0] == "rule=Cor-free-2dim bound=2"

    def test_json_round_shape(self):
        j = report_to_json(best_bound(product(S1, S2)))
        assert j["rule"] == "Cor-abelian"
        assert j["bound"] == 2
        assert j["per_degree"] == {"2": 1, "3": 0}
        assert j["exact_depth"] == 2
        assert isinstance(j["assumptions"], list)
        assert j == report_to_json_naive(best_bound(product(S1, S2)))

    def test_json_for_no_bound(self):
        space = Explicit(DISC, ElementaryAmenable(hirsch=1, cd_finite=False))
        j = report_to_json(best_bound(space))
        assert j["rule"] is None and j["bound"] is None
        assert len(j["failures"]) == 2
        assert j == report_to_json_naive(best_bound(space))

    def test_render_no_bound(self):
        space = Explicit(DISC, ElementaryAmenable(hirsch=1, cd_finite=False))
        text = render_report(best_bound(space))
        assert text.splitlines()[0] == "no bound applicable"
        assert "Thm4.1 failed" in text and "Thm4.8 failed" in text

    def test_terms_are_sparse_and_checked(self):
        report = bound_general(S5)
        assert (report.dim, report.terms) == (5, {5: 1})
        assert report.replace(terms={5: 1}) == report
        for terms, message in (({2: 0, 5: 1}, "is zero"), ({1: 1}, "outside"), ({6: 1}, "outside")):
            with pytest.raises(ValueError, match=message):
                report.replace(terms=terms, bound=sum(terms.values()))


EXPRESSION_PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_stdout" / "expressions.json").read_text(
        encoding="utf-8"
    )
)
REPORT_SPACES = {
    **{path.name: path for path in SPACE_FILES},
    "S1": S1,
    "S2": S2,
    "S12345": Sphere(12345),
    **{name: entry["space"] for name, entry in EXPRESSION_PINS.items()},
}
# strings a report may carry: non-ASCII, quotes, backslashes, control
# characters, empty
REPORT_STRINGS = ["sl(π₁) finite", 'a "quoted" back\\slash', "tab\tand\nnewline", "", "ascii"]


def _space(value):
    if isinstance(value, pathlib.Path):
        return _load(value)
    return value if isinstance(value, Sphere) else space_from_json(value)


def _random_report(rng):
    if rng.random() < 0.2:
        failures = tuple(
            (rng.choice(sorted(FAMILY_RULES)), rng.choice(REPORT_STRINGS))
            for _ in range(rng.randrange(3))
        )
        return NoBoundApplicable(failures)
    dim = rng.choice([0, 1, 2, 3, 999, 1000, 1001, 2500])
    degrees = rng.sample(range(2, dim + 1), min(rng.randrange(6), max(dim - 1, 0)))
    terms = {k: rng.randrange(1, 12) for k in degrees}
    sl_pi1 = rng.randrange(4)
    bound = sl_pi1 + sum(terms.values())
    exact = rng.choice([None, bound, rng.randrange(bound + 1)])
    return DepthBoundReport(
        rng.choice(sorted(RULES)),
        bound,
        sl_pi1,
        dim,
        terms,
        tuple(rng.sample(REPORT_STRINGS, rng.randrange(3))),
        exact,
        None if exact is None else rng.choice([None, *REPORT_STRINGS]),
    )


class TestReportText:
    """The streamed report text must be what json.dumps prints, and the
    text report what the dense oracle prints, in pieces of at most 1000
    lines."""

    @staticmethod
    def check(report):
        chunks = list(report_json_chunks(report))
        assert "".join(chunks) == report_json_text(report)
        assert report_json_text(report) == json.dumps(report_to_json(report), indent=2)
        assert report_to_json(report) == report_to_json_naive(report)
        assert max(map(len, chunks)) < 1000 * 80
        assert render_report(report) == render_report_naive(report)

    @pytest.mark.parametrize("name", sorted(REPORT_SPACES))
    def test_best_and_every_forced_rule(self, name):
        space = _space(REPORT_SPACES[name])
        self.check(best_bound(space))
        for rule in sorted(RULES):
            self.check(forced_bound(space, rule))

    def test_hand_built_sparse_reports(self):
        rng = random.Random(71)
        for _ in range(300):
            self.check(_random_report(rng))
