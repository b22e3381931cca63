"""Space and homology tests.

Pinned homologies are the standard cell structures computed by hand (the
boundary matrices are small enough to verify directly); random complexes are
generated with exact zero composition by drawing the second boundary map
from the kernel of the first, and checked for Euler consistency.
"""

import ast
import collections
import itertools
import json
import pathlib
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    betti_naive,
    cyclic_cover_wedge_naive,
    degree_names_naive,
    disguised_surface_space,
    degree_run_naive,
    profile_to_json_naive,
    rank_fraction,
    render_profile_naive,
    space_from_json_naive,
    split_by_identity_naive,
    surface_grid_naive,
    tensor_complex_naive,
    torsion_complex,
    wedge_complex_naive,
)
from polydepth.abelian import FgAbelianGroup, from_boundary_maps, from_cyclic_factors
from polydepth import depth, intlinalg, topology
from polydepth.catalog import catalog_group
from polydepth.cli import run
from polydepth.suites import _random_zero_composition_complex
from polydepth.depth import best_bound, bound_2dim, forced_bound
from polydepth.errors import (
    CompositionNotZero,
    DimensionMismatch,
    DimensionNotTwo,
    NotFinitelyGenerated,
    UnsupportedConstruction,
    _sphere_dims,
)
from polydepth.intlinalg import IntMatrix, smith_normal_form
from polydepth.pi1 import ElementaryAmenable, FgAbelian, Finite, Free, Trivial, free
from polydepth.topology import (
    EXAMPLE_COMPLEXES,
    MAX_NESTING,
    _Degrees,
    _degree_runs,
    _json_chunks,
    _plain,
    _top_free_rank,
    ChainComplex,
    Explicit,
    HomologyProfile,
    Product,
    Sphere,
    Wedge,
    complex_from_json,
    complex_to_json,
    dim_of,
    euler_characteristic,
    homology,
    homology_of_complex,
    pi1_of,
    poincare_polynomial,
    product,
    profile_json_chunks,
    profile_json_text,
    profile_to_json,
    render_profile,
    space_from_json,
    space_to_json,
    universal_cover_homology,
    wedge,
)

Z = FgAbelianGroup(free_rank=1)
POINT = Explicit(EXAMPLE_COMPLEXES["point"], Trivial())
TWO_POINTS = {"cells": [2], "boundary": []}  # a disconnected wedge part


def profile(dim, groups):
    return HomologyProfile(dim, groups)


class TestChainComplex:
    def test_validation_errors(self):
        with pytest.raises(ValueError, match="cell counts"):
            ChainComplex(dim=1, boundary=(IntMatrix.zeros(1, 1),), cells=(1,))
        with pytest.raises(ValueError, match="boundary maps"):
            ChainComplex(dim=1, boundary=(), cells=(1, 1))
        with pytest.raises(DimensionMismatch):
            ChainComplex(
                dim=1, boundary=(IntMatrix.zeros(2, 1),), cells=(1, 1)
            )
        with pytest.raises(CompositionNotZero):
            ChainComplex(
                dim=2,
                boundary=(
                    IntMatrix.from_rows([[1, 0]]),
                    IntMatrix.from_rows([[1], [0]]),
                ),
                cells=(1, 2, 1),
            )

    def test_a_bool_entry_reads_back_as_an_int(self):
        c = complex_from_json({"cells": [1, 1], "boundary": [[[True]]]})
        assert json.dumps(complex_to_json(c)) == '{"cells": [1, 1], "boundary": [[[1]]]}'

    def test_boundary_map_padding(self):
        c = EXAMPLE_COMPLEXES["torus"]
        assert c.boundary_map(0).rows == 0 and c.boundary_map(0).cols == 1
        assert c.boundary_map(3).rows == 1 and c.boundary_map(3).cols == 0
        assert c.boundary_map(2) is c.boundary[1]

    @pytest.mark.parametrize(
        "name,chi",
        [
            ("point", 1),
            ("interval", 1),
            ("circle", 0),
            ("sphere2", 2),
            ("torus", 0),
            ("projective-plane", 1),
            ("klein-bottle", 0),
            ("genus2-surface", -2),
        ],
    )
    def test_euler_characteristic(self, name, chi):
        assert euler_characteristic(EXAMPLE_COMPLEXES[name]) == chi


class TestExplicitHomology:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("point", {0: Z}),
            ("interval", {0: Z}),
            ("circle", {0: Z, 1: Z}),
            ("sphere2", {0: Z, 2: Z}),
            ("sphere3", {0: Z, 3: Z}),
            ("torus", {0: Z, 1: FgAbelianGroup(free_rank=2), 2: Z}),
            ("projective-plane", {0: Z, 1: from_cyclic_factors(0, [2])}),
            ("klein-bottle", {0: Z, 1: from_cyclic_factors(1, [2])}),
            ("genus2-surface", {0: Z, 1: FgAbelianGroup(free_rank=4), 2: Z}),
        ],
    )
    def test_pinned_complexes(self, name, expected):
        c = EXAMPLE_COMPLEXES[name]
        assert homology_of_complex(c) == profile(c.dim, expected)

    def test_euler_consistency_on_examples(self):
        for c in EXAMPLE_COMPLEXES.values():
            p = homology_of_complex(c)
            ranks = sum(
                (-1) ** k * p.group(k).free_rank for k in range(c.dim + 1)
            )
            assert ranks == euler_characteristic(c)

    def test_euler_consistency_on_random_complexes(self):
        rng = random.Random(2024)
        for _ in range(40):
            c0 = rng.randint(1, 4)
            c1 = rng.randint(0, 4)
            d1 = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(c1)] for _ in range(c0)],
                cols=c1,
            )
            snf = smith_normal_form(d1)
            r = len(snf.diagonal)
            kernel_cols = [
                [snf.V.entry(i, j) for i in range(c1)] for j in range(r, c1)
            ]
            c2 = rng.randint(0, 3)
            rows2 = [[0] * c2 for _ in range(c1)]
            for j in range(c2):
                for col in kernel_cols:
                    w = rng.randint(-2, 2)
                    for i in range(c1):
                        rows2[i][j] += w * col[i]
            d2 = IntMatrix.from_rows(rows2, cols=c2)
            c = ChainComplex(dim=2, boundary=(d1, d2), cells=(c0, c1, c2))
            p = homology_of_complex(c)
            ranks = sum((-1) ** k * p.group(k).free_rank for k in range(3))
            assert ranks == euler_characteristic(c)


def _matmul(a, b, cols):
    return [
        [sum(x * b_row[j] for x, b_row in zip(row, b)) for j in range(cols)]
        for row in a
    ]


def _unimodular_pair(rng, n):
    """A random unimodular n x n matrix and its inverse, built from
    elementary operations: row i += c * row j on P is column j -= c *
    column i on P^-1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def _random_complex_with_known_homology(rng):
    """A chain complex in Smith form, each d_k pairing some k-cells with
    distinct (k-1)-cells that d_(k-1) does not touch, disguised by a
    unimodular change of basis in every degree.  Returns the complex and
    its homology read off the pairing."""
    dim = rng.randint(1, 3)
    cells = [rng.randint(0, 4) for _ in range(dim + 1)]
    sources = [set() for _ in cells]
    targets = [set() for _ in cells]
    pairs = [[] for _ in cells]  # pairs[k]: (k-cell, (k-1)-cell, coefficient)
    for k in range(1, dim + 1):
        free_below = [i for i in range(cells[k - 1]) if i not in sources[k - 1]]
        count = rng.randint(0, min(len(free_below), cells[k]))
        for src, dst in zip(rng.sample(range(cells[k]), count), rng.sample(free_below, count)):
            coefficient = rng.choice((1, 1, 2, 3, 4, 6, 12))
            pairs[k].append((src, dst, coefficient))
            sources[k].add(src)
            targets[k - 1].add(dst)
    bases = [_unimodular_pair(rng, c) for c in cells]
    boundary = []
    for k in range(1, dim + 1):
        d = [[0] * cells[k] for _ in range(cells[k - 1])]
        for src, dst, coefficient in pairs[k]:
            d[dst][src] = coefficient
        # d'_k = P_(k-1) d_k P_k^-1 keeps every composition zero
        d = _matmul(_matmul(bases[k - 1][0], d, cells[k]), bases[k][1], cells[k])
        boundary.append(IntMatrix.from_rows(d, cols=cells[k]))
    expected = {
        k: from_cyclic_factors(
            cells[k] - len(sources[k]) - len(targets[k]),
            [c for _, _, c in (pairs[k + 1] if k < dim else [])],
        )
        for k in range(dim + 1)
    }
    complex_ = ChainComplex(dim=dim, boundary=tuple(boundary), cells=tuple(cells))
    return complex_, expected


@pytest.mark.parametrize("seed", range(8))
def test_one_snf_per_map_agrees_with_two_matrix_path(seed):
    rng = random.Random(seed)
    for _ in range(25):
        c, expected = _random_complex_with_known_homology(rng)
        profile = homology_of_complex(c)
        for k in range(c.dim + 1):
            d_k, d_k1 = c.boundary_map(k), c.boundary_map(k + 1)
            group = profile.group(k)
            assert group == from_boundary_maps(d_k, d_k1) == expected[k]
            assert group.free_rank == (
                c.cells[k] - rank_fraction(d_k.to_rows()) - rank_fraction(d_k1.to_rows())
            )


class TestSpaceHomology:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_spheres(self, n):
        assert homology(Sphere(n)) == profile(n, {0: Z, n: Z})

    def test_sphere_dimension_validated(self):
        with pytest.raises(ValueError):
            Sphere(0)

    def test_wedge_reduced_sum(self):
        got = homology(wedge(Sphere(2), Sphere(2), Sphere(3)))
        assert got == profile(3, {0: Z, 2: FgAbelianGroup(free_rank=2), 3: Z})

    def test_wedge_collects_torsion(self):
        klein = Explicit(EXAMPLE_COMPLEXES["klein-bottle"], free(1))
        got = homology(wedge(klein, Sphere(1)))
        assert got.group(1) == from_cyclic_factors(2, [2])

    def test_wedge_unit_law(self):
        x = wedge(Sphere(2), Sphere(3))
        assert homology(wedge(x, POINT)) == homology(x)

    def test_torus_product(self):
        got = homology(product(Sphere(1), Sphere(1)))
        assert got == profile(2, {0: Z, 1: FgAbelianGroup(free_rank=2), 2: Z})

    def test_product_torsion_rejected(self):
        rp2 = Explicit(EXAMPLE_COMPLEXES["projective-plane"], Finite(catalog_group("Z2")))
        expected = _tensor_homology(rp2.complex, EXAMPLE_COMPLEXES["sphere2"])
        assert homology(product(rp2, Sphere(2))) == expected

    def test_poincare_pins(self):
        assert poincare_polynomial(Sphere(4)) == [1, 0, 0, 0, 1]
        assert poincare_polynomial(product(Sphere(2), Sphere(2))) == [1, 0, 2, 0, 1]
        assert poincare_polynomial(wedge(Sphere(2), Sphere(2), Sphere(3))) == [1, 0, 2, 1]
        # torsion does not count: only the Betti numbers are read
        rp2 = Explicit(EXAMPLE_COMPLEXES["projective-plane"], Finite(catalog_group("Z2")))
        assert poincare_polynomial(rp2) == [1, 0, 0]
        klein = Explicit(EXAMPLE_COMPLEXES["klein-bottle"], free(1))
        assert poincare_polynomial(product(rp2, klein)) == [1, 1, 0, 0, 0]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_kunneth_cross_check(self, dims):
        factors = [Sphere(n) for n in dims]
        coeffs = [1]
        for n in dims:
            sphere_coeffs = [1] + [0] * (n - 1) + [1]
            out = [0] * (len(coeffs) + n)
            for i, x in enumerate(coeffs):
                for j, y in enumerate(sphere_coeffs):
                    out[i + j] += x * y
            coeffs = out
        assert poincare_polynomial(product(*factors)) == coeffs

    def test_dim_of(self):
        assert dim_of(Sphere(3)) == 3
        assert dim_of(wedge(Sphere(1), Sphere(4))) == 4
        assert dim_of(product(Sphere(2), Sphere(3))) == 5
        assert dim_of(POINT) == 0


class TestConstructors:
    def test_flattening(self):
        w = wedge(Sphere(1), wedge(Sphere(2), Sphere(3)))
        assert w == Wedge((Sphere(1), Sphere(2), Sphere(3)))
        p = product(Sphere(1), product(Sphere(2), Sphere(3)))
        assert p == Product((Sphere(1), Sphere(2), Sphere(3)))
        assert wedge(Sphere(2)) == Sphere(2)
        assert product(Sphere(2)) == Sphere(2)

    def test_direct_construction_flattens(self):
        flat = Wedge((Sphere(1), Sphere(2), Sphere(3)))
        assert Wedge((Sphere(1), Wedge((Sphere(2), Sphere(3))))) == flat
        assert Wedge((Wedge((Sphere(1), Sphere(2))), Sphere(3))) == flat
        nested = Product((Sphere(1), Product((Sphere(2), Sphere(3)))))
        assert nested == Product((Sphere(1), Sphere(2), Sphere(3)))
        # a product inside a wedge (and the reverse) stays a part
        mixed = Wedge((Product((Sphere(1), Sphere(2))), Sphere(3)))
        assert len(mixed.parts) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Wedge(())
        with pytest.raises(ValueError):
            Product(())


class TestPi1:
    def test_spheres(self):
        assert pi1_of(Sphere(1)) == Free(1)
        assert pi1_of(Sphere(4)) == Trivial()

    def test_wedge_free_rank(self):
        assert pi1_of(wedge(Sphere(1), Sphere(1), Sphere(2))) == Free(2)
        assert pi1_of(wedge(Sphere(2), Sphere(3))) == Trivial()

    def test_product_free_abelian(self):
        got = pi1_of(product(Sphere(1), Sphere(1), Sphere(3)))
        assert got == FgAbelian(FgAbelianGroup(free_rank=2))
        assert pi1_of(product(Sphere(2), Sphere(3))) == Trivial()

    def test_explicit_descriptor_passthrough(self):
        d = Finite(catalog_group("S3"))
        assert pi1_of(Explicit(EXAMPLE_COMPLEXES["point"], d)) == d

    def test_product_of_finite_parts(self):
        z2 = Explicit(EXAMPLE_COMPLEXES["point"], Finite(catalog_group("Z2")))
        z3 = Explicit(EXAMPLE_COMPLEXES["point"], Finite(catalog_group("Z3")))
        got = pi1_of(product(z2, z3))
        assert isinstance(got, Finite) and got.group.order == 6

    def test_product_merges_abelian_descriptors(self):
        t = Explicit(
            EXAMPLE_COMPLEXES["point"], FgAbelian(from_cyclic_factors(1, [4]))
        )
        got = pi1_of(product(t, Sphere(1)))
        assert got == FgAbelian(from_cyclic_factors(2, [4]))

    def test_free_parts(self):
        # a part whose group is declared as the abelian Z counts as a circle
        circle = Explicit(EXAMPLE_COMPLEXES["circle"], FgAbelian(FgAbelianGroup(free_rank=1)))
        assert pi1_of(wedge(circle, Sphere(2))) == Free(1)
        assert pi1_of(product(wedge(Sphere(1), Sphere(1)), Sphere(2))) == Free(2)

    def test_unsupported_combinations(self):
        two_circles = wedge(Sphere(1), Sphere(1))
        with pytest.raises(UnsupportedConstruction):
            pi1_of(product(two_circles, Sphere(1)))
        torus_like = product(Sphere(1), Sphere(1))
        with pytest.raises(UnsupportedConstruction):
            pi1_of(wedge(torus_like, Sphere(1)))
        s3 = Explicit(EXAMPLE_COMPLEXES["point"], Finite(catalog_group("S3")))
        with pytest.raises(UnsupportedConstruction):
            pi1_of(product(s3, Sphere(1)))


RP2_COVERED = Explicit(
    EXAMPLE_COMPLEXES["projective-plane"],
    Finite(catalog_group("Z2")),
    cover=EXAMPLE_COMPLEXES["sphere2"],
)
# spaces the wedge rule still refuses: a free product with no descriptor, a
# circle with no cover next to another circle, a part of unknown order
RP2_WEDGE_RP2 = wedge(RP2_COVERED, RP2_COVERED)
UNCOVERED_CIRCLE_WEDGE_S1 = wedge(Explicit(EXAMPLE_COMPLEXES["circle"], Free(1)), Sphere(1))
# a part of prime order 999999999989: its cover would have that many copies of S^2
HUGE_ORDER_WEDGE_S2 = wedge(
    Explicit(
        EXAMPLE_COMPLEXES["point"],
        FgAbelian(from_cyclic_factors(0, [999999999989])),
        cover=EXAMPLE_COMPLEXES["point"],
    ),
    Sphere(2),
)
HIRSCH0_WEDGE_S2 = wedge(
    Explicit(
        EXAMPLE_COMPLEXES["projective-plane"],
        ElementaryAmenable(hirsch=0, cd_finite=True),
        cover=EXAMPLE_COMPLEXES["sphere2"],
    ),
    Sphere(2),
)


class TestUniversalCover:
    def test_simply_connected_is_itself(self):
        for x in [Sphere(3), wedge(Sphere(2), Sphere(4)), product(Sphere(2), Sphere(2))]:
            assert universal_cover_homology(x) == homology(x)

    def test_circle_product_drops_circles(self):
        assert universal_cover_homology(product(Sphere(1), Sphere(2))) == homology(
            Sphere(2)
        )
        got = universal_cover_homology(product(Sphere(1), Sphere(1), Sphere(2)))
        assert got == homology(Sphere(2))

    def test_all_circles_gives_point(self):
        torus = product(Sphere(1), Sphere(1))
        assert universal_cover_homology(torus) == profile(0, {0: Z})
        assert universal_cover_homology(Sphere(1)) == profile(0, {0: Z})

    def test_wedge_with_circle_flags_not_fg(self):
        got = universal_cover_homology(wedge(Sphere(1), Sphere(2)))
        assert got.fg(2) is False and got.group(2) is None
        assert got.fg(1) is True and got.group(1).is_trivial
        assert got.group(0) == Z
        got = universal_cover_homology(wedge(Sphere(1), Sphere(2), Sphere(2), Sphere(5)))
        assert got.fg(2) is False and got.fg(5) is False
        assert got.fg(3) is True and got.fg(4) is True
        assert [k for k, g in got.groups.items() if g is None] == [2, 5]

    def test_explicit_with_supplied_cover(self):
        rp2 = Explicit(
            EXAMPLE_COMPLEXES["projective-plane"],
            Finite(catalog_group("Z2")),
            cover=EXAMPLE_COMPLEXES["sphere2"],
        )
        assert universal_cover_homology(rp2) == homology(Sphere(2))

    def test_explicit_trivial_pi1_is_itself(self):
        s2 = Explicit(EXAMPLE_COMPLEXES["sphere2"], Trivial())
        assert universal_cover_homology(s2) == homology(Sphere(2))

    @pytest.mark.parametrize(
        "space",
        [
            product(Sphere(1), wedge(Sphere(1), Sphere(2))),
            RP2_WEDGE_RP2,
            UNCOVERED_CIRCLE_WEDGE_S1,
            Explicit(EXAMPLE_COMPLEXES["circle"], Free(1)),
        ],
    )
    def test_outside_closed_list_errors(self, space):
        with pytest.raises(UnsupportedConstruction):
            universal_cover_homology(space)


class TestCoverRefusals:
    """The refusals outside the structural rules, each with its reason."""

    @pytest.mark.parametrize(
        "space,reason",
        [
            (product(Sphere(1), wedge(Sphere(1), Sphere(2))), "inside a product"),
            (Explicit(EXAMPLE_COMPLEXES["circle"], Free(1)), "user-supplied cover"),
            (RP2_WEDGE_RP2, "rule exists only when they are all circles"),
            (HIRSCH0_WEDGE_S2, "Hirsch length 0: its order is unknown"),
            (HUGE_ORDER_WEDGE_S2, "over 1000000 parts and summands"),
        ],
    )
    def test_message_names_the_reason(self, space, reason):
        with pytest.raises(UnsupportedConstruction, match=reason):
            universal_cover_homology(space)

    def test_part_limit_refuses_before_building(self):
        start = time.perf_counter()
        with pytest.raises(UnsupportedConstruction):
            universal_cover_homology(product(HUGE_ORDER_WEDGE_S2, Sphere(2)))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("order, refused", [(10**4, True), (4000, False)])
    def test_part_limit_counts_the_homology_of_each_copy(self, order, refused):
        # one part of the rest, a product of 20 spheres with 229 degrees of
        # homology: 4000 copies hold 920000 parts and degrees, 10^4 copies too many
        x = Explicit(
            EXAMPLE_COMPLEXES["point"],
            FgAbelian(from_cyclic_factors(0, [order])),
            cover=EXAMPLE_COMPLEXES["point"],
        )
        space = wedge(x, product(*map(Sphere, range(2, 22))))
        start = time.perf_counter()
        if refused:
            with pytest.raises(UnsupportedConstruction, match="over 1000000 parts"):
                universal_cover_homology(space)
        else:
            got = universal_cover_homology(space)
            assert got.group(2).free_rank == order and len(got.groups) == 229
        # each run of copies is folded once; folding every copy took 3-5 s
        assert time.perf_counter() - start < 2.0


TORUS_COVERED = Explicit(
    EXAMPLE_COMPLEXES["torus"],
    FgAbelian(FgAbelianGroup(free_rank=2)),
    cover=EXAMPLE_COMPLEXES["point"],
)
S2_X_S2 = product(Sphere(2), Sphere(2))


class TestWedgeRule:
    """One rule for a wedge: its simply connected parts ride along on the
    cover of the one part that is not, or on the tree of several circles."""

    def test_pi1_of_the_one_part_that_is_not_simply_connected(self):
        assert pi1_of(wedge(RP2_COVERED, Sphere(2))) == Finite(catalog_group("Z2"))
        assert pi1_of(wedge(TORUS_COVERED, Sphere(2), S2_X_S2)) == TORUS_COVERED.pi1
        assert pi1_of(wedge(Sphere(1), Sphere(1), S2_X_S2)) == Free(2)
        with pytest.raises(UnsupportedConstruction, match="free product"):
            pi1_of(RP2_WEDGE_RP2)
        with pytest.raises(UnsupportedConstruction, match="free product"):
            pi1_of(wedge(TORUS_COVERED, Sphere(1)))

    @pytest.mark.parametrize(
        "space, dim, groups",
        [
            # the tree that covers several circles is contractible; a cover
            # has the dimension of the space it covers
            (wedge(Sphere(1), Sphere(1)), 1, {0: Z}),
            # S^2 v S^2 v S^2: the cover S^2 of RP^2 with an S^2 at each of 2 lifts
            (wedge(RP2_COVERED, Sphere(2)), 2, {0: Z, 2: FgAbelianGroup(free_rank=3)}),
            (wedge(TORUS_COVERED, Sphere(2)), 2, {0: Z, 2: None}),
            (wedge(Sphere(1), S2_X_S2), 4, {0: Z, 2: None, 4: None}),
            # infinitely many copies of a Z/2 are not finitely generated either
            (wedge(Sphere(1), Explicit(EXAMPLE_COMPLEXES["projective-plane"], Trivial())), 2,
             {0: Z, 1: None}),
            # (S^2 v S^2 v S^2) x S^2
            (product(wedge(RP2_COVERED, Sphere(2)), Sphere(2)), 4,
             {0: Z, 2: FgAbelianGroup(free_rank=4), 4: FgAbelianGroup(free_rank=3)}),
        ],
    )
    def test_cover_answers(self, space, dim, groups):
        got = universal_cover_homology(space)
        assert (got, got.dim) == (profile(dim, groups), dim)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_contractible_rest_leaves_a_product_factor_as_it_was(self, seed):
        # X v point has X's cover homology: no reduced homology, one component,
        # so no not-f.g. verdict, in a product as on its own
        rng = random.Random(3400 + seed)
        point = Explicit(EXAMPLE_COMPLEXES["point"], Trivial())
        infinite = [Sphere(1), wedge(Sphere(1), Sphere(1)), TORUS_COVERED]
        for _ in range(20):
            x = rng.choice(infinite)
            y = rng.choice([Sphere(rng.randint(1, 6)), RP2_COVERED])
            pair = (lambda f: (f, y)) if rng.random() < 0.5 else (lambda f: (y, f))
            got = universal_cover_homology(product(*pair(wedge(x, *[point] * rng.randint(1, 3)))))
            want = universal_cover_homology(product(*pair(x)))
            assert (got, got.dim) == (want, want.dim)

    def test_a_trivial_group_of_order_one_keeps_one_copy(self):
        point = EXAMPLE_COMPLEXES["point"]
        one = Explicit(point, Finite(catalog_group("Z1")), cover=point)
        assert universal_cover_homology(wedge(one, Sphere(2))) == homology(Sphere(2))


KLEIN_COVERED = Explicit(
    EXAMPLE_COMPLEXES["klein-bottle"],
    ElementaryAmenable(hirsch=2, cd_finite=True),
    cover=EXAMPLE_COMPLEXES["point"],
)
TORSION_FREE = [
    "point", "interval", "circle", "sphere2", "sphere3", "torus", "genus2-surface"
]
WITH_TORSION = ["projective-plane", "klein-bottle"]


def _grid(n):
    d1, d2 = surface_grid_naive("torus", n)
    return {"cells": [len(d1), len(d2), len(d2[0])], "boundary": [d1, d2]}


def _tensor_homology(*complexes):
    """Homology of the oracle's product complex of two or more complexes,
    nested from the left."""
    tensor = complex_to_json(complexes[0])
    for c in complexes[1:]:
        tensor = tensor_complex_naive(tensor, complex_to_json(c))
    return homology_of_complex(complex_from_json(tensor))


class TestProductAgainstTensorComplex:
    """Product homology and cover homology checked against the cellular
    product complex built by the oracle and reduced by Smith form."""

    @pytest.mark.parametrize(
        "first,second", list(itertools.combinations_with_replacement(TORSION_FREE, 2))
    )
    def test_torsion_free_example_pairs(self, first, second):
        a, b = EXAMPLE_COMPLEXES[first], EXAMPLE_COMPLEXES[second]
        got = homology(product(Explicit(a, Trivial()), Explicit(b, Trivial())))
        assert got == _tensor_homology(a, b)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("name", TORSION_FREE + WITH_TORSION)
    def test_torus_grid_times_example(self, n, name):
        grid = complex_from_json(_grid(n))
        other = EXAMPLE_COMPLEXES[name]
        got = homology(product(Explicit(grid, Trivial()), Explicit(other, Trivial())))
        assert got == _tensor_homology(grid, other)

    @pytest.mark.parametrize("second", TORSION_FREE + WITH_TORSION)
    @pytest.mark.parametrize("first", WITH_TORSION)
    def test_torsion_pairs_refused(self, first, second):
        a, b = EXAMPLE_COMPLEXES[first], EXAMPLE_COMPLEXES[second]
        got = homology(product(Explicit(a, Trivial()), Explicit(b, Trivial())))
        assert got == _tensor_homology(a, b)

    def test_refusal_is_needed(self):
        # RP^2 x RP^2 has the Tor term H_3 = Z/2, which the Betti numbers alone
        # would drop
        rp2 = EXAMPLE_COMPLEXES["projective-plane"]
        got = homology(product(Explicit(rp2, Trivial()), Explicit(rp2, Trivial())))
        assert got == _tensor_homology(rp2, rp2)
        assert got.group(3) == from_cyclic_factors(0, [2])

    def test_example_triples(self):
        # every ordered triple, so that a degree holding only a Tor term
        # (H_4 and H_5 of RP^2 x RP^2 x RP^2) is folded with the next factor
        names = ["projective-plane", "klein-bottle", "circle", "torus", "point"]
        for triple in itertools.product(names, repeat=3):
            complexes = [EXAMPLE_COMPLEXES[name] for name in triple]
            got = homology(product(*(Explicit(c, Trivial()) for c in complexes)))
            assert got == _tensor_homology(*complexes), triple

    @pytest.mark.parametrize("seed", range(8))
    def test_random_torsion_products(self, seed):
        # complexes drawn by the euler self-check's generator, kept when they
        # carry torsion: seeds 0-3 give Z/2, Z/3, Z/5, Z/7, Z/8 and Z/16
        rng = random.Random(seed)
        drawn = []
        while len(drawn) < 5:
            c = _random_zero_composition_complex(rng)
            if any(g.torsion for g in homology_of_complex(c).groups.values()):
                drawn.append(c)
        rp2 = EXAMPLE_COMPLEXES["projective-plane"]
        cases = [(rp2, rp2, rp2)] + [
            tuple(rng.sample(drawn + [rp2], rng.randint(2, 3))) for _ in range(8)
        ]
        for complexes in cases:
            got = homology(product(*(Explicit(c, Trivial()) for c in complexes)))
            assert got == _tensor_homology(*complexes), [complex_to_json(c) for c in complexes]

    @pytest.mark.parametrize(
        "space,first,second",
        [
            (product(Sphere(2), RP2_COVERED), "sphere2", "sphere2"),
            (product(RP2_COVERED, RP2_COVERED), "sphere2", "sphere2"),
            (product(KLEIN_COVERED, Sphere(2)), "point", "sphere2"),
        ],
    )
    def test_cover_of_product_is_product_of_covers(self, space, first, second):
        expected = _tensor_homology(EXAMPLE_COMPLEXES[first], EXAMPLE_COMPLEXES[second])
        assert universal_cover_homology(space) == expected


def _sphere_complex(n):
    """S^n as one 0-cell and one n-cell, in chain complex JSON form."""
    cells = [1] + [0] * (n - 1) + [1]
    zeros = [[[0] * cells[k] for _ in range(cells[k - 1])] for k in range(1, n + 1)]
    return {"cells": cells, "boundary": zeros}


def _pointed_torsion_complexes(count):
    """`count` complexes of known homology from `oracles.torsion_complex`,
    dimensions 1 and 2, each shifted up one degree over a single 0-cell with
    d_1 = 0, so that it is connected and has a base point; in chain complex
    JSON form.  Its H_(k+1) is the drawn H_k."""
    out = []
    for seed in range(count):
        maps, _ = torsion_complex(1 + seed % 2, seed)
        cells = [1, len(maps[0])] + [len(d[0]) for d in maps]
        out.append({"cells": cells, "boundary": [[[0] * cells[1]]] + maps})
    return out


class TestFoldAgainstCellularComplexes:
    """`homology` of nested wedges and products, with explicit parts that
    carry torsion, against Smith form on the cellular complex the oracles
    build: `wedge_complex_naive` for a wedge, `tensor_complex_naive` for a
    product."""

    LEAVES = [
        *(("sphere", n) for n in (1, 2, 3)),
        *(("explicit", complex_to_json(EXAMPLE_COMPLEXES[name]))
          for name in ("projective-plane", "klein-bottle", "torus", "circle", "point")),
        *(("explicit", c) for c in _pointed_torsion_complexes(6)),
    ]

    def expression(self, rng, depth):
        """A random space and the JSON of its cellular chain complex."""
        if depth == 0 or rng.random() < 0.25:
            kind, value = rng.choice(self.LEAVES)
            if kind == "sphere":
                return Sphere(value), _sphere_complex(value)
            return Explicit(complex_from_json(value), Trivial()), value
        if rng.random() < 0.5:
            parts = [self.expression(rng, depth - 1) for _ in range(rng.randint(2, 3))]
            return wedge(*(s for s, _ in parts)), wedge_complex_naive(*(c for _, c in parts))
        # two factors, drawn again while the oracle's dense product would be large
        while True:
            (x, cx), (y, cy) = (self.expression(rng, depth - 1) for _ in range(2))
            if sum(cx["cells"]) * sum(cy["cells"]) <= 200:
                return product(x, y), tensor_complex_naive(cx, cy)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_expressions(self, seed):
        rng = random.Random(f"fold-{seed}")
        for _ in range(12):
            space, complex_json = self.expression(rng, 3)
            got = homology(space)
            want = homology_of_complex(complex_from_json(complex_json))
            assert (got, got.dim) == (want, want.dim), space_to_json(space)
            betti = [want.group(k).free_rank for k in range(want.dim + 1)]
            assert poincare_polynomial(space) == betti

    def test_wedge_oracle_identifies_the_base_points(self):
        rp2 = complex_to_json(EXAMPLE_COMPLEXES["projective-plane"])
        c = wedge_complex_naive(_sphere_complex(2), rp2, _sphere_complex(1))
        assert c["cells"] == [1, 2, 2]
        assert render_profile(homology_of_complex(complex_from_json(c))) == (
            "H0 = Z\nH1 = Z ⊕ Z/2\nH2 = Z"
        )

    def test_a_wedge_keeps_h0_z_over_parts_with_h0_torsion(self):
        # parts whose H_0 is Z/2, Z/3 or Z^2, which `wedge_complex_naive`
        # refuses; the renders are pinned from the per-part profile code
        def explicit(cells, boundary):
            return Explicit(complex_from_json({"cells": cells, "boundary": boundary}), Trivial())

        z2, z3 = explicit([1, 1], [[[2]]]), explicit([1, 1], [[[3]]])
        two_points = explicit([2, 1], [[[2], [0]]])
        for space, text in [
            (wedge(z2, Sphere(2)), "H0 = Z\nH1 = 0\nH2 = Z"),
            (wedge(two_points, Sphere(1), z3), "H0 = Z\nH1 = Z"),
            (wedge(product(z2, z3), Sphere(1)), "H0 = Z\nH1 = Z\nH2 = 0"),
            (product(wedge(z2, Sphere(2)), z2), "H0 = Z/2\nH1 = 0\nH2 = Z/2\nH3 = 0"),
        ]:
            assert render_profile(homology(space)) == text

    @pytest.mark.parametrize(
        "parts, h0",
        [
            ([TWO_POINTS, 2], 2),
            ([TWO_POINTS, TWO_POINTS], 3),
            ([{"cells": [2, 1], "boundary": [[[0], [0]]]}, 2, TWO_POINTS], 3),
        ],
        ids=["two-points-v-s2", "two-points-v-two-points", "point-and-circle-v-s2-v-two-points"],
    )
    def test_a_disconnected_part_adds_its_components(self, parts, h0):
        # an int is a sphere of that dimension, a dict the complex of an explicit part
        spaces = [
            Sphere(p) if isinstance(p, int) else Explicit(complex_from_json(p), Trivial())
            for p in parts
        ]
        cells = [_sphere_complex(p) if isinstance(p, int) else p for p in parts]
        got = homology(wedge(*spaces))
        want = homology_of_complex(complex_from_json(wedge_complex_naive(*cells)))
        assert (got, got.dim) == (want, want.dim)
        assert got.group(0) == FgAbelianGroup(free_rank=h0)


class TestSharedParts:
    """A wedge may hold one part object many times, not side by side, beside
    equal parts that are other objects; a read shares one `Sphere` per
    dimension.  The fold, pi1 and the cover count every copy: homology
    against Smith form on the cellular complex of `wedge_complex_naive`."""

    @staticmethod
    def pool():
        """(part, its cellular complex): spheres, explicit parts with
        torsion, and products, all simply connected but the circle."""
        rp2 = Explicit(EXAMPLE_COMPLEXES["projective-plane"], Trivial())
        rp2_json = complex_to_json(EXAMPLE_COMPLEXES["projective-plane"])
        return [
            *((Sphere(n), _sphere_complex(n)) for n in (1, 2, 3)),
            *((Explicit(complex_from_json(c), Trivial()), c)
              for c in [rp2_json, complex_to_json(EXAMPLE_COMPLEXES["torus"]),
                        *_pointed_torsion_complexes(2)]),
            (product(Sphere(2), rp2), tensor_complex_naive(_sphere_complex(2), rp2_json)),
            (S2_X_S2, tensor_complex_naive(_sphere_complex(2), _sphere_complex(2))),
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_and_equal_parts_against_the_cellular_wedge(self, seed):
        rng = random.Random(f"shared-{seed}")
        pool = self.pool()
        picks = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
        # every pick again, in another order, and an equal copy read afresh
        parts = picks + rng.sample(picks, len(picks))
        copy, complex_json = rng.choice(picks)
        twin = space_from_json(space_to_json(copy))
        assert twin == copy and twin is not copy
        parts.insert(rng.randrange(len(parts) + 1), (twin, complex_json))
        space = wedge(*(part for part, _ in parts))
        lifted = complex_from_json(wedge_complex_naive(*(c for _, c in parts)))
        got, want = homology(space), homology_of_complex(lifted)
        assert (got, got.dim) == (want, want.dim), space_to_json(space)
        circles = sum(part == Sphere(1) for part, _ in parts)
        assert pi1_of(space) == free(circles)
        if not circles:
            assert universal_cover_homology(space) == got

    def test_pi1_counts_every_copy_of_a_part(self):
        circle, torus = Sphere(1), product(Sphere(1), Sphere(1))
        assert pi1_of(wedge(circle, Sphere(2), circle)) == Free(2)
        s1_x_s2 = product(Sphere(1), Sphere(2))
        assert pi1_of(wedge(s1_x_s2, Sphere(3), s1_x_s2, circle)) == Free(3)
        assert pi1_of(wedge(torus, Sphere(2))) == FgAbelian(FgAbelianGroup(free_rank=2))
        with pytest.raises(UnsupportedConstruction, match="free product"):
            pi1_of(wedge(torus, Sphere(2), torus))
        with pytest.raises(UnsupportedConstruction, match="only when they are all circles"):
            universal_cover_homology(wedge(RP2_COVERED, Sphere(2), RP2_COVERED))

    def test_a_read_shares_one_sphere_per_dimension(self):
        rng = random.Random(300)
        dims = [1] + [rng.randint(2, 60) for _ in range(299)]
        space = space_from_json({"wedge": [{"sphere": n} for n in dims]})
        # the expression of one fresh Sphere per leaf, compared by value
        assert space == wedge(*map(Sphere, dims))
        assert [part.n for part in space.parts] == dims
        assert len({id(part) for part in space.parts}) == len(set(dims))
        nested = {"product": [{"wedge": [{"sphere": 2}, {"sphere": 3}]}, {"sphere": 2}]}
        got = space_from_json(nested)
        assert got == product(wedge(Sphere(2), Sphere(3)), Sphere(2))
        assert got.factors[0].parts[0] is got.factors[1]
        # two reads share nothing
        assert space_from_json({"sphere": 2}) is not space_from_json({"sphere": 2})


def _count_calls(monkeypatch, name, *modules):
    """Wrap the function `name` in each of `modules` with one counter; its
    list holds the number of calls."""
    calls = [0]
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


class TestWedgeWalks:
    """A wedge request walks its parts a bounded number of times: one read,
    then O(1) passes per stage, not one per rule that needs pi1 or the
    dimension."""

    def test_best_bound_reads_pi1_at_most_twice_per_part(self, monkeypatch):
        # the benchmark's 50 S^1 + 150 S^2 wedge, read as the command line reads it
        dims = [1] * 50 + [2] * 150
        random.Random(2651).shuffle(dims)
        space = space_from_json({"wedge": [{"sphere": n} for n in dims]})
        calls = _count_calls(monkeypatch, "pi1_of", topology, depth)
        report = best_bound(space)
        assert (report.applied_rule, report.bound, report.exact_depth) == (
            "Cor-free-2dim", 200, 200
        )
        assert calls[0] <= 2 * len(dims)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_wedge_of_spheres_splits_as_by_identity(self, seed):
        # parts shared one Sphere per dimension, as the reader shares them:
        # grouping by dimension gives the identity pass's parts and copies
        rng = random.Random(6920 + seed)
        for _ in range(50):
            dims = [rng.choice([1, 1, *range(2, 14)]) for _ in range(rng.randint(1, 80))]
            shared = {n: Sphere(n) for n in dims}
            parts = tuple(map(shared.__getitem__, dims))
            others, rest = topology._split(parts)
            circles, naive_rest = split_by_identity_naive(parts)
            assert [(p, c) for p, _, c in others] == circles
            assert all(p is q for (p, _, _), (q, _) in zip(others, circles))
            assert all(d == Free(1) for _, d, _ in others)
            assert rest == naive_rest
            assert all(p is q for (p, _), (q, _) in zip(rest, naive_rest))
            # spheres built one per part are grouped by dimension all the same
            assert topology._split(tuple(map(Sphere, dims))) == (others, rest)

    def test_best_bound_on_a_wedge_of_spheres_makes_no_identity_pass(self, monkeypatch):
        # the benchmark's wedge of 200 spheres of dimension 2-30
        rng = random.Random(2652)
        dims = [rng.randint(2, 30) for _ in range(200)]
        space = space_from_json({"wedge": [{"sphere": n} for n in dims]})
        ids = [0]

        def counting_id(obj):
            ids[0] += 1
            return id(obj)

        monkeypatch.setattr(topology, "id", counting_id, raising=False)
        report = best_bound(space)
        assert (report.bound, report.exact_depth) == (200, 200)
        assert ids[0] == 0
        # a wedge with a part other than a sphere is split by identity
        best_bound(wedge(space, product(Sphere(2), Sphere(2))))
        assert ids[0] > 0

    def test_homology_command_walks_the_dimension_once(self, tmp_path, monkeypatch, capsys):
        rng = random.Random(2651)
        dims = [1] + [rng.randint(2, 60) for _ in range(300)]
        path = tmp_path / "wedge.json"
        path.write_text(json.dumps({"wedge": [{"sphere": n} for n in dims]}))
        calls = _count_calls(monkeypatch, "dim_of", topology, depth)
        assert run(["homology", "--format", "json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == max(dims)
        # the dimension cap reads it; homology takes it from its fold
        assert calls[0] <= 1 + len(dims)

    def test_a_wedge_of_spheres_is_folded_per_list(self, tmp_path, monkeypatch, capsys):
        # one _add call for the whole wedge: its spheres are counted by
        # dimension, not added one part at a time
        rng = random.Random(2651)
        dims = [1] + [rng.randint(2, 60) for _ in range(300)]
        path = tmp_path / "wedge.json"
        path.write_text(json.dumps({"wedge": [{"sphere": n} for n in dims]}))
        calls = _count_calls(monkeypatch, "_add", topology)
        assert run(["homology", "--format", "json", str(path)]) == 0
        groups = json.loads(capsys.readouterr().out)["groups"]
        assert {k: g["free_rank"] for k, g in groups.items() if g["free_rank"]} == {
            "0": 1, **{str(n): c for n, c in collections.Counter(dims).items()}
        }
        assert calls[0] == 1

    def test_the_rest_of_a_finite_cover_is_folded_once(self, monkeypatch):
        # RP^2 v T^2: the cover S^2 of RP^2 with a T^2 at each of its 2 lifts
        torus = Explicit(EXAMPLE_COMPLEXES["torus"], Trivial())
        calls = _count_calls(monkeypatch, "homology_of_complex", topology)
        got = universal_cover_homology(wedge(RP2_COVERED, torus))
        assert got == profile(2, {
            0: Z, 1: FgAbelianGroup(free_rank=4), 2: FgAbelianGroup(free_rank=3)
        })
        # Smith form once on the cover of RP^2, once on T^2
        assert calls[0] == 2

    @pytest.mark.parametrize("s3", [False, True], ids=["rp2-v-rp2", "rp2-v-rp2-v-s3"])
    def test_a_refused_pi1_is_read_once(self, monkeypatch, s3):
        # Z2 * Z2 has no descriptor: one read is pi1_of on the wedge and on
        # each of its parts, the two RP^2 read as two objects.  Each family
        # that gets as far as pi1 records the same refusal; with S^3 beside
        # them the 2-dim rule fails on the dimension first, and run alone it
        # reads no pi1
        rp2 = space_to_json(RP2_COVERED)
        space = space_from_json({"wedge": [rp2, rp2, *[{"sphere": 3}] * s3]})
        read, original = [], topology.pi1_of

        def recording(x):
            read.append(x)
            return original(x)

        for module in (topology, depth):
            monkeypatch.setattr(module, "pi1_of", recording)
        refused = (
            "UnsupportedConstruction: free product of the wedge parts' groups has no descriptor"
        )
        two_dim = "DimensionNotTwo: rule needs a 2-dimensional space, got dim 3" if s3 else refused
        failures = (("Thm4.1", refused), ("Thm4.8", two_dim))
        assert best_bound(space).failures == failures
        assert len(read) == 1 + len(space.parts) and [x is space for x in read].count(True) == 1
        for failure in failures:
            read.clear()
            assert forced_bound(space, failure[0]).failures == (failure,)
            reads = 0 if failure[1].startswith("DimensionNotTwo") else 1
            assert [x is space for x in read].count(True) == reads

    def test_the_2dim_family_refuses_the_dimension_before_reading_pi1(self, monkeypatch):
        # pi1 of RP^2 x RP^2 x RP^2 would build the 8-element product table
        rp2 = space_to_json(RP2_COVERED)
        space = space_from_json({"product": [rp2] * 3})
        calls = _count_calls(monkeypatch, "pi1_of", topology, depth)
        assert forced_bound(space, "Thm4.8").failures == (
            ("Thm4.8", "DimensionNotTwo: rule needs a 2-dimensional space, got dim 6"),
        )
        assert calls[0] == 0
        with pytest.raises(DimensionNotTwo):
            bound_2dim(space)
        assert calls[0] == 0
        assert forced_bound(space, "Thm4.1").bound == 3 + 7
        assert calls[0] == 1 + 3


def _nested(levels: int) -> dict:
    """S^2 inside `levels` wedge and product lists, alternating, with an S^3
    beside it in each: no two levels splice into one."""
    space = {"sphere": 2}
    for level in range(levels):
        space = {("product", "wedge")[level % 2]: [space, {"sphere": 3}]}
    return space


# nodes that leave a list to the per-node read, valid ones included
READER_FAULTS = [
    {"sphere": True}, {"sphere": False}, {"sphere": 2.0}, {"sphere": 0}, {"sphere": -4},
    {"sphere": "3"}, {"sphere": None}, {"sphere": 2, "x": 1}, {"x": 2}, {}, 2.0, "3", None,
    True, [], {"wedge": []}, {"product": {"sphere": 2}}, collections.OrderedDict(sphere=3),
]


def _random_space_list(rng, depth: int = 0) -> dict:
    """A wedge or product of 1-30 nodes: sphere leaves of dimension 1-60,
    and less than three lists deep now and then a nested list."""
    nodes = [
        _random_space_list(rng, depth + 1) if depth < 3 and rng.random() < 0.1
        else {"sphere": rng.randint(1, 60)}
        for _ in range(rng.randint(1, 30))
    ]
    return {rng.choice(("wedge", "product")): nodes}


def _lists(space: dict) -> list[list]:
    """Every wedge and product list of a valid expression in JSON form."""
    (_, value), = space.items()
    if not isinstance(value, list):
        return []
    return [value, *(inner for node in value for inner in _lists(node))]


def _read_outcome(read, obj):
    """The repr of the space `read` returns, which tells a bool from an int,
    or the type and message of the ValueError it raises."""
    try:
        return repr(read(obj))
    except ValueError as err:
        return type(err), str(err)


class TestSphereListRule:
    """A list of plain sphere leaves is read by `errors._sphere_dims` in
    C-level passes and any other list node by node; either way the space,
    or the first fault in node order, is that of `space_from_json_naive`."""

    @pytest.mark.parametrize("nodes, dims", [
        ([{"sphere": 3}, {"sphere": 1}, {"sphere": 3}], [3, 1, 3]),
        ([], []),
        # a plain int below 1 is refused where its Sphere is built
        ([{"sphere": 0}, {"sphere": -2}], [0, -2]),
        ([{"sphere": 2}, {"sphere": True}], None),
        ([{"sphere": 2}, {"sphere": 2.0}], None),
        ([{"sphere": 2}, {"sphere": 2, "x": 1}], None),
        ([{"sphere": 2}, {"wedge": [{"sphere": 2}]}], None),
        ([{"sphere": 2}, collections.OrderedDict(sphere=2)], None),
        ([{"sphere": 2}, {}], None),
        ([{"sphere": 2}, 2], None),
    ])
    def test_the_rule(self, nodes, dims):
        assert _sphere_dims(nodes) == dims

    @pytest.mark.parametrize("seed", range(6))
    def test_against_the_per_node_reader(self, seed):
        rng = random.Random(f"sphere-lists-{seed}")
        refused = collections.Counter()
        for _ in range(60):
            space = _random_space_list(rng)
            if rng.random() < 2 / 3:
                lists = _lists(space)
                for _ in range(rng.randint(1, 3)):
                    nodes = rng.choice(lists)
                    nodes[rng.randrange(len(nodes))] = rng.choice(READER_FAULTS)
            got = _read_outcome(space_from_json, space)
            assert got == _read_outcome(space_from_json_naive, space), space
            refused[isinstance(got, tuple)] += 1
        assert refused[True] and refused[False]

    @pytest.mark.parametrize("read", [space_from_json, space_from_json_naive])
    def test_the_first_bad_dimension_in_node_order(self, read):
        with pytest.raises(ValueError, match="got 0$"):
            read({"wedge": [{"sphere": 2}, {"sphere": 0}, {"sphere": -4}, {"sphere": 0}]})

    def test_a_sphere_list_is_read_per_list(self, monkeypatch):
        # one shape check, on the wedge node, and no integer rule per leaf
        rng = random.Random(2651)
        dims = [1] + [rng.randint(2, 60) for _ in range(300)]
        calls = {
            name: _count_calls(monkeypatch, name, topology) for name in ("_one_of", "_check_int")
        }
        space = space_from_json({"wedge": [{"sphere": n} for n in dims]})
        assert [part.n for part in space.parts] == dims
        assert len({id(part) for part in space.parts}) == len(set(dims))
        assert {name: count[0] for name, count in calls.items()} == {"_one_of": 1, "_check_int": 0}

    def test_the_nesting_cap(self):
        assert space_from_json(_nested(MAX_NESTING)) == space_from_json_naive(_nested(MAX_NESTING))
        message = f"space nested more than {MAX_NESTING} wedge and product lists deep"
        for read in (space_from_json, space_from_json_naive):
            with pytest.raises(ValueError, match=message):
                read(_nested(MAX_NESTING + 1))
        # at the cap, the fold, pi1 and the cover run far below the
        # interpreter's recursion limit
        space = space_from_json(_nested(MAX_NESTING))
        # each product level adds an S^3
        assert homology(space).dim == dim_of(space) == 2 + 3 * ((MAX_NESTING + 1) // 2)
        assert pi1_of(space) == Trivial()
        assert universal_cover_homology(space) == homology(space)


class TestProductBounds:
    """A product is refused up front when its total Betti number passes
    MAX_BETTI, and before a Kunneth step when the pairs of stored degrees
    combined so far would pass MAX_KUNNETH_PAIRS."""

    def test_at_and_past_each_bound(self, monkeypatch):
        # the 3-torus: total Betti number 8, and 2 + 4 + 6 pairs of degrees
        torus3 = product(Sphere(1), Sphere(1), Sphere(1))
        for name, at in (("MAX_BETTI", 8), ("MAX_KUNNETH_PAIRS", 12)):
            monkeypatch.setattr(topology, name, at)
            assert poincare_polynomial(torus3) == [1, 3, 3, 1]
            monkeypatch.setattr(topology, name, at - 1)
            with pytest.raises(UnsupportedConstruction):
                homology(torus3)
            monkeypatch.undo()

    def test_pairs_are_refused_before_the_step_runs(self):
        # the second step would combine 3001 x 3001 degrees
        spheres = wedge(*map(Sphere, range(1, 3001)))
        start = time.perf_counter()
        with pytest.raises(UnsupportedConstruction, match="Kunneth pairs of degrees"):
            homology(product(spheres, spheres))
        assert time.perf_counter() - start < 1


class TestTopFreeRank:
    """`_top_free_rank`, which the 2-dim rule reads as rank H_2, is the free
    rank of the top homology group, and on an explicit complex it reduces
    only the top boundary map."""

    @staticmethod
    def check(space):
        dim = dim_of(space)
        assert _top_free_rank(space) == homology(space).group(dim).free_rank, space_to_json(space)

    @pytest.mark.parametrize("name", sorted(EXAMPLE_COMPLEXES))
    def test_example_complexes(self, name):
        self.check(Explicit(EXAMPLE_COMPLEXES[name], Trivial()))

    @pytest.mark.parametrize("kind", ["torus", "klein"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_plain_and_disguised_surfaces(self, kind, n):
        plain = surface_grid_naive(kind, n)
        plain_complex = {"cells": [len(plain[0]), len(plain[1]), len(plain[1][0])],
                         "boundary": list(plain)}
        self.check(Explicit(complex_from_json(plain_complex), Trivial()))
        self.check(space_from_json(disguised_surface_space(kind, n)))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_complexes_of_known_torsion(self, dim, seed):
        maps, known = torsion_complex(dim, seed)
        cells = [len(maps[0])] + [len(m[0]) for m in maps]
        space = Explicit(complex_from_json({"cells": cells, "boundary": maps}), Trivial())
        self.check(space)
        assert _top_free_rank(space) == known[dim][0]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_expressions(self, seed):
        rng = random.Random(f"top-rank-{seed}")
        fold = TestFoldAgainstCellularComplexes()
        for _ in range(20):
            self.check(space_from_json(_random_sphere_expression(rng, 3)))
            self.check(fold.expression(rng, 3)[0])

    SURFACES = {
        "torus": FgAbelian(FgAbelianGroup(free_rank=2)),
        "klein-bottle": ElementaryAmenable(hirsch=2, cd_finite=True),
    }

    @pytest.mark.parametrize("bound", ["best", "forced"])
    @pytest.mark.parametrize("name", sorted(SURFACES))
    def test_a_surface_bound_reduces_only_d2(self, monkeypatch, name, bound):
        complex_ = EXAMPLE_COMPLEXES[name]
        space = Explicit(complex_, self.SURFACES[name], cover=EXAMPLE_COMPLEXES["point"])
        reduced = []
        original = intlinalg._eliminate

        def recording(m, drop):
            reduced.append(m)
            return original(m, drop)

        monkeypatch.setattr(intlinalg, "_eliminate", recording)
        # sl(pi1) = 2, and rank H_2 is 1 for the torus and 0 for the Klein bottle
        two_dim = 3 if name == "torus" else 2
        if bound == "best":
            assert best_bound(space).assumptions_used[-1] == (
                f"both rules apply: general bound 2, 2-dim bound {two_dim}"
            )
        else:
            assert forced_bound(space, "Thm4.8").bound == two_dim
        # the cover is the point, with no map to reduce; H_2 reads d_2 alone
        assert len(reduced) == 1 and reduced[0] is complex_.boundary[1]


def _presentation_complex(n):
    """<a | a^n> as one cell in each of degrees 0, 1 and 2, with d_2 = n."""
    return {"cells": [1, 1, 1], "boundary": [[[0]], [[n]]]}


class TestWedgeCoverAgainstLiftedComplex:
    """The cover of X v Y for the presentation complex X of <a | a^n>, by the
    wedge rule, against Smith form on the cover lifted cell by cell
    (`oracles.cyclic_cover_wedge_naive`), and chi(cover) = n chi(X v Y)."""

    RESTS = {
        "S2": [(Sphere(2), _sphere_complex(2))],
        "S3": [(Sphere(3), _sphere_complex(3))],
        "torus-labelled-trivial": [
            (Explicit(EXAMPLE_COMPLEXES["torus"], Trivial()),
             complex_to_json(EXAMPLE_COMPLEXES["torus"])),
        ],
        "S2xS2": [(S2_X_S2, tensor_complex_naive(_sphere_complex(2), _sphere_complex(2)))],
        "S2-and-S3": [(Sphere(2), _sphere_complex(2)), (Sphere(3), _sphere_complex(3))],
        # each lift of the base point gets a further component: H_0 = Z^(n+1)
        "two-points": [(Explicit(complex_from_json(TWO_POINTS), Trivial()), TWO_POINTS)],
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rest", sorted(RESTS))
    @pytest.mark.parametrize("kind", ["finite", "abelian"])
    def test_rule_matches_the_lifted_complex(self, n, rest, kind):
        if kind == "finite":
            pi1 = Finite(catalog_group(f"Z{n}"))
        else:
            pi1 = FgAbelian(from_cyclic_factors(0, [n]))
        x = Explicit(
            complex_from_json(_presentation_complex(n)), pi1,
            cover=complex_from_json(cyclic_cover_wedge_naive(n)),
        )
        parts = self.RESTS[rest]
        space = wedge(x, *(y for y, _ in parts))
        lifted = complex_from_json(cyclic_cover_wedge_naive(n, *(c for _, c in parts)))
        got, want = universal_cover_homology(space), homology_of_complex(lifted)
        assert (got, got.dim) == (want, want.dim)
        assert euler_characteristic(lifted) == n * _euler(homology(space))
        assert _euler(got) == n * _euler(homology(space))

    @pytest.mark.parametrize("n", [2, 3])
    def test_repeated_rest_parts_make_their_copies(self, n):
        # S^2 and a torus twice each, apart, beside an equal torus read afresh
        x = Explicit(
            complex_from_json(_presentation_complex(n)), Finite(catalog_group(f"Z{n}")),
            cover=complex_from_json(cyclic_cover_wedge_naive(n)),
        )
        torus_json = complex_to_json(EXAMPLE_COMPLEXES["torus"])
        s2, torus = Sphere(2), Explicit(EXAMPLE_COMPLEXES["torus"], Trivial())
        twin = space_from_json(space_to_json(torus))
        rest = [(s2, _sphere_complex(2)), (torus, torus_json), (s2, _sphere_complex(2)),
                (twin, torus_json), (torus, torus_json)]
        space = wedge(rest[0][0], rest[1][0], x, *(part for part, _ in rest[2:]))
        lifted = complex_from_json(cyclic_cover_wedge_naive(n, *(c for _, c in rest)))
        got, want = universal_cover_homology(space), homology_of_complex(lifted)
        assert (got, got.dim) == (want, want.dim)

    def test_a_circle_with_a_disconnected_part_has_infinitely_many_components(self):
        two_points = Explicit(complex_from_json(TWO_POINTS), Trivial())
        got = universal_cover_homology(wedge(Sphere(1), two_points))
        assert (got.groups, got.dim) == ({0: None}, 1)


def _euler(profile_):
    """The Euler characteristic read from a profile's free ranks."""
    return sum((-1) ** k * g.free_rank for k, g in profile_.groups.items())


class TestHomologyBuildsOnce:
    """A wedge or product of spheres is one integer fold: one profile, and
    at most one group per stored degree, built for the answer alone."""

    @pytest.mark.parametrize(
        "space",
        [
            wedge(*(Sphere(1 + i % 97) for i in range(300))),
            product(*(Sphere(1 + i) for i in range(10))),
        ],
        ids=["wedge-300", "product-10"],
    )
    def test_constructions(self, space, monkeypatch):
        built = collections.Counter()
        for cls in (HomologyProfile, FgAbelianGroup):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        profile = homology(space)
        assert built["HomologyProfile"] == 1
        assert 0 < built["FgAbelianGroup"] <= len(profile.groups)


class TestProfile:
    def test_content_equality_ignores_trailing_trivial_degrees(self):
        a = profile(2, {0: Z})
        b = profile(0, {0: Z})
        assert a == b
        assert profile(2, {0: Z, 2: Z}) != b

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            HomologyProfile(-1, {})
        # a degree outside 0..dim is refused, not dropped
        with pytest.raises(ValueError, match=r"degree 2 is outside 0\.\.1"):
            HomologyProfile(1, {2: Z})
        with pytest.raises(ValueError, match="degree -1 is outside"):
            HomologyProfile(1, {-1: None})
        with pytest.raises(ValueError, match="degree 3 is outside"):
            HomologyProfile(2, {0: Z, 3: FgAbelianGroup()})

    def test_accessors_beyond_dim(self):
        p = profile(1, {0: Z, 1: Z})
        assert p.group(5).is_trivial and p.fg(5) is True

    def test_free_rank_errors_on_not_fg(self):
        p = universal_cover_homology(wedge(Sphere(1), Sphere(2)))
        with pytest.raises(NotFinitelyGenerated):
            p.free_rank(2)

    def test_render(self):
        p = universal_cover_homology(wedge(Sphere(1), Sphere(2)))
        assert render_profile(p).splitlines() == [
            "H0 = Z",
            "H1 = 0",
            "H2 = not finitely generated",
        ]

    def test_repr(self):
        assert repr(homology(Sphere(2))) == "HomologyProfile(H0=Z, H2=Z)"
        cover = universal_cover_homology(wedge(Sphere(1), Sphere(2)))
        assert repr(cover) == "HomologyProfile(H0=Z, H2=not f.g.)"

    def test_json(self):
        p = homology(Sphere(2))
        j = profile_to_json(p)
        assert j["dim"] == 2
        assert j["groups"]["0"] == {"free_rank": 1, "torsion": []}
        assert j["groups"]["1"] == {"free_rank": 0, "torsion": []}
        assert j["finitely_generated"]["2"] is True
        assert j == profile_to_json_naive(p)


def _random_sphere_expression(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return {"sphere": rng.randint(1, 8)}
    parts = [_random_sphere_expression(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    return {rng.choice(["wedge", "product"]): parts}


class TestSparseProfile:
    """Profiles store only the degrees that carry homology or a verdict."""

    def test_only_nontrivial_degrees_are_stored(self):
        p = homology(Sphere(10**5))
        assert list(p.groups) == [0, 10**5] and None not in p.groups.values()
        assert p.group(5) == FgAbelianGroup() and p.fg(5) is True
        p = universal_cover_homology(wedge(Sphere(1), Sphere(5), Sphere(3)))
        assert p.groups == {0: Z, 3: None, 5: None}
        assert [p.fg(k) for k in range(6)] == [True, True, True, False, True, False]

    def test_explicit_trivial_degrees_change_nothing(self):
        rng = random.Random(20261018)
        for _ in range(200):
            dim = rng.randint(0, 10)
            groups = {}
            for k in range(dim + 1):
                if rng.random() < 0.3:
                    groups[k] = from_cyclic_factors(rng.randint(0, 2), [rng.choice([1, 2, 6])])
                elif rng.random() < 0.2:
                    groups[k] = None
            padded_groups = {k: groups.get(k, FgAbelianGroup()) for k in range(dim + 1)}
            sparse = HomologyProfile(dim, groups)
            padded = HomologyProfile(dim, padded_groups)
            assert sparse == padded
            assert sparse.groups == padded.groups
            assert all(g is None or not g.is_trivial for g in padded.groups.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_homology_matches_dense_betti_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            expression = _random_sphere_expression(rng, 3)
            betti = betti_naive(expression)
            got = homology(space_from_json(expression))
            assert got.dim == len(betti) - 1
            for k, b in enumerate(betti):
                assert got.group(k) == FgAbelianGroup(free_rank=b), (expression, k)
            assert poincare_polynomial(space_from_json(expression)) == betti

    def test_wedge_of_high_spheres_costs_its_homology(self):
        space = wedge(*[Sphere(100000)] * 100)
        for compute in (homology, best_bound):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                compute(space)
                times.append(time.perf_counter() - start)
            assert min(times) < 0.1, compute.__name__
        assert homology(space).group(100000) == FgAbelianGroup(free_rank=100)
        assert best_bound(space).bound == 100


def _random_profile(rng):
    dim = rng.choice([0, 1, 2, 5, 12, 40])
    groups = {}
    for k in rng.sample(range(dim + 1), rng.randint(0, dim + 1)):
        if rng.random() < 0.25:
            groups[k] = None
        else:
            factors = [rng.choice([1, 2, 3, 4, 6, 9, 12, 25]) for _ in range(rng.randint(0, 4))]
            groups[k] = from_cyclic_factors(rng.randint(0, 3), factors)
    return HomologyProfile(dim, groups)


class TestProfileJsonText:
    """profile_json_text must print exactly what json.dumps prints."""

    def test_random_profiles(self):
        rng = random.Random(61)
        for _ in range(400):
            p = _random_profile(rng)
            assert profile_json_text(p) == json.dumps(profile_to_json(p), indent=2)
            assert profile_to_json(p) == profile_to_json_naive(p)

    @pytest.mark.parametrize(
        "space",
        [Sphere(1), Sphere(2), Sphere(7), Sphere(2000)]
        + [Explicit(c, Trivial()) for c in EXAMPLE_COMPLEXES.values()]
        + [wedge(Sphere(1), Sphere(3), Sphere(3))],
    )
    def test_spaces_and_their_covers(self, space):
        profiles = [homology(space)]
        if isinstance(space, Wedge):
            profiles.append(universal_cover_homology(space))
        for p in profiles:
            assert profile_json_text(p) == json.dumps(profile_to_json(p), indent=2)
            assert profile_to_json(p) == profile_to_json_naive(p)


    @pytest.mark.parametrize("dim", [2047, 2048, 2049, 6145, 10000, 10001])
    def test_runs_longer_than_a_chunk(self, dim):
        # runs of trivial degrees are cut at every multiple of 1000: a stored
        # degree or a verdict next to a cut or at either end must not move a
        # comma
        for stored in (
            [], [0], [dim], [2047], [2048], [0, 2047, 2048, dim],
            [999], [1000], [1999, 2000], [9999], [10000],
            [999, 1000, 1999, 2000, 9999, 10000, dim],
        ):
            keys = sorted({k for k in stored if k <= dim})
            groups = {k: Z if i % 2 == 0 else None for i, k in enumerate(keys)}
            p = HomologyProfile(dim, groups)
            chunks = list(profile_json_chunks(p))
            expanded = profile_to_json(p)
            assert "".join(chunks) == json.dumps(expanded, indent=2)
            assert max(map(len, chunks)) < 1000 * 80
            assert expanded == profile_to_json_naive(p)


# strings json.dumps must escape: quotes, backslashes, control characters,
# non-ASCII (BMP and astral) and lone surrogates, beside any code point
_ESCAPED = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "π", "₁", "\U0001f600", "\ud800", "\udfff"]
)
_TEXT = st.text(st.one_of(_ESCAPED, st.characters(blacklist_categories=())), max_size=8)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-20, 20), _TEXT)


def _json_trees(depth: int):
    """JSON trees nested at most `depth` containers deep, empty ones included."""
    if depth == 0:
        return _SCALARS
    inner = _json_trees(depth - 1)
    return st.one_of(
        _SCALARS, st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)
    )


@st.composite
def _degree_nodes(draw):
    """A `_Degrees` node: empty ones (start > dim), stored degrees at either
    end and beside the 1000-degree cuts, and values shared by identity."""
    start = draw(st.integers(0, 3))
    dim = draw(st.sampled_from([start - 2, start - 1, start, start + 1, 7, 999, 1000, 1001, 2001]))
    anywhere = draw(st.integers(start, max(start, dim)))
    candidates = [start, dim, 998, 999, 1000, 1001, 1999, 2000, anywhere]
    keys = sorted({k for k in candidates if start <= k <= dim and draw(st.booleans())})
    pool = draw(st.lists(_json_trees(2), min_size=1, max_size=3))
    stored = {k: pool[draw(st.integers(0, len(pool) - 1))] for k in keys}
    # every line of a default is short: under 80 characters at any depth drawn here
    short = _json_trees(0).filter(lambda v: len(json.dumps(v)) < 20)
    default = draw(st.one_of(short, st.just({"free_rank": 0, "torsion": []}), st.just([])))
    return _Degrees(start, dim, stored, default)


def _degree_trees():
    """A `_Degrees` node, or a list or dict of at most two items beside it."""
    node = _degree_nodes()
    item = st.one_of(node, _json_trees(1))
    return st.one_of(
        node,
        st.lists(item, min_size=1, max_size=2),
        st.dictionaries(
            _TEXT, st.one_of(item, st.lists(item, max_size=2)), min_size=1, max_size=2
        ),
    )


def _degree_lines(value) -> int:
    """The most lines that one default degree of a `_Degrees` node in
    `value` spans, at least 1."""
    if isinstance(value, _Degrees):
        return json.dumps(value.default, indent=2).count("\n") + 1
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return max(map(_degree_lines, items), default=1)


class TestJsonWriter:
    """`_json_chunks` writes what json.dumps(indent=2) writes, nested any
    number of levels deep, and a `_Degrees` node as its dense dict."""

    @settings(max_examples=300, deadline=None)
    @given(_json_trees(4))
    @example([True, 1, False, 0, -1, 10**30, None, "", [], {}, [[]], {"": {}}])
    def test_plain_trees(self, value):
        for level in range(4):
            want = json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)
            assert "".join(_json_chunks(value, level)) == want

    @settings(max_examples=150, deadline=None)
    @given(_degree_trees(), st.integers(0, 3))
    @example({"": None, '"': [_Degrees(0, 999, {}, {"free_rank": 0, "torsion": []})]}, 2)
    def test_trees_with_degree_maps(self, value, level):
        chunks = list(_json_chunks(value, level))
        want = json.dumps(_plain(value), indent=2).replace("\n", "\n" + "  " * level)
        assert "".join(chunks) == want
        # a chunk holds at most 1000 degrees, and a default degree spans
        # `lines` lines: a homology group's default spans four
        lines = _degree_lines(value)
        assert max(chunk.count("\n") for chunk in chunks) <= 1000 * lines
        assert max(map(len, chunks)) < 1000 * 80 * lines

    def test_plain_degree_maps_share_nothing(self):
        group = {"free_rank": 0, "torsion": []}
        plain = _plain({"groups": _Degrees(0, 2, {1: group}, group)})
        assert plain == {"groups": {"0": group, "1": group, "2": group}}
        values = list(plain["groups"].values())
        assert len({id(v) for v in values} | {id(v["torsion"]) for v in values}) == 6

    @pytest.mark.parametrize("value", [1.5, 0.0, (), (1,), {1, 2}, {1: 2}, object()])
    def test_refuses_what_is_not_json(self, value):
        with pytest.raises(TypeError):
            "".join(_json_chunks([value]))


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polydepth"
# the one JSON writer: its entry, its container walk and its leaf helper
WRITER = {"_json_chunks", "_json_parts", "_json_leaf"}
# pieces of JSON layout no string outside the writer spells
JSON_PUNCTUATION = ('": ', '",', "{\n", "[\n", ",\n", "{}", "[]", "null", "true", "false")


def _imports_json(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"
        for node in ast.walk(tree)
    )


def _spelled_json(tree: ast.Module) -> list[str]:
    """The strings outside the writer and outside docstrings that spell a
    piece of JSON layout."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
        and ast.get_docstring(node) is not None
    }
    return [
        node.value
        for stmt in tree.body
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name in WRITER)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
        and any(piece in node.value for piece in JSON_PUNCTUATION)
    ]


def test_only_the_writer_spells_json():
    # topology owns the JSON layout and the CLI reads its input files; in
    # topology only the writer reaches json, and neither topology nor depth
    # holds a string outside it that spells JSON punctuation
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    importers = {name for name, tree in trees.items() if _imports_json(tree)}
    assert importers == {"cli.py", "topology.py"}
    reach = {
        stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for stmt in trees["topology.py"].body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id == "json"
    }
    assert reach and reach <= WRITER
    assert _spelled_json(trees["topology.py"]) == []
    assert _spelled_json(trees["depth.py"]) == []


# the ends of aligned blocks of 1000 degrees, and where str(k) grows a digit
RUN_ENDS = [0, 1, 998, 999, 1000, 1001, 1999, 2000, 9999, 10000, 99999, 100000, 999999, 10**6]


class TestDegreeRuns:
    """`_degree_runs` writes a block of 1000 degrees in one join; the oracle
    writes one str() per degree."""

    SEPS = [",", '": 0,\n    "', " = 0\nH", ": 0\ndegree "]

    @staticmethod
    def check(start, stop, sep, expected):
        pieces = [head + body for head, body in _degree_runs(start, stop, sep)]
        assert sep.join(pieces) == expected, (start, stop)
        # one piece per aligned block the range touches
        assert len(pieces) == len(range(start // 1000, (stop - 1) // 1000 + 1))
        assert all(piece.count(sep) < 1000 for piece in pieces)

    def test_block_ends(self):
        # a one-character sep keeps the oracle's million-degree joins cheap,
        # and each degree's str() is taken once, for all 91 ranges; the
        # seeded ranges try the separators the renderers use
        names = degree_names_naive(RUN_ENDS[-1])
        for a in RUN_ENDS:
            for b in RUN_ENDS:
                if a < b:
                    self.check(a, b, ",", ",".join(names[a:b]))

    def test_seeded_ranges(self):
        rng = random.Random(20)
        for i in range(300):
            a = rng.randrange(rng.choice([10, 3000, 30000, 10**6]))
            b = a + rng.randrange(1, rng.choice([5, 1500, 5000]))
            sep = self.SEPS[i % len(self.SEPS)]
            self.check(a, b, sep, degree_run_naive(a, b, sep))

    def test_an_empty_range_has_no_piece(self):
        for a in RUN_ENDS:
            assert list(_degree_runs(a, a, ",")) == []


class TestRenderProfile:
    """render_profile renders only the stored degrees; the dense oracle walks
    every degree.  Real profiles are pinned in test_cli_bytes."""

    def test_random_profiles(self):
        rng = random.Random(67)
        for _ in range(400):
            p = _random_profile(rng)
            assert render_profile(p) == render_profile_naive(p)


class TestJson:
    def test_space_round_trip(self):
        spaces = [
            Sphere(1),
            wedge(Sphere(1), Sphere(2)),
            product(Sphere(1), wedge(Sphere(2), Sphere(3))),
            Explicit(
                EXAMPLE_COMPLEXES["projective-plane"],
                Finite(catalog_group("Z2")),
                cover=EXAMPLE_COMPLEXES["sphere2"],
            ),
            Explicit(EXAMPLE_COMPLEXES["klein-bottle"], free(1)),
        ]
        for x in spaces:
            assert space_from_json(space_to_json(x)) == x

    def test_complex_round_trip(self):
        for c in EXAMPLE_COMPLEXES.values():
            assert complex_from_json(complex_to_json(c)) == c

    @pytest.mark.parametrize(
        "bad",
        [
            7,
            {},
            {"sphere": 1, "wedge": []},
            {"wedge": []},
            {"product": "x"},
            {"unknown": 1},
            {"explicit": {"complex": {"cells": [1]}}},
            {"explicit": {"complex": {"cells": [1]}, "pi1": {"trivial": True}, "x": 1}},
        ],
    )
    def test_malformed_space_rejected(self, bad):
        with pytest.raises(ValueError):
            space_from_json(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"boundary": []},
            {"cells": []},
            {"cells": [1, 1], "boundary": []},
            {"cells": [1], "boundary": [], "junk": 1},
            # boundary shape disagrees with the cell counts
            {"cells": [1, 1], "boundary": [[[0], [0]]]},
            # maps that do not compose to zero
            {"cells": [1, 2, 1], "boundary": [[[1, 0]], [[1], [0]]]},
        ],
    )
    def test_malformed_complex_rejected(self, bad):
        with pytest.raises(ValueError):
            complex_from_json(bad)
