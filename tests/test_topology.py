"""Space and homology tests.

Pinned homologies are the standard cell structures computed by hand (the
boundary matrices are small enough to verify directly); random complexes are
generated with exact zero composition by drawing the second boundary map
from the kernel of the first, and checked for Euler consistency.
"""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    betti_naive,
    rank_fraction,
    render_profile_naive,
    surface_grid_naive,
    tensor_complex_naive,
)
from polydepth.abelian import FgAbelianGroup, from_boundary_maps, from_cyclic_factors
from polydepth.catalog import catalog_group
from polydepth.suites import _random_zero_composition_complex
from polydepth.depth import best_bound
from polydepth.errors import (
    CompositionNotZero,
    DimensionMismatch,
    NotFinitelyGenerated,
    UnsupportedConstruction,
)
from polydepth.intlinalg import IntMatrix, smith_normal_form
from polydepth.pi1 import ElementaryAmenable, FgAbelian, Finite, Free, Trivial, free
from polydepth.topology import (
    EXAMPLE_COMPLEXES,
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
            wedge(Sphere(1), Sphere(1)),
            wedge(Sphere(1), product(Sphere(2), Sphere(2))),
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
            (wedge(Sphere(1), Sphere(1)), "wedge of circles only"),
            (
                wedge(Sphere(1), product(Sphere(2), Sphere(2))),
                "not simply connected: no cover rule unless every part is a sphere",
            ),
        ],
    )
    def test_message_names_the_reason(self, space, reason):
        with pytest.raises(UnsupportedConstruction, match=reason):
            universal_cover_homology(space)


RP2_COVERED = Explicit(
    EXAMPLE_COMPLEXES["projective-plane"],
    Finite(catalog_group("Z2")),
    cover=EXAMPLE_COMPLEXES["sphere2"],
)
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


    @pytest.mark.parametrize("dim", [2047, 2048, 2049, 6145])
    def test_runs_longer_than_a_chunk(self, dim):
        # runs of trivial degrees are cut every 2048 degrees: a stored degree
        # or a verdict next to a cut or at either end must not move a comma
        for stored in ([], [0], [dim], [2047], [2048], [0, 2047, 2048, dim]):
            keys = [k for k in stored if k <= dim]
            groups = {k: Z if i % 2 == 0 else None for i, k in enumerate(keys)}
            p = HomologyProfile(dim, groups)
            chunks = list(profile_json_chunks(p))
            assert "".join(chunks) == json.dumps(profile_to_json(p), indent=2)
            assert max(map(len, chunks)) < 2048 * 80


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
