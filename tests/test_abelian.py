import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import factor_naive, tor_torsion_pairwise
from polydepth import intlinalg
from polydepth.abelian import (
    MAX_CYCLIC_ORDER,
    TRIVIAL_GROUP,
    FgAbelianGroup,
    _tor_torsion,
    direct_sum,
    from_boundary_maps,
    from_cyclic_factors,
    parse_abelian,
    render_abelian,
    sl_abelian,
)
from polydepth.errors import CompositionNotZero, DimensionMismatch
from polydepth.intlinalg import IntMatrix
from polydepth.topology import ChainComplex, homology_of_complex
from test_topology import _count_calls


def zero_map(rows, cols):
    return IntMatrix.zeros(rows, cols)


def test_construction_validates_primary_form():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (6,))  # not a prime power
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))  # unsorted
    with pytest.raises(ValueError):
        FgAbelianGroup(-1, ())
    assert FgAbelianGroup(0, (2, 2, 3)).torsion == (2, 2, 3)


def test_repeated_torsion_is_checked_like_any_other():
    # each distinct order is checked once; a repeat must still be refused
    with pytest.raises(ValueError, match="coefficient 6 "):
        FgAbelianGroup(0, (6, 6))
    with pytest.raises(ValueError, match="coefficient 6 "):
        FgAbelianGroup(1, (2, 2, 6, 6, 10, 10))
    with pytest.raises(ValueError, match="coefficient 12 "):
        FgAbelianGroup(0, (2,) * 1000 + (3, 3, 12))
    assert FgAbelianGroup(0, (2,) * 1000 + (9, 9)).torsion[-2:] == (9, 9)


def test_from_cyclic_factors_splits_primary():
    assert from_cyclic_factors(0, [6]).torsion == (2, 3)
    assert from_cyclic_factors(0, [12]).torsion == (3, 4)
    assert from_cyclic_factors(0, [1, 1]) == TRIVIAL_GROUP
    assert from_cyclic_factors(2, [8, 9]).torsion == (8, 9)
    assert from_cyclic_factors(0, [2, 4]).torsion == (2, 4)


def test_primary_split_matches_naive_factorisation():
    # every order up to 5000, the largest prime below the limit, and the
    # limit itself (2^12 * 5^12)
    for q in [*range(2, 5001), 999999999989, MAX_CYCLIC_ORDER]:
        expected = tuple(sorted(p**e for p, e in factor_naive(q)))
        assert from_cyclic_factors(0, [q]).torsion == expected, q


def test_tor_torsion_matches_every_pair():
    # the fold's lists repeat a few prime powers many times; the summands
    # are compared as multisets, since their order is not part of the result
    assert _tor_torsion([], [2, 4]) == []
    assert sorted(_tor_torsion([2, 3, 4], [4, 9, 5])) == [2, 3, 4]
    rng = random.Random(20261018)
    for _ in range(300):
        s, t = (
            [rng.choice((2, 3, 5)) ** rng.randint(1, 4) for _ in range(rng.randint(0, 40))]
            for _ in range(2)
        )
        assert sorted(_tor_torsion(s, t)) == sorted(tor_torsion_pairwise(s, t)), (s, t)


def test_cyclic_order_above_limit_names_the_limit():
    with pytest.raises(ValueError, match=r"10\^12"):
        from_cyclic_factors(0, [MAX_CYCLIC_ORDER + 1])
    with pytest.raises(ValueError, match=r"10\^12"):
        FgAbelianGroup(0, (MAX_CYCLIC_ORDER + 1,))


def test_sl_examples():
    assert sl_abelian(TRIVIAL_GROUP) == 0
    assert sl_abelian(FgAbelianGroup(5, ())) == 5
    assert sl_abelian(from_cyclic_factors(0, [6])) == 2
    assert sl_abelian(from_cyclic_factors(0, [4])) == 1
    assert sl_abelian(from_cyclic_factors(1, [2, 4])) == 3


def test_from_boundary_maps_zero_maps_give_free_group():
    # single middle chain group of rank 1, both boundaries zero
    g = from_boundary_maps(zero_map(0, 1), zero_map(1, 0))
    assert g == FgAbelianGroup(1, ())


def test_from_boundary_maps_projective_plane_middle_degree():
    # one 1-cell, boundary of the 2-cell wraps twice
    d1 = zero_map(1, 1)
    d2 = IntMatrix.from_rows([[2]])
    assert from_boundary_maps(d1, d2) == from_cyclic_factors(0, [2])


def test_from_boundary_maps_splits_six():
    g = from_boundary_maps(zero_map(0, 1), IntMatrix.from_rows([[6]]))
    assert g.torsion == (2, 3)
    assert sl_abelian(g) == 2


def test_from_boundary_maps_torus_middle_degree():
    # two 1-cells, one 2-cell attached along the commutator: zero column
    d1 = zero_map(1, 2)
    d2 = IntMatrix.from_rows([[0], [0]])
    assert from_boundary_maps(d1, d2) == FgAbelianGroup(2, ())


def test_from_boundary_maps_klein_bottle_middle_degree():
    d1 = zero_map(1, 2)
    d2 = IntMatrix.from_rows([[2], [0]])
    assert from_boundary_maps(d1, d2) == from_cyclic_factors(1, [2])


def test_from_boundary_maps_errors():
    with pytest.raises(DimensionMismatch):
        from_boundary_maps(zero_map(0, 2), IntMatrix.from_rows([[1], [1], [1]]))
    with pytest.raises(CompositionNotZero):
        from_boundary_maps(
            IntMatrix.from_rows([[1, 0]]), IntMatrix.from_rows([[1], [0]])
        )


def test_direct_sum_of_many_folds_pairwise():
    parts = [from_cyclic_factors(1, [2]), from_cyclic_factors(0, [9, 4]), FgAbelianGroup(2, ())]
    assert direct_sum() == TRIVIAL_GROUP
    assert direct_sum(parts[0]) == parts[0]
    assert direct_sum(*parts) == direct_sum(direct_sum(parts[0], parts[1]), parts[2])
    assert direct_sum(*parts) == from_cyclic_factors(3, [2, 4, 9])


def test_direct_sum_examples():
    z = FgAbelianGroup(1, ())
    assert direct_sum(z, TRIVIAL_GROUP) == z
    assert direct_sum(FgAbelianGroup(2, ()), from_cyclic_factors(1, [2])) == from_cyclic_factors(3, [2])
    assert direct_sum(from_cyclic_factors(0, [2]), from_cyclic_factors(0, [2])).torsion == (2, 2)


def test_render_and_parse():
    cases = [
        (TRIVIAL_GROUP, "0"),
        (FgAbelianGroup(1, ()), "Z"),
        (FgAbelianGroup(3, ()), "Z^3"),
        (from_cyclic_factors(0, [2, 4]), "Z/2 ⊕ Z/4"),
        (from_cyclic_factors(2, [3, 8]), "Z^2 ⊕ Z/3 ⊕ Z/8"),
    ]
    for g, text in cases:
        assert render_abelian(g) == text
        assert parse_abelian(text) == g
    # ASCII plus and composite orders are accepted on input
    assert parse_abelian("Z + Z/6") == from_cyclic_factors(1, [6])
    assert parse_abelian("Z^0") == TRIVIAL_GROUP
    with pytest.raises(ValueError):
        parse_abelian("Z/1")
    with pytest.raises(ValueError):
        parse_abelian("bogus")


small_groups = st.builds(
    from_cyclic_factors,
    st.integers(min_value=0, max_value=5),
    st.lists(st.integers(min_value=2, max_value=24), max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(small_groups, small_groups)
def test_sl_additive_over_direct_sum(a, b):
    assert sl_abelian(direct_sum(a, b)) == sl_abelian(a) + sl_abelian(b)
    assert direct_sum(a, b) == direct_sum(b, a)


@settings(max_examples=200, deadline=None)
@given(small_groups)
def test_render_parse_round_trip(g):
    assert parse_abelian(render_abelian(g)) == g


def _random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    m = IntMatrix.identity(n).to_rows()
    for _ in range(3 * n):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 1:
            m[i] = [-x for x in m[i]]
        elif i != j:
            q = rng.randint(-2, 2)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return IntMatrix.from_rows(m)


def _unimodular_transform_pairs():
    """60 seeded random pairs (d_k, d_k1), each with its transform
    (A d_k B, B^-1 d_k1 C), the inverse of B built directly."""
    rng = random.Random(7)
    for _ in range(60):
        rows, mid, cols = (rng.randrange(0, 4) for _ in range(3))
        d_k1 = IntMatrix(mid, cols, tuple(rng.randint(-4, 4) for _ in range(mid * cols)))
        d_k = zero_map(rows, mid)  # zero upper map keeps composition zero
        a = _random_unimodular(rng, rows)
        b = _random_unimodular(rng, mid)
        c = _random_unimodular(rng, cols)
        yield (d_k, d_k1), (a @ d_k @ b, _inverse_unimodular(b) @ d_k1 @ c)


def test_basis_independence_of_homology():
    # changing bases of all three chain groups must not change the group:
    # d_k -> A d_k B, d_{k+1} -> B^-1 d_{k+1} C on random complexes
    for base, transformed in _unimodular_transform_pairs():
        assert from_boundary_maps(*transformed) == from_boundary_maps(*base)


def test_from_boundary_maps_is_the_one_homology_path(monkeypatch):
    # H_1 of the complex of the two maps, read by homology_of_complex: no
    # rank or Smith diagonal of its own
    pairs = [pair for both in _unimodular_transform_pairs() for pair in both]
    calls = [
        _count_calls(monkeypatch, "rank", intlinalg),
        _count_calls(monkeypatch, "invariant_factors", intlinalg),
    ]
    groups = [from_boundary_maps(d_k, d_k1) for d_k, d_k1 in pairs]
    assert calls == [[0], [0]]
    for (d_k, d_k1), group in zip(pairs, groups):
        cells = (d_k.rows, d_k.cols, d_k1.cols)
        assert group == homology_of_complex(ChainComplex(2, (d_k, d_k1), cells)).group(1)


def _inverse_unimodular(m: IntMatrix) -> IntMatrix:
    # exact inverse of a unimodular matrix via Smith transforms:
    # U m V = I  =>  m^-1 = V U
    from polydepth.intlinalg import smith_normal_form

    res = smith_normal_form(m)
    assert res.S == IntMatrix.identity(m.rows), "matrix is not unimodular"
    return res.V @ res.U


def test_row_and_column_permutations_do_not_change_homology():
    rng = random.Random(11)
    for _ in range(40):
        mid, cols = rng.randrange(1, 5), rng.randrange(0, 4)
        d_k1 = IntMatrix(mid, cols, tuple(rng.randint(-4, 4) for _ in range(mid * cols)))
        d_k = zero_map(rng.randrange(0, 3), mid)
        base = from_boundary_maps(d_k, d_k1)
        perm = list(range(mid))
        rng.shuffle(perm)
        p = IntMatrix.from_rows(
            [[1 if perm[i] == j else 0 for j in range(mid)] for i in range(mid)]
        )
        # apply the same permutation to d_k columns and d_k1 rows
        assert from_boundary_maps(d_k @ p.transpose(), p @ d_k1) == base
