"""The sparse homology path against independent references.

`invariant_factors` must give the same tuple as the dense
`smith_normal_form`; `IntMatrix.__matmul__` must agree with a triple loop;
and homology of triangulated tori and Klein bottles, glued by the oracle's
own generator and disguised by shuffles and unimodular changes of basis,
must come out as Z, Z^2, Z and Z, Z + Z/2, 0.
"""

import math
import random
import time

import pytest

from oracles import disguised_surface, matmul_naive, rank_fraction, surface_grid_naive
from polydepth.abelian import from_cyclic_factors
from polydepth.errors import CompositionNotZero
from polydepth.intlinalg import (
    IntMatrix,
    invariant_factors,
    rank,
    smith_normal_form,
)
from polydepth.topology import ChainComplex, homology_of_complex


def _random_matrix(rng, rows, cols, density, bound):
    return IntMatrix(
        rows,
        cols,
        tuple(
            rng.randint(-bound, bound) if rng.random() < density else 0
            for _ in range(rows * cols)
        ),
    )


# ---------------------------------------------------------------------------
# matrix product


@pytest.mark.parametrize(
    "shape", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (4, 5, 3)]
)
def test_matmul_shapes_match_naive(shape):
    n, k, m = shape
    rng = random.Random(sum(shape))
    a = _random_matrix(rng, n, k, 0.5, 9)
    b = _random_matrix(rng, k, m, 0.5, 9)
    product = a @ b
    assert (product.rows, product.cols) == (n, m)
    assert product.to_rows() == matmul_naive(a.to_rows(), b.to_rows(), m)


def test_matmul_matches_naive_on_random_matrices():
    rng = random.Random(20261018)
    for _ in range(400):
        n, k, m = (rng.randint(0, 7) for _ in range(3))
        density = rng.choice((0.0, 0.1, 0.3, 0.7, 1.0))
        bound = rng.choice((1, 9, 2**40))
        a = _random_matrix(rng, n, k, density, bound)
        b = _random_matrix(rng, k, m, density, bound)
        naive = matmul_naive(a.to_rows(), b.to_rows(), m)
        assert (a @ b).to_rows() == naive
        assert (a @ b).is_zero() == (not any(map(any, naive)))


# ---------------------------------------------------------------------------
# invariant factors


def test_invariant_factors_examples():
    assert invariant_factors(IntMatrix.zeros(0, 0)) == ()
    assert invariant_factors(IntMatrix.zeros(0, 4)) == ()
    assert invariant_factors(IntMatrix.zeros(4, 0)) == ()
    assert invariant_factors(IntMatrix.zeros(3, 2)) == ()
    assert invariant_factors(IntMatrix.from_rows([[-6]])) == (6,)
    assert invariant_factors(IntMatrix.identity(3)) == (1, 1, 1)
    # a diagonal that is not yet a divisibility chain
    diag = IntMatrix.from_rows([[6, 0, 0], [0, 4, 0], [0, 0, 10]])
    assert invariant_factors(diag) == (2, 2, 60)
    coprime = IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 3]])
    assert invariant_factors(coprime) == (1, 1, 6)


@pytest.mark.parametrize("seed", range(6))
def test_invariant_factors_match_smith_normal_form(seed):
    rng = random.Random(seed)
    for _ in range(250):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0))
        bound = rng.choice((1, 2, 9, 2**12, 2**40))
        m = _random_matrix(rng, rows, cols, density, bound)
        expected = smith_normal_form(m).diagonal
        assert invariant_factors(m) == expected
        assert rank(m) == len(expected) == rank_fraction(m.to_rows())


@pytest.mark.parametrize("bound", [1, 9, 2**40])
@pytest.mark.parametrize("density", [0, 0.05, 0.3, 1])
def test_invariant_factors_match_smith_normal_form_on_every_shape(density, bound):
    # the pivot comes from the sparsest column, so every shape and fill level
    # takes a different path through the elimination
    rng = random.Random(f"{density}-{bound}")
    for rows in range(13):
        for cols in range(13):
            m = _random_matrix(rng, rows, cols, density, bound)
            assert invariant_factors(m) == smith_normal_form(m).diagonal, m


@pytest.mark.parametrize("kind", ["torus", "klein"])
@pytest.mark.parametrize("n", range(3, 9))
def test_invariant_factors_of_disguised_surfaces(kind, n):
    for rows in disguised_surface(kind, n):
        m = IntMatrix.from_rows(rows)
        assert invariant_factors(m) == smith_normal_form(m).diagonal


def test_invariant_factors_of_disguised_diagonals():
    # P diag(d) Q with unimodular P, Q has the Smith form of diag(d): the
    # product and the count of its invariant factors are known exactly
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 7)
        d = [rng.choice((0, 1, 2, 3, 4, 6, 9, 12, 2**40)) for _ in range(n)]
        m = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            q = rng.choice((-2, -1, 1, 2))
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]  # row i += q row j
            i, j = rng.sample(range(n), 2)
            for row in m:  # column i += q column j
                row[i] += q * row[j]
        got = invariant_factors(IntMatrix.from_rows(m))
        assert got == smith_normal_form(IntMatrix.from_rows(m)).diagonal
        assert len(got) == sum(1 for x in d if x)
        assert math.prod(got) == math.prod(x for x in d if x)


# ---------------------------------------------------------------------------
# surfaces


def _complex(maps):
    d1, d2 = maps
    cells = (len(d1), len(d2), len(d2[0]))
    return ChainComplex(
        dim=2,
        boundary=(IntMatrix.from_rows(d1, cols=cells[1]), IntMatrix.from_rows(d2)),
        cells=cells,
    )


SURFACE_HOMOLOGY = {
    "torus": [from_cyclic_factors(1), from_cyclic_factors(2), from_cyclic_factors(1)],
    "klein": [from_cyclic_factors(1), from_cyclic_factors(1, [2]), from_cyclic_factors(0)],
}


@pytest.mark.parametrize("kind", ["torus", "klein"])
@pytest.mark.parametrize("n", range(3, 11))
def test_scrambled_surface_grids(kind, n):
    maps = surface_grid_naive(kind, n)
    assert [len(maps[0]), len(maps[1]), len(maps[1][0])] == [n * n, 3 * n * n, 2 * n * n]
    disguised = disguised_surface(kind, n)
    for candidate in (maps, disguised):
        profile = homology_of_complex(_complex(candidate))
        assert [profile.group(k) for k in range(3)] == SURFACE_HOMOLOGY[kind]


@pytest.mark.parametrize("kind", ["torus", "klein"])
def test_composition_nonzero_in_the_last_entry_only_is_refused(kind):
    # one extra edge whose boundary is the last vertex and which lies only
    # in the boundary of the last triangle: d1 d2 gains exactly one nonzero
    # entry, at the last row and column, after rows that compose to zero
    d1, d2 = disguised_surface(kind, 5)
    d1 = [row + [1 if i == len(d1) - 1 else 0] for i, row in enumerate(d1)]
    d2 = d2 + [[0] * (len(d2[0]) - 1) + [1]]
    product = matmul_naive(d1, d2, len(d2[0]))
    nonzero = [(i, j) for i, row in enumerate(product) for j, x in enumerate(row) if x]
    assert nonzero == [(len(d1) - 1, len(d2[0]) - 1)]
    assert not (IntMatrix.from_rows(d1) @ IntMatrix.from_rows(d2)).is_zero()
    with pytest.raises(CompositionNotZero):
        _complex((d1, d2))


def test_torus_20_homology_under_two_seconds():
    # 400 vertices, 1200 edges, 800 triangles; the time includes building
    # the complex, whose constructor proves d1 d2 = 0
    d1, d2 = surface_grid_naive("torus", 20)
    start = time.perf_counter()
    profile = homology_of_complex(_complex((d1, d2)))
    elapsed = time.perf_counter() - start
    assert [profile.group(k) for k in range(3)] == SURFACE_HOMOLOGY["torus"]
    assert elapsed < 2.0
