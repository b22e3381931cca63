"""The sparse homology path against independent references.

`invariant_factors` must give the same tuple as the dense
`smith_normal_form`, and on random signed graphs, in both orientations,
`_eliminate`, `invariant_factors` and `smith_normal_form` must give the one
read off the graph's components (`oracles.signed_graph_smith_naive`);
`IntMatrix.__matmul__` and the zero-composition test `_composes_to_zero`
must agree with a triple loop; and homology of
triangulated tori and Klein bottles, glued by the oracle's own generator and
disguised by shuffles and unimodular changes of basis, must come out as
Z, Z^2, Z and Z, Z + Z/2, 0.
"""

import heapq
import math
import random
import time

import pytest

from oracles import (
    disguised_surface,
    matmul_naive,
    rank_fraction,
    signed_graph_smith_naive,
    surface_grid_naive,
)
from polydepth.abelian import from_cyclic_factors
from polydepth.errors import CompositionNotZero
from polydepth.intlinalg import (
    IntMatrix,
    _composes_to_zero,
    _eliminate,
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
# zero composition


def _composes_to_zero_naive(a: IntMatrix, b: IntMatrix) -> bool:
    return not any(map(any, matmul_naive(a.to_rows(), b.to_rows(), b.cols)))


def _changed(m: IntMatrix, i: int, j: int, delta: int) -> IntMatrix:
    rows = m.to_rows()
    rows[i][j] += delta
    return IntMatrix.from_rows(rows, cols=m.cols)


def _zero_product_pair(rng, n, k1, k2, m, density, bound):
    # a = [A | A R] and b = [R S ; -S] give a @ b = A R S - A R S = 0
    a1 = _random_matrix(rng, n, k1, density, bound).to_rows()
    r = _random_matrix(rng, k1, k2, density, bound).to_rows()
    s = _random_matrix(rng, k2, m, density, bound).to_rows()
    ar = matmul_naive(a1, r, k2)
    rs = matmul_naive(r, s, m)
    a = IntMatrix.from_rows([x + y for x, y in zip(a1, ar)], cols=k1 + k2)
    b = IntMatrix.from_rows(rs + [[-x for x in row] for row in s], cols=m)
    return a, b


def test_composes_to_zero_matches_naive_on_random_matrices():
    rng = random.Random(20261019)
    for _ in range(600):
        n, k, m = (rng.randint(0, 7) for _ in range(3))
        density = rng.choice((0.0, 0.1, 0.3, 0.7, 1.0))
        bound = rng.choice((1, 9, 2**40))
        a = _random_matrix(rng, n, k, density, bound).to_rows()
        b = _random_matrix(rng, k, m, density, bound).to_rows()
        # a zero row and a zero column on either side
        if n and rng.random() < 0.3:
            a[rng.randrange(n)] = [0] * k
        if m and rng.random() < 0.3:
            j = rng.randrange(m)
            for row in b:
                row[j] = 0
        a, b = IntMatrix.from_rows(a, cols=k), IntMatrix.from_rows(b, cols=m)
        assert _composes_to_zero(a, b) == _composes_to_zero_naive(a, b), (a, b)


def test_composes_to_zero_on_every_empty_shape():
    for n in range(3):
        for k in range(3):
            for m in range(3):
                if 0 not in (n, k, m):
                    continue
                a = IntMatrix.from_rows([[1] * k] * n, cols=k)
                b = IntMatrix.from_rows([[1] * m] * k, cols=m)
                assert _composes_to_zero(a, b) is True
                assert _composes_to_zero_naive(a, b)


def test_composes_to_zero_on_products_zero_by_construction():
    rng = random.Random(7)
    for _ in range(300):
        n, k1, k2, m = (rng.randint(0, 7) for _ in range(4))
        density = rng.choice((0.1, 0.3, 0.7, 1.0))
        bound = rng.choice((1, 9, 2**40))
        a, b = _zero_product_pair(rng, n, k1, k2, m, density, bound)
        assert _composes_to_zero(a, b)
        assert _composes_to_zero_naive(a, b)
        if a.rows and a.cols:
            i, k = rng.randrange(a.rows), rng.randrange(a.cols)
            a2 = _changed(a, i, k, rng.choice((-1, 1, 2**40)))
            assert _composes_to_zero(a2, b) == _composes_to_zero_naive(a2, b)
        if b.rows and b.cols:
            k, j = rng.randrange(b.rows), rng.randrange(b.cols)
            b2 = _changed(b, k, j, rng.choice((-1, 1, 2**40)))
            assert _composes_to_zero(a, b2) == _composes_to_zero_naive(a, b2)


@pytest.mark.parametrize("kind", ["torus", "klein"])
@pytest.mark.parametrize("n", [3, 5])
def test_composes_to_zero_on_disguised_surfaces(kind, n):
    d1, d2 = (IntMatrix.from_rows(m) for m in disguised_surface(kind, n))
    assert _composes_to_zero(d1, d2)
    rng = random.Random(f"{kind}-{n}")
    for _ in range(20):
        if rng.random() < 0.5:
            i, k = rng.randrange(d1.rows), rng.randrange(d1.cols)
            a, b = _changed(d1, i, k, rng.choice((-1, 1))), d2
        else:
            k, j = rng.randrange(d2.rows), rng.randrange(d2.cols)
            a, b = d1, _changed(d2, k, j, rng.choice((-1, 1)))
        assert _composes_to_zero(a, b) == _composes_to_zero_naive(a, b)


@pytest.mark.parametrize("m", [0, 1, 5, 40])
def test_composes_to_zero_packs_wide_enough_to_stop_carries(m):
    # the product is [[2^m], [-1]]: packed one bit narrower than the bound
    # asks, 2^m in the low slot and -1 in the next cancel to zero
    a = IntMatrix.from_rows([[2**m], [-1]])
    b = IntMatrix.from_rows([[1]])
    assert not _composes_to_zero(a, b)
    assert not _composes_to_zero_naive(a, b)
    assert _composes_to_zero(a, IntMatrix.zeros(1, 1))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_composes_to_zero_finds_one_nonzero_entry_in_any_block(where):
    # entries of 2^600 make each packed block three rows tall, so the 36
    # vertices of the 6 x 6 torus span twelve blocks; one changed entry
    # leaves a single nonzero entry of d1 d2, in the row of that vertex
    d1, d2 = surface_grid_naive("torus", 6)
    d1 = [[x << 600 for x in row] for row in d1]
    a, b = IntMatrix.from_rows(d1), IntMatrix.from_rows(d2)
    assert _composes_to_zero(a, b)
    i = {"first": 0, "middle": len(d1) // 2, "last": len(d1) - 1}[where]
    k = next(k for k, x in enumerate(d1[i]) if x)
    changed = _changed(a, i, k, 1)
    product = matmul_naive(changed.to_rows(), d2, b.cols)
    assert {r for r, row in enumerate(product) if any(row)} == {i}
    assert not _composes_to_zero(changed, b)


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
    # the first pivot, 5 or 7, leaves a remainder in its row and moves along
    # it; the other rows hold entries below |pivot| in the new column, so
    # their quotient is 0 and they stay as they are until one is the pivot
    assert invariant_factors(IntMatrix.from_rows([[0, 2], [0, 3], [5, 9]])) == (1, 5)
    assert invariant_factors(IntMatrix.from_rows([[2, 0], [6, 7], [5, 0]])) == (1, 7)


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
# signed graphs


def _random_signed_graph(rng) -> list[list[int]]:
    """Rows of the incidence matrix of a seeded random signed graph on its
    columns: two-entry rows, parallel copies of earlier rows with a random
    sign on each entry, one-entry rows and empty rows.  The first three rows
    meet column 0, so the transpose has a row longer than two."""
    nodes = rng.randint(4, 12)
    rows = []
    for end in rng.sample(range(1, nodes), 3):
        rows.append([0] * nodes)
        rows[-1][0], rows[-1][end] = rng.choice((1, -1)), rng.choice((1, -1))
    for _ in range(rng.randint(0, 2 * nodes)):
        kind = rng.random()
        if kind < 0.2:
            row = [rng.choice((1, -1)) * x for x in rng.choice(rows)]
        else:
            row = [0] * nodes
            ends = rng.sample(range(nodes), 2 if kind < 0.8 else 1 if kind < 0.9 else 0)
            for j in ends:
                row[j] = rng.choice((1, -1))
        rows.append(row)
    return rows


def _no_markowitz_step(monkeypatch) -> None:
    def refuse(heap):
        raise AssertionError("a signed graph entered the Markowitz loop")

    monkeypatch.setattr(heapq, "heapify", refuse)


@pytest.mark.parametrize("seed", range(40))
def test_signed_graphs_match_the_component_oracle(monkeypatch, seed):
    # the rows, then the columns of the transpose, are the lines of the
    # union-find pass; each orientation leaves out a random set of columns
    rng = random.Random(f"signed-{seed}")
    rows = _random_signed_graph(rng)
    width = len(rows[0])
    m = IntMatrix.from_rows(rows)
    drop = frozenset(j for j in range(1, width) if rng.random() < 0.2)
    kept = [[x for j, x in enumerate(row) if j not in drop] for row in rows]
    # the transpose keeps the first three rows, so column 0 stays long
    drop_t = frozenset(i for i in range(3, len(rows)) if rng.random() < 0.2)
    kept_t = [row for i, row in enumerate(rows) if i not in drop_t]
    cases = [
        (m, drop, IntMatrix.from_rows(kept, cols=width - len(drop)), kept, width - len(drop)),
        (m.transpose(), drop_t, IntMatrix.from_rows(kept_t).transpose(), kept_t, width),
    ]
    _no_markowitz_step(monkeypatch)
    for whole, left_out, reduced, lines, nodes in cases:
        expected = tuple(signed_graph_smith_naive(lines, nodes))
        diagonal, matched = _eliminate(whole, left_out)
        assert diagonal == expected
        assert len(matched) == expected.count(1)
        assert invariant_factors(reduced) == expected
        assert smith_normal_form(reduced).diagonal == expected


def test_the_component_oracle_on_known_graphs():
    # a triangle of edges e_a - e_b is balanced (Z), an odd cycle of sums
    # e_a + e_b is not (Z/2), a parallel pair of opposite signs is not, and
    # a half-edge kills its component (0)
    triangle = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]
    odd = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert signed_graph_smith_naive(triangle, 3) == [1, 1]
    assert signed_graph_smith_naive(odd, 3) == [1, 1, 2]
    assert signed_graph_smith_naive([[1, -1], [1, 1]], 2) == [1, 2]
    assert signed_graph_smith_naive([[1, -1, 0], [0, 0, -1]], 3) == [1, 1]
    assert signed_graph_smith_naive([[0, 1, 0]], 3) == [1]
    for rows in (triangle, odd):
        m = IntMatrix.from_rows(rows)
        assert smith_normal_form(m).diagonal == tuple(signed_graph_smith_naive(rows, 3))


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
