import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import det_fraction, rank_fraction, snf_diagonal_2x2
from polydepth.intlinalg import IntMatrix, determinant, rank, smith_normal_form


def check_snf_invariants(m: IntMatrix):
    res = smith_normal_form(m)
    # defining equation and unimodularity
    assert res.U @ m @ res.V == res.S
    assert abs(det_fraction(res.U.to_rows())) == 1
    assert abs(det_fraction(res.V.to_rows())) == 1
    # S diagonal, nonnegative, divisibility chain
    for i in range(res.S.rows):
        for j in range(res.S.cols):
            if i != j:
                assert res.S.entry(i, j) == 0
    diag = res.S.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert tuple(nonzero) == res.diagonal
    # zeros only after the last nonzero entry
    if nonzero:
        assert diag[: len(nonzero)] == tuple(nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return res


def test_identity_case():
    res = smith_normal_form(IntMatrix.identity(2))
    assert res.S == IntMatrix.identity(2)
    assert res.diagonal == (1, 1)


def test_zero_case():
    res = smith_normal_form(IntMatrix.zeros(2, 2))
    assert res.S == IntMatrix.zeros(2, 2)
    assert res.diagonal == ()


def test_2x2_example():
    res = check_snf_invariants(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert res.diagonal == (2, 4)
    assert res.diagonal == tuple(snf_diagonal_2x2(2, 4, 6, 8))


def test_single_entry():
    assert smith_normal_form(IntMatrix.from_rows([[6]])).diagonal == (6,)
    assert smith_normal_form(IntMatrix.from_rows([[-6]])).diagonal == (6,)
    assert smith_normal_form(IntMatrix.from_rows([[0]])).diagonal == ()


def test_rank_examples():
    assert rank(IntMatrix.identity(3)) == 3
    assert rank(IntMatrix.zeros(3, 5)) == 0
    assert rank(IntMatrix.from_rows([[2, 4], [6, 8]])) == 2
    assert rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix.zeros(*shape)
        res = check_snf_invariants(m)
        assert res.diagonal == ()
        assert res.S.rows == shape[0] and res.S.cols == shape[1]
        assert rank(m) == 0


def test_matmul_shapes():
    a = IntMatrix.from_rows([[1, 2, 3]])
    b = IntMatrix.from_rows([[1], [0], [-1]])
    assert (a @ b).entries == (-2,)
    with pytest.raises(ValueError):
        b @ b  # noqa: B018 - exercising the shape check


def test_from_rows_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        IntMatrix(-1, 0, ())
    with pytest.raises(ValueError, match="declared 3 columns"):
        IntMatrix.from_rows([[1, 2]], cols=3)
    # zero-valued and falsy entries are checked like the others
    for bad in (0.0, None, "", 1.5, [0]):
        name = type(bad).__name__
        with pytest.raises(ValueError, match=f"must be int, got {name}"):
            IntMatrix.from_rows([[0, 1], [bad, 0]])
        with pytest.raises(ValueError, match=f"must be int, got {name}"):
            IntMatrix(2, 2, (0, 1, bad, 0))
    # a row, or the rows, that cannot be iterated is named by its type
    for bad in (5, None):
        name = type(bad).__name__
        with pytest.raises(ValueError, match=f"matrix rows must be iterable, got {name}"):
            IntMatrix.from_rows([[0, 1], bad])
        with pytest.raises(ValueError, match=f"matrix must be iterable, got {name}"):
            IntMatrix.from_rows(bad)


def test_bool_entries_are_stored_as_ints():
    # a bool reads as 1 or 0, as every other number read from outside does
    for m in (IntMatrix.from_rows([[True, False]]), IntMatrix(1, 2, (True, False))):
        assert all(type(x) is int for x in m.entries)
        assert m.entries == (1, 0) and "True" not in repr(m)


def test_from_rows_accepts_iterable_rows():
    # rows that are not sequences, such as generators and map objects, are
    # read once and kept entry for entry
    expected = IntMatrix.from_rows([[0, 1, 2], [3, 0, 5]])
    assert IntMatrix.from_rows(iter(row) for row in expected.to_rows()) == expected
    text_rows = (["0", "1", "2"], ["3", "0", "5"])
    assert IntMatrix.from_rows(map(int, row) for row in text_rows) == expected
    with pytest.raises(ValueError, match="must be int, got float"):
        IntMatrix.from_rows([iter([0, 1]), (x for x in (0.0, 2))])


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=6))
    entries = draw(
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return IntMatrix(rows, cols, tuple(entries))


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_snf_invariants_property(m):
    check_snf_invariants(m)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_dense_views_round_trip(m):
    # the dense constructor, from_rows and the dense views agree, and
    # matrices built different ways compare and hash alike
    rows = m.to_rows()
    assert len(m.entries) == m.rows * m.cols
    assert IntMatrix(m.rows, m.cols, m.entries) == m
    assert IntMatrix.from_rows(rows, cols=m.cols) == m
    assert [list(m.row(i)) for i in range(m.rows)] == rows
    assert all(m.entry(i, j) == rows[i][j] for i in range(m.rows) for j in range(m.cols))
    assert m.transpose().transpose() == m
    same = m @ IntMatrix.identity(m.cols)
    assert same == m and hash(same) == hash(m)
    assert m.is_zero() == (not any(m.entries))
    if m.rows and m.cols and not m.is_zero():
        assert m != IntMatrix.zeros(m.rows, m.cols)
    assert m != IntMatrix.zeros(m.rows + 1, m.cols)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_rank_transpose_property(m):
    assert rank(m) == rank(m.transpose())
    assert rank(m) == rank_fraction(m.to_rows())


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_snf_deterministic_and_idempotent(m):
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second
    # the Smith form of a Smith form is itself
    assert smith_normal_form(first.S).S == first.S


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    entries = draw(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n * n, max_size=n * n)
    )
    return IntMatrix(n, n, tuple(entries))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_determinant_matches_fraction_oracle(m):
    assert determinant(m) == det_fraction(m.to_rows())


@settings(max_examples=150, deadline=None)
@given(st.tuples(*(st.integers(min_value=-9, max_value=9) for _ in range(4))))
def test_2x2_oracle_property(abcd):
    a, b, c, d = abcd
    res = smith_normal_form(IntMatrix.from_rows([[a, b], [c, d]]))
    assert list(res.diagonal) == snf_diagonal_2x2(a, b, c, d)


def test_seeded_bulk_invariants():
    # quick deterministic sample; the acceptance suite runs the full 1000
    rng = random.Random(99)
    for _ in range(150):
        rows = rng.randrange(0, 7)
        cols = rng.randrange(0, 7)
        m = IntMatrix(
            rows, cols, tuple(rng.randint(-9, 9) for _ in range(rows * cols))
        )
        check_snf_invariants(m)
