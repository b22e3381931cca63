"""Exact integer matrices, their invariant factors and Smith normal form.

Everything runs on Python's arbitrary-precision integers: elimination blows
intermediate entries well past 64 bits even for small homology computations,
so fixed-width arithmetic is not an option.  Matrices are immutable; all
functions are pure and safe to call concurrently.

There are two ways to diagonalize:

* `invariant_factors` returns only the nonzero Smith diagonal.  It eliminates
  on sparse rows (dicts of nonzero entries) and keeps no transforms, so its
  cost follows the fill-in rather than the matrix size.  Homology and `rank`
  read it.
* `smith_normal_form` runs dense elimination and also returns the unimodular
  transforms U and V with S = U @ M @ V, for callers that need a basis, such
  as a kernel basis of a boundary map.  It is the tests' reference for the
  diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, possibly with zero rows or columns."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int):
                raise ValueError(f"matrix entries must be int, got {type(e).__name__}")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        """Build from nested rows.  `cols` disambiguates the empty matrix shapes
        (0 rows of width n versus n rows of width 0)."""
        data = [list(row) for row in data]
        if not data:
            return cls(0, 0 if cols is None else cols, ())
        width = len(data[0])
        if cols is not None and cols != width:
            raise ValueError(f"declared {cols} columns but rows have {width}")
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        flat = tuple(x for row in data for x in row)
        return cls(len(data), width, flat)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(k, k) for k in range(min(self.rows, self.cols)))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # row i of the product sums a_ik * (row k of other) over the nonzero
        # a_ik, and each row of other contributes only its nonzero entries
        sparse_rows = [
            [(j, x) for j, x in enumerate(other.row(k)) if x] for k in range(other.rows)
        ]
        out: list[int] = []
        for i in range(self.rows):
            acc = [0] * other.cols
            for a, row_k in zip(self.row(i), sparse_rows):
                if a:
                    for j, x in row_k:
                        acc[j] += a * x
            out.extend(acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()!r})"


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form S = U @ M @ V with unimodular U, V.

    `diagonal` lists only the nonzero diagonal entries d1 | d2 | ... | dr,
    each positive.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    diagonal: tuple[int, ...]


def _smallest_pivot(s: list[list[int]], t: int, rows: int, cols: int):
    # position of the nonzero entry of least absolute value in s[t:, t:]
    best = None
    best_val = 0
    for i in range(t, rows):
        si = s[i]
        for j in range(t, cols):
            x = si[j]
            if x and (best is None or abs(x) < best_val):
                best = (i, j)
                best_val = abs(x)
                if best_val == 1:
                    return best
    return best


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize over the integers by elementary row/column operations.

    Pivots are chosen with the least nonzero absolute value, which keeps entry
    growth tame.  The returned S has nonnegative diagonal entries forming a
    divisibility chain; U and V collect the row and column operations.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).diagonal
    (2, 4)
    """
    rows, cols = m.rows, m.cols
    s = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(a: int, b: int):
        if a != b:
            s[a], s[b] = s[b], s[a]
            u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int):
        if a != b:
            for r in s:
                r[a], r[b] = r[b], r[a]
            for r in v:
                r[a], r[b] = r[b], r[a]

    def add_row(dst: int, src: int, q: int):
        # row[dst] += q * row[src]
        if q:
            sd, ss = s[dst], s[src]
            for j in range(cols):
                sd[j] += q * ss[j]
            ud, us = u[dst], u[src]
            for j in range(rows):
                ud[j] += q * us[j]

    def add_col(dst: int, src: int, q: int):
        if q:
            for r in s:
                r[dst] += q * r[src]
            for r in v:
                r[dst] += q * r[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _smallest_pivot(s, t, rows, cols)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            p = s[t][t]
            for i in range(t + 1, rows):
                if s[i][t]:
                    add_row(i, t, -(s[i][t] // p))
            for j in range(t + 1, cols):
                if s[t][j]:
                    add_col(j, t, -(s[t][j] // p))
            if any(s[i][t] for i in range(t + 1, rows)) or any(
                s[t][j] for j in range(t + 1, cols)
            ):
                # leftover remainders are strictly smaller than |p|; promote
                # the new minimum and go again (|pivot| strictly decreases,
                # so this terminates)
                pos = _smallest_pivot(s, t, rows, cols)
                swap_rows(t, pos[0])
                swap_cols(t, pos[1])
                continue
            if abs(p) == 1:
                # a unit divides every entry: no rescan needed
                break
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, rows)
                    for j in range(t + 1, cols)
                    if s[i][j] % p
                ),
                None,
            )
            if bad is None:
                break
            # pivot must divide the rest of the submatrix; drag a violating
            # row in and reduce once more
            add_row(t, bad[0], 1)
        t += 1

    for k in range(limit):
        if s[k][k] < 0:
            s[k] = [-x for x in s[k]]
            u[k] = [-x for x in u[k]]

    s_m = IntMatrix.from_rows(s, cols=cols) if rows else IntMatrix(0, cols, ())
    u_m = IntMatrix.from_rows(u, cols=rows) if rows else IntMatrix(0, 0, ())
    v_m = IntMatrix.from_rows(v, cols=cols) if cols else IntMatrix(0, 0, ())
    diag = tuple(s_m.entry(k, k) for k in range(limit) if s_m.entry(k, k))
    return SnfResult(U=u_m, S=s_m, V=v_m, diagonal=diag)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero Smith diagonal d1 | d2 | ... | dr of `m`, each positive:
    the same tuple as ``smith_normal_form(m).diagonal``, found by sparse
    elimination that builds neither U, V nor S.

    Each step takes a nonzero entry of least absolute value as the pivot and
    clears its column by row operations.  The pivot row is then the only row
    with an entry in that column, so the column operations that clear the
    row touch that row alone and cost one pass over it.  A nonzero
    remainder in the column or the row becomes the next pivot, which
    strictly lowers |pivot|.  The pivots found this way form a diagonal
    form of `m`; pairwise gcd/lcm turns it into the divisibility chain.

    >>> invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    """
    # rows[i] holds the nonzero entries of row i; column j has a nonzero
    # entry exactly in the rows of in_col[j]
    rows: dict[int, dict[int, int]] = {}
    in_col: dict[int, set[int]] = {}
    for i in range(m.rows):
        row = {j: x for j, x in enumerate(m.row(i)) if x}
        if row:
            rows[i] = row
            for j in row:
                in_col.setdefault(j, set()).add(i)

    pivots: list[int] = []
    while rows:
        pi, pj = _least_entry(rows, in_col)
        while True:
            prow = rows[pi]
            p = prow[pj]
            for i in [i for i in in_col[pj] if i != pi]:
                # row i -= q * pivot row
                row = rows[i]
                q = row[pj] // p
                for j, x in prow.items():
                    y = row.get(j, 0) - q * x
                    if y:
                        if j not in row:
                            in_col[j].add(i)
                        row[j] = y
                    elif j in row:
                        del row[j]
                        in_col[j].discard(i)
                if not row:
                    del rows[i]
            left = [i for i in in_col[pj] if i != pi]
            if left:
                pi = min(left, key=lambda i: abs(rows[i][pj]))
                continue
            if abs(p) != 1:
                # column j -= (x // p) * column pj changes only the pivot row
                for j in [j for j in prow if j != pj]:
                    r = prow[j] % p
                    if r:
                        prow[j] = r
                    else:
                        del prow[j]
                        in_col[j].discard(pi)
                if len(prow) > 1:
                    pj = min((j for j in prow if j != pj), key=lambda j: abs(prow[j]))
                    continue
            # the pivot is alone in its row and column (a unit pivot clears
            # the rest of its row outright)
            for j in prow:
                in_col[j].discard(pi)
            del rows[pi]
            pivots.append(abs(p))
            break
    return _divisibility_chain(pivots)


def _least_entry(
    rows: dict[int, dict[int, int]], in_col: dict[int, set[int]]
) -> tuple[int, int]:
    # position of a nonzero entry of least absolute value.  A unit is as
    # small as an entry gets, so the scan ends with the first row that holds
    # one.  Among the entries scanned, ties go to the least Markowitz count
    # (r - 1)(c - 1), which bounds the fill-in of the step.
    best = (0, 0)
    best_key = None
    for i, row in rows.items():
        others = len(row) - 1
        for j, x in row.items():
            key = (abs(x), others * (len(in_col[j]) - 1))
            if best_key is None or key < best_key:
                best, best_key = (i, j), key
        if best_key[0] == 1:
            break
    return best


def _divisibility_chain(pivots: list[int]) -> tuple[int, ...]:
    """Invariant factors of the diagonal matrix with these positive
    entries: replacing a pair (a, b) by (gcd, lcm) keeps the Smith form, and
    one pass over all pairs leaves every entry dividing the later ones.
    Units already divide everything and skip the pass."""
    units = [d for d in pivots if d == 1]
    rest = [d for d in pivots if d != 1]
    for a in range(len(rest)):
        for b in range(a + 1, len(rest)):
            g = gcd(rest[a], rest[b])
            rest[a], rest[b] = g, rest[a] // g * rest[b]
    return tuple(units) + tuple(rest)


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of nonzero invariant factors."""
    return len(invariant_factors(m))


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]

