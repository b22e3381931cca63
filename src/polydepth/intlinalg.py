"""Exact integer matrices and Smith normal form with unimodular transforms.

Everything runs on Python's arbitrary-precision integers: elimination blows
intermediate entries well past 64 bits even for small homology computations,
so fixed-width arithmetic is not an option.  Matrices are immutable; all
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entry(k, j) for k in range(self.cols)))
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


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of nonzero diagonal entries in SNF."""
    return len(smith_normal_form(m).diagonal)


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

