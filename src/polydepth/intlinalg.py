"""Exact integer matrices, their invariant factors and Smith normal form.

Everything runs on Python's arbitrary-precision integers: elimination blows
intermediate entries well past 64 bits even for small homology computations,
so fixed-width arithmetic is not an option.  Matrices are immutable; all
functions are pure and safe to call concurrently.

An `IntMatrix` stores only its nonzero entries, one dict {column: entry}
per row.  Building one checks every entry, zeros included, by the integer
rule of `errors`.  The product `@`, `is_zero` and `_composes_to_zero`, the
exact test that two boundary maps compose to zero, visit only those
entries, so a boundary matrix costs what its nonzero entries cost.  Only
`smith_normal_form`, `determinant` and the dense `entries` view expand a
matrix to all its cells.

One sparse elimination, `_eliminate`, finds the Smith diagonals that
homology and `rank` read, and keeps no transforms.  An exact test picks its
method.  A map whose rows each hold at most two nonzero entries, each +-1,
or else whose columns do, is the incidence matrix of a signed graph: d_2 of
a closed triangulated surface is one by rows, d_1 of any Delta-complex one
by columns.  One pass of signed union-find over its lines reads the Smith
form off the graph's components in near-linear time (Zaslavsky, *Signed
graphs*, Discrete Appl. Math. 4, 1982).  Every other map is eliminated on
copies of its sparse rows, so its cost follows the fill-in rather than the
matrix size.  Each pivot comes from the live column with the fewest nonzero
entries, the count kept current as fill-in and cancellation change it
(Markowitz's rule for low fill-in, restricted to the column count); within
that column the least |entry| wins, ties going to the shortest row.  A unit
pivot costs one pass over each row it clears.  The test stops at the first
line longer than two or entry other than +-1, so a dense map pays little
for it.  `invariant_factors` and `rank` read `_eliminate` for one map.
`topology.homology_of_complex` runs it top-down over a complex: each row of
d_(k+1) that a leading unit pivot clears is a column of d_k left out before
d_k is reduced (reduction pairs; the proof is at `_eliminate`).

`smith_normal_form` runs dense elimination and also returns the unimodular
transforms U and V with S = U @ M @ V, for callers that need a basis, such
as a kernel basis of a boundary map.  It is the tests' reference for the
diagonal.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import gcd
from typing import Sequence

from .errors import Record, _as_list, _int_row, _set


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")


def _nonzero(values: Sequence[int]) -> dict[int, int]:
    return dict(compress(enumerate(values), values))


class IntMatrix(Record):
    """Integer matrix of shape rows x cols, possibly with zero rows or
    columns, that stores one dict {column: nonzero entry} per row.

    ``IntMatrix(rows, cols, entries)`` takes the entries dense and row-major,
    `from_rows` takes nested rows; both check that every entry is an int.
    Two matrices are equal when their shapes and entries are.  `entries`,
    `row` and `to_rows` are dense views built on request.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        entries = _int_row(entries, "matrix entries")
        data = tuple(_nonzero(entries[i * cols : (i + 1) * cols]) for i in range(rows))
        self._store(rows, cols, data)

    def _store(self, rows: int, cols: int, data: tuple[dict[int, int], ...]) -> None:
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_rows", data)

    @classmethod
    def _sparse(cls, rows: int, cols: int, data: tuple[dict[int, int], ...]) -> IntMatrix:
        # `data` holds one dict of nonzero int entries per row, already checked
        m = object.__new__(cls)
        m._store(rows, cols, data)
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        """Build from nested rows.  `cols` disambiguates the empty matrix shapes
        (0 rows of width n versus n rows of width 0)."""
        data = [_as_list(row, "matrix rows") for row in _as_list(data, "matrix")]
        if not data:
            return cls(0, 0 if cols is None else cols, ())
        width = len(data[0])
        if cols is not None and cols != width:
            raise ValueError(f"declared {cols} columns but rows have {width}")
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        sparse = tuple(_nonzero(_int_row(row, "matrix entries")) for row in data)
        return cls._sparse(len(data), width, sparse)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        _check_shape(n, n)
        return cls._sparse(n, n, tuple({i: 1} for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        _check_shape(rows, cols)
        return cls._sparse(rows, cols, tuple({} for _ in range(rows)))

    @property
    def entries(self) -> tuple[int, ...]:
        """All rows * cols entries, row-major."""
        return tuple(chain.from_iterable(map(self._dense_row, range(self.rows))))

    def entry(self, i: int, j: int) -> int:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return self._rows[i].get(j, 0)

    def _dense_row(self, i: int) -> list[int]:
        out = [0] * self.cols
        for j, x in self._rows[i].items():
            out[j] = x
        return out

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._dense_row(i))

    def to_rows(self) -> list[list[int]]:
        return [self._dense_row(i) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        columns: tuple[dict[int, int], ...] = tuple({} for _ in range(self.cols))
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                columns[j][i] = x
        return IntMatrix._sparse(self.cols, self.rows, columns)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self._rows[k].get(k, 0) for k in range(min(self.rows, self.cols)))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # row i of the product sums a_ik * (row k of other) over the nonzero
        # a_ik, and each row of other contributes only its nonzero entries
        right = other._rows
        product = []
        for row in self._rows:
            acc: dict[int, int] = {}
            for k, a in row.items():
                for j, x in right[k].items():
                    acc[j] = acc.get(j, 0) + a * x
            product.append({j: x for j, x in acc.items() if x})
        return IntMatrix._sparse(self.rows, other.cols, tuple(product))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __reduce__(self):
        return IntMatrix, (self.rows, self.cols, self.entries)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()!r})"


# most bits a packed column of `_composes_to_zero` spans: adding and
# multiplying ints of this length stays cheap, and the rows of a dense
# boundary map of a few dozen cells still pack into one block
_PACK_BITS = 2048


def _composes_to_zero(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether ``a @ b`` is the zero matrix, decided exactly without forming
    the product (Kronecker substitution); `a.cols` must equal `b.rows`.

    Let `most` be the largest row L1 norm of `a` times the largest |entry|
    of `b`, and shift = most.bit_length(), so every entry of c = a @ b has
    |c_ij| <= most < 2^shift.  Over a block of consecutive rows i0, i0+1,
    ... of `a`, column k packs into one int, cols[k] = sum of
    a_ik 2^((i - i0) shift), and acc[j] = sum over k of b_kj cols[k] =
    sum of c_ij 2^((i - i0) shift) costs one multiply-add per nonzero b_kj
    whose row k meets the block.

    acc[j] = 0 exactly when c_ij = 0 for every row i of the block.  If
    acc[j] = 0 while some c_ij != 0, take the least such i: every later
    term of acc[j] is a multiple of 2^((i - i0 + 1) shift), so 2^shift
    divides c_ij, yet 0 < |c_ij| < 2^shift.  A block spans at most
    `_PACK_BITS` bits, which keeps the ints of a long sparse map short.
    There is no randomness and no rounding: the answer is the product's.
    """
    arows, brows = a._rows, b._rows
    # two passes at C speed: the row L1 norms of a, the |entries| of b
    row_l1 = max(map(sum, map(map, repeat(abs), map(dict.values, arows))), default=0)
    most = row_l1 * max(map(abs, chain.from_iterable(map(dict.values, brows))), default=0)
    if not most:
        return True
    shift = most.bit_length()
    step = max(1, _PACK_BITS // shift)
    for start in range(0, a.rows, step):
        cols = [0] * a.cols
        base = 0
        for row in arows[start : start + step]:
            for k, x in row.items():
                cols[k] += x << base
            base += shift
        acc = [0] * b.cols
        for packed, row in zip(cols, brows):
            if packed:
                for j, x in row.items():
                    acc[j] += x * packed
        if any(acc):
            return False
    return True


class SnfResult(Record):
    """Smith normal form S = U @ M @ V with unimodular U, V.

    `diagonal` lists only the nonzero diagonal entries d1 | d2 | ... | dr,
    each positive.
    """

    __slots__ = ("U", "S", "V", "diagonal")

    def __init__(self, U: IntMatrix, S: IntMatrix, V: IntMatrix, diagonal: tuple[int, ...]):
        _set(self, "U", U)
        _set(self, "S", S)
        _set(self, "V", V)
        _set(self, "diagonal", diagonal)


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

    s_m = IntMatrix.from_rows(s, cols=cols)
    u_m = IntMatrix.from_rows(u, cols=rows)
    v_m = IntMatrix.from_rows(v, cols=cols)
    diag = tuple(s_m.entry(k, k) for k in range(limit) if s_m.entry(k, k))
    return SnfResult(U=u_m, S=s_m, V=v_m, diagonal=diag)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero Smith diagonal d1 | d2 | ... | dr of `m`, each positive:
    the same tuple as ``smith_normal_form(m).diagonal``, found by the sparse
    elimination of `_eliminate`, which builds neither U, V nor S.

    >>> invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    """
    return _eliminate(m, frozenset())[0]


def _eliminate(
    m: IntMatrix, drop: frozenset[int]
) -> tuple[tuple[int, ...], frozenset[int]]:
    """The nonzero Smith diagonal of `m` without the columns in `drop`, and
    the rows of `m` that the elimination matched.

    If every kept row holds at most two nonzero entries, each +-1, or else
    every kept column does, `_signed_graph` reduces the map (see below).
    Every other map goes to the Markowitz loop.  Each of its steps takes
    its pivot in the live column with the fewest nonzero entries, at the
    entry of least absolute value there (ties to the shortest row), and
    clears that column by row operations.  The pivot row
    is then the only row with an entry in that column, so the column
    operations that clear the row touch that row alone and cost one pass
    over it.  A nonzero remainder in the column or the row becomes the next
    pivot, which strictly lowers |pivot|.  The pivots found this way form a
    diagonal form of `m`; pairwise gcd/lcm turns it into the divisibility
    chain.  The pivot position changes only the cost, never the result.

    A row is matched when a step whose pivot was +-1 at the start cleared
    it, and every earlier step was such a unit step too.  Let `m` be
    d_(k+1) of a chain complex with d_k d_(k+1) = 0; its rows are the
    columns of d_k.  Then d_k without the matched columns has the Smith
    form of d_k (the reduction pairs of Kaczynski, Mischaikow and Mrozek,
    *Computational Homology*, ch. 4):

    * The row operation row_i -= q row_pi is U d_(k+1) with U unimodular,
      and d_k U^-1 adds q times column i of d_k to its column pi.  So the
      pair d_k U^-1, U d_(k+1) still composes to zero, and of d_k only
      column pi changes.  Column operations on d_(k+1) leave d_k as it is.
    * A unit step takes row pi as its only source, so of d_k it changes
      column pi alone.  Once the step has cleared column pj of d_(k+1),
      that column is +-e_pi, and d_k' d_(k+1)' = 0 makes column pi of d_k'
      zero.  If every earlier step was a unit step too, then by induction
      d_k' is d_k with its matched columns zeroed, reached from d_k by
      unimodular column operations.  Zero columns do not change a Smith
      form, so dropping those columns of the original d_k keeps it.
    * A step that starts from a pivot other than +-1 may take other rows as
      sources; its operations add columns of d_k into several columns, so
      d_k' is no longer d_k with columns zeroed.  Matching stops at the
      first such step.

    Dropped columns are left out before elimination, so the matches of
    d_(k+1) may be dropped from d_k, and d_k's matches from d_(k-1) in turn.

    The union-find pass is the same elimination in another order.  Read by
    rows, its nodes are the columns, and a node folded into another stands
    for +-1 times it.  A row, its entries re-keyed to their roots, that
    joins roots a and b with entries x and y is the unit pivot y at b: the
    row operations that clear column b take this row as their only source
    and move each later entry z of column b to -x y z in column a, which is
    the re-keying.  A row left with one entry on an open root is the unit
    pivot there; its row operations clear the root's column, so the root
    is closed and later entries on it are dropped.  A row left with +-2 on
    one root (its component holds a cycle of odd sign: it is unbalanced)
    waits until every row is read; each open unbalanced root then gives
    one last step with pivot 2.  So every unit step has its pivot row as
    the only source, every 2 comes after every unit step, and by the
    argument above the pivot rows of the unit steps are the matched rows.
    Read by columns, the nodes are the rows and the same steps run on the
    transpose: a unit step's row operations have as their only source the
    row node it retires, the root folded away or closed, which is the row
    it matches.
    """
    # rows[i] holds the nonzero entries of row i; column j has a nonzero
    # entry exactly in the rows of in_col[j].  The rows of `m` itself are
    # read until the Markowitz loop needs copies to change: dict(row)
    # copies a row about 15 times faster than filtering it entry by entry,
    # and the top map of a complex and every `invariant_factors` call have
    # nothing to drop.
    if drop:
        kept = ({j: x for j, x in row.items() if j not in drop} for row in m._rows)
        rows = {i: row for i, row in enumerate(kept) if row}
    else:
        rows = {i: row for i, row in enumerate(m._rows) if row}
    # each test stops at its first line longer than two or entry other than +-1
    if all(len(row) <= 2 for row in rows.values()) and _units(rows):
        return _signed_graph(((i, row.items()) for i, row in rows.items()), True)
    in_col: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            in_col.setdefault(j, set()).add(i)
    if all(len(col) <= 2 for col in in_col.values()) and _units(rows):
        lines = ((j, [(i, rows[i][j]) for i in in_col[j]]) for j in sorted(in_col))
        return _signed_graph(lines, False)
    if not drop:
        rows = {i: dict(row) for i, row in rows.items()}

    # imported on first use: importing polydepth does not load heapq
    from heapq import heapify, heappop, heappush

    # (count, j) items: every live column j has one holding its current
    # count len(in_col[j]), pushed whenever a pivot row that changed the
    # column is left; outdated items are dropped when popped
    heap = [(len(s), j) for j, s in in_col.items()]
    heapify(heap)

    pivots: list[int] = []
    matched: list[int] = []
    matching = True
    while rows:
        # a live column of fewest nonzero entries, ties to the least index
        count, pj = heappop(heap)
        if len(in_col[pj]) != count:
            continue
        pi = min(in_col[pj], key=lambda i: (abs(rows[i][pj]), len(rows[i])))
        matching = matching and abs(rows[pi][pj]) == 1
        while True:
            prow = rows[pi]
            p = prow[pj]
            for i in [i for i in in_col[pj] if i != pi]:
                row = rows[i]
                q = row[pj] // p
                if not q:
                    # |row[pj]| < |p| after the pivot moved along its row:
                    # nothing to subtract, and the row is a later pivot
                    continue
                # row i -= q * pivot row, one lookup per entry
                for j, x in prow.items():
                    y = row.get(j)
                    if y is None:
                        row[j] = -q * x
                        in_col[j].add(i)
                    else:
                        y -= q * x
                        if y:
                            row[j] = y
                        else:
                            del row[j]
                            in_col[j].discard(i)
                if not row:
                    del rows[i]
            if len(in_col[pj]) > 1:
                # remainders left in the column: the least becomes the pivot,
                # and the counts this row changed are pushed as it is left
                for j in prow:
                    if in_col[j]:
                        heappush(heap, (len(in_col[j]), j))
                pi = min((i for i in in_col[pj] if i != pi), key=lambda i: abs(rows[i][pj]))
                continue
            if abs(p) != 1:
                # column j -= (x // p) * column pj changes only the pivot row
                for j in [j for j in prow if j != pj]:
                    r = prow[j] % p
                    if r:
                        prow[j] = r
                    else:
                        del prow[j]
                        col = in_col[j]
                        col.discard(pi)
                        if col:
                            heappush(heap, (len(col), j))
                if len(prow) > 1:
                    pj = min((j for j in prow if j != pj), key=lambda j: abs(prow[j]))
                    continue
            # the pivot is alone in its row and column (a unit pivot clears
            # the rest of its row outright); only the pivot rows of the step
            # changed column counts, and this is the last of them
            for j in prow:
                col = in_col[j]
                col.discard(pi)
                if col:
                    heappush(heap, (len(col), j))
            del rows[pi]
            pivots.append(abs(p))
            if matching:
                matched.append(pi)
            break
    return _divisibility_chain(pivots), frozenset(matched)


_UNITS = frozenset((1, -1))


def _units(rows: dict[int, dict[int, int]]) -> bool:
    # whether every entry is +-1, read up to the first that is not
    return all(map(_UNITS.__contains__, chain.from_iterable(map(dict.values, rows.values()))))


def _signed_graph(lines, by_rows: bool) -> tuple[tuple[int, ...], frozenset[int]]:
    """`_eliminate` of a map whose lines, its rows or else its columns, each
    hold at most two nonzero entries, each +-1, given as (index, (node,
    entry) pairs) in index order: one pass of signed union-find over the
    nodes, its columns or its rows.  A unit step matches its row when
    `by_rows`, else the node it retires."""
    # a node v with up[v] = (p, s) stands for s times node p; a root is not
    # in `up`, and size[root] counts its nodes (1 when it is not in `size`)
    up: dict[int, tuple[int, int]] = {}
    size: dict[int, int] = {}
    closed: set[int] = set()
    odd: set[int] = set()
    matched: list[int] = []
    for i, line in lines:
        ends = []
        for v, x in line:
            while v in up:
                v, s = up[v]
                x *= s
            if v not in closed:
                ends.append((v, x))
        if len(ends) == 2:
            (a, x), (b, y) = ends
            if a == b:
                if x + y:
                    odd.add(a)
                continue
            if size.get(a, 1) < size.get(b, 1):
                a, b = b, a
            # x a + y b = 0 with x, y = +-1: either root stands for -x y
            # times the other, so the smaller folds into the larger
            up[b] = (a, -x * y)
            size[a] = size.get(a, 1) + size.get(b, 1)
            if b in odd:
                odd.add(a)
        elif ends:
            b = ends[0][0]
            closed.add(b)
        else:
            continue
        matched.append(i if by_rows else b)
    twos = [2 for r in odd if r not in up and r not in closed]
    return _divisibility_chain([1] * len(matched) + twos), frozenset(matched)


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

