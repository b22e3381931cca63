"""Independent oracles used by the test suite.

Nothing in here calls back into the package's algorithms: determinants go
through Fraction-based Gaussian elimination, the 2x2 Smith form is computed
from gcd/determinant identities, factorisation divides by every integer in
turn, and the group-series oracles enumerate raw power sets and check the
series definitions directly.  They are deliberately
slow and simple; they exist to catch bugs in the fast implementations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


# ---------------------------------------------------------------------------
# linear algebra


def det_fraction(rows: list[list[int]]) -> Fraction:
    """Exact determinant via rational Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        inv = Fraction(1) / a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return det


def snf_diagonal_2x2(a: int, b: int, c: int, d: int) -> list[int]:
    """Nonzero Smith diagonal of [[a,b],[c,d]]: d1 = gcd of entries,
    d2 = |det| / d1 when the determinant is nonzero."""
    g = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
    if g == 0:
        return []
    det = abs(a * d - b * c)
    if det == 0:
        return [g]
    return [g, det // g]


def rank_fraction(rows: list[list[int]]) -> int:
    """Rational rank via Gaussian elimination."""
    if not rows or not rows[0]:
        return 0
    a = [[Fraction(x) for x in row] for row in rows]
    n, m = len(a), len(a[0])
    r = 0
    for col in range(m):
        pivot_row = next((i for i in range(r, n) if a[i][col] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = Fraction(1) / a[r][col]
        for i in range(n):
            if i != r and a[i][col]:
                factor = a[i][col] * inv
                for j in range(m):
                    a[i][j] -= factor * a[r][j]
        r += 1
        if r == n:
            break
    return r


# ---------------------------------------------------------------------------
# integers


def factor_naive(q: int) -> list[tuple[int, int]]:
    """Prime factorisation of q >= 2 by dividing by every integer from 2 up."""
    out = []
    d = 2
    while d * d <= q:
        e = 0
        while q % d == 0:
            q //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if q > 1:
        out.append((q, 1))
    return out


# ---------------------------------------------------------------------------
# finite groups on raw Cayley tables (list of lists, identity = 0)


def table_inverse(table: list[list[int]], a: int) -> int:
    return next(b for b in range(len(table)) if table[a][b] == 0)


def powerset_subgroups(table: list[list[int]]) -> list[frozenset[int]]:
    """All subgroups by raw power-set scan.  Only sane for order <= 8."""
    n = len(table)
    assert n <= 8, "power-set oracle is restricted to tiny groups"
    out = []
    rest = [x for x in range(n) if x != 0]
    for k in range(n):
        for extra in combinations(rest, k):
            cand = frozenset((0,) + extra)
            closed = all(table[a][b] in cand for a in cand for b in cand)
            if closed and all(table_inverse(table, a) in cand for a in cand):
                out.append(cand)
    return out


def generated_subgroups_naive(table: list[list[int]]) -> list[frozenset[int]]:
    """All subgroups, as the closures of every set of at most floor(log2 n)
    non-identity elements: walk raw table products from the identity, right
    multiplying by the chosen elements.  That many generators suffice, since
    each generator outside the subgroup generated so far at least doubles
    its order.  Sane up to order 16 or so."""
    n = len(table)
    found = set()
    for k in range(n.bit_length()):  # k <= floor(log2 n)
        for gens in combinations(range(1, n), k):
            closed = {0}
            frontier = [0]
            while frontier:
                a = frontier.pop()
                for x in gens:
                    b = table[a][x]
                    if b not in closed:
                        closed.add(b)
                        frontier.append(b)
            found.add(frozenset(closed))
    return sorted(found, key=lambda h: (len(h), sorted(h)))


def _is_normal_naive(table, h: frozenset[int]) -> bool:
    n = len(table)
    for g in range(n):
        gi = table_inverse(table, g)
        for x in h:
            if table[table[g][x]][gi] not in h:
                return False
    return True


def _is_complement_naive(table, h: frozenset[int], k: frozenset[int]) -> bool:
    if h & k != {0}:
        return False
    product = {table[a][b] for a in h for b in k}
    return len(product) == len(table)


def _has_complement_naive(table, h, subgroups, require_normal: bool) -> bool:
    return any(
        _is_complement_naive(table, h, k)
        and (not require_normal or _is_normal_naive(table, k))
        for k in subgroups
    )


def n1_naive(table: list[list[int]]) -> int:
    """Longest chain full -> ... -> {0} through subgroups that are normal in
    the whole group and have some complement there.  Direct definition check."""
    subs = powerset_subgroups(table)
    full = frozenset(range(len(table)))
    cands = [
        h
        for h in subs
        if _is_normal_naive(table, h) and _has_complement_naive(table, h, subs, False)
    ]

    def down(h: frozenset[int]) -> int:
        if h == {0}:
            return 0
        return max(1 + down(c) for c in cands if c < h)

    return down(full)


def retracts_naive(table: list[list[int]]) -> list[frozenset[int]]:
    subs = powerset_subgroups(table)
    return [
        h
        for h in subs
        if any(
            _is_complement_naive(table, h, k) and _is_normal_naive(table, k)
            for k in subs
        )
    ]


def n2_naive(table: list[list[int]]) -> int:
    """Longest strictly decreasing chain of retracts of the whole group."""
    rets = retracts_naive(table)
    full = frozenset(range(len(table)))

    def down(h: frozenset[int]) -> int:
        if h == {0}:
            return 0
        return max(1 + down(c) for c in rets if c < h)

    return down(full)


def restrict_table(table: list[list[int]], members: frozenset[int]) -> list[list[int]]:
    order = sorted(members)
    index = {g: i for i, g in enumerate(order)}
    return [[index[table[a][b]] for b in order] for a in order]


def n3_naive(table: list[list[int]]) -> int:
    """Recursive definition: 1 + max over proper retracts, retracts computed
    inside the subgroup via a restricted table."""
    if len(table) == 1:
        return 0
    full = frozenset(range(len(table)))
    best = 0
    for h in retracts_naive(table):
        if h != full:
            best = max(best, n3_naive(restrict_table(table, h)))
    return 1 + best
