"""Independent oracles used by the test suite.

Nothing in here calls back into the package's algorithms: determinants go
through Fraction-based Gaussian elimination, the 2x2 Smith form is computed
from gcd/determinant identities, products are triple loops, product complexes are
built cell pair by cell pair, Betti numbers of sphere expressions are dense
lists added and multiplied as polynomials, profiles are rendered degree by
degree with their own group text, factorisation divides by every
integer in turn, surface complexes are glued from a square grid by their
identification maps (and disguised by seeded cell shuffles and basis
changes), subspaces of F_p^k are counted by Gaussian binomials, longest
chains try every set below each term, and the group-series oracles enumerate
raw power sets and check the series definitions directly.  They are
deliberately slow and simple; they exist to catch bugs in the fast
implementations.
"""

from __future__ import annotations

import random
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


def matmul_naive(a: list[list[int]], b: list[list[int]], b_cols: int) -> list[list[int]]:
    """Product of nested-list matrices by the triple loop.  `b_cols` fixes
    the width of the product when `b` has no rows."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(b_cols)]
        for i in range(len(a))
    ]


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
# surfaces


def surface_grid_naive(kind: str, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Boundary matrices (d1, d2) of the torus or the Klein bottle, glued
    from the square [0, n] x [0, n] cut into unit squares and each unit
    square into two triangles.

    Every point of the square's boundary is identified with its image on
    the sides x = 0 and y = 0: (x, n) ~ (x, 0) for both surfaces, and
    (n, y) ~ (0, y) for the torus but (n, y) ~ (0, n - y) for the Klein
    bottle.  A vertex is the canonical image of a grid point.  An edge is
    the canonical image of a unit segment as an unordered pair of square
    points, oriented from its smaller to its larger point, so a segment
    carried onto it backwards enters with sign -1.
    """
    if kind not in ("torus", "klein") or n < 3:
        raise ValueError(f"need kind torus/klein and n >= 3, got {kind} {n}")

    def across_x(point):
        # the side x = n onto the side x = 0
        return 0, (point[1] if kind == "torus" else n - point[1])

    def across_y(point):
        # the side y = n onto the side y = 0
        return point[0], 0

    def glue(point):
        if point[0] == n:
            point = across_x(point)
        if point[1] == n:
            point = across_y(point)
        return point

    def glue_segment(p, q):
        # a segment on the side x = n or y = n moves as a whole to x = 0
        # or y = 0, where no segment is identified further
        if p[0] == q[0] == n:
            return across_x(p), across_x(q)
        if p[1] == q[1] == n:
            return across_y(p), across_y(q)
        return p, q

    vertices: dict = {}
    edges: dict = {}
    d1_entries: dict = {}

    def vertex(point):
        while glue(point) != point:
            point = glue(point)
        return vertices.setdefault(point, len(vertices))

    def edge(p, q):
        # (index, sign) of the unit segment p -> q
        p, q = glue_segment(p, q)
        key = (min(p, q), max(p, q))
        if key not in edges:
            edges[key] = len(edges)
            d1_entries[edges[key]] = (vertex(key[0]), vertex(key[1]))
        return edges[key], (1 if p < q else -1)

    triangles = []
    for x in range(n):
        for y in range(n):
            for corners in (
                ((x, y), (x + 1, y), (x + 1, y + 1)),
                ((x, y), (x, y + 1), (x + 1, y + 1)),
            ):
                a, b, c = corners
                # boundary of [a, b, c] is [b, c] - [a, c] + [a, b]
                terms: dict = {}
                for (e, sign), coeff in ((edge(b, c), 1), (edge(a, c), -1), (edge(a, b), 1)):
                    terms[e] = terms.get(e, 0) + sign * coeff
                triangles.append(terms)
    d1 = [[0] * len(edges) for _ in range(len(vertices))]
    for e, (start, end) in d1_entries.items():
        d1[end][e] += 1
        d1[start][e] -= 1
    d2 = [[0] * len(triangles) for _ in range(len(edges))]
    for t, terms in enumerate(triangles):
        for e, coeff in terms.items():
            d2[e][t] += coeff
    return d1, d2


def _shuffled_cells(maps: list, rng) -> list:
    """Permute the cells of every degree and flip some orientations."""
    counts = [len(maps[0])] + [len(m[0]) for m in maps]
    out = [[row[:] for row in m] for m in maps]
    for k, count in enumerate(counts):
        order = rng.sample(range(count), count)
        signs = [rng.choice((1, -1)) for _ in range(count)]
        if k > 0:  # columns of d_k
            out[k - 1] = [[signs[c] * row[c] for c in order] for row in out[k - 1]]
        if k < len(out):  # rows of d_(k+1)
            out[k] = [[signs[r] * x for x in out[k][r]] for r in order]
    return out


def _scrambled_basis(maps: list, ops: int, rng) -> list:
    """`ops` elementary changes of basis: the new k-cell j is e_j + q e_i,
    so d_k gains q times column i in column j and d_(k+1) loses q times
    row j from row i.  Every composition stays zero."""
    counts = [len(maps[0])] + [len(m[0]) for m in maps]
    out = [[row[:] for row in m] for m in maps]
    for _ in range(ops):
        k = rng.randrange(len(counts))
        if counts[k] < 2:
            continue
        i, j = rng.sample(range(counts[k]), 2)
        q = rng.choice((-2, -1, 1, 2))
        if k > 0:
            for row in out[k - 1]:
                row[j] += q * row[i]
        if k < len(out):
            out[k][i] = [a - q * b for a, b in zip(out[k][i], out[k][j])]
    return out


def disguised_surface(kind: str, n: int) -> list:
    """The boundary maps [d1, d2] of `surface_grid_naive(kind, n)` with
    shuffled cells and 4 n^2 basis changes, seeded by kind and n: dense
    matrices with multi-bit entries and the surface's homology."""
    rng = random.Random(f"{kind}-{n}")
    return _scrambled_basis(_shuffled_cells(surface_grid_naive(kind, n), rng), 4 * n * n, rng)


def disguised_surface_space(kind: str, n: int) -> dict:
    """`disguised_surface(kind, n)` as an explicit space JSON with its
    fundamental group (Z^2 for the torus, elementary amenable of Hirsch
    length 2 for the Klein bottle) and the point as its universal cover."""
    d1, d2 = disguised_surface(kind, n)
    pi1 = (
        {"abelian": "Z^2"}
        if kind == "torus"
        else {"elementary_amenable": {"hirsch": 2, "cd_finite": True}}
    )
    complex_ = {"cells": [len(d1), len(d2), len(d2[0])], "boundary": [d1, d2]}
    cover = {"cells": [1], "boundary": []}
    return {"explicit": {"complex": complex_, "pi1": pi1, "cover": cover}}


def tensor_complex_naive(c1: dict, c2: dict) -> dict:
    """Cellular chain complex of the product of two cell complexes, both in
    chain complex JSON form ({"cells": [...], "boundary": [d_1, ...]}, d_k
    a nested list with rows indexed by (k-1)-cells).

    The n-cells are the pairs a x b with |a| + |b| = n, ordered by |a| and
    then row-major in (a, b), and d(a x b) = da x b + (-1)^|a| a x db."""
    cells1, cells2 = c1["cells"], c2["cells"]

    def entry(c, k, row, col):
        # d_k of complex c, zero outside 1..dim
        return c["boundary"][k - 1][row][col] if 1 <= k < len(c["cells"]) else 0

    def pairs(n):
        # the n-cells as (p, i, q, j): cell i of degree p times cell j of degree q
        return [
            (p, i, n - p, j)
            for p in range(len(cells1))
            if 0 <= n - p < len(cells2)
            for i in range(cells1[p])
            for j in range(cells2[n - p])
        ]

    top = len(cells1) + len(cells2) - 2
    basis = [pairs(n) for n in range(top + 1)]
    boundary = []
    for n in range(1, top + 1):
        rows = [[0] * len(basis[n]) for _ in basis[n - 1]]
        for r, (p2, i2, q2, j2) in enumerate(basis[n - 1]):
            for c, (p, i, q, j) in enumerate(basis[n]):
                if (p2, q2, j2) == (p - 1, q, j):
                    rows[r][c] += entry(c1, p, i2, i)
                elif (p2, q2, i2) == (p, q - 1, i):
                    rows[r][c] += (-1) ** p * entry(c2, q, j2, j)
        boundary.append(rows)
    return {"cells": [len(b) for b in basis], "boundary": boundary}


def betti_naive(space: dict) -> list[int]:
    """Betti numbers b_0 .. b_dim of a sphere/wedge/product expression in
    its JSON form, as a dense list: a sphere is 1 + t^n, a wedge adds its
    parts' lists entry by entry and keeps b_0 = 1, a product multiplies the
    lists as polynomials."""
    (tag, value), = space.items()
    if tag == "sphere":
        betti = [0] * (value + 1)
        betti[0] += 1
        betti[value] += 1
        return betti
    parts = [betti_naive(part) for part in value]
    if tag == "wedge":
        betti = [0] * max(len(b) for b in parts)
        for b in parts:
            for k, x in enumerate(b):
                betti[k] += x
        betti[0] = 1
        return betti
    betti = [1]
    for b in parts:
        out = [0] * (len(betti) + len(b) - 1)
        for i, x in enumerate(betti):
            for j, y in enumerate(b):
                out[i + j] += x * y
        betti = out
    return betti


def render_profile_naive(profile) -> str:
    """A homology profile as text, one degree at a time over 0..dim through
    the profile's group(k)/fg(k) accessors: "Z^r ⊕ Z/q1 ⊕ ..." ("Z" for
    rank 1, "0" for the trivial group), or the not-f.g. verdict."""
    lines = []
    for k in range(profile.dim + 1):
        fg = profile.fg(k)
        if fg is True:
            group = profile.group(k)
            parts = [f"Z/{q}" for q in group.torsion]
            if group.free_rank:
                parts.insert(0, "Z" if group.free_rank == 1 else f"Z^{group.free_rank}")
            text = " ⊕ ".join(parts) or "0"
        else:
            text = "not finitely generated"
        lines.append(f"H{k} = {text}")
    return "\n".join(lines)


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


def tor_torsion_pairwise(s: list[int], t: list[int]) -> list[int]:
    """Z/q (x) Z/r for every pair of prime-power orders q in s and r in t,
    repeats included: Z/gcd(q, r), which is Z/min(q, r) for powers of one
    prime and nothing across primes."""
    return [gcd(q, r) for q in s for r in t if gcd(q, r) > 1]


def subspace_count_naive(p: int, k: int) -> int:
    """Number of subspaces of F_p^k, i.e. of subgroups of (Z/p)^k: the sum
    over dimensions j of the Gaussian binomial
    [k, j]_p = prod_{i<j} (p^(k-i) - 1) / (p^(i+1) - 1)."""
    total = 0
    for j in range(k + 1):
        num = den = 1
        for i in range(j):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


# ---------------------------------------------------------------------------
# finite groups on raw Cayley tables (list of lists, identity = 0)


def longest_chain_naive(
    sets: list[frozenset[int]], top: frozenset[int], bottom: frozenset[int]
) -> int:
    """Length of the longest strictly decreasing chain (by inclusion) from
    `top` to `bottom` through `sets`, by trying every set below each term."""
    memo: dict[frozenset[int], int] = {}

    def down(s: frozenset[int]) -> int:
        if s == bottom:
            return 0
        if s not in memo:
            memo[s] = max(1 + down(t) for t in sets if bottom <= t < s)
        return memo[s]

    return down(top)


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
