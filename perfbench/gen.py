"""Seeded input generators.

Everything here is plain Python on lists of ints, independent of polydepth:
the benchmark builds its inputs (and, in ``reference.py``, the expected
answers) without asking the program under test.  Each generator takes a
``random.Random`` so the same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from itertools import permutations

# --- surfaces: Delta-complex triangulations of the N x N grid ---------------


def surface_complex(kind: str, n: int) -> list[list[list[int]]]:
    """Boundary matrices [d1, d2] of the torus or Klein bottle glued from an
    n x n square grid, each square cut into two triangles.

    Cells: n*n vertices, 3*n*n edges (horizontal h, vertical v, diagonal d at
    each grid point) and 2*n*n triangles.  The torus identifies opposite
    sides directly; the Klein bottle glues the top row to the bottom row with
    a flip, so (n, y) ~ (0, n - y) and h(n, j) = -h(0, n - 1 - j).
    """
    if kind not in ("torus", "klein") or n < 3:
        raise ValueError(f"need kind torus/klein and n >= 3, got {kind} {n}")

    def vertex(i: int, j: int) -> int:
        if i == n:
            if kind == "torus":
                i = 0
            else:
                i, j = 0, n - j
        return i * n + j % n

    def h(i: int, j: int) -> tuple[int, int]:
        # (edge index, sign) of the edge from (i, j) to (i, j + 1)
        if i == n:
            if kind == "torus":
                return j, 1
            return n - 1 - j, -1
        return i * n + j, 1

    def v(i: int, j: int) -> tuple[int, int]:
        return n * n + i * n + j % n, 1

    def d(i: int, j: int) -> tuple[int, int]:
        return 2 * n * n + i * n + j, 1

    verts, edges, tris = n * n, 3 * n * n, 2 * n * n
    d1 = [[0] * edges for _ in range(verts)]
    for i in range(n):
        for j in range(n):
            for (e, _), (a, b) in (
                (h(i, j), ((i, j), (i, j + 1))),
                (v(i, j), ((i, j), (i + 1, j))),
                (d(i, j), ((i, j), (i + 1, j + 1))),
            ):
                d1[vertex(*b)][e] += 1
                d1[vertex(*a)][e] -= 1
    d2 = [[0] * tris for _ in range(edges)]
    for i in range(n):
        for j in range(n):
            upper, lower = 2 * (i * n + j), 2 * (i * n + j) + 1
            # [a, b, c] has boundary [b, c] - [a, c] + [a, b]
            for t, terms in (
                (upper, ((v(i, j + 1), 1), (d(i, j), -1), (h(i, j), 1))),
                (lower, ((h(i + 1, j), 1), (d(i, j), -1), (v(i, j), 1))),
            ):
                for (e, sign), coeff in terms:
                    d2[e][t] += sign * coeff
    return [d1, d2]


def shuffle_cells(rng: random.Random, maps: list[list[list[int]]]) -> None:
    """Permute the cells of every dimension and flip a random half of their
    orientations, in place.  Homology is unchanged."""
    counts = [len(maps[0])] + [len(m[0]) if m else 0 for m in maps]
    for k, count in enumerate(counts):
        order = list(range(count))
        rng.shuffle(order)
        signs = [rng.choice((1, -1)) for _ in range(count)]
        if k >= 1:  # columns of d_k
            m = maps[k - 1]
            for r, row in enumerate(m):
                m[r] = [signs[c] * row[c] for c in order]
        if k < len(maps):  # rows of d_{k+1}
            m = maps[k]
            maps[k] = [[signs[r] * x for x in m[r]] for r in order]


def scramble_basis(rng: random.Random, maps: list[list[list[int]]], ops: int) -> None:
    """Apply `ops` random elementary basis changes to the chain groups, in
    place.  A change E of C_k replaces d_k by d_k E and d_{k+1} by
    E^-1 d_{k+1}, so d o d = 0 and the homology are preserved while the
    matrices fill in with multi-bit entries."""
    counts = [len(maps[0])] + [len(m[0]) for m in maps]
    for _ in range(ops):
        k = rng.randrange(len(counts))
        if counts[k] < 2:
            continue
        i, j = rng.sample(range(counts[k]), 2)
        q = rng.choice((-2, -1, 1, 2))
        # new basis vector j := e_j + q e_i
        if k >= 1:  # col j += q col i  in d_k
            for row in maps[k - 1]:
                row[j] += q * row[i]
        if k < len(maps):  # row i -= q row j  in d_{k+1}
            below = maps[k]
            below[i] = [a - q * b for a, b in zip(below[i], below[j])]


# --- finite groups as Cayley tables ------------------------------------------


def cyclic(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral(n: int) -> list[list[int]]:
    """Order 2n; index e*n + i is r^i (e = 0) or s r^i (e = 1)."""

    def mul(a: int, b: int) -> int:
        ea, i = divmod(a, n)
        eb, j = divmod(b, n)
        if ea == 0:
            return eb * n + (i + j) % n if eb == 0 else n + (j - i) % n
        return n + (i + j) % n if eb == 0 else (j - i) % n

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def dicyclic(m: int) -> list[list[int]]:
    """Order 4m: a of order 2m, b^2 = a^m, b a b^-1 = a^-1.  Index e*2m + i
    is a^i b^e."""
    k = 2 * m

    def mul(x: int, y: int) -> int:
        ex, i = divmod(x, k)
        ey, j = divmod(y, k)
        if ex == 0:
            return ey * k + (i + j) % k
        if ey == 0:  # a^i b a^j = a^(i-j) b
            return k + (i - j) % k
        return (i - j + m) % k  # a^i b a^j b = a^(i-j) b^2

    return [[mul(x, y) for y in range(2 * k)] for x in range(2 * k)]


def alternating4() -> list[list[int]]:
    perms = [p for p in permutations(range(4)) if _even(p)]
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(4))] for b in perms] for a in perms]


def _even(p: tuple[int, ...]) -> bool:
    inversions = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
    return inversions % 2 == 0


def direct_product(*tables: list[list[int]]) -> list[list[int]]:
    out = [[0]]
    for t in tables:
        m, k = len(out), len(t)
        out = [
            [out[a // k][b // k] * k + t[a % k][b % k] for b in range(m * k)]
            for a in range(m * k)
        ]
    return out


def relabel(rng: random.Random, table: list[list[int]]) -> list[list[int]]:
    """The same group under a random renaming of its elements; the identity
    keeps index 0."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    pi = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return out


def table_text(table: list[list[int]]) -> str:
    """The Cayley-table text format: order, then one row per line."""
    lines = [str(len(table))] + [" ".join(map(str, row)) for row in table]
    return "\n".join(lines) + "\n"


# --- space expressions --------------------------------------------------------


def sphere(n: int) -> dict:
    return {"sphere": n}


def wedge_of(dims: list[int]) -> dict:
    return {"wedge": [sphere(n) for n in dims]}


def product_of(dims: list[int]) -> dict:
    return {"product": [sphere(n) for n in dims]}
