"""Independent oracles used by the test suite.

Nothing in here calls back into the package's algorithms: determinants go
through Fraction-based Gaussian elimination, the 2x2 Smith form is computed
from gcd/determinant identities, products are triple loops, product complexes are
built cell pair by cell pair, wedge complexes cell by cell around one base
point, the cover of a wedge with the presentation complex of <a | a^n> lifted
cell by cell, Betti numbers of sphere expressions are dense lists added and
multiplied as polynomials, a space expression is read one node at a time
with its refusals written out, the parts of a wedge of spheres are told
apart by identity one part at a time, profiles and bound reports are
rendered degree by degree with their own text, and as JSON dicts built one
degree at a time, and degrees are written one str() at a time, factorisation divides by every
integer in turn, surface complexes are glued from a square grid by their
identification maps (and disguised by seeded cell shuffles and basis
changes), complexes of known homology start from diagonal boundary
maps before the same disguise, subspaces of F_p^k are counted by Gaussian
binomials, an abelian table's summands are read off the invariant
factors of its relation matrix (the one oracle that calls the package, its
Smith form, which has oracles of its own here), longest chains try every
set below each term, and the group-series oracles enumerate raw power
sets (closures of small generating sets above order 8) and check the series definitions directly,
associativity
is checked on every triple, the elements Light's test checks come from a
closure rebuilt after each one, a member set is closed when every product
of two members is a member, a table's refusal is found one value at a
time, direct products decode and encode every index, and each value
record has a standard-library dataclass twin.  They are deliberately slow
and simple; they exist to catch bugs in the fast implementations.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable


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


def _change_basis(out: list, counts: list, k: int, rng) -> None:
    """One elementary change of basis of C_k, in place: the new k-cell j
    is e_j + q e_i, so d_k gains q times column i in column j and d_(k+1)
    loses q times row j from row i.  Every composition stays zero."""
    i, j = rng.sample(range(counts[k]), 2)
    q = rng.choice((-2, -1, 1, 2))
    if k > 0:
        for row in out[k - 1]:
            row[j] += q * row[i]
    if k < len(out):
        out[k][i] = [a - q * b for a, b in zip(out[k][i], out[k][j])]


def _scrambled_basis(maps: list, ops: int, rng) -> list:
    """`ops` elementary changes of basis (`_change_basis`), each of a
    degree drawn at random."""
    counts = [len(maps[0])] + [len(m[0]) for m in maps]
    out = [[row[:] for row in m] for m in maps]
    for _ in range(ops):
        k = rng.randrange(len(counts))
        if counts[k] >= 2:
            _change_basis(out, counts, k, rng)
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


def torsion_complex(dim: int, seed) -> tuple[list, list[tuple[int, list[int]]]]:
    """Boundary maps [d_1, ..., d_dim] of a chain complex whose homology is
    known by construction, and that homology as (free rank, prime-power
    torsion sorted ascending) per degree.

    Every C_k gets 2 to 5 cells.  Going down from d_dim, a k-cell that no
    (k+1)-cell hits may be sent to t times a (k-1)-cell that nothing else
    hits, t drawn from +-1, 2, 3, 4 and 6, so each d_k starts diagonal and
    d_k d_(k+1) = 0.  Then H_k holds a Z for each k-cell that neither
    sends nor is hit, and a Z/|t| for each k-cell hit with |t| > 1.  The
    cells are shuffled and every C_k gets a few elementary changes of basis
    (`_change_basis`), seeded by `seed`, which leave the homology alone."""
    rng = random.Random(f"torsion-{dim}-{seed}")
    counts = [rng.randint(2, 5) for _ in range(dim + 1)]
    maps = [[[0] * counts[k] for _ in range(counts[k - 1])] for k in range(1, dim + 1)]
    hit: list[dict[int, int]] = [{} for _ in range(dim + 1)]  # cell -> t
    sends = [set() for _ in range(dim + 1)]
    for k in range(dim, 0, -1):
        for c in range(counts[k]):
            free = [r for r in range(counts[k - 1]) if r not in hit[k - 1]]
            if c in hit[k] or not free or rng.random() < 0.3:
                continue
            r = rng.choice(free)
            t = rng.choice((1, -1, 2, 3, 4, 6, -2, -6))
            maps[k - 1][r][c] = t
            hit[k - 1][r] = abs(t)
            sends[k].add(c)
    homology = []
    for k in range(dim + 1):
        free_rank = sum(1 for c in range(counts[k]) if c not in hit[k] and c not in sends[k])
        torsion = [p**e for t in hit[k].values() if t > 1 for p, e in factor_naive(t)]
        homology.append((free_rank, sorted(torsion)))
    maps = _shuffled_cells(maps, rng)
    for k in range(dim + 1):
        for _ in range(rng.randint(1, 2 * counts[k])):
            _change_basis(maps, counts, k, rng)
    return maps, homology


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


def wedge_complex_naive(*complexes: dict) -> dict:
    """Cellular chain complex of the wedge of cell complexes, each in chain
    complex JSON form, with a 0-cell, and with a d_1 whose every column sums
    to zero (the edge of a 1-cell runs from a 0-cell to a 0-cell): the first
    0-cell of every part is the one base point, 0-cell 0 of the wedge, and
    every other cell stays apart.

    The cells of each degree are listed part by part, and each boundary map
    is block diagonal but that the rows of all the base points are one row."""
    for c in complexes:
        if not c["cells"][0]:
            raise ValueError("a wedge part needs a 0-cell")
        if c["boundary"] and any(sum(col) for col in zip(*c["boundary"][0])):
            raise ValueError("a wedge part's d_1 has a column that does not sum to zero")
    top = max(len(c["cells"]) for c in complexes) - 1
    size = [1] + [0] * top
    index = [{} for _ in range(top + 1)]  # (part, cell) -> wedge cell, per degree
    for p, c in enumerate(complexes):
        for k, n in enumerate(c["cells"]):
            for i in range(n):
                if k == 0 and i == 0:
                    index[0][p, 0] = 0
                else:
                    index[k][p, i] = size[k]
                    size[k] += 1
    boundary = [[[0] * size[k] for _ in range(size[k - 1])] for k in range(1, top + 1)]
    for p, c in enumerate(complexes):
        for k, rows in enumerate(c["boundary"], start=1):
            for r, row in enumerate(rows):
                for col, v in enumerate(row):
                    boundary[k - 1][index[k - 1][p, r]][index[k][p, col]] += v
    return {"cells": size, "boundary": boundary}


def cyclic_cover_wedge_naive(n: int, *parts: dict) -> dict:
    """Cellular chain complex of the universal cover of X v Y_1 v ..., where
    X is the presentation complex of <a | a^n> (one cell in each of degrees
    0, 1 and 2, d_2 = n) and each Y is in chain complex JSON form with its
    first 0-cell as base point; with no parts, the cover of X alone.

    The cover is lifted cell by cell: n 0-cells v_i, n 1-cells e_i from v_i
    to v_(i+1 mod n) (d_1 is the n-cycle) and n 2-cells, each bounded by the
    whole cycle e_0 + ... + e_(n-1).  At each v_i one copy of every Y is
    attached, its base point identified with v_i, its other cells apart."""
    top = max([2] + [len(c["cells"]) - 1 for c in parts])
    size = [n, n, n] + [0] * (top - 2)
    entries = []  # (k, row, column, value) of d_k
    for i in range(n):
        entries += [(1, i, i, -1), (1, (i + 1) % n, i, 1)]
        entries += [(2, j, i, 1) for j in range(n)]
    for i in range(n):
        for c in parts:
            index = [[] for _ in c["cells"]]  # cell of this copy -> cover cell, per degree
            for k, count in enumerate(c["cells"]):
                for j in range(count):
                    if (k, j) == (0, 0):
                        index[0].append(i)
                    else:
                        index[k].append(size[k])
                        size[k] += 1
            for k, rows in enumerate(c["boundary"], start=1):
                for r, row in enumerate(rows):
                    entries += [(k, index[k - 1][r], index[k][col], v) for col, v in enumerate(row)]
    boundary = [[[0] * size[k] for _ in range(size[k - 1])] for k in range(1, top + 1)]
    for k, r, col, v in entries:
        boundary[k - 1][r][col] += v
    return {"cells": size, "boundary": boundary}


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


def space_from_json_naive(obj, depth: int = 0):
    """A sphere/wedge/product space expression read one node at a time, in
    node order, with every refusal of the space reader written out here.
    It returns the records of `polydepth.topology`, a wedge in a wedge or a
    product in a product spliced in and a one-part list collapsed here, and
    a fresh `Sphere` for every leaf.  An ``explicit`` node is not read."""
    from polydepth.topology import MAX_NESTING, Product, Sphere, Wedge

    tags = ("sphere", "wedge", "product", "explicit")
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(
            "space must be an object with exactly one of the keys " + "/".join(tags)
        )
    (tag, value), = obj.items()
    if tag not in tags:
        raise ValueError(f"unknown space tag {tag!r}")
    if tag == "sphere":
        if not isinstance(value, int):
            raise ValueError(f"sphere dimension must be int, got {type(value).__name__}")
        if value < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {int(value)}")
        return Sphere(int(value))
    if tag == "explicit":
        raise NotImplementedError("the naive reader reads no explicit complex")
    if not isinstance(value, list):
        raise ValueError(f"space {tag} must be a list, got {type(value).__name__}")
    if depth == MAX_NESTING:
        raise ValueError(f"space nested more than {MAX_NESTING} wedge and product lists deep")
    cls, field = (Wedge, "parts") if tag == "wedge" else (Product, "factors")
    parts = []
    for node in value:
        part = space_from_json_naive(node, depth + 1)
        if type(part) is cls:
            parts.extend(getattr(part, field))
        else:
            parts.append(part)
    if not parts:
        raise ValueError(f"{tag} needs at least one {'part' if cls is Wedge else 'factor'}")
    return parts[0] if len(parts) == 1 else cls(tuple(parts))


def split_by_identity_naive(parts) -> tuple[list, list]:
    """The parts of a wedge of spheres, each distinct object once, by
    identity, in order of first appearance and with its number of copies:
    (circles, the rest) as lists of (part, copies)."""
    firsts: list = []
    copies: list[int] = []
    for part in parts:
        for i, seen in enumerate(firsts):
            if seen is part:
                copies[i] += 1
                break
        else:
            firsts.append(part)
            copies.append(1)
    pairs = list(zip(firsts, copies))
    return [p for p in pairs if p[0].n == 1], [p for p in pairs if p[0].n != 1]


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


def degree_names_naive(stop: int) -> list[str]:
    """str(k) for every degree k in 0..stop-1, one str() per degree."""
    return [str(k) for k in range(stop)]


def degree_run_naive(start: int, stop: int, sep: str) -> str:
    """The degrees start..stop-1 joined by `sep`, one str() per degree."""
    return sep.join(map(str, range(start, stop)))


def profile_to_json_naive(profile) -> dict:
    """A homology profile as a JSON object, one degree at a time over 0..dim
    through the profile's group(k)/fg(k) accessors."""
    groups = {}
    fg = {}
    for k in range(profile.dim + 1):
        g = profile.group(k)
        groups[str(k)] = (
            None if g is None else {"free_rank": g.free_rank, "torsion": list(g.torsion)}
        )
        fg[str(k)] = profile.fg(k)
    return {"dim": profile.dim, "groups": groups, "finitely_generated": fg}


def report_to_json_naive(report) -> dict:
    """A bound report as a JSON object with one ``per_degree`` entry per
    degree 2..dim from the dense ``per_degree`` view, or its failures."""
    if not hasattr(report, "per_degree"):
        return {
            "rule": None,
            "bound": None,
            "failures": [
                {"rule": family, "reason": reason}
                for family, reason in report.failures
            ],
        }
    body = {
        "rule": report.applied_rule,
        "bound": report.bound,
        "sl_pi1": report.sl_pi1,
        "per_degree": {str(k): v for k, v in sorted(report.per_degree.items())},
        "assumptions": list(report.assumptions_used),
    }
    if report.exact_depth is not None:
        body["exact_depth"] = report.exact_depth
        body["provenance"] = report.provenance
    return body


def render_report_naive(report) -> str:
    """A bound report as text, one line per degree 2..dim through the dense
    ``per_degree`` view, or one line per failed family."""
    if not hasattr(report, "per_degree"):
        lines = ["no bound applicable"]
        lines += [f"  {family} failed: {reason}" for family, reason in report.failures]
        return "\n".join(lines)
    lines = [f"rule={report.applied_rule} bound={report.bound}", f"sl_pi1={report.sl_pi1}"]
    lines += [f"degree {k}: {v}" for k, v in sorted(report.per_degree.items())]
    lines += [f"assumes: {a}" for a in report.assumptions_used]
    if report.exact_depth is not None:
        lines.append(f"exact_depth={report.exact_depth} ({report.provenance})")
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


def abelian_summands_naive(table: list[list[int]]) -> tuple[int, ...]:
    """Prime-power orders of the cyclic summands of a commuting table's
    group, ascending.  G is the cokernel of its relation matrix: one column
    per element and one row e_x + e_y - e_xy per pair x <= y.  The matrix
    has full rank, so G is the sum of Z/d over its nonunit invariant
    factors d, each split into prime powers by `factor_naive`."""
    from polydepth.intlinalg import IntMatrix, invariant_factors

    n = len(table)
    rows = []
    for x in range(n):
        for y in range(x, n):
            row = [0] * n
            row[x] += 1
            row[y] += 1
            row[table[x][y]] -= 1
            rows.append(row)
    factors = invariant_factors(IntMatrix.from_rows(rows, cols=n))
    assert len(factors) == n, "the relation matrix of a group has full rank"
    return tuple(
        sorted(p**e for d in factors if d > 1 for p, e in factor_naive(d))
    )


def fails_associativity(table: list[list[int]], a: int, b: int, c: int) -> bool:
    """(ab)c differs from a(bc), both read off the raw table."""
    return table[table[a][b]][c] != table[a][table[b][c]]


def associative_naive(table: list[list[int]]) -> bool:
    """Associativity by trying every triple (a, b, c)."""
    n = len(table)
    return not any(
        fails_associativity(table, a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def light_generators_naive(table) -> list[int]:
    """The elements b that Light's test checks on a group, in index order:
    b is tested unless the identity already reaches it by right
    multiplication with the b tested before it, and that reach is rebuilt
    from scratch after every test."""
    tested: list[int] = []
    reach = {0}
    for b in range(len(table)):
        if b in reach:
            continue
        tested.append(b)
        reach, frontier = {0}, [0]
        for x in frontier:  # grows while it is walked
            for y in tested:
                if table[x][y] not in reach:
                    reach.add(table[x][y])
                    frontier.append(table[x][y])
    return tested


def closed_naive(table, mask: int) -> bool:
    """Every product of two members of the bitmask `mask` is a member."""
    members = [a for a in range(mask.bit_length()) if (mask >> a) & 1]
    return all((mask >> table[a][b]) & 1 for a in members for b in members)


def table_fault_naive(table) -> str | None:
    """The refusal a Cayley table read from outside earns, checked one value
    at a time in the order the constructor checks it: each row is a list or
    tuple (any other iterable is read into a list) of ints (a bool reads as
    0 or 1), then the table is nonempty, each row has length n and entries
    in 0..n-1, element 0 is a two-sided identity, and every row, then every
    column, is a permutation.  A table that passes all that and is not
    associative gets "associativity fails", with no triple; None when the
    table is a group."""
    rows = []
    for row in table:
        if not isinstance(row, (list, tuple)):
            if not isinstance(row, Iterable):
                return f"Cayley table rows must be iterable, got {type(row).__name__}"
            row = list(row)
        for x in row:
            if not isinstance(x, int):
                return f"Cayley table entries must be int, got {type(x).__name__}"
        rows.append([int(x) for x in row])
    n = len(rows)
    if n == 0:
        return "empty Cayley table"
    for i, row in enumerate(rows):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        for x in row:
            if not 0 <= x < n:
                return f"entry {x} out of range in row {i}"
    for a in range(n):
        if rows[0][a] != a or rows[a][0] != a:
            return "element 0 does not act as a two-sided identity"
    for a in range(n):
        if len(set(rows[a])) != n:
            return f"row {a} is not a permutation"
    for b in range(n):
        if len({rows[a][b] for a in range(n)}) != n:
            return f"column {b} is not a permutation"
    return None if associative_naive(rows) else "associativity fails"


def direct_product_naive(*groups) -> tuple[tuple[tuple[int, ...], ...], str]:
    """The table and default name of the direct product of groups given by
    their `table`, `order` and `name`: each index is decoded into one
    coordinate per factor (mixed radix, the first factor most significant),
    the coordinates are multiplied factor by factor, and the result is
    encoded again."""
    sizes = [g.order for g in groups]
    total = 1
    for s in sizes:
        total *= s

    def decode(idx: int) -> list[int]:
        parts = []
        for s in reversed(sizes):
            parts.append(idx % s)
            idx //= s
        return parts[::-1]

    def encode(parts: list[int]) -> int:
        idx = 0
        for s, p in zip(sizes, parts):
            idx = idx * s + p
        return idx

    table = tuple(
        tuple(
            encode([g.table[x][y] for g, x, y in zip(groups, decode(a), decode(b))])
            for b in range(total)
        )
        for a in range(total)
    )
    return table, "x".join(g.name or f"G{g.order}" for g in groups)


def intercalate_swaps(table: list[list[int]]) -> list[list[list[int]]]:
    """Every Latin square one intercalate swap away from `table` that keeps
    row and column 0: for rows r < s and columns c < d, none of them 0, with
    table[r][c] = table[s][d] = u and table[r][d] = table[s][c] = v, swap u
    and v in those four cells."""
    n = len(table)
    out = []
    for r, s in combinations(range(1, n), 2):
        for c, d in combinations(range(1, n), 2):
            u, v = table[r][c], table[r][d]
            if table[s][d] == u and table[s][c] == v:
                swapped = [list(row) for row in table]
                swapped[r][c] = swapped[s][d] = v
                swapped[r][d] = swapped[s][c] = u
                out.append(swapped)
    return out


def random_loop(n: int, rng: random.Random) -> list[list[int]]:
    """A random Latin square of order n whose row and column 0 are the
    identity, filled cell by cell in random value order with backtracking.
    Sane up to order 8 or so."""
    table = [[0] * n for _ in range(n)]
    table[0] = list(range(n))
    for a in range(n):
        table[a][0] = a
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i: int) -> bool:
        if i == len(cells):
            return True
        a, b = cells[i]
        used = set(table[a][:b]) | {table[x][b] for x in range(a)}
        values = [v for v in range(n) if v not in used]
        rng.shuffle(values)
        for v in values:
            table[a][b] = v
            if fill(i + 1):
                return True
        return False

    assert fill(0)
    return table


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


def longest_chain_scan_naive(
    full: int, cands: dict[int, int]
) -> tuple[int, list[int], list[int]]:
    """Length, witness masks and complement masks of the longest strictly
    decreasing chain (by inclusion) from `full` down to the mask 1 through
    the keys of `cands`, each term's complement read from `cands`.  Below
    each term every candidate is tried, more members first and then by
    mask, and the first strictly longer chain wins; no bound, no buckets."""
    ordered = sorted(cands, key=lambda m: (-bin(m).count("1"), m))
    memo: dict[int, tuple[int, list[int]]] = {}

    def down(mask: int) -> tuple[int, list[int]]:
        if mask == 1:
            return 0, [1]
        if mask not in memo:
            best: tuple[int, list[int]] = (-1, [])
            for c in ordered:
                if c != mask and c & mask == c:
                    length, chain = down(c)
                    if length + 1 > best[0]:
                        best = (length + 1, [mask] + chain)
            memo[mask] = best
        return memo[mask]

    length, chain = down(full)
    return length, chain, [cands[m] for m in chain]


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


def subgroups_naive(table: list[list[int]]) -> list[frozenset[int]]:
    """All subgroups: the raw power set up to order 8, the closures of
    small generating sets above it."""
    return powerset_subgroups(table) if len(table) <= 8 else generated_subgroups_naive(table)


def _normal_in_naive(table, k: frozenset[int], a: Iterable[int]) -> bool:
    """K is normal in A: x y x^-1 lies in K for every x in A and every y in
    K, each product read off the raw table."""
    for x in a:
        xi = table_inverse(table, x)
        for y in k:
            if table[table[x][y]][xi] not in k:
                return False
    return True


def _is_normal_naive(table, h: frozenset[int]) -> bool:
    return _normal_in_naive(table, h, range(len(table)))


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
    subs = subgroups_naive(table)
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
    inside the subgroup via a restricted table.  Each restricted table is
    searched once per call, kept by its rows."""
    memo: dict[tuple[tuple[int, ...], ...], int] = {}

    def rec(table: list[list[int]]) -> int:
        key = tuple(map(tuple, table))
        if key not in memo:
            full = frozenset(range(len(table)))
            below = [rec(restrict_table(table, h)) for h in retracts_naive(table) if h != full]
            memo[key] = 0 if len(table) == 1 else 1 + max(below, default=0)
        return memo[key]

    return rec(table)


# ---------------------------------------------------------------------------
# value records


def dataclass_twin(cls: type) -> type:
    """A frozen dataclass of the same name with the fields of record class
    `cls`: its ``__slots__`` in order, each with the default its
    ``__init__`` gives the parameter of that name.  It is ordered when `cls`
    defines ``<``, and keeps a ``__hash__`` that `cls` defines itself, as a
    dataclass declared with that method would."""
    params = inspect.signature(cls.__init__).parameters
    fields = []
    for name in cls.__slots__:
        default = params[name].default if name in params else inspect.Parameter.empty
        if default is inspect.Parameter.empty:
            fields.append(name)
        else:
            fields.append((name, object, dataclasses.field(default=default)))
    namespace = {"__hash__": cls.__dict__["__hash__"]} if "__hash__" in cls.__dict__ else {}
    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace=namespace, frozen=True, order="__lt__" in cls.__dict__
    )
