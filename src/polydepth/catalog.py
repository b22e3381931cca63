"""Named Cayley-table constructions and a catalog covering every isomorphism
class of order at most 16 (42 classes), cyclic groups up to order 24, and a
few duplicate presentations (D3 vs S3, Z2xZ3 vs Z6) that are useful when a
test wants the same class built two different ways.

Builders only arrange the indices; the FiniteGroup constructor proves the
result is a group, so a typo in a formula fails fast instead of producing a
quietly broken table.  Index 0 is always the identity.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable

from .finitegroup import FiniteGroup, direct_product


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=name or f"Z{n}")


def dihedral(n: int, name: str | None = None) -> FiniteGroup:
    """Symmetries of a regular n-gon, order 2n; index e*n + i is r^i when
    e = 0 and s r^i when e = 1."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")

    def mul(a: int, b: int) -> int:
        ea, i = divmod(a, n)
        eb, j = divmod(b, n)
        if ea == 0 and eb == 0:
            return (i + j) % n
        if ea == 0 and eb == 1:
            return n + (j - i) % n
        if ea == 1 and eb == 0:
            return n + (i + j) % n
        return (j - i) % n

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup(table, name=name or f"D{n}")


def dicyclic(m: int, name: str | None = None) -> FiniteGroup:
    """Dicyclic group of order 4m: a has order 2m, b^2 = a^m, and b inverts a.
    m = 2 gives the quaternion group."""
    if m < 1:
        raise ValueError(f"dicyclic parameter must be >= 1, got {m}")
    n = 2 * m

    def mul(x: int, y: int) -> int:
        ex, i = divmod(x, n)
        ey, j = divmod(y, n)
        if ex == 0 and ey == 0:
            return (i + j) % n
        if ex == 0 and ey == 1:
            return n + (i + j) % n
        if ex == 1 and ey == 0:
            return n + (i - j) % n
        return (i - j + m) % n

    table = [[mul(x, y) for y in range(4 * m)] for x in range(4 * m)]
    return FiniteGroup(table, name=name or f"Dic{m}")


def semidirect(
    normal: FiniteGroup,
    acting: FiniteGroup,
    action: list[list[int]],
    name: str | None = None,
) -> FiniteGroup:
    """Semidirect product N x| H; action[h] is the permutation of N's
    elements by which h acts.  Index encodes (x, h) as x * |H| + h.  A
    non-homomorphic action makes the table fail associativity, which the
    FiniteGroup constructor rejects."""
    hn = acting.order
    if len(action) != hn or any(len(row) != normal.order for row in action):
        raise ValueError("action must give one permutation of N per element of H")

    def mul(a: int, b: int) -> int:
        x, h = divmod(a, hn)
        y, k = divmod(b, hn)
        return normal.table[x][action[h][y]] * hn + acting.table[h][k]

    size = normal.order * hn
    table = [[mul(a, b) for b in range(size)] for a in range(size)]
    return FiniteGroup(table, name=name)


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(index[tuple(p[q[x]] for x in range(len(p)))])
        table.append(row)
    return FiniteGroup(table, name=name)


def symmetric3(name: str = "S3") -> FiniteGroup:
    perms = sorted(permutations(range(3)))
    return _perm_group(perms, name)


def alternating4(name: str = "A4") -> FiniteGroup:
    def sign(p: tuple[int, ...]) -> int:
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    perms = sorted(p for p in permutations(range(4)) if sign(p) == 1)
    return _perm_group(perms, name)


def pauli16(name: str = "Pauli16") -> FiniteGroup:
    """Central product of the dihedral group of order 8 with Z4: signed Pauli
    matrices i^k X^a Z^b with Z X = - X Z.  Index encodes (k, a, b) as
    k * 4 + a * 2 + b."""

    def mul(u: int, v: int) -> int:
        k, r = divmod(u, 4)
        a, b = divmod(r, 2)
        k2, r2 = divmod(v, 4)
        a2, b2 = divmod(r2, 2)
        return ((k + k2 + 2 * b * a2) % 4) * 4 + ((a ^ a2) * 2) + (b ^ b2)

    table = [[mul(u, v) for v in range(16)] for u in range(16)]
    return FiniteGroup(table, name=name)


def _modular16() -> FiniteGroup:
    act = [list(range(8)), [(5 * x) % 8 for x in range(8)]]
    return semidirect(cyclic(8), cyclic(2), act, name="M16")


def _semidihedral16() -> FiniteGroup:
    act = [list(range(8)), [(3 * x) % 8 for x in range(8)]]
    return semidirect(cyclic(8), cyclic(2), act, name="SD16")


def _z4_semi_z4() -> FiniteGroup:
    act = [
        [(x if h % 2 == 0 else (-x) % 4) for x in range(4)]
        for h in range(4)
    ]
    return semidirect(cyclic(4), cyclic(4), act, name="Z4:Z4")


def _v4_semi_z4() -> FiniteGroup:
    v4 = direct_product(cyclic(2), cyclic(2))
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    act = [
        [(x if h % 2 == 0 else swap[x]) for x in range(4)]
        for h in range(4)
    ]
    return semidirect(v4, cyclic(4), act, name="(Z2xZ2):Z4")


def _products(*orders: int, name: str) -> FiniteGroup:
    return direct_product(*(cyclic(n) for n in orders), name=name)


_Entry = tuple[Callable[[], FiniteGroup], "tuple[int, ...] | None"]

CATALOG: dict[str, _Entry] = {
    "Z1": (lambda: cyclic(1), ()),
    "Z2": (lambda: cyclic(2), (2,)),
    "Z3": (lambda: cyclic(3), (3,)),
    "Z4": (lambda: cyclic(4), (4,)),
    "Z2xZ2": (lambda: _products(2, 2, name="Z2xZ2"), (2, 2)),
    "Z5": (lambda: cyclic(5), (5,)),
    "Z6": (lambda: cyclic(6), (6,)),
    "Z2xZ3": (lambda: _products(2, 3, name="Z2xZ3"), (2, 3)),
    "S3": (symmetric3, None),
    "D3": (lambda: dihedral(3), None),
    "Z7": (lambda: cyclic(7), (7,)),
    "Z8": (lambda: cyclic(8), (8,)),
    "Z2xZ4": (lambda: _products(2, 4, name="Z2xZ4"), (2, 4)),
    "Z2xZ2xZ2": (lambda: _products(2, 2, 2, name="Z2xZ2xZ2"), (2, 2, 2)),
    "D4": (lambda: dihedral(4), None),
    "Q8": (lambda: dicyclic(2, name="Q8"), None),
    "Z9": (lambda: cyclic(9), (9,)),
    "Z3xZ3": (lambda: _products(3, 3, name="Z3xZ3"), (3, 3)),
    "Z10": (lambda: cyclic(10), (10,)),
    "D5": (lambda: dihedral(5), None),
    "Z11": (lambda: cyclic(11), (11,)),
    "Z12": (lambda: cyclic(12), (12,)),
    "Z2xZ6": (lambda: _products(2, 6, name="Z2xZ6"), (2, 6)),
    "D6": (lambda: dihedral(6), None),
    "A4": (alternating4, None),
    "Dic3": (lambda: dicyclic(3), None),
    "Z13": (lambda: cyclic(13), (13,)),
    "Z14": (lambda: cyclic(14), (14,)),
    "D7": (lambda: dihedral(7), None),
    "Z15": (lambda: cyclic(15), (15,)),
    "Z16": (lambda: cyclic(16), (16,)),
    "Z2xZ8": (lambda: _products(2, 8, name="Z2xZ8"), (2, 8)),
    "Z4xZ4": (lambda: _products(4, 4, name="Z4xZ4"), (4, 4)),
    "Z2xZ2xZ4": (lambda: _products(2, 2, 4, name="Z2xZ2xZ4"), (2, 2, 4)),
    "Z2xZ2xZ2xZ2": (lambda: _products(2, 2, 2, 2, name="Z2xZ2xZ2xZ2"), (2, 2, 2, 2)),
    "D8": (lambda: dihedral(8), None),
    "SD16": (_semidihedral16, None),
    "Q16": (lambda: dicyclic(4, name="Q16"), None),
    "M16": (_modular16, None),
    "Z4:Z4": (_z4_semi_z4, None),
    "(Z2xZ2):Z4": (_v4_semi_z4, None),
    "Pauli16": (pauli16, None),
    "D4xZ2": (lambda: direct_product(dihedral(4), cyclic(2), name="D4xZ2"), None),
    "Q8xZ2": (lambda: direct_product(dicyclic(2, name="Q8"), cyclic(2), name="Q8xZ2"), None),
    "Z17": (lambda: cyclic(17), (17,)),
    "Z18": (lambda: cyclic(18), (18,)),
    "Z19": (lambda: cyclic(19), (19,)),
    "Z20": (lambda: cyclic(20), (20,)),
    "Z21": (lambda: cyclic(21), (21,)),
    "Z22": (lambda: cyclic(22), (22,)),
    "Z23": (lambda: cyclic(23), (23,)),
    "Z24": (lambda: cyclic(24), (24,)),
}

_instances: dict[str, FiniteGroup] = {}


def catalog_names() -> list[str]:
    return list(CATALOG)


def _entry(name) -> _Entry:
    """The catalog entry of `name`; anything but a catalog name is refused."""
    if not isinstance(name, str) or name not in CATALOG:
        raise ValueError(f"unknown catalog group {name!r}; see catalog_names()")
    return CATALOG[name]


def catalog_group(name: str) -> FiniteGroup:
    build = _entry(name)[0]
    return _instances.get(name) or _instances.setdefault(name, build())


def catalog_abelian_factors(name: str) -> "tuple[int, ...] | None":
    """Cyclic factor orders for abelian entries, None for nonabelian ones."""
    return _entry(name)[1]
