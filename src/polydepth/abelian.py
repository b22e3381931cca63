"""Finitely generated abelian groups in primary-decomposition form.

A group is stored as Z^free_rank plus a sorted tuple of prime-power cyclic
orders.  The primary form (never the invariant-factor form) is what makes the
splitting length a plain summand count: Z/6 is stored as torsion (2, 3) and
has splitting length 2, matching the brute-force series search on its Cayley
table, whereas the invariant-factor form would count 1.

>>> from_cyclic_factors(0, [6])
FgAbelianGroup(free_rank=0, torsion=(2, 3))
>>> sl_abelian(from_cyclic_factors(1, [4, 9]))
3
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import CompositionNotZero, DimensionMismatch
from .intlinalg import IntMatrix, _check_token, invariant_factors, rank

MAX_CYCLIC_ORDER = 10**12
"""Largest cyclic order the trial-division factoriser accepts; a prime just
below it takes about 0.1 s."""


@lru_cache(maxsize=4096)
def _factor(q: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation of q >= 2 as (prime, exponent) pairs, primes
    ascending.  Memoised because every group built checks each distinct
    torsion coefficient here, and the same few orders recur from group to
    group (a direct sum, a Kunneth fold, a parsed descriptor).

    >>> _factor(360)
    ((2, 3), (3, 2), (5, 1))
    """
    if q > MAX_CYCLIC_ORDER:
        raise ValueError(f"cyclic order {q} exceeds the limit 10^12")
    factors = []
    p, step = 2, 1
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            factors.append((p, e))
        # candidates 2, 3, then 6k - 1 and 6k + 1
        p += step
        step = 2 if p < 6 else 6 - step
    if q > 1:
        factors.append((q, 1))
    return tuple(factors)


def _is_prime_power(q: int) -> bool:
    return q >= 2 and len(_factor(q)) == 1


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^free_rank plus cyclic prime-power summands, sorted ascending."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if tuple(sorted(self.torsion)) != self.torsion:
            raise ValueError("torsion coefficients must be sorted ascending")
        # sorted, so dict.fromkeys keeps each distinct order once, ascending
        for q in dict.fromkeys(self.torsion):
            if not _is_prime_power(q):
                raise ValueError(
                    f"torsion coefficient {q} is not a prime power >= 2; "
                    "build through from_cyclic_factors for automatic splitting"
                )

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


TRIVIAL_GROUP = FgAbelianGroup(0, ())


def _primary_split(q: int) -> list[int]:
    # 12 -> [4, 3]; prime powers pass through
    return [p**e for p, e in _factor(q)]


def from_cyclic_factors(free_rank: int, factors: Iterable[int] = ()) -> FgAbelianGroup:
    """Normalize arbitrary cyclic orders into the primary form.

    Factors equal to 1 contribute nothing.

    >>> from_cyclic_factors(0, [12])
    FgAbelianGroup(free_rank=0, torsion=(3, 4))
    """
    torsion: list[int] = []
    for q in factors:
        if q < 1:
            raise ValueError(f"cyclic factor must be >= 1, got {q}")
        if q > 1:
            torsion.extend(_primary_split(q))
    return FgAbelianGroup(free_rank, tuple(sorted(torsion)))


def from_boundary_maps(d_k: IntMatrix, d_k_plus_1: IntMatrix) -> FgAbelianGroup:
    """Homology at the middle chain group: ker(d_k) / im(d_k_plus_1).

    The middle group has rank cols(d_k) = rows(d_k_plus_1); zero maps are
    expressed as matrices with zero rows or columns.

    >>> from_boundary_maps(IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]]))
    FgAbelianGroup(free_rank=0, torsion=(2,))
    """
    if d_k.cols != d_k_plus_1.rows:
        raise DimensionMismatch(
            f"cols(d_k) = {d_k.cols} but rows(d_k_plus_1) = {d_k_plus_1.rows}"
        )
    if not (d_k @ d_k_plus_1).is_zero():
        raise CompositionNotZero("d_k composed with d_k_plus_1 is not zero")
    return _homology_group(d_k.cols, rank(d_k), invariant_factors(d_k_plus_1))


def _homology_group(
    cells: int, rank_out: int, image_diagonal: tuple[int, ...]
) -> FgAbelianGroup:
    """H_k = Z^(c_k - r_k - r_(k+1)) plus Z/d for each d > 1 on the Smith
    diagonal of d_(k+1), from the number of k-cells c_k, the rank r_k of d_k
    and the nonzero Smith diagonal of d_(k+1).  The caller must know that
    d_k d_(k+1) = 0; a rank count that contradicts it still raises."""
    free = cells - rank_out - len(image_diagonal)
    if free < 0:
        raise CompositionNotZero(
            "image of d_k_plus_1 escaped the kernel of d_k: the maps do not "
            "compose to zero"
        )
    return from_cyclic_factors(free, (d for d in image_diagonal if d > 1))


def sl_abelian(g: FgAbelianGroup) -> int:
    """Splitting length: the number of nonzero summands in the primary form."""
    return g.free_rank + len(g.torsion)


def direct_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    """Direct sum of any number of groups (the trivial group for none)."""
    return FgAbelianGroup(
        sum(g.free_rank for g in groups),
        tuple(sorted(q for g in groups for q in g.torsion)),
    )


def _tor_torsion(s: Sequence[int], t: Sequence[int]) -> list[int]:
    """Summands of Z/q (x) Z/r, and so of Tor(Z/q, Z/r), for q in s and r in
    t: Z/p^min(a, b) for q = p^a and r = p^b, none across primes.  The
    result is a multiset in no particular order.  Each pair of distinct
    orders is compared once, and its summand repeats as often as the pair
    does: the lists of a Kunneth fold are a few orders, each many times."""
    out: list[int] = []
    t_counts = Counter(t).items()
    for q, m in Counter(s).items():
        for r, n in t_counts:
            if gcd(q, r) > 1:
                out += [min(q, r)] * (m * n)
    return out


def render_abelian(g: FgAbelianGroup) -> str:
    """Canonical text form: "Z^r ⊕ Z/q1 ⊕ … ⊕ Z/qm"; the trivial group is "0".

    >>> render_abelian(from_cyclic_factors(2, [2, 4]))
    'Z^2 ⊕ Z/2 ⊕ Z/4'
    """
    if g.is_trivial:
        return "0"
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank:
        parts.append(f"Z^{g.free_rank}")
    parts.extend(f"Z/{q}" for q in g.torsion)
    return " ⊕ ".join(parts)


def parse_abelian(text: str) -> FgAbelianGroup:
    """Parse the render_abelian grammar; "+" is accepted in place of "⊕" and
    non-prime-power cyclic orders are split into primary components.

    >>> parse_abelian("Z^2 ⊕ Z/6")
    FgAbelianGroup(free_rank=2, torsion=(2, 3))
    """
    text = text.strip()
    if text in ("0", "1"):
        return TRIVIAL_GROUP
    free = 0
    factors: list[int] = []
    for raw in text.replace("+", "⊕").split("⊕"):
        part = raw.strip()
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            r = _check_token(part[2:], "free rank")
            if r < 0:
                raise ValueError(f"negative free rank in {part!r}")
            free += r
        elif part.startswith("Z/"):
            q = _check_token(part[2:], "cyclic order")
            if q < 2:
                raise ValueError(f"cyclic order must be >= 2 in {part!r}")
            factors.append(q)
        else:
            raise ValueError(f"cannot parse abelian group term {part!r}")
    return from_cyclic_factors(free, factors)
