"""The self-check suites behind ``polydepth verify SUITE``.

Each suite takes the subgroup-search cap and returns (item, passed, detail)
triples; ``cli`` prints one line per item.  ``SUITES`` maps each suite name
to its function.  Random data is seeded, so reruns print identical bytes.
A cold start loads this module only for the ``verify`` command.
"""

from __future__ import annotations

import random

from .abelian import from_cyclic_factors, sl_abelian
from .catalog import catalog_abelian_factors, catalog_group, catalog_names
from .finitegroup import all_subgroups, is_retract, n1, restrict_to_subgroup, verify_prop32
from .intlinalg import IntMatrix, determinant, invariant_factors, smith_normal_form
from .topology import (
    EXAMPLE_COMPLEXES,
    ChainComplex,
    euler_characteristic,
    homology_of_complex,
)

_SUITE_SEED = 20260814


def _suite_prop32(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name in catalog_names():
        report = verify_prop32(catalog_group(name), cap=cap)
        if report.equal:
            detail = f"n1=n2=n3={report.value}"
        else:
            detail = (
                f"n1={report.n1.length} n2={report.n2.length} n3={report.n3}"
            )
        results.append((name, report.equal, detail))
    return results


def _suite_lemma34(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name in catalog_names():
        group = catalog_group(name)
        whole = n1(group, cap=cap).length
        checked = 0
        ok = True
        for sub in all_subgroups(group, cap=cap):
            if not is_retract(group, sub, cap=cap):
                continue
            part = n1(restrict_to_subgroup(group, sub), cap=cap).length
            checked += 1
            if sub.order == group.order:
                ok = ok and part == whole
            else:
                ok = ok and part < whole
        results.append((name, ok, f"retracts={checked} sl={whole}"))
    return results


def _suite_prop36_bridge(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name in catalog_names():
        factors = catalog_abelian_factors(name)
        if factors is None:
            continue
        closed_form = sl_abelian(from_cyclic_factors(0, factors))
        table_search = n1(catalog_group(name), cap=cap).length
        results.append(
            (
                name,
                closed_form == table_search,
                f"sl_abelian={closed_form} n1={table_search}",
            )
        )
    return results


def _random_zero_composition_complex(rng: random.Random) -> ChainComplex:
    """A random 2-complex whose boundary maps compose to zero: d2's columns
    are integer combinations of a kernel basis of d1 (columns of V past the
    rank in the Smith normal form)."""
    rows0 = rng.randint(1, 4)
    cols1 = rng.randint(1, 4)
    d1 = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(cols1)] for _ in range(rows0)],
        cols=cols1,
    )
    snf = smith_normal_form(d1)
    r = len(snf.diagonal)
    k = cols1 - r
    cols2 = rng.randint(1, 3)
    columns = []
    for _ in range(cols2):
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        columns.append(
            [
                sum(coeffs[t] * snf.V.entry(i, r + t) for t in range(k))
                for i in range(cols1)
            ]
        )
    d2 = IntMatrix.from_rows(
        [[columns[j][i] for j in range(cols2)] for i in range(cols1)],
        cols=cols2,
    )
    return ChainComplex(dim=2, boundary=(d1, d2), cells=(rows0, cols1, cols2))


def _euler_consistent(complex_: ChainComplex) -> tuple[bool, int]:
    chi_cells = euler_characteristic(complex_)
    profile = homology_of_complex(complex_)
    chi_ranks = sum(
        (-1) ** k * profile.group(k).free_rank for k in range(complex_.dim + 1)
    )
    return chi_cells == chi_ranks, chi_cells


def _suite_euler(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name, complex_ in EXAMPLE_COMPLEXES.items():
        ok, chi = _euler_consistent(complex_)
        results.append((name, ok, f"chi={chi}"))
    rng = random.Random(_SUITE_SEED)
    for index in range(20):
        complex_ = _random_zero_composition_complex(rng)
        ok, chi = _euler_consistent(complex_)
        results.append(
            (f"random-{index:02d}", ok, f"chi={chi} cells={complex_.cells}")
        )
    return results


def _snf_invariants_hold(m: IntMatrix) -> bool:
    """The dense Smith form is a valid factorisation, and the sparse
    elimination that homology runs finds the same diagonal."""
    snf = smith_normal_form(m)
    if snf.U @ m @ snf.V != snf.S:
        return False
    if invariant_factors(m) != snf.diagonal:
        return False
    if abs(determinant(snf.U)) != 1 or abs(determinant(snf.V)) != 1:
        return False
    if any(d <= 0 for d in snf.diagonal):
        return False
    return all(b % a == 0 for a, b in zip(snf.diagonal, snf.diagonal[1:]))


def _suite_snf(cap: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(_SUITE_SEED)
    results = []
    per_batch = 100
    for batch in range(10):
        ok = True
        for _ in range(per_batch):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            ok = ok and _snf_invariants_hold(m)
        lo, hi = batch * per_batch, (batch + 1) * per_batch - 1
        results.append((f"random-matrices[{lo}..{hi}]", ok, ""))
    return results


SUITES = {
    "prop32": _suite_prop32,
    "lemma34": _suite_lemma34,
    "prop36-bridge": _suite_prop36_bridge,
    "euler": _suite_euler,
    "snf": _suite_snf,
}
