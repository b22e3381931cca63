"""Catalog coverage tests.

The key check: the catalog's entries of order n fall into exactly as many
isomorphism classes as there are groups of order n, for every n up to 16.
Classes are separated by an invariant signature computed with naive local
code (element orders, center size, subgroup order multiset, derived
subgroup); the signature is verified to be a perfect discriminator at these
orders by the count check itself.
"""

import pytest

from polydepth.catalog import (
    CATALOG,
    catalog_abelian_factors,
    catalog_group,
    catalog_names,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    semidirect,
)

GROUPS_OF_ORDER = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
    9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
}


def _closure(table, seed):
    elems = set(seed) | {0}
    grown = True
    while grown:
        grown = False
        cur = list(elems)
        for a in cur:
            for b in cur:
                for p in (table[a][b], table[b][a]):
                    if p not in elems:
                        elems.add(p)
                        grown = True
    return frozenset(elems)


def _subgroup_orders(table):
    found = {frozenset([0])}
    frontier = [frozenset([0])]
    while frontier:
        fresh = []
        for s in frontier:
            for x in range(len(table)):
                if x not in s:
                    t = _closure(table, s | {x})
                    if t not in found:
                        found.add(t)
                        fresh.append(t)
        frontier = fresh
    return tuple(sorted(len(s) for s in found))


def _element_order(table, a):
    k, x = 1, a
    while x != 0:
        x = table[x][a]
        k += 1
    return k


def iso_signature(g):
    table = g.table
    n = g.order
    inv = [table[a].index(0) for a in range(n)]
    orders = tuple(sorted(_element_order(table, a) for a in range(n)))
    center = sum(
        1 for a in range(n) if all(table[a][b] == table[b][a] for b in range(n))
    )
    commutators = {
        table[table[table[a][b]][inv[a]]][inv[b]]
        for a in range(n)
        for b in range(n)
    }
    derived = _closure(table, commutators)
    derived_orders = tuple(sorted(_element_order(table, a) for a in derived))
    return (n, orders, center, _subgroup_orders(table), len(derived), derived_orders)


def test_every_class_up_to_sixteen_is_present():
    classes = {}
    for name in catalog_names():
        g = catalog_group(name)
        if g.order <= 16:
            classes.setdefault(g.order, set()).add(iso_signature(g))
    assert {n: len(sigs) for n, sigs in classes.items()} == GROUPS_OF_ORDER


def test_duplicate_presentations_collide():
    assert iso_signature(catalog_group("S3")) == iso_signature(catalog_group("D3"))
    assert iso_signature(catalog_group("Z6")) == iso_signature(catalog_group("Z2xZ3"))
    assert iso_signature(catalog_group("Q8")) != iso_signature(catalog_group("D4"))


def test_abelian_declarations_match_commutativity():
    for name in catalog_names():
        g = catalog_group(name)
        commutative = all(
            g.table[a][b] == g.table[b][a]
            for a in range(g.order)
            for b in range(g.order)
        )
        assert (catalog_abelian_factors(name) is not None) == commutative, name


def test_abelian_factor_orders_multiply_to_group_order():
    for name in catalog_names():
        factors = catalog_abelian_factors(name)
        if factors is None:
            continue
        g = catalog_group(name)
        prod = 1
        for f in factors:
            prod *= f
        assert prod == g.order, name
        rebuilt = (
            direct_product(*(cyclic(f) for f in factors))
            if factors
            else cyclic(1)
        )
        assert iso_signature(rebuilt) == iso_signature(g), name


def test_cyclics_up_to_24_present():
    for n in range(1, 25):
        wanted = () if n == 1 else (n,)
        names = [
            name
            for name in catalog_names()
            if catalog_abelian_factors(name) == wanted
        ]
        assert names, f"no cyclic entry of order {n}"


def test_group_names_round_trip():
    for name in catalog_names():
        g = catalog_group(name)
        assert g.name == name
        assert catalog_group(name) is g  # cached instance


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown catalog group"):
        catalog_group("Z99")
    with pytest.raises(ValueError, match="unknown catalog group"):
        catalog_abelian_factors("nope")


@pytest.mark.parametrize("name", [[1], {"Z2": 1}, 1, None])
def test_a_name_that_is_not_a_string_is_unknown(name):
    # one lookup for both: a list or a dict is refused, not hashed
    for lookup in (catalog_group, catalog_abelian_factors):
        with pytest.raises(ValueError, match="unknown catalog group"):
            lookup(name)


def test_builder_validation():
    with pytest.raises(ValueError):
        cyclic(0)
    with pytest.raises(ValueError):
        dihedral(0)
    with pytest.raises(ValueError):
        dicyclic(0)
    with pytest.raises(ValueError):
        direct_product()
    with pytest.raises(ValueError, match="one permutation"):
        semidirect(cyclic(4), cyclic(2), [list(range(4))])
    # a non-homomorphic action cannot produce an associative table
    bad = [list(range(4)), [0, 2, 1, 3]]
    with pytest.raises(ValueError, match="associativity"):
        semidirect(cyclic(4), cyclic(2), bad)


def test_known_structure_spot_checks():
    q8 = catalog_group("Q8")
    assert sorted(q8.element_order(a) for a in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    d4 = catalog_group("D4")
    assert sorted(d4.element_order(a) for a in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]
    q16 = catalog_group("Q16")
    assert sum(1 for a in range(16) if q16.element_order(a) == 2) == 1
    pauli = catalog_group("Pauli16")
    center = [
        a
        for a in range(16)
        if all(pauli.table[a][b] == pauli.table[b][a] for b in range(16))
    ]
    assert len(center) == 4
