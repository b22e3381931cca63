"""Fundamental-group descriptor tests: normalization, rendering, JSON."""

import pytest

from polydepth.abelian import FgAbelianGroup, from_cyclic_factors
from polydepth.catalog import catalog_group
from polydepth.errors import OrderExceedsCap
from polydepth.finitegroup import FiniteGroup, format_cayley_table
from polydepth.pi1 import (
    ElementaryAmenable,
    FgAbelian,
    Finite,
    Free,
    Trivial,
    fg_abelian,
    free,
    pi1_from_json,
    pi1_to_json,
    render_pi1,
)


def test_free_normalizes_rank_zero():
    assert free(0) == Trivial()
    assert free(2) == Free(2)
    with pytest.raises(ValueError):
        free(-1)
    with pytest.raises(ValueError):
        Free(0)


def test_fg_abelian_normalizes_trivial():
    assert fg_abelian(FgAbelianGroup()) == Trivial()
    assert fg_abelian(FgAbelianGroup(free_rank=1)) == FgAbelian(
        FgAbelianGroup(free_rank=1)
    )


def test_elementary_amenable_validation():
    with pytest.raises(ValueError):
        ElementaryAmenable(hirsch=-1, cd_finite=True)
    assert ElementaryAmenable(hirsch=0, cd_finite=True).hirsch == 0


def test_render():
    assert render_pi1(Trivial()) == "1"
    assert render_pi1(Free(1)) == "Z"
    assert render_pi1(Free(2)) == "F2"
    assert render_pi1(FgAbelian(from_cyclic_factors(2, [4]))) == "Z^2 ⊕ Z/4"
    assert render_pi1(Finite(catalog_group("S3"))) == "S3"
    assert render_pi1(ElementaryAmenable(3, True)) == "elementary amenable(h=3)"
    assert "cd infinite" in render_pi1(ElementaryAmenable(3, False))


DESCRIPTORS = [
    Trivial(),
    Free(1),
    Free(5),
    FgAbelian(from_cyclic_factors(1, [2, 9])),
    Finite(catalog_group("Q8")),
    ElementaryAmenable(hirsch=4, cd_finite=True),
    ElementaryAmenable(hirsch=2, cd_finite=False),
]


@pytest.mark.parametrize("d", DESCRIPTORS, ids=render_pi1)
def test_json_round_trip(d):
    assert pi1_from_json(pi1_to_json(d)) == d


def test_catalog_groups_serialize_by_name():
    assert pi1_to_json(Finite(catalog_group("Q8"))) == {"finite": {"catalog": "Q8"}}
    # a table the catalog does not know round-trips as a table
    table = [[0, 1], [1, 0]]
    d = Finite(FiniteGroup(table))
    j = pi1_to_json(d)
    assert j == {"finite": {"table": table}}
    assert pi1_from_json(j) == d


def test_abelian_json_string_form():
    assert pi1_from_json({"abelian": "Z^2 + Z/4"}) == FgAbelian(
        from_cyclic_factors(2, [4])
    )
    assert pi1_from_json({"abelian": "0"}) == Trivial()
    assert pi1_from_json({"abelian": {"free_rank": 1}}) == FgAbelian(
        FgAbelianGroup(free_rank=1)
    )


def test_free_json_normalizes():
    assert pi1_from_json({"free": 0}) == Trivial()


@pytest.mark.parametrize(
    "bad",
    [
        42,
        {},
        {"trivial": True, "free": 1},
        {"trivial": False},
        {"unknown_tag": 1},
        {"finite": {"nope": 1}},
        {"abelian": {"free_rank": 1, "junk": 2}},
        {"abelian": 7},
        {"elementary_amenable": {"cd_finite": True}},
        {"elementary_amenable": {"hirsch": 1, "extra": 0}},
    ],
)
def test_malformed_json_rejected(bad):
    with pytest.raises(ValueError):
        pi1_from_json(bad)


def test_finite_table_checked_against_cap_first():
    z8 = catalog_group("Z8")
    rows = [list(row) for row in z8.table]
    for body in ({"table": rows}, format_cayley_table(z8)):
        assert pi1_from_json({"finite": body}, cap=8) == Finite(FiniteGroup(rows))
        assert pi1_from_json({"finite": body}) == Finite(FiniteGroup(rows))
        with pytest.raises(OrderExceedsCap):
            pi1_from_json({"finite": body}, cap=7)
    # over the cap, a table that is not a group is refused for its order
    with pytest.raises(OrderExceedsCap):
        pi1_from_json({"finite": {"table": [[0] * 9] * 9}}, cap=8)
    with pytest.raises(ValueError):
        pi1_from_json({"finite": {"table": [[0] * 9] * 9}}, cap=9)
