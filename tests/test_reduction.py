"""Top-down reduction of a chain complex against per-map Smith forms.

`homology_of_complex` reduces d_dim first and leaves out of each d_k the
columns that d_(k+1)'s leading unit pivots matched (`intlinalg._eliminate`).
Here its homology must match complexes whose homology is known by
construction (`oracles.torsion_complex`), and homology read from the dense
`smith_normal_form` of every map on its own: on disguised surfaces, every
`EXAMPLE_COMPLEXES` entry and cell-by-cell product complexes.  The lemma
itself is checked map by map, and a complex found by a seeded search pins
the rule that matching stops at the first step with a pivot other than +-1.
"""

import pytest

from oracles import (
    disguised_surface,
    factor_naive,
    surface_grid_naive,
    tensor_complex_naive,
    torsion_complex,
)
from polydepth.intlinalg import IntMatrix, _eliminate, smith_normal_form
from polydepth.topology import (
    EXAMPLE_COMPLEXES,
    ChainComplex,
    complex_to_json,
    homology_of_complex,
    render_profile,
)


def _complex(maps: list, cells: list[int]) -> ChainComplex:
    boundary = tuple(IntMatrix.from_rows(m, cols=cells[k + 1]) for k, m in enumerate(maps))
    return ChainComplex(len(cells) - 1, boundary, tuple(cells))


def _from_json(obj: dict) -> ChainComplex:
    return _complex(obj["boundary"], obj["cells"])


def _summary(complex_: ChainComplex) -> list[tuple[int, list[int]]]:
    profile = homology_of_complex(complex_)
    return [
        (profile.group(k).free_rank, list(profile.group(k).torsion))
        for k in range(complex_.dim + 1)
    ]


def _summary_by_snf(complex_: ChainComplex) -> list[tuple[int, list[int]]]:
    # H_k = Z^(c_k - rank d_k - rank d_(k+1)) plus Z/d for every Smith
    # diagonal entry d > 1 of d_(k+1), each map diagonalized on its own
    diagonals = [()] + [smith_normal_form(b).diagonal for b in complex_.boundary] + [()]
    out = []
    for k in range(complex_.dim + 1):
        free_rank = complex_.cells[k] - len(diagonals[k]) - len(diagonals[k + 1])
        torsion = [p**e for d in diagonals[k + 1] if d > 1 for p, e in factor_naive(d)]
        out.append((free_rank, sorted(torsion)))
    return out


def _check_every_drop_keeps_the_smith_form(complex_: ChainComplex) -> None:
    # the columns of d_k matched by d_(k+1) go without changing d_k's Smith
    # form, whatever was dropped from d_(k+1) before
    drop = frozenset()
    for k in range(complex_.dim, 0, -1):
        d_k = complex_.boundary[k - 1]
        diagonal, drop = _eliminate(d_k, drop)
        assert diagonal == smith_normal_form(d_k).diagonal, k
        if k > 1:
            below = complex_.boundary[k - 2].to_rows()
            kept = [[x for j, x in enumerate(row) if j not in drop] for row in below]
            reduced = IntMatrix.from_rows(kept, cols=complex_.cells[k - 1] - len(drop))
            assert smith_normal_form(reduced).diagonal == smith_normal_form(
                complex_.boundary[k - 2]
            ).diagonal, k


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_complexes_of_known_torsion(dim, seed):
    maps, homology = torsion_complex(dim, seed)
    complex_ = _complex(maps, [len(maps[0])] + [len(m[0]) for m in maps])
    assert _summary(complex_) == homology
    assert _summary_by_snf(complex_) == homology
    _check_every_drop_keeps_the_smith_form(complex_)


@pytest.mark.parametrize("kind", ["torus", "klein"])
@pytest.mark.parametrize("n", range(3, 9))
def test_disguised_surfaces_match_per_map_smith_forms(kind, n):
    for maps in (surface_grid_naive(kind, n), disguised_surface(kind, n)):
        complex_ = _complex(maps, [len(maps[0]), len(maps[1]), len(maps[1][0])])
        assert _summary(complex_) == _summary_by_snf(complex_)
        # every step on d_2 is a unit step but the Klein bottle's last, so
        # 2 n^2 - 1 of d_1's 3 n^2 columns are dropped
        d1, d2 = complex_.boundary
        assert len(_eliminate(d2, frozenset())[1]) == 2 * n * n - 1
        _check_every_drop_keeps_the_smith_form(complex_)


@pytest.mark.parametrize("name", sorted(EXAMPLE_COMPLEXES))
def test_example_complexes_match_per_map_smith_forms(name):
    complex_ = EXAMPLE_COMPLEXES[name]
    assert _summary(complex_) == _summary_by_snf(complex_)
    _check_every_drop_keeps_the_smith_form(complex_)


def _small_complexes() -> dict[str, dict]:
    out = {name: complex_to_json(c) for name, c in EXAMPLE_COMPLEXES.items()}
    for dim, seed in ((2, 0), (2, 1), (3, 2)):
        maps, _ = torsion_complex(dim, seed)
        out[f"torsion-{dim}-{seed}"] = {
            "cells": [len(maps[0])] + [len(m[0]) for m in maps],
            "boundary": maps,
        }
    d1, d2 = disguised_surface("klein", 3)
    out["klein-3"] = {"cells": [len(d1), len(d2), len(d2[0])], "boundary": [d1, d2]}
    return out


SMALL = _small_complexes()
PAIRS = [
    ("projective-plane", "projective-plane"),
    ("projective-plane", "klein-bottle"),
    ("klein-bottle", "torus"),
    ("circle", "genus2-surface"),
    ("interval", "sphere2"),
    ("projective-plane", "klein-3"),
    ("torsion-2-0", "torsion-2-1"),
    ("torsion-2-1", "projective-plane"),
    ("torsion-3-2", "klein-bottle"),
    ("torsion-2-0", "torsion-3-2"),
]


@pytest.mark.parametrize("left,right", PAIRS)
def test_product_complexes_match_per_map_smith_forms(left, right):
    complex_ = _from_json(tensor_complex_naive(SMALL[left], SMALL[right]))
    assert _summary(complex_) == _summary_by_snf(complex_)
    _check_every_drop_keeps_the_smith_form(complex_)


# Found by a seeded search over random complexes.  The first step on d_2
# starts from a pivot other than +-1, and a later unit step clears row 0,
# yet column 0 of d_1 cannot go: dropping it adds a Z/2 to H_0
PINNED_D1 = [[3, 0, 0, 0, 0, 6], [0, 4, 0, 4, 0, 0], [4, 0, 4, 0, 0, 8], [0] * 6, [0] * 6]
PINNED_D2 = [[10, 10, -4], [2, 2, -1], [0, 0, 0], [-2, -2, 1], [-14, -12, 9], [-5, -5, 2]]


def test_matching_stops_at_the_first_step_with_a_pivot_other_than_one():
    complex_ = _complex([PINNED_D1, PINNED_D2], [5, 6, 3])
    assert render_profile(homology_of_complex(complex_)) == (
        "H0 = Z^2 ⊕ Z/3 ⊕ Z/4 ⊕ Z/4\nH1 = Z/2\nH2 = 0"
    )
    assert _eliminate(complex_.boundary[1], frozenset())[1] == frozenset()
    assert _summary(complex_) == _summary_by_snf(complex_)
    _check_every_drop_keeps_the_smith_form(complex_)

