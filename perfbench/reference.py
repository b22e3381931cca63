"""Expected answers from closed forms, and the checks that compare them.

Nothing here imports polydepth.  Each reference defines only the fields it
knows; a check compares exactly those fields, so extra fields that later
versions add to an answer (evidence blocks, witnesses) never count as a
failure.  A check returns None when the answer matches and a one-line reason
when it does not.
"""

from __future__ import annotations

# Splitting lengths of the nonabelian groups the benchmark builds.  The
# abelian ones need no table: their splitting length is the number of
# primary cyclic summands (see primary_count).
NONABELIAN_SL = {
    "S3": 2,
    "D4": 2,
    "Q8": 1,
    "D5": 2,
    "D6": 3,
    "A4": 2,
    "Dic3": 2,
    "D8": 2,
    "Q16": 1,
    "D4xZ2": 3,
    "Q8xZ2": 2,
    "D4xZ2xZ2": 4,
    "D16": 2,
}


def prime_factors(n: int) -> set[int]:
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def primary_count(factors: list[int]) -> int:
    """Number of prime-power summands of Z/f1 + ... + Z/fk: one per distinct
    prime of each factor."""
    return sum(len(prime_factors(f)) for f in factors)


def catalog_factors(name: str) -> "list[int] | None":
    """Cyclic factors read off an abelian catalog name such as "Z2xZ6";
    None for anything else."""
    parts = name.split("x")
    if all(p.startswith("Z") and p[1:].isdigit() for p in parts):
        return [int(p[1:]) for p in parts]
    return None


def group_sl(name: str) -> int:
    factors = catalog_factors(name)
    if factors is not None:
        return primary_count(factors)
    return NONABELIAN_SL[name]


def poincare(dims: list[int]) -> list[int]:
    """Coefficients of prod (1 + x^n): the Betti numbers of a product of
    spheres (Kunneth; spheres have no torsion)."""
    coeffs = [1]
    for n in dims:
        out = coeffs + [0] * n
        for i, c in enumerate(coeffs):
            out[i + n] += c
        coeffs = out
    return coeffs


def wedge_ranks(dims: list[int]) -> list[int]:
    """Betti numbers of a wedge of spheres: one point, one class per sphere."""
    ranks = [0] * (max(dims) + 1)
    ranks[0] = 1
    for n in dims:
        ranks[n] += 1
    return ranks


def profile_ref(ranks: list[int], torsion: "dict[int, list[int]] | None" = None) -> dict:
    """Expected homology, stored sparsely: nonzero ranks and torsion by
    degree; every other degree must be 0."""
    return {
        "ranks": {str(k): r for k, r in enumerate(ranks) if r},
        "torsion": {str(k): v for k, v in (torsion or {}).items()},
    }


SURFACE_HOMOLOGY = {
    "torus": profile_ref([1, 2, 1]),
    "klein": profile_ref([1, 1, 0], {1: [2]}),
}

# Both surfaces come with a contractible universal cover, so the general rule
# gives sl(pi1) = 2 (Z^2, or Hirsch length 2) and the 2-dim rule gives
# 2 + rank H2: the torus bound is 2 by Cor-abelian, and the Klein bottle ties
# at 2, which goes to the general rule.
SURFACE_BOUND = {
    "torus": {"bound": 2, "rule": "Cor-abelian"},
    "klein": {"bound": 2, "rule": "Cor-amenable"},
}


def sphere_product_bound(dims: list[int]) -> dict:
    """General rule on a product of spheres with at least one factor of
    dimension >= 2: sl(Z^c) = c for the c circles, plus the sum over degrees
    >= 2 of the Betti numbers of the cover, the product of the other
    factors, which is 2^m - 1 for m factors."""
    circles = dims.count(1)
    higher = [n for n in dims if n >= 2]
    rule = "Cor-abelian" if circles else "Cor-simply"
    return {"bound": circles + 2 ** len(higher) - 1, "rule": rule}


def sphere_wedge_bound(dims: list[int]) -> dict:
    """A wedge of spheres has exact depth equal to its number of spheres, and
    both rules reach it: with circles only the 2-dim rule applies (the cover
    has infinitely generated homology), so the wedge must be 2-dimensional."""
    count = len(dims)
    if 1 in dims:
        if max(dims) != 2:
            raise ValueError("a wedge with a circle gets a bound only in dimension 2")
        return {"bound": count, "rule": "Cor-free-2dim", "exact_depth": count}
    return {"bound": count, "rule": "Cor-simply", "exact_depth": count}


# Recorded answers for the example files shipped in spaces/.  Only files
# with a bound are listed; disc_cd_infinite.json has none by design.
SPACES = {
    "klein_bottle_amenable.json": (
        profile_ref([1, 1, 0], {1: [2]}),
        {"bound": 2, "rule": "Cor-amenable"},
    ),
    "rp2_with_cover.json": (
        profile_ref([1, 0, 0], {1: [2]}),
        {"bound": 1, "rule": "Thm4.8"},
    ),
    "s1_wedge_s2.json": (profile_ref(wedge_ranks([1, 2])), sphere_wedge_bound([1, 2])),
    "s1_x_s2.json": (
        profile_ref(poincare([1, 2])),
        {"bound": 2, "rule": "Cor-abelian", "exact_depth": 2},
    ),
    "s2.json": (profile_ref(wedge_ranks([2])), sphere_wedge_bound([2])),
    "s2_wedge_s2_wedge_s3.json": (
        profile_ref(wedge_ranks([2, 2, 3])),
        sphere_wedge_bound([2, 2, 3]),
    ),
    "s2_x_s3.json": (profile_ref(poincare([2, 3])), sphere_product_bound([2, 3])),
    "torus.json": (profile_ref([1, 2, 1]), {"bound": 2, "rule": "Cor-abelian"}),
}


# --- checks -----------------------------------------------------------------


def check_profile_json(body, ref: dict) -> "str | None":
    """Homology in the CLI's JSON form against a profile reference."""
    try:
        dim = int(body["dim"])
        groups = body["groups"]

        def group_of(k: int):
            if k > dim:
                return 0, []
            group = groups[str(k)]
            return group["free_rank"], group["torsion"]

        return check_profile_groups(group_of, dim, ref)
    except (KeyError, TypeError, ValueError) as err:
        return f"malformed homology answer: {err!r}"


def check_profile_groups(group_of, dim: int, ref: dict) -> "str | None":
    """Homology given as a degree -> (free_rank, torsion) lookup."""
    ranks = ref["ranks"]
    top = max([dim] + [int(k) for k in ranks] + [int(k) for k in ref["torsion"]])
    for k in range(top + 1):
        rank, torsion = group_of(k)
        want_rank = ranks.get(str(k), 0)
        want_torsion = ref["torsion"].get(str(k), [])
        if rank != want_rank or list(torsion) != want_torsion:
            return f"H{k}: got rank {rank} torsion {list(torsion)}, want {want_rank} {want_torsion}"
    return None


def check_fields(body: dict, ref: dict) -> "str | None":
    """Every field the reference defines must be present and equal."""
    for key, want in ref.items():
        got = body.get(key) if isinstance(body, dict) else None
        if got != want:
            return f"{key}: got {got!r}, want {want!r}"
    return None


def check_sl_json(body: dict, ref: dict) -> "str | None":
    reason = check_fields(body, {"sl": ref["sl"]})
    if reason is None and len(str(body.get("witness", "")).split(">")) != ref["sl"] + 1:
        return f"witness {body.get('witness')!r} does not have {ref['sl'] + 1} terms"
    return reason
