"""Workload plans: the seeded inputs of each workload and their expected
answers.

A plan is a list of rounds, each a list of requests with a fixed mix of
kinds and sizes; only the seed-dependent details (which surface, which cell
order, which relabelling, which dimensions) change with the seed.  Runs
repeat whole rounds, so every run measures the same mix and the run-to-run
spread stays small even though each run uses other inputs.

Why these workloads:

* ``cli-cold``: one fresh ``python -m polydepth.cli`` per request.  Start-up
  and ``import polydepth`` are almost all of it, so only start-up work shows.
* ``groups``: Cayley tables, each built into a fresh ``FiniteGroup``, for
  ``sl_of`` (one lattice, then n1) and ``verify_prop32`` (n1, n2 and an n3
  that rebuilds a lattice per retract).  Smith normal form stays idle.
* ``complexes``: triangulated tori and Klein bottles whose size spreads the
  cubic cost of elimination over the latency percentiles; a share of them is
  scrambled by a unimodular basis change into dense multi-bit matrices.  The
  subgroup search stays idle.
* ``expressions``: ``cli.run`` on sphere, wedge and product expressions, the
  only workload where expression, profile and rendering code does the work.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import gen
import reference as ref

WORKLOADS = ("cli-cold", "groups", "complexes", "expressions")

# rough seconds per round, to write enough distinct rounds for a run; a run
# that gets through more cycles through them again
ROUND_SECONDS = {"cli-cold": 4.5, "groups": 7.0, "complexes": 3.0, "expressions": 2.0}

# a run goes on past its seconds until it holds this many latency samples,
# so that req_p90_ms is always the same quantile (see run.py) and lands in
# the block of requests the round was built to put there; 100 cold CLI
# calls take too long, so cli-cold settles for its 72nd percentile
MIN_SAMPLES = {"cli-cold": 36, "groups": 100, "complexes": 100, "expressions": 100}

SMALL_GROUPS = {
    "Z6": lambda: gen.cyclic(6),
    "Z8": lambda: gen.cyclic(8),
    "Z12": lambda: gen.cyclic(12),
    "Z15": lambda: gen.cyclic(15),
    "Z2xZ6": lambda: gen.direct_product(gen.cyclic(2), gen.cyclic(6)),
    "Z3xZ3": lambda: gen.direct_product(gen.cyclic(3), gen.cyclic(3)),
    "Z4xZ4": lambda: gen.direct_product(gen.cyclic(4), gen.cyclic(4)),
    "Z2xZ2xZ2xZ2": lambda: gen.direct_product(*[gen.cyclic(2)] * 4),
    "S3": lambda: gen.dihedral(3),
    "D4": lambda: gen.dihedral(4),
    "Q8": lambda: gen.dicyclic(2),
    "D5": lambda: gen.dihedral(5),
    "D6": lambda: gen.dihedral(6),
    "A4": gen.alternating4,
    "Dic3": lambda: gen.dicyclic(3),
    "D8": lambda: gen.dihedral(8),
    "Q16": lambda: gen.dicyclic(4),
    "D4xZ2": lambda: gen.direct_product(gen.dihedral(4), gen.cyclic(2)),
    "Q8xZ2": lambda: gen.direct_product(gen.dicyclic(2), gen.cyclic(2)),
}

ORDER_16 = ("D8", "Q16", "D4xZ2", "Q8xZ2", "Z2xZ2xZ2xZ2", "Z4xZ4")

LARGE_GROUPS = {
    "Z2xZ2xZ2xZ2xZ2": lambda: gen.direct_product(*[gen.cyclic(2)] * 5),
    "D4xZ2xZ2": lambda: gen.direct_product(gen.dihedral(4), gen.cyclic(2), gen.cyclic(2)),
    "Z2xZ2xZ2xZ2xZ3": lambda: gen.direct_product(*[gen.cyclic(2)] * 4, gen.cyclic(3)),
    "D16": lambda: gen.dihedral(16),
}

# the order-48 table is above the default search cap of 32
GROUP_CAP = 48

# catalog names for `sl --catalog` on the cold CLI
CLI_CATALOG = ("Z6", "Z12", "Z2xZ6", "Z4xZ4", "Z2xZ2xZ2", "Z24", "S3", "D4", "Q8", "A4", "D6", "Q16", "D4xZ2")


def _groups_round(rng: random.Random, tiny: bool) -> list[tuple[str, str]]:
    """(op, group name) pairs.  Per 36 requests: two prop32 requests on the
    largest tables sit above the 90th percentile, and four D4xZ2xZ2 prop32
    requests hold it, so req_p90_ms follows prop32.  Fourteen cheap requests
    sit below the median and fourteen dearer ones above it, so the median
    falls among eight sl requests on D4xZ2 (order 16) tables."""
    if tiny:
        return [("prop32", "D4"), ("sl", "Q8"), ("sl", "Z12")]
    cheap = [("sl", name) for name in ("Z6", "Z12", "Z15", "Z2xZ6", "S3", "D5", "D6", "Dic3")]
    cheap += [("sl", name) for name in ("Q16", "Z4xZ4", "Q8xZ2")]
    cheap += [("prop32", name) for name in ("D4", "Q8", "A4")]
    dear = [
        *[("sl", "Z2xZ2xZ2xZ2")] * 3,
        ("prop32", "Z2xZ2xZ2xZ2"),
        ("sl", "D16"),
        ("prop32", "D16"),
        ("sl", "Z2xZ2xZ2xZ2xZ2"),
        ("sl", "D4xZ2xZ2"),
        *[("prop32", "D4xZ2xZ2")] * 4,
        ("prop32", "Z2xZ2xZ2xZ2xZ2"),
        ("prop32", "Z2xZ2xZ2xZ2xZ3"),
    ]
    mix = cheap + [("sl", "D4xZ2")] * 8 + dear
    rng.shuffle(mix)
    return mix


def _complexes_round(rng: random.Random, tiny: bool) -> list[tuple[int, bool, str, str]]:
    """(grid size, scrambled, surface, command) tuples.  Per 20 requests:
    one N=8 above the 90th percentile and three scrambled N=7 holding it,
    six N=4 grids holding the median and six N=3 below it.  Surfaces and
    commands alternate, so each round holds the same mix."""
    if tiny:
        sizes = [(3, False), (4, True), (3, True)]
    else:
        sizes = [(8, False), (7, True), (7, True), (7, True), (6, False), (6, True),
                 (5, False), (5, True)] + [(4, False)] * 6 + [(3, False)] * 6
    mix = [
        (size, scrambled, ("torus", "klein")[i % 2], ("homology", "bound")[i // 2 % 2])
        for i, (size, scrambled) in enumerate(sizes)
    ]
    rng.shuffle(mix)
    return mix


def _pi1_json(kind: str) -> dict:
    if kind == "torus":
        return {"abelian": "Z^2"}
    return {"elementary_amenable": {"hirsch": 2, "cd_finite": True}}


def _expressions_round(rng: random.Random, tiny: bool) -> list[tuple[str, dict, dict]]:
    """(command, space JSON, reference) triples.  Per 24 requests: one
    sphere of dimension ~10^5 above the 90th percentile, three wedges of S^1
    with 300 higher spheres straddling it, twelve spheres of dimension ~2000
    around the median (printing a dense profile is their main cost), and
    small wedges and products below it.  Sizes vary by a few percent at
    most, so every round costs about the same."""
    scale = 100 if tiny else 1
    out = []

    def near(n: int, spread: int) -> int:
        return max(2, (n + rng.randint(-spread, spread)) // scale)

    def homology(space, ranks):
        out.append(("homology", space, {"profile": ref.profile_ref(ranks)}))

    def bound(space, expected):
        out.append(("bound", space, {"bound": expected}))

    n = near(99000, 1000)
    homology(gen.sphere(n), ref.wedge_ranks([n]))
    for _ in range(3):
        dims = [1] + [rng.randint(2, 60) for _ in range(300 // scale)]
        homology(gen.wedge_of(dims), ref.wedge_ranks(dims))
    for _ in range(12):
        n = near(2000, 20)
        homology(gen.sphere(n), ref.wedge_ranks([n]))
    n = near(20000, 500)
    bound(gen.sphere(n), ref.sphere_wedge_bound([n]))
    dims = [rng.randint(2, 30) for _ in range(200 // scale)]
    homology(gen.wedge_of(dims), ref.wedge_ranks(dims))
    dims = [rng.randint(2, 30) for _ in range(200 // scale)]
    bound(gen.wedge_of(dims), ref.sphere_wedge_bound(dims))
    dims = [1] * near(50, 5) + [2] * near(150, 5)
    rng.shuffle(dims)
    bound(gen.wedge_of(dims), ref.sphere_wedge_bound(dims))
    for factors in (4, 10):
        for command in ("homology", "bound"):
            dims = [rng.randint(1, 12) for _ in range(factors)]
            dims[0] = rng.randint(2, 12)
            if command == "homology":
                homology(gen.product_of(dims), ref.poincare(dims))
            else:
                bound(gen.product_of(dims), ref.sphere_product_bound(dims))
    rng.shuffle(out)
    return out


def build(
    workload: str, seed: int, seconds: float, workdir: Path, root: Path, tiny: bool = False
) -> dict:
    """Write the inputs of one run under `workdir` and return the plan: a
    list of rounds of requests {op, input, argv?, check, ref}, with paths
    relative to the checkout `root`, and the fewest rounds a run sends."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.relative_to(root)
    rounds = []
    counter = 0
    count = 3 if tiny else math.ceil(seconds / ROUND_SECONDS[workload]) + 1

    def write(text: str, suffix: str) -> str:
        nonlocal counter
        counter += 1
        name = f"in{counter:04d}{suffix}"
        (workdir / name).write_text(text, encoding="utf-8")
        return str(rel / name)

    for _ in range(count):
        requests = []
        if workload == "cli-cold":
            spaces = sorted(ref.SPACES)
            for _ in range(1 if tiny else 3):
                name = rng.choice(spaces)
                path = f"spaces/{name}"
                requests.append({"op": "cli", "argv": ["homology", path, "--format", "json"],
                                 "check": "profile", "ref": ref.SPACES[name][0]})
                name = rng.choice(spaces)
                path = f"spaces/{name}"
                requests.append({"op": "cli", "argv": ["bound", path, "--format", "json"],
                                 "check": "bound", "ref": ref.SPACES[name][1]})
                group = rng.choice(CLI_CATALOG)
                requests.append({"op": "cli", "argv": ["sl", "--catalog", group, "--format", "json"],
                                 "check": "sl", "ref": {"sl": ref.group_sl(group)}})
            rng.shuffle(requests)
        elif workload == "groups":
            for op, name in _groups_round(rng, tiny):
                build_table = SMALL_GROUPS.get(name) or LARGE_GROUPS[name]
                table = gen.relabel(rng, build_table())
                requests.append({"op": f"group-{op}", "input": write(gen.table_text(table), ".txt"),
                                 "check": op, "ref": {"sl": ref.group_sl(name)}, "name": name})
        elif workload == "complexes":
            for size, scrambled, kind, op in _complexes_round(rng, tiny):
                maps = gen.surface_complex(kind, size)
                gen.shuffle_cells(rng, maps)
                if scrambled:
                    gen.scramble_basis(rng, maps, 6 * size * size)
                space = {"explicit": {
                    "complex": {"cells": [len(maps[0]), len(maps[1]), len(maps[1][0])], "boundary": maps},
                    "pi1": _pi1_json(kind),
                    "cover": {"cells": [1], "boundary": []},
                }}
                expected = ref.SURFACE_HOMOLOGY[kind] if op == "homology" else ref.SURFACE_BOUND[kind]
                requests.append({"op": f"complex-{op}", "input": write(json.dumps(space), ".json"),
                                 "check": "profile" if op == "homology" else "bound", "ref": expected,
                                 "name": f"{kind}{size}{'-dense' if scrambled else ''}"})
        else:
            for command, space, expected in _expressions_round(rng, tiny):
                path = write(json.dumps(space), ".json")
                (check, value), = expected.items()
                (tag, body), = space.items()
                size = body if tag == "sphere" else len(body)
                requests.append({"op": "cli-inproc", "argv": [command, path, "--format", "json"],
                                 "check": check, "ref": value, "name": f"{command}-{tag}{size}"})
        rounds.append(requests)
    min_rounds = 1 if tiny else math.ceil(MIN_SAMPLES[workload] / len(rounds[0]))
    return {
        "workload": workload,
        "seed": seed,
        "cap": GROUP_CAP,
        "rounds": rounds,
        "min_rounds": min_rounds,
        # the calibration unit that slows like the requests (see speed.py)
        "unit": "spawn" if workload == "cli-cold" else "interp",
    }
