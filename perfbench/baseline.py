"""Spot timings of the single operations in ROADMAP.md's baseline table,
measured the same way so the two can be compared.  Each figure is the median
of REPEATS runs, every run on freshly built objects (no warm lattice cache).

    python3 perfbench/baseline.py

Run from the root of a checkout; prints a markdown table.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402

REPEATS = 3


def median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cold(args: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return median_time(
        lambda: subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True, capture_output=True)
    )


def main() -> None:
    import polydepth as pd

    rows = [
        ("`python -c pass`", cold(["-c", "pass"])),
        ("`import polydepth`", cold(["-c", "import polydepth"])),
        ("`polydepth sl --catalog Z6` cold", cold(["-m", "polydepth.cli", "sl", "--catalog", "Z6"])),
        (
            "`verify_prop32` over the whole catalog",
            median_time(
                lambda: [
                    pd.verify_prop32(pd.FiniteGroup(pd.catalog_group(n).table))
                    for n in pd.catalog_names()
                ]
            ),
        ),
    ]
    z2_5 = gen.direct_product(*[gen.cyclic(2)] * 5)
    rows.append(("Z2^5 lattice", median_time(lambda: pd.all_subgroups(pd.FiniteGroup(z2_5)))))

    def after_lattice(step):
        def timed():
            g = pd.FiniteGroup(z2_5)
            pd.all_subgroups(g)
            t0 = time.perf_counter()
            step(g)
            return time.perf_counter() - t0

        return statistics.median(timed() for _ in range(REPEATS))

    rows.append(("Z2^5 n1 (lattice cached)", after_lattice(pd.n1)))
    rows.append(("Z2^5 n3", after_lattice(pd.n3)))
    for n in (8, 10):
        maps = gen.surface_complex("torus", n)
        cells = (len(maps[0]), len(maps[1]), len(maps[1][0]))
        bounds = tuple(pd.IntMatrix.from_rows(m) for m in maps)
        build = lambda: pd.ChainComplex(dim=2, boundary=bounds, cells=cells)  # noqa: E731
        complex_ = build()
        rows.append((f"torus N={n} {cells} homology", median_time(lambda: pd.homology_of_complex(complex_))))
        rows.append((f"torus N={n} `ChainComplex` validation", median_time(build)))
    print("| measurement | seconds |")
    print("|---|---|")
    for label, seconds in rows:
        print(f"| {label} | {seconds:.3f} |")


if __name__ == "__main__":
    main()
