"""Checks that need a fresh interpreter: what `import polydepth` loads, and
the soundness checks that must survive `python -O`."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_import_loads_no_third_party_module():
    proc = _python(
        "-c",
        "import json, sys; before = set(sys.modules); import polydepth; "
        "print(json.dumps(sorted(set(sys.modules) - before)))",
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "polydepth" in loaded
    assert not [m for m in loaded if m.split(".")[0] in ("sympy", "mpmath")]


SOUNDNESS_SCRIPT = """
from polydepth import DepthBoundReport, FgAbelianGroup, HomologyProfile, SeriesResult, Subgroup

def raises(build):
    try:
        build()
    except ValueError:
        return True
    return False

print(raises(lambda: DepthBoundReport("Cor-simply", 5, 1, {2: 1}, ())))
print(raises(lambda: DepthBoundReport("Cor-simply", 2, 1, {2: 1}, (), exact_depth=3)))
print(raises(lambda: SeriesResult(2, (Subgroup(1),), (Subgroup(1),))))
print(raises(lambda: SeriesResult(0, (Subgroup(1),), ())))
print(raises(lambda: HomologyProfile(1, {0: FgAbelianGroup(1), 2: FgAbelianGroup(1)})))
"""


def test_soundness_checks_survive_optimized_mode():
    proc = _python("-O", "-c", SOUNDNESS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 5


def test_star_import_exports_every_public_name_once():
    proc = _python(
        "-c",
        "import json, polydepth; from polydepth import *; "
        "names = polydepth.__all__; "
        "print(json.dumps([len(names), len(set(names)), "
        "[n for n in names if n not in globals()]]))",
    )
    assert proc.returncode == 0, proc.stderr
    listed, distinct, missing = json.loads(proc.stdout)
    assert listed == distinct, "a name is listed twice in polydepth.__all__"
    assert missing == []
