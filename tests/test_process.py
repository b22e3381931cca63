"""Checks that need a fresh interpreter: what `import polydepth` and each
cold command load, and the soundness checks that must survive `python -O`."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SPACES = SRC.parent / "spaces"


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


def _loaded_submodules(*args: str) -> set[str]:
    """The polydepth submodules a fresh interpreter imports while it runs
    `args`, read from its ``-X importtime`` report; a module run with ``-m``
    is not imported and is not listed."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    names = (
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    )
    return {name.split(".", 1)[1] for name in names if name.startswith("polydepth.")}


def test_import_loads_no_submodule():
    assert _loaded_submodules("-c", "import polydepth") == set()


COLD_COMMANDS = pytest.mark.parametrize(
    "argv, unused",
    [
        (["sl", "--catalog", "Z6"], {"topology", "depth"}),
        (["homology", str(SPACES / "torus.json")], {"depth", "catalog", "finitegroup"}),
        (["bound", str(SPACES / "torus.json")], {"catalog", "finitegroup"}),
    ],
    ids=["sl-catalog", "homology", "bound"],
)

# what the installed `polydepth` script runs
SCRIPT = "from polydepth._script import main; main()"


@COLD_COMMANDS
def test_cold_command_loads_only_what_it_runs(argv, unused):
    loaded = _loaded_submodules("-m", "polydepth.cli", *argv)
    assert "errors" in loaded
    assert not loaded & unused


@COLD_COMMANDS
def test_installed_command_loads_only_what_it_runs(argv, unused):
    loaded = _loaded_submodules("-c", SCRIPT, *argv)
    assert "errors" in loaded
    assert not loaded & unused
    script, module = _python("-c", SCRIPT, *argv), _python("-m", "polydepth.cli", *argv)
    assert (script.returncode, script.stdout) == (module.returncode, module.stdout)


def test_imported_cli_loads_every_command_module():
    # a program that imports polydepth.cli to call run() in-process loads
    # every module while it sets up, not inside a call
    modules = {path.stem for path in (SRC / "polydepth").glob("*.py")}
    expected = modules - {"__init__", "_script"}
    assert _loaded_submodules("-c", "import polydepth.cli") == expected


NAMESPACE_SCRIPT = """
import importlib, json, polydepth

wrong = []
for name in polydepth.__all__:
    owner = importlib.import_module(polydepth._OWNER[name])
    original, stand_in = getattr(owner, name), object()
    seen = [getattr(polydepth, name) is original]
    setattr(owner, name, stand_in)
    seen.append(getattr(polydepth, name) is stand_in)
    setattr(owner, name, original)
    seen.append(getattr(polydepth, name) is original)
    seen.append(name not in vars(polydepth) and name in dir(polydepth))
    if not all(seen):
        wrong.append(name)
print(json.dumps(wrong))
"""


def test_every_public_name_is_read_from_its_owner():
    # polydepth.X is polydepth.<owner>.X, also while the owner's attribute is
    # replaced and after it is put back: the namespace keeps no copy
    proc = _python("-c", NAMESPACE_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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
