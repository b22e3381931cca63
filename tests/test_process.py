"""Checks that need a fresh interpreter: what `import polydepth` and each
cold command load, and the soundness checks that must survive `python -O`."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from oracles import disguised_surface
from test_cli import FALSE_CIRCLE, REFUTED
from test_finitegroup import COMMUTING_NON_GROUPS, NONASSOC_LOOP
from test_reduction import PINNED_D1, PINNED_D2
from test_topology import _nested

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


def _loaded_modules(*args: str) -> set[str]:
    """The modules a fresh interpreter imports while it runs `args`, read
    from its ``-X importtime`` report; a module run with ``-m`` is not
    imported and is not listed."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def _loaded_submodules(*args: str) -> set[str]:
    """The polydepth submodules among `_loaded_modules(*args)`."""
    names = _loaded_modules(*args)
    return {name.split(".", 1)[1] for name in names if name.startswith("polydepth.")}


def test_import_loads_no_submodule():
    assert _loaded_submodules("-c", "import polydepth") == set()


def test_topology_examples_run_in_a_fresh_interpreter():
    # the in-process doctest run may find EXAMPLE_COMPLEXES already built by
    # an earlier module; here topology's examples build it themselves
    proc = _python(
        "-c",
        "import doctest, polydepth.topology as t; r = doctest.testmod(t); "
        "print(r.failed, r.attempted)",
    )
    assert proc.returncode == 0, proc.stderr
    failed, attempted = map(int, proc.stdout.split())
    assert failed == 0 and attempted > 0, proc.stdout


# S3 as a Cayley-table text file, for `sl --table`
S3_TABLE = SRC.parent / "tests" / "data" / "s3_table.txt"

# (argv, modules it must load besides errors, modules it must not load);
# torus.json is S1 x S1 and s1_wedge_s2.json a wedge, sphere expressions
# that fold by integer sums and products with no linear algebra, while
# klein_bottle_amenable.json is an explicit complex
COLD_COMMANDS = pytest.mark.parametrize(
    "argv, used, unused",
    [
        (
            ["sl", "--catalog", "Z6"],
            {"finitegroup", "catalog"},
            {"intlinalg", "topology", "depth"},
        ),
        (["sl", "--table", str(S3_TABLE)], {"finitegroup"}, {"intlinalg", "topology", "depth"}),
        (["catalog"], {"catalog"}, {"intlinalg", "topology", "depth", "pi1"}),
        (
            ["homology", str(SPACES / "torus.json")],
            {"topology"},
            {"intlinalg", "depth", "catalog", "finitegroup"},
        ),
        (
            ["bound", str(SPACES / "torus.json")],
            {"topology", "depth"},
            {"intlinalg", "catalog", "finitegroup"},
        ),
        (
            ["homology", "--universal-cover", str(SPACES / "s1_wedge_s2.json")],
            {"topology"},
            {"intlinalg", "depth", "catalog", "finitegroup"},
        ),
        (
            ["bound", str(SPACES / "klein_bottle_amenable.json")],
            {"intlinalg", "topology", "depth"},
            {"catalog", "finitegroup"},
        ),
    ],
    ids=[
        "sl-catalog",
        "sl-table",
        "catalog",
        "homology",
        "bound",
        "homology-cover",
        "bound-explicit",
    ],
)

# what the installed `polydepth` script runs
SCRIPT = "from polydepth._script import main; main()"


@COLD_COMMANDS
def test_cold_command_loads_only_what_it_runs(argv, used, unused):
    loaded = _loaded_submodules("-m", "polydepth.cli", *argv)
    assert {"errors", *used} <= loaded
    assert not loaded & unused


# what `import dataclasses` pulls in; the value records do without it
DATACLASS_CHAIN = {"dataclasses", "inspect", "ast", "dis"}


@COLD_COMMANDS
@pytest.mark.parametrize("how", [["-m", "polydepth.cli"], ["-c", SCRIPT]], ids=["module", "script"])
def test_cold_command_loads_no_dataclass_chain(argv, used, unused, how):
    assert not _loaded_modules(*how, *argv) & DATACLASS_CHAIN


@COLD_COMMANDS
def test_installed_command_loads_only_what_it_runs(argv, used, unused):
    loaded = _loaded_submodules("-c", SCRIPT, *argv)
    assert {"errors", *used} <= loaded
    assert not loaded & unused
    script, module = _python("-c", SCRIPT, *argv), _python("-m", "polydepth.cli", *argv)
    assert (script.returncode, script.stdout) == (module.returncode, module.stdout)


@pytest.mark.parametrize("command", ["bound", "homology"])
def test_space_with_table_pi1_loads_no_catalog(tmp_path, command):
    # RP2 x RP2 with each pi1 written as a Cayley table: only a catalog name
    # needs the catalog, also when pi1_of builds the product table
    factor = json.loads((SPACES / "rp2_with_cover.json").read_text())
    factor["explicit"]["pi1"] = {"finite": {"table": [[0, 1], [1, 0]]}}
    path = tmp_path / "rp2_x_rp2_tables.json"
    path.write_text(json.dumps({"product": [factor, factor]}))
    loaded = _loaded_submodules("-m", "polydepth.cli", command, str(path))
    assert "finitegroup" in loaded
    assert "catalog" not in loaded


@pytest.mark.parametrize("command", [["homology"], ["bound"], ["homology", "--universal-cover"]])
def test_deep_nesting_ends_in_one_line(tmp_path, command):
    # 350 alternating levels read fine, but the fold, the cover rule and
    # pi1 would recurse past the interpreter's limit: the reader refuses it
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_nested(350)))
    proc = _python("-m", "polydepth.cli", command[0], str(path), *command[1:])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: space nested more than ")
    assert proc.stderr.count("\n") == 1


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
from polydepth import (
    ChainComplex, CompositionNotZero, DepthBoundReport, ElementaryAmenable, FgAbelianGroup,
    FiniteGroup, Free, HomologyProfile, IntMatrix, SeriesResult, Sphere, Subgroup,
    from_boundary_maps, homology_of_complex, render_profile, subgroup_from_members,
)

def raises(build, error=ValueError):
    try:
        build()
    except error:
        return True
    return False

print(raises(lambda: DepthBoundReport("Cor-simply", 5, 1, 2, {2: 1}, ())))
print(raises(lambda: DepthBoundReport("Cor-simply", 2, 1, 2, {2: 1}, (), exact_depth=3)))
print(raises(lambda: DepthBoundReport("Cor-simply", 1, 1, 2, {2: 0}, ())))
print(raises(lambda: DepthBoundReport("Cor-simply", 2, 1, 2, {1: 1}, ())))
print(raises(lambda: SeriesResult(2, (Subgroup(1),), (Subgroup(1),))))
print(raises(lambda: SeriesResult(0, (Subgroup(1),), ())))
print(raises(lambda: HomologyProfile(1, {0: FgAbelianGroup(1), 2: FgAbelianGroup(1)})))
print(raises(lambda: Sphere(0)))
print(raises(lambda: Free(0)))
print(raises(lambda: Subgroup(2)))
print(raises(lambda: ElementaryAmenable(-1, True)))
report = DepthBoundReport("Cor-simply", 2, 1, 2, {2: 1}, ())
print(raises(lambda: report.replace(exact_depth=3)))
print(raises(lambda: FiniteGroup([[0, 1], [1, 2]])))
loop = %r
try:
    FiniteGroup(loop)
except ValueError as e:
    print(str(e).startswith("associativity fails at"))
# Z2 x loop, (z, l) at index z + 2l: element 1 passes Light's test, so the
# failure is met after the span has grown
z2_loop = [[0] * 10 for _ in range(10)]
for a in range(10):
    for b in range(10):
        z2_loop[a][b] = (a %% 2 ^ b %% 2) + 2 * loop[a // 2][b // 2]
try:
    FiniteGroup(z2_loop)
except ValueError as e:
    print(str(e) == "associativity fails at (2,2,4)")
z3 = FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
print(raises(lambda: subgroup_from_members(z3, [0, 1])))
# d1 d2 = [[0], [1]] is nonzero in its last entry only, and the ranks (1 and
# 1 of 2 cells) do not give the maps away
d1 = IntMatrix.from_rows([[0, 0], [0, 1]])
d2 = IntMatrix.from_rows([[0], [1]])
print(raises(lambda: ChainComplex(2, (d1, d2), (2, 2, 1)), CompositionNotZero))
print(raises(lambda: from_boundary_maps(d1, d2), CompositionNotZero))
# the reduction matches no row of d2 after a step whose pivot is not +-1
pinned = ChainComplex(2, (IntMatrix.from_rows(%r), IntMatrix.from_rows(%r)), (5, 6, 3))
print(render_profile(homology_of_complex(pinned)) == "H0 = Z^2 ⊕ Z/3 ⊕ Z/4 ⊕ Z/4\\nH1 = Z/2\\nH2 = 0")
# the 2-dim rule's rank H_2, c_2 - rank d_2, on a disguised torus
from polydepth.pi1 import Trivial
from polydepth.topology import Explicit, _top_free_rank, homology
d1, d2 = %r
torus = Explicit(ChainComplex(
    2, (IntMatrix.from_rows(d1), IntMatrix.from_rows(d2)), (len(d1), len(d2), len(d2[0]))
), Trivial())
print(_top_free_rank(torus) == homology(torus).group(2).free_rank == 1)
# a commuting unipotent Latin square that is no group: six elements of order
# dividing 2, no power of 2, so its summands cannot be read
from polydepth.finitegroup import primary_decomposition
unipotent = FiniteGroup._trusted(tuple(map(tuple, %r)))
print(raises(lambda: primary_decomposition(unipotent)))
""" % (
    NONASSOC_LOOP, PINNED_D1, PINNED_D2, disguised_surface("torus", 4), COMMUTING_NON_GROUPS[0][0]
)


def test_soundness_checks_survive_optimized_mode():
    proc = _python("-O", "-c", SOUNDNESS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 21


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_refuted_declaration_is_refused_in_optimized_mode(tmp_path, fmt):
    # the circle complex labelled simply connected: the retract chain (1)
    # exceeds the bound (0), a check that no assert makes
    path = tmp_path / "space.json"
    path.write_text(json.dumps(FALSE_CIRCLE))
    proc = _python("-O", "-m", "polydepth.cli", "bound", str(path), "--format", fmt)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", REFUTED)


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
