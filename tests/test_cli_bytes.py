"""Byte-identical CLI output for the commands that run the subgroup
searches and the homology path.

The expected files under ``data/cli_stdout/`` are the stdout of each
invocation: ``verify-<suite>.json`` for ``verify SUITE --format json``;
``sl_catalog.json`` mapping every catalog name to the stdout of
``sl --catalog NAME --format json``; and ``spaces.json`` mapping every file
in ``spaces/`` and each of ``bound``, ``homology`` and
``homology --universal-cover`` (all with ``--format json``) to the exit code
and stdout.  The subgroup-search files were recorded before the subgroup
lattice was shared between the searches, the homology-path files
(``verify-snf.json``, ``verify-euler.json``, ``spaces.json``) before
homology moved to sparse elimination.  ``expressions.json`` maps each of a
few sphere expressions (a high sphere, a wedge of a circle with 300 higher
spheres, a 10-factor product and a wedge of 100 spheres) to its space JSON
and, per invocation, the exit code and stdout; it was recorded before
homology profiles became sparse and profile JSON stopped going through
``json.dumps``.
"""

import json
import pathlib

import pytest

from polydepth.catalog import catalog_names
from polydepth.cli import run

EXPECTED = pathlib.Path(__file__).parent / "data" / "cli_stdout"
SL_CATALOG = json.loads((EXPECTED / "sl_catalog.json").read_text(encoding="utf-8"))
SPACES_DIR = pathlib.Path(__file__).parent.parent / "spaces"
SPACES = json.loads((EXPECTED / "spaces.json").read_text(encoding="utf-8"))
SPACE_COMMANDS = ["bound", "homology", "homology --universal-cover"]
EXPRESSIONS = json.loads((EXPECTED / "expressions.json").read_text(encoding="utf-8"))
EXPRESSION_COMMANDS = [
    "homology",
    "homology --format json",
    "homology --universal-cover --format json",
    "bound --format json",
]


@pytest.mark.parametrize(
    "suite", ["prop32", "lemma34", "prop36-bridge", "snf", "euler"]
)
def test_verify_suite_stdout_unchanged(suite, capsys):
    assert run(["verify", suite, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (EXPECTED / f"verify-{suite}.json").read_bytes()


def test_expected_sl_covers_the_catalog():
    assert list(SL_CATALOG) == catalog_names()


@pytest.mark.parametrize("name", catalog_names())
def test_sl_catalog_stdout_unchanged(name, capsys):
    assert run(["sl", "--catalog", name, "--format", "json"]) == 0
    assert capsys.readouterr().out == SL_CATALOG[name]


def test_expected_spaces_cover_every_space_file():
    assert sorted(SPACES) == sorted(p.name for p in SPACES_DIR.glob("*.json"))
    assert all(sorted(entry) == sorted(SPACE_COMMANDS) for entry in SPACES.values())


@pytest.mark.parametrize("command", SPACE_COMMANDS)
@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_stdout_unchanged(name, command, capsys):
    argv = command.split() + [str(SPACES_DIR / name), "--format", "json"]
    expected = SPACES[name][command]
    assert run(argv) == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


def test_expected_expressions_cover_every_command():
    assert all(
        sorted(entry["commands"]) == sorted(EXPRESSION_COMMANDS)
        for entry in EXPRESSIONS.values()
    )


@pytest.mark.parametrize("command", EXPRESSION_COMMANDS)
@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_expression_stdout_unchanged(name, command, tmp_path, capsys):
    entry = EXPRESSIONS[name]
    path = tmp_path / "space.json"
    path.write_text(json.dumps(entry["space"]), encoding="utf-8")
    first, *rest = command.split()
    expected = entry["commands"][command]
    assert run([first, str(path), *rest]) == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]
