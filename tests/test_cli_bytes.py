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

Four more files hold exit code, stdout and stderr, recorded before rule
selection moved into ``polydepth.depth``: ``bound_rules.json`` for
``bound SPACE --rule RULE --format text|json`` (every rule, every space
file), ``spaces_text.json`` for the three space commands in text format,
``sl_catalog_text.json`` for ``sl --catalog NAME`` in text format, and
``help.json`` for ``--help`` at the top level and on each subcommand (at 80
columns; the test checks that 40 and 200 columns print the same).

``scrambled.json`` holds exit code, stdout and stderr of ``homology`` and
``bound``, in text and JSON, on tori and Klein bottles N = 3..8 with dense,
multi-bit boundary matrices (``oracles.disguised_surface_space``); it was
recorded before the elimination took its pivots from the sparsest column.

``high_degrees.json`` holds exit code, stdout and stderr of ``bound`` and
``homology``, in text and JSON, on S^12345 and on S^999 v S^1000 v S^10000,
whose degrees run past 1000 and 10000; it was recorded before output wrote
its trivial degrees a block of 1000 at a time and ``bound`` streamed its
report.

``low_dimensions.json`` holds the same for ``bound`` in text and JSON on S^1
and on an explicit circle complex, spaces of dimension 1 whose report has an
empty ``per_degree``; it was recorded before the zero-composition test of a
chain complex packed its columns into integers.

``finite_products.json`` holds the same for ``bound`` in text and JSON on
the product of six copies of ``spaces/rp2_with_cover.json``, whose pi1 is
the order-64 table of Z2^6; it was recorded before ``sl`` of a commuting
table was read from its primary decomposition instead of the ``n1`` search.

Every file here is written by ``data/cli_stdout/record.py ROOT``, which runs
the checkout at ROOT in-process; record new pins the same way, from a clean
copy of the commit before the change.

Importing ``polydepth.cli`` loads every module, so these in-process runs
would not notice a lazy import that is missing.  The ``spaces.json`` pins
are also run through a fresh ``python -m polydepth.cli`` each, which loads
only what the command imports.
"""

import json
import pathlib

import pytest

from polydepth.catalog import catalog_names
from polydepth.cli import run
from oracles import disguised_surface_space
from polydepth.depth import RULES
from test_process import _python

EXPECTED = pathlib.Path(__file__).parent / "data" / "cli_stdout"
SL_CATALOG = json.loads((EXPECTED / "sl_catalog.json").read_text(encoding="utf-8"))
SPACES_DIR = pathlib.Path(__file__).parent.parent / "spaces"
SPACES = json.loads((EXPECTED / "spaces.json").read_text(encoding="utf-8"))
SPACE_COMMANDS = ["bound", "homology", "homology --universal-cover"]
EXPRESSIONS = json.loads((EXPECTED / "expressions.json").read_text(encoding="utf-8"))
BOUND_RULES = json.loads((EXPECTED / "bound_rules.json").read_text(encoding="utf-8"))
SPACES_TEXT = json.loads((EXPECTED / "spaces_text.json").read_text(encoding="utf-8"))
SL_CATALOG_TEXT = json.loads(
    (EXPECTED / "sl_catalog_text.json").read_text(encoding="utf-8")
)
HELP = json.loads((EXPECTED / "help.json").read_text(encoding="utf-8"))
SCRAMBLED = json.loads((EXPECTED / "scrambled.json").read_text(encoding="utf-8"))
HIGH_DEGREES = json.loads((EXPECTED / "high_degrees.json").read_text(encoding="utf-8"))
LOW_DIMENSIONS = json.loads(
    (EXPECTED / "low_dimensions.json").read_text(encoding="utf-8")
)
FINITE_PRODUCTS = json.loads(
    (EXPECTED / "finite_products.json").read_text(encoding="utf-8")
)
EXPRESSION_COMMANDS = [
    "homology",
    "homology --format json",
    "homology --universal-cover --format json",
    "bound --format json",
]


def _same(got, pin, where: str = "output") -> None:
    """Fail unless `got` equals `pin` exactly: a str or bytes output, an exit
    code, or a dict of them such as `_captured` returns.  The message gives
    both lengths and the first line that differs, never a diff of the whole
    text, so a broken pin on megabytes of output fails at once."""
    if got == pin:
        return
    if isinstance(pin, dict) and isinstance(got, dict) and got.keys() == pin.keys():
        for key in pin:
            _same(got[key], pin[key], f"{where} {key}")
    if isinstance(pin, (str, bytes)) and type(got) is type(pin):
        got_lines = got.splitlines(keepends=True)
        pin_lines = pin.splitlines(keepends=True)
        line = next(
            (n for n, (x, y) in enumerate(zip(got_lines, pin_lines)) if x != y),
            min(len(got_lines), len(pin_lines)),
        )
        got_line = got_lines[line][:200] if line < len(got_lines) else "end of output"
        pin_line = pin_lines[line][:200] if line < len(pin_lines) else "end of output"
        raise AssertionError(
            f"{where}: length {len(got)}, pin length {len(pin)}; line {line + 1} "
            f"differs: got {got_line!r}, pin has {pin_line!r}"
        )
    raise AssertionError(f"{where}: got {got!r:.200}, pin has {pin!r:.200}")


@pytest.mark.parametrize(
    "suite", ["prop32", "lemma34", "prop36-bridge", "snf", "euler"]
)
def test_verify_suite_stdout_unchanged(suite, capsys):
    assert run(["verify", suite, "--format", "json"]) == 0
    out = capsys.readouterr().out
    _same(out.encode("utf-8"), (EXPECTED / f"verify-{suite}.json").read_bytes())


def test_expected_sl_covers_the_catalog():
    assert list(SL_CATALOG) == catalog_names()


@pytest.mark.parametrize("name", catalog_names())
def test_sl_catalog_stdout_unchanged(name, capsys):
    assert run(["sl", "--catalog", name, "--format", "json"]) == 0
    _same(capsys.readouterr().out, SL_CATALOG[name])


def test_expected_spaces_cover_every_space_file():
    assert sorted(SPACES) == sorted(p.name for p in SPACES_DIR.glob("*.json"))
    assert all(sorted(entry) == sorted(SPACE_COMMANDS) for entry in SPACES.values())


@pytest.mark.parametrize("command", SPACE_COMMANDS)
@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_stdout_unchanged(name, command, capsys):
    argv = command.split() + [str(SPACES_DIR / name), "--format", "json"]
    expected = SPACES[name][command]
    assert run(argv) == expected["exit"]
    _same(capsys.readouterr().out, expected["stdout"])


@pytest.mark.parametrize("command", SPACE_COMMANDS)
@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_stdout_unchanged_cold(name, command):
    # importing polydepth.cli loads every module, so the in-process run
    # above cannot miss a lazy import; a fresh interpreter loads only what
    # the command imports
    argv = command.split() + [str(SPACES_DIR / name), "--format", "json"]
    proc = _python("-m", "polydepth.cli", *argv)
    expected = SPACES[name][command]
    assert proc.returncode == expected["exit"], proc.stderr
    _same(proc.stdout, expected["stdout"])


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
    _same(capsys.readouterr().out, expected["stdout"])


def _captured(argv, capsys) -> dict:
    code = run(argv)
    out, err = capsys.readouterr()
    return {"exit": code, "stdout": out, "stderr": err}


def test_expected_text_pins_cover_every_input():
    space_files = sorted(p.name for p in SPACES_DIR.glob("*.json"))
    assert sorted(BOUND_RULES) == sorted(SPACES_TEXT) == space_files
    assert all(sorted(entry) == sorted(RULES) for entry in BOUND_RULES.values())
    assert all(sorted(entry) == sorted(SPACE_COMMANDS) for entry in SPACES_TEXT.values())
    assert list(SL_CATALOG_TEXT) == catalog_names()
    assert sorted(HELP) == ["", "bound", "catalog", "homology", "sl", "verify"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("name", sorted(BOUND_RULES))
def test_forced_rule_output_unchanged(name, rule, fmt, capsys):
    argv = ["bound", str(SPACES_DIR / name), "--rule", rule, "--format", fmt]
    _same(_captured(argv, capsys), BOUND_RULES[name][rule][fmt])


@pytest.mark.parametrize("command", SPACE_COMMANDS)
@pytest.mark.parametrize("name", sorted(SPACES_TEXT))
def test_space_text_output_unchanged(name, command, capsys):
    argv = command.split() + [str(SPACES_DIR / name)]
    _same(_captured(argv, capsys), SPACES_TEXT[name][command])


@pytest.mark.parametrize("name", catalog_names())
def test_sl_catalog_text_output_unchanged(name, capsys):
    _same(_captured(["sl", "--catalog", name], capsys), SL_CATALOG_TEXT[name])


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_unchanged(command, monkeypatch, capsys):
    # the pins were recorded at 80 columns; help must not follow the terminal
    argv = [command, "--help"] if command else ["--help"]
    for columns in ["80", "40", "200"]:
        monkeypatch.setenv("COLUMNS", columns)
        _same(_captured(argv, capsys), HELP[command], f"COLUMNS={columns}")


def test_expected_scrambled_pins_cover_both_surfaces():
    assert sorted(SCRAMBLED) == sorted(
        f"{kind}-{n}" for kind in ("torus", "klein") for n in range(3, 9)
    )
    commands = ["bound", "bound --format json", "homology", "homology --format json"]
    assert all(sorted(entry) == commands for entry in SCRAMBLED.values())


@pytest.mark.parametrize("name", sorted(SCRAMBLED))
def test_scrambled_complex_output_unchanged(name, tmp_path, capsys):
    kind, n = name.split("-")
    path = tmp_path / "space.json"
    path.write_text(json.dumps(disguised_surface_space(kind, int(n))), encoding="utf-8")
    for command, expected in SCRAMBLED[name].items():
        first, *rest = command.split()
        _same(_captured([first, str(path), *rest], capsys), expected, command)


def test_expected_high_degree_pins_cover_both_formats():
    assert sorted(HIGH_DEGREES) == ["sphere12345", "wedge-999-1000-10000"]
    commands = ["bound", "bound --format json", "homology", "homology --format json"]
    assert all(sorted(entry["commands"]) == commands for entry in HIGH_DEGREES.values())


def test_expected_low_dimension_pins_cover_both_formats():
    assert sorted(LOW_DIMENSIONS) == ["circle-complex", "sphere1"]
    commands = ["bound", "bound --format json"]
    assert all(
        sorted(entry["commands"]) == commands for entry in LOW_DIMENSIONS.values()
    )
    for entry in LOW_DIMENSIONS.values():
        assert '"per_degree": {}' in entry["commands"]["bound --format json"]["stdout"]


def test_expected_finite_product_pins_cover_both_formats():
    assert sorted(FINITE_PRODUCTS) == ["rp2-power-6"]
    rp2 = json.loads((SPACES_DIR / "rp2_with_cover.json").read_text(encoding="utf-8"))
    entry = FINITE_PRODUCTS["rp2-power-6"]
    assert entry["space"] == {"product": [rp2] * 6}
    assert sorted(entry["commands"]) == ["bound", "bound --format json"]
    assert entry["commands"]["bound"]["stdout"].startswith("rule=Cor-finite bound=69\n")


def _same_space_pins(entry, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(entry["space"]), encoding="utf-8")
    for command, expected in entry["commands"].items():
        first, *rest = command.split()
        _same(_captured([first, str(path), *rest], capsys), expected, command)


@pytest.mark.parametrize("name", sorted(HIGH_DEGREES))
def test_high_degree_output_unchanged(name, tmp_path, capsys):
    _same_space_pins(HIGH_DEGREES[name], tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(LOW_DIMENSIONS))
def test_low_dimension_output_unchanged(name, tmp_path, capsys):
    _same_space_pins(LOW_DIMENSIONS[name], tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(FINITE_PRODUCTS))
def test_finite_product_output_unchanged(name, tmp_path, capsys):
    _same_space_pins(FINITE_PRODUCTS[name], tmp_path, capsys)
