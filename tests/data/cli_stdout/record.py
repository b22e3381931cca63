"""Regenerate every pin file in this directory from the checkout at ROOT.

Usage: ``python tests/data/cli_stdout/record.py ROOT``

ROOT is a clean copy of the commit whose output the pins should hold (for
example ``git archive COMMIT | tar -x -C ROOT``).  Each invocation is run
in-process through ROOT's ``polydepth.cli.run`` with stdout and stderr
captured and ``COLUMNS=80``, so ``--help`` wraps as in an 80-column
terminal.  The files are written next to this script.

Files
-----
``verify-<suite>.json``
    stdout of ``verify SUITE --format json``.
``sl_catalog.json``
    catalog name -> stdout of ``sl --catalog NAME --format json``.
``spaces.json``
    ``spaces/*.json`` name -> ``bound``, ``homology``,
    ``homology --universal-cover`` (each ``--format json``) -> exit, stdout.
``expressions.json``
    expression name -> its space and, per command, exit and stdout.  The
    spaces were drawn once and are kept as data: they are read from ROOT's
    own copy of this file.
``bound_rules.json``
    space name -> rule -> format -> exit, stdout, stderr of
    ``bound SPACE --rule RULE --format FORMAT``.
``spaces_text.json``
    space name -> ``bound``, ``homology``, ``homology --universal-cover``
    (text format) -> exit, stdout, stderr.
``sl_catalog_text.json``
    catalog name -> exit, stdout, stderr of ``sl --catalog NAME``.
``help.json``
    ``""`` (top level) or subcommand -> exit, stdout, stderr of ``--help``.
``scrambled.json``
    ``KIND-N`` (torus and klein, N = 3..8) -> ``homology`` and ``bound``,
    each in text and ``--format json`` -> exit, stdout, stderr, on the
    space ``oracles.disguised_surface_space(KIND, N)`` from this checkout's
    tests: dense boundary matrices with multi-bit entries.
``high_degrees.json``
    expression name -> its space (``HIGH_DEGREES`` below) and, per command
    of ``HIGH_DEGREE_COMMANDS``, exit, stdout and stderr: spaces whose
    degrees run past 1000 and 10000.
``low_dimensions.json``
    space name -> its space (``LOW_DIMENSIONS`` below) and, per command of
    ``LOW_DIMENSION_COMMANDS``, exit, stdout and stderr: spaces of dimension
    1, whose bound report has no degree >= 2 and prints an empty
    ``per_degree``.
``finite_products.json``
    space name -> its space and, per command of ``FINITE_PRODUCT_COMMANDS``,
    exit, stdout and stderr: ``rp2-power-6`` is the product of six copies of
    ROOT's ``spaces/rp2_with_cover.json``, whose pi1 is the order-64 table of
    Z2^6.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SUITES = ["prop32", "lemma34", "prop36-bridge", "snf", "euler"]
SPACE_COMMANDS = ["bound", "homology", "homology --universal-cover"]
EXPRESSION_COMMANDS = [
    "homology",
    "homology --format json",
    "homology --universal-cover --format json",
    "bound --format json",
]
RULES = [
    "Cor-abelian",
    "Cor-abelian-2dim",
    "Cor-amenable",
    "Cor-amenable-2dim",
    "Cor-finite",
    "Cor-free",
    "Cor-free-2dim",
    "Cor-simply",
    "Thm4.1",
    "Thm4.8",
]
FORMATS = ["text", "json"]
SUBCOMMANDS = ["bound", "homology", "sl", "verify", "catalog"]
SCRAMBLED = [f"{kind}-{n}" for kind in ("torus", "klein") for n in range(3, 9)]
SCRAMBLED_COMMANDS = ["homology", "homology --format json", "bound", "bound --format json"]
HIGH_DEGREES = {
    "sphere12345": {"sphere": 12345},
    "wedge-999-1000-10000": {"wedge": [{"sphere": 999}, {"sphere": 1000}, {"sphere": 10000}]},
}
HIGH_DEGREE_COMMANDS = ["bound", "bound --format json", "homology", "homology --format json"]
LOW_DIMENSIONS = {
    "sphere1": {"sphere": 1},
    "circle-complex": {
        "explicit": {
            "complex": {"cells": [1, 1], "boundary": [[[0]]]},
            "pi1": {"free": 1},
            "cover": {"cells": [1], "boundary": []},
        }
    },
}
LOW_DIMENSION_COMMANDS = ["bound", "bound --format json"]
FINITE_PRODUCT_COMMANDS = ["bound", "bound --format json"]


def _capture(run, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write(name: str, body, indent: int = 2) -> None:
    (HERE / name).write_text(json.dumps(body, indent=indent) + "\n", encoding="utf-8")


def record(root: pathlib.Path) -> None:
    sys.path.insert(0, str(root / "src"))
    os.environ["COLUMNS"] = "80"
    from polydepth.catalog import catalog_names
    from polydepth.cli import run

    def stdout_of(argv):
        return _capture(run, argv)["stdout"]

    def exit_and_stdout(argv):
        result = _capture(run, argv)
        return {"exit": result["exit"], "stdout": result["stdout"]}

    for suite in SUITES:
        text = stdout_of(["verify", suite, "--format", "json"])
        (HERE / f"verify-{suite}.json").write_text(text, encoding="utf-8")

    names = catalog_names()
    _write(
        "sl_catalog.json",
        {n: stdout_of(["sl", "--catalog", n, "--format", "json"]) for n in names},
    )
    _write(
        "sl_catalog_text.json", {n: _capture(run, ["sl", "--catalog", n]) for n in names}
    )

    spaces = {p.name: str(p) for p in sorted((root / "spaces").glob("*.json"))}
    _write(
        "spaces.json",
        {
            name: {
                c: exit_and_stdout([*c.split(), path, "--format", "json"])
                for c in SPACE_COMMANDS
            }
            for name, path in spaces.items()
        },
    )
    _write(
        "spaces_text.json",
        {
            name: {c: _capture(run, [*c.split(), path]) for c in SPACE_COMMANDS}
            for name, path in spaces.items()
        },
    )
    _write(
        "bound_rules.json",
        {
            name: {
                rule: {
                    fmt: _capture(run, ["bound", path, "--rule", rule, "--format", fmt])
                    for fmt in FORMATS
                }
                for rule in RULES
            }
            for name, path in spaces.items()
        },
    )

    old = json.loads(
        (root / "tests" / "data" / "cli_stdout" / "expressions.json").read_text(
            encoding="utf-8"
        )
    )
    scratch = HERE / ".record-space.json"
    expressions = {}
    try:
        for name, entry in old.items():
            scratch.write_text(json.dumps(entry["space"]), encoding="utf-8")
            commands = {}
            for command in EXPRESSION_COMMANDS:
                first, *rest = command.split()
                commands[command] = exit_and_stdout([first, str(scratch), *rest])
            expressions[name] = {"space": entry["space"], "commands": commands}
    finally:
        scratch.unlink(missing_ok=True)
    _write("expressions.json", expressions, indent=1)

    _write(
        "help.json",
        {
            "": _capture(run, ["--help"]),
            **{c: _capture(run, [c, "--help"]) for c in SUBCOMMANDS},
        },
    )

    sys.path.insert(0, str(HERE.parent.parent))
    from oracles import disguised_surface_space

    scrambled = {}
    try:
        for name in SCRAMBLED:
            kind, n = name.split("-")
            space = disguised_surface_space(kind, int(n))
            scratch.write_text(json.dumps(space), encoding="utf-8")
            scrambled[name] = {}
            for command in SCRAMBLED_COMMANDS:
                first, *rest = command.split()
                scrambled[name][command] = _capture(run, [first, str(scratch), *rest])
    finally:
        scratch.unlink(missing_ok=True)
    _write("scrambled.json", scrambled)

    rp2 = json.loads((root / "spaces" / "rp2_with_cover.json").read_text(encoding="utf-8"))
    finite_products = {"rp2-power-6": {"product": [rp2] * 6}}
    for file, named, commands in [
        ("high_degrees.json", HIGH_DEGREES, HIGH_DEGREE_COMMANDS),
        ("low_dimensions.json", LOW_DIMENSIONS, LOW_DIMENSION_COMMANDS),
        ("finite_products.json", finite_products, FINITE_PRODUCT_COMMANDS),
    ]:
        _write(file, _space_pins(run, scratch, named, commands), indent=1)


def _space_pins(run, scratch: pathlib.Path, spaces: dict, commands: list[str]) -> dict:
    """name -> {"space", "commands": command -> exit, stdout, stderr} for each
    space, written to `scratch` for the run."""
    pins = {}
    try:
        for name, space in spaces.items():
            scratch.write_text(json.dumps(space), encoding="utf-8")
            captured = {}
            for command in commands:
                first, *rest = command.split()
                captured[command] = _capture(run, [first, str(scratch), *rest])
            pins[name] = {"space": space, "commands": captured}
    finally:
        scratch.unlink(missing_ok=True)
    return pins


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: record.py ROOT")
    record(pathlib.Path(sys.argv[1]).resolve())
