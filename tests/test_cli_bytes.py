"""Byte-identical CLI output for the commands that run the subgroup searches.

The expected files under ``data/cli_stdout/`` are the stdout of each
invocation, recorded before the subgroup lattice was shared between the
searches: ``verify-<suite>.json`` for ``verify SUITE --format json``, and
``sl_catalog.json`` mapping every catalog name to the stdout of
``sl --catalog NAME --format json``.
"""

import json
import pathlib

import pytest

from polydepth.catalog import catalog_names
from polydepth.cli import run

EXPECTED = pathlib.Path(__file__).parent / "data" / "cli_stdout"
SL_CATALOG = json.loads((EXPECTED / "sl_catalog.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("suite", ["prop32", "lemma34", "prop36-bridge"])
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
