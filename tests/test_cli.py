"""End-to-end tests of the command-line interface.

Commands run in-process through `run(argv)`; stdout is captured with
capsys so the tests check the exact bytes a user would see.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from polydepth.catalog import catalog_group, catalog_names
import polydepth.finitegroup
import polydepth.suites
from polydepth.cli import build_parser, run
from polydepth.depth import RULES
from polydepth.finitegroup import format_cayley_table, n1
from polydepth.pi1 import ElementaryAmenable, free, pi1_to_json
from polydepth.topology import (
    EXAMPLE_COMPLEXES,
    MAX_DIMENSION,
    Explicit,
    Sphere,
    complex_to_json,
    dim_of,
    product,
    space_from_json,
    space_to_json,
    wedge,
)


def _write_json(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def _space_file(tmp_path, space):
    return _write_json(tmp_path, "space.json", space_to_json(space))


# the shipped RP^2 with its cover S^2, as a space JSON object
RP2 = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "spaces" / "rp2_with_cover.json")
    .read_text(encoding="utf-8")
)


class TestBoundCommand:
    def test_wedge_s1_s2_text_report(self, tmp_path, capsys):
        path = _space_file(tmp_path, wedge(Sphere(1), Sphere(2)))
        assert run(["bound", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rule=Cor-free-2dim bound=2"

    def test_json_round_trips_through_report_schema(self, tmp_path, capsys):
        path = _space_file(tmp_path, product(Sphere(1), Sphere(2)))
        assert run(["bound", path, "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["rule"] == "Cor-abelian"
        assert body["bound"] == 2
        assert body["sl_pi1"] == 1
        assert body["per_degree"] == {"2": 1, "3": 0}
        assert body["exact_depth"] == 2

    def test_inapplicable_bound_exits_two_with_report(self, tmp_path, capsys):
        space = Explicit(
            EXAMPLE_COMPLEXES["torus"],
            ElementaryAmenable(hirsch=1, cd_finite=False),
        )
        path = _space_file(tmp_path, space)
        assert run(["bound", path]) == 2
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "no bound applicable"
        assert "Thm4.1 failed" in out and "Thm4.8 failed" in out

    def test_inapplicable_bound_json_still_structured(self, tmp_path, capsys):
        space = Explicit(
            EXAMPLE_COMPLEXES["torus"],
            ElementaryAmenable(hirsch=1, cd_finite=False),
        )
        path = _space_file(tmp_path, space)
        assert run(["bound", path, "--format", "json"]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["rule"] is None and body["bound"] is None
        assert len(body["failures"]) == 2

    def test_forced_rule_runs_that_family(self, tmp_path, capsys):
        path = _space_file(tmp_path, product(Sphere(1), Sphere(1)))
        assert run(["bound", path, "--rule", "Thm4.8"]) == 0
        assert (
            capsys.readouterr().out.splitlines()[0]
            == "rule=Cor-abelian-2dim bound=3"
        )

    def test_forced_rule_mismatch_is_inapplicable(self, tmp_path, capsys):
        path = _space_file(tmp_path, product(Sphere(1), Sphere(1)))
        assert run(["bound", path, "--rule", "Cor-free"]) == 2
        out = capsys.readouterr().out
        assert "requested rule Cor-free" in out
        assert "Cor-abelian" in out

    def test_forced_rule_domain_error_is_inapplicable(self, tmp_path, capsys):
        path = _space_file(tmp_path, Sphere(3))
        assert run(["bound", path, "--rule", "Thm4.8"]) == 2
        assert "DimensionNotTwo" in capsys.readouterr().out


    def test_rule_choices_are_the_depth_rules(self):
        # --rule joins the bound subparser when it first parses, so that
        # building the parser does not load polydepth.depth
        parser = build_parser()
        parser.parse_args(["bound", "space.json"])
        subcommands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        rule = next(a for a in subcommands.choices["bound"]._actions if a.dest == "rule")
        assert list(rule.choices) == sorted(RULES)


class TestHomologyCommand:
    def test_text_profile(self, tmp_path, capsys):
        path = _space_file(tmp_path, Sphere(2))
        assert run(["homology", path]) == 0
        assert capsys.readouterr().out == "H0 = Z\nH1 = 0\nH2 = Z\n"

    def test_universal_cover_flag(self, tmp_path, capsys):
        path = _space_file(tmp_path, product(Sphere(1), Sphere(2)))
        assert run(["homology", path, "--universal-cover"]) == 0
        assert capsys.readouterr().out == "H0 = Z\nH1 = 0\nH2 = Z\n"

    def test_json_profile(self, tmp_path, capsys):
        path = _space_file(tmp_path, product(Sphere(1), Sphere(1)))
        assert run(["homology", path, "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["groups"]["1"] == {"free_rank": 2, "torsion": []}

    def test_alternating_wedge_product_nesting(self, tmp_path, capsys):
        # X_0 = S^2, X_(j+1) = (X_j x S^2) v S^2: sixteen levels, eight of
        # each.  With q = t^2 the Poincare series obey p_(j+1) + 1 =
        # (p_j + 1)(1 + q), so p_8 = (2 + q)(1 + q)^8 - 1.
        space = {"sphere": 2}
        for _ in range(8):
            space = {"wedge": [{"product": [space, {"sphere": 2}]}, {"sphere": 2}]}
        path = _write_json(tmp_path, "nested.json", space)
        start = time.perf_counter()
        assert run(["homology", path, "--format", "json"]) == 0
        elapsed = time.perf_counter() - start
        body = json.loads(capsys.readouterr().out)
        ranks = [0] * 19
        for i in range(10):
            ranks[2 * i] = 2 * math.comb(8, i) + (math.comb(8, i - 1) if i else -1)
        assert body["dim"] == 18
        assert [body["groups"][str(k)] for k in range(19)] == [
            {"free_rank": r, "torsion": []} for r in ranks
        ]
        assert elapsed < 0.5

    def test_product_of_high_spheres_costs_its_betti_numbers(self, tmp_path, capsys):
        n = 10**5
        path = _write_json(
            tmp_path, "big.json", {"product": [{"sphere": n}, {"sphere": n}]}
        )
        start = time.perf_counter()
        assert run(["homology", path]) == 0
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * n + 1
        nonzero = {k: line for k, line in enumerate(lines) if not line.endswith(" = 0")}
        assert nonzero == {0: "H0 = Z", n: f"H{n} = Z^2", 2 * n: f"H{2 * n} = Z"}
        assert elapsed < 2.0

    @pytest.mark.parametrize(
        "second,expected",
        [
            ({"sphere": 1}, "H0 = Z\nH1 = Z ⊕ Z/2\nH2 = Z/2\nH3 = 0\n"),
            (RP2, "H0 = Z\nH1 = Z/2 ⊕ Z/2\nH2 = Z/2\nH3 = Z/2\nH4 = 0\n"),
        ],
    )
    def test_product_with_torsion(self, tmp_path, capsys, second, expected):
        path = _write_json(tmp_path, "space.json", {"product": [RP2, second]})
        assert run(["homology", path]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_product_with_too_much_torsion_exits_two(self, tmp_path, capsys):
        # RP^2 to the 13th has 797161 torsion summands and the 14th about three
        # times as many: the fold stops there, long before the 20th factor
        path = _write_json(tmp_path, "space.json", {"product": [RP2] * 20})
        start = time.perf_counter()
        assert run(["homology", path]) == 2
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr() == (
            "",
            "error: UnsupportedConstruction: product homology may need more than "
            "1000000 torsion summands\n",
        )

    def test_unsupported_cover_exits_two(self, tmp_path, capsys):
        path = _space_file(tmp_path, wedge(Sphere(1), Sphere(1)))
        assert run(["homology", path, "--universal-cover"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSlCommand:
    def test_catalog_source_pinned_line(self, capsys):
        assert run(["sl", "--catalog", "Z6"]) == 0
        assert capsys.readouterr().out == "sl=2 witness=Z6>Z3>1\n"

    def test_table_source(self, tmp_path, capsys):
        path = tmp_path / "s3.table"
        path.write_text(format_cayley_table(catalog_group("S3")))
        assert run(["sl", "--table", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sl=2 witness=")

    def test_descriptor_source_free_group(self, tmp_path, capsys):
        path = _write_json(tmp_path, "pi1.json", pi1_to_json(free(3)))
        assert run(["sl", "--descriptor", path]) == 0
        assert capsys.readouterr().out == "sl=3\n"

    def test_json_format_includes_witness(self, capsys):
        assert run(["sl", "--catalog", "Q8", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body == {"group": "Q8", "sl": 1, "witness": "Q8>1"}

    def test_catalog_source_runs_n1_once(self, monkeypatch, capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return n1(*args, **kwargs)

        # the sl command and depth.sl_of both read n1 from finitegroup when
        # they run
        monkeypatch.setattr(polydepth.finitegroup, "n1", counted)
        assert run(["sl", "--catalog", "D4"]) == 0
        assert capsys.readouterr().out == "sl=2 witness=D4>Z4>1\n"
        assert len(calls) == 1

    def test_cap_exceeded_exits_two(self, capsys):
        assert run(["sl", "--catalog", "Z24", "--cap", "16"]) == 2
        assert "OrderExceedsCap" in capsys.readouterr().err

    def test_over_cap_table_refused_before_validation(self, tmp_path, capsys):
        # order 400 is far above the default cap 64; the O(n^3)
        # associativity check would take minutes, so the declared order is
        # compared with the cap first
        n = 400
        path = tmp_path / "z400.table"
        rows = (" ".join(str((a + b) % n) for b in range(n)) for a in range(n))
        path.write_text(f"{n}\n" + "\n".join(rows) + "\n")
        start = time.perf_counter()
        assert run(["sl", "--table", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: OrderExceedsCap: group order 400 exceeds search cap 64\n"
        )

    def test_over_cap_descriptor_table_refused_before_validation(
        self, tmp_path, capsys
    ):
        # the same order check for a table written inside a descriptor
        n = 320
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        path = _write_json(tmp_path, "pi1.json", {"finite": {"table": table}})
        start = time.perf_counter()
        assert run(["sl", "--descriptor", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: OrderExceedsCap: group order 320 exceeds search cap 64\n"
        )
        small = _write_json(tmp_path, "z6.json", {"finite": {"table": table[:6]}})
        assert run(["sl", "--descriptor", small, "--cap", "5"]) == 2
        assert "order 6 exceeds search cap 5" in capsys.readouterr().err

    def test_over_cap_table_refused_even_when_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.table"
        path.write_text("80\n0 1\n")
        assert run(["sl", "--table", str(path)]) == 2
        assert "OrderExceedsCap" in capsys.readouterr().err
        assert run(["sl", "--table", str(path), "--cap", "80"]) == 1
        assert "expected 6400 table entries" in capsys.readouterr().err

    def test_unknown_catalog_name_is_malformed_input(self, capsys):
        assert run(["sl", "--catalog", "Nope"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_cd_infinite_descriptor_exits_two(self, tmp_path, capsys):
        path = _write_json(
            tmp_path,
            "pi1.json",
            pi1_to_json(ElementaryAmenable(hirsch=2, cd_finite=False)),
        )
        assert run(["sl", "--descriptor", path]) == 2
        assert "CdNotFinite" in capsys.readouterr().err


class TestVerifyCommand:
    def test_prop32_passes_for_whole_catalog(self, capsys):
        assert run(["verify", "prop32"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(catalog_names())
        assert all(": PASS " in line for line in lines)
        assert lines[0] == "Z1: PASS n1=n2=n3=0"

    @pytest.mark.parametrize("suite", ["lemma34", "prop36-bridge", "euler", "snf"])
    def test_other_suites_pass(self, suite, capsys):
        assert run(["verify", suite]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert all(" PASS" in line for line in lines)

    def test_snf_suite_checks_the_sparse_elimination(self, monkeypatch, capsys):
        sparse = polydepth.suites.invariant_factors
        monkeypatch.setattr(
            polydepth.suites, "invariant_factors", lambda m: sparse(m)[:-1]
        )
        assert run(["verify", "snf"]) == 1
        assert ": FAIL" in capsys.readouterr().out

    def test_json_format_reports_all_pass(self, capsys):
        assert run(["verify", "snf", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["suite"] == "snf"
        assert body["all_pass"] is True
        assert all(item["pass"] for item in body["results"])


class TestCatalogCommand:
    def test_lists_every_name(self, capsys):
        assert run(["catalog"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(catalog_names())
        assert lines[0] == "Z1 order=1 1"
        assert any(line.startswith("Q8 order=8 nonabelian") for line in lines)

    def test_json_shape(self, capsys):
        assert run(["catalog", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in body}
        assert by_name["Z12"]["abelian_factors"] == [12]
        assert by_name["S3"]["abelian_factors"] is None


class TestExitCodes:
    def test_missing_file_is_malformed_input(self, tmp_path, capsys):
        assert run(["bound", str(tmp_path / "missing.json")]) == 1
        assert "input error" in capsys.readouterr().err

    def test_bad_json_is_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["bound", str(path)]) == 1
        assert "input error" in capsys.readouterr().err

    def test_unknown_space_tag_is_malformed_input(self, tmp_path, capsys):
        path = _write_json(tmp_path, "bad.json", {"blob": 3})
        assert run(["bound", str(path)]) == 1

    def test_deeply_nested_wedge_is_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"wedge": [' * 900 + '{"sphere": 2}' + "]}" * 900)
        assert run(["homology", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "complex_",
        [
            # boundary shape disagrees with the cell counts
            {"cells": [1, 1], "boundary": [[[0], [0]]]},
            # maps that do not compose to zero
            {"cells": [1, 2, 1], "boundary": [[[1, 0]], [[1], [0]]]},
        ],
    )
    def test_inconsistent_complex_is_malformed_input(self, tmp_path, capsys, complex_):
        space = {"explicit": {"complex": complex_, "pi1": {"trivial": True}}}
        path = _write_json(tmp_path, "space.json", space)
        assert run(["homology", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "value, exit_code, stdout, stderr",
        [
            # zero-valued and falsy entries are type-checked like any other
            (0.0, 1, "", "input error: matrix entries must be int, got float\n"),
            (None, 1, "", "input error: matrix entries must be int, got NoneType\n"),
            ("", 1, "", "input error: matrix entries must be int, got str\n"),
            (1.5, 1, "", "input error: matrix entries must be int, got float\n"),
            # bool is an int subclass and is taken as 1 or 0
            (True, 0, "H0 = 0\nH1 = 0\n", ""),
            (False, 0, "H0 = Z\nH1 = Z\n", ""),
        ],
    )
    def test_boundary_entry_type(self, tmp_path, capsys, value, exit_code, stdout, stderr):
        complex_ = {"cells": [2, 2], "boundary": [[[0, 1], [value, 0]]]}
        space = {"explicit": {"complex": complex_, "pi1": {"trivial": True}}}
        path = _write_json(tmp_path, "space.json", space)
        assert run(["homology", path]) == exit_code
        assert capsys.readouterr() == (stdout, stderr)

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "1e400", "NaN"])
    def test_non_finite_sphere_dimension_is_malformed_input(self, tmp_path, capsys, value):
        path = tmp_path / "space.json"
        path.write_text('{"sphere": %s}' % value)
        assert run(["homology", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_cyclic_order_above_limit_is_malformed_input(self, tmp_path, capsys):
        path = _write_json(tmp_path, "pi1.json", {"abelian": f"Z/{10**87 + 1}"})
        assert run(["sl", "--descriptor", path]) == 1
        err = capsys.readouterr().err
        assert "10^12" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "space",
        [
            # shapes that ended in a traceback
            {"sphere": None},
            {"sphere": [1]},
            {"complex": {"cells": 5}},
            {"complex": {"cells": [1, None], "boundary": [[[0]]]}},
            {"complex": {"cells": [1, 1], "boundary": 7}},
            {"complex": {"cells": [1, 1], "boundary": [[5]]}},
            {"complex": {"cells": [1, 1], "boundary": [None]}},
            {"pi1": {"free": None}},
            {"pi1": {"free": [2]}},
            {"pi1": {"abelian": {"torsion": 3}}},
            {"pi1": {"abelian": {"torsion": [None]}}},
            {"pi1": {"elementary_amenable": {"hirsch": None}}},
            {"pi1": {"finite": {"table": 5}}},
            {"pi1": {"finite": {"table": [[0, 1], 5]}}},
            {"pi1": {"finite": {"catalog": ["Z2"]}}},
            # values that were coerced and read as something else
            {"sphere": 2.5},
            {"sphere": "3"},
            {"pi1": {"free": 2.7}},
            {"pi1": {"finite": {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1.9]]}}},
            {"pi1": {"elementary_amenable": {"hirsch": 1, "cd_finite": "no"}}},
            # text tokens that int() reads but the token rule refuses
            {"pi1": {"abelian": "Z/1_2"}},
            {"pi1": {"abelian": "Z^ 2"}},
            {"pi1": {"abelian": "Z/\u0661\u0662"}},
            {"pi1": {"finite": "2\n0 +1\n+1 0\n"}},
            {"pi1": {"finite": "2\n0 0_1\n1 0\n"}},
            {"pi1": {"finite": "2\n0 \u0661\n\u0661 0\n"}},
            {"pi1": {"finite": "\u0662\n0 1\n1 0\n"}},
        ],
    )
    def test_malformed_value_is_one_input_error_line(self, tmp_path, capsys, space):
        # "complex" and "pi1" cases are the parts of an explicit space; a
        # "pi1" case is also read as a descriptor file
        pi1 = space.get("pi1")
        if "sphere" not in space:
            complex_ = space.get("complex", {"cells": [1]})
            space = {"explicit": {"complex": complex_, "pi1": pi1 or {"trivial": True}}}
        path = _write_json(tmp_path, "space.json", space)
        argvs = [["bound", path], ["homology", path]]
        if pi1 is not None:
            argvs.append(["sl", "--descriptor", _write_json(tmp_path, "pi1.json", pi1)])
        for argv in argvs:
            assert run(argv) == 1, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("input error:"), (argv, out, err)
            assert err.count("\n") == 1, (argv, err)

    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 64
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 64

    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys):
        path = _space_file(tmp_path, Sphere(2))
        assert run(["bound", path, "--format", "yaml"]) == 64

    def test_conflicting_sl_sources_is_usage_error(self, capsys):
        assert run(["sl", "--catalog", "Z6", "--table", "x"]) == 64

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "bound" in capsys.readouterr().out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sl", "--catalog", "D4"],
            ["verify", "euler"],
            ["verify", "snf", "--format", "json"],
            ["catalog", "--format", "json"],
        ],
    )
    def test_same_invocation_prints_same_bytes(self, argv, capsys):
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_bound_report_stable_across_runs(self, tmp_path, capsys):
        path = _space_file(tmp_path, wedge(Sphere(2), Sphere(2), Sphere(3)))
        outputs = set()
        for _ in range(3):
            assert run(["bound", path, "--format", "json"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


SPACES_DIR = pathlib.Path(__file__).resolve().parent.parent / "spaces"


class TestShippedSpaceFiles:
    """The space files under spaces/ stay loadable and keep their meaning."""

    def test_wedge_example_file(self, capsys):
        assert run(["bound", str(SPACES_DIR / "s1_wedge_s2.json")]) == 0
        assert (
            capsys.readouterr().out.splitlines()[0]
            == "rule=Cor-free-2dim bound=2"
        )

    def test_every_shipped_file_parses(self):
        files = sorted(SPACES_DIR.glob("*.json"))
        assert len(files) >= 9
        for path in files:
            space = space_from_json(json.loads(path.read_text()))
            assert dim_of(space) <= MAX_DIMENSION

    def test_cd_infinite_demo_exits_two(self, capsys):
        assert run(["bound", str(SPACES_DIR / "disc_cd_infinite.json")]) == 2
        assert capsys.readouterr().out.splitlines()[0] == "no bound applicable"

    def test_finite_product_over_cap_refused_before_building(self, tmp_path, capsys):
        # pi1 is Z2^9: its 512-element table would take seconds to validate,
        # and no subgroup search accepts that order anyway
        factor = json.loads((SPACES_DIR / "rp2_with_cover.json").read_text())
        path = _write_json(tmp_path, "rp2x9.json", {"product": [factor] * 9})
        start = time.perf_counter()
        assert run(["bound", path]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (
            "no bound applicable\n"
            "  Thm4.1 failed: OrderExceedsCap: group order 512 exceeds search cap 64\n"
            "  Thm4.8 failed: DimensionNotTwo: rule needs a 2-dimensional space, "
            "got dim 18\n",
            "",
        )

    @pytest.mark.parametrize("command", ["bound", "homology"])
    def test_over_cap_table_in_space_file_refused_before_validation(
        self, tmp_path, capsys, command
    ):
        # a point with a cyclic table of order 1000 (a 4 MB file): the
        # O(n^3) axiom check would run for about a minute, so the order is
        # compared with the search cap first, also by `homology`, which
        # never reads the group
        n = 1000
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        point = {"cells": [1], "boundary": []}
        path = _write_json(
            tmp_path, "point.json",
            {"explicit": {"complex": point, "pi1": {"finite": {"table": table}}}},
        )
        start = time.perf_counter()
        assert run([command, path]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (
            "", "error: OrderExceedsCap: group order 1000 exceeds search cap 64\n"
        )



ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDimensionCap:
    """Spaces above MAX_DIMENSION are refused right after parsing, before
    any homology: their dense output alone would be gigabytes."""

    OVER_CAP = [
        {"sphere": 10**9},
        {"sphere": MAX_DIMENSION + 1},
        {"product": [{"sphere": 600000}, {"sphere": MAX_DIMENSION - 599999}]},
        {"wedge": [{"sphere": 2}, {"product": [{"sphere": MAX_DIMENSION}, {"sphere": 1}]}]},
    ]

    @pytest.mark.parametrize("space", OVER_CAP)
    @pytest.mark.parametrize(
        "command", [["bound"], ["homology"], ["homology", "--universal-cover"]]
    )
    def test_over_cap_exits_two(self, tmp_path, capsys, space, command):
        path = _write_json(tmp_path, "space.json", space)
        assert run([command[0], path, *command[1:], "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: DimensionExceedsCap: space dimension ")
        assert err.endswith(f" exceeds the cap {MAX_DIMENSION}\n")
        assert err.count("\n") == 1

    def test_at_cap_is_accepted(self, tmp_path, capsys):
        # the 2-dim rule refuses at once, so no dense rendering runs
        space = {"product": [{"sphere": 600000}, {"sphere": MAX_DIMENSION - 600000}]}
        path = _write_json(tmp_path, "space.json", space)
        assert run(["bound", path, "--rule", "Thm4.8"]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert f"DimensionNotTwo: rule needs a 2-dimensional space, got dim {MAX_DIMENSION}" in out

    @pytest.mark.parametrize(
        "space",
        [{"sphere": 10**9}, {"product": [{"sphere": 700000}, {"sphere": 700000}]}],
    )
    def test_over_cap_refused_quickly_cold(self, tmp_path, space):
        path = _write_json(tmp_path, "space.json", space)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "polydepth.cli", "homology", path],
                env=env, capture_output=True, text=True, timeout=60,
            )
            times.append(time.perf_counter() - start)
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: DimensionExceedsCap:")
        assert min(times) < 0.2

    def test_every_benchmark_expression_is_under_the_cap(self, tmp_path):
        # the benchmark's own generator writes the inputs of three seeds
        script = (
            "import sys; from pathlib import Path; import plan\n"
            "root = Path(sys.argv[1])\n"
            "for seed in (1, 2, 3):\n"
            "    plan.build('expressions', seed, 18.0, root / f'seed{seed}', root)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        files = sorted(tmp_path.glob("seed*/*.json"))
        assert len(files) > 100
        dims = [dim_of(space_from_json(json.loads(p.read_text()))) for p in files]
        assert 90000 < max(dims) <= MAX_DIMENSION
