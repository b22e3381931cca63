"""Command-line interface.

Subcommands
-----------
``bound SPACE_FILE``
    Depth bound report for a space expression (JSON file).  ``--rule``
    forces one rule instead of taking the best of both families.
``homology SPACE_FILE``
    Homology profile of the space, or of its universal cover with
    ``--universal-cover``.
``sl (--catalog NAME | --table FILE | --descriptor FILE)``
    Splitting length of a group; finite groups also get a witness chain.
``verify SUITE``
    Run a self-check suite (one PASS/FAIL line per item):
    ``prop32``, ``lemma34``, ``prop36-bridge``, ``euler``, ``snf``.
``catalog``
    List the built-in finite groups.

Exit codes: 0 success, 1 malformed input or a failed verify check,
2 domain failure (no applicable bound, unsupported cover, search cap
exceeded; ``bound`` still prints a structured report), 64 usage error.

Output is byte-deterministic: the same invocation always prints the
same bytes.

This module only parses arguments and prints results.  The rule names and
what each one runs come from ``polydepth.depth`` (``RULES``,
``forced_bound``); the verify suites are the ``_SUITES`` table below.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .abelian import from_cyclic_factors, sl_abelian
from .catalog import catalog_abelian_factors, catalog_group, catalog_names
from .depth import (
    RULES,
    NoBoundApplicable,
    best_bound,
    forced_bound,
    render_report,
    report_to_json,
    sl_of,
)
from .errors import DimensionExceedsCap, PolydepthError
from .finitegroup import (
    DEFAULT_SEARCH_CAP,
    all_subgroups,
    is_retract,
    n1,
    parse_cayley_table,
    render_series,
    restrict_to_subgroup,
    verify_prop32,
)
from .intlinalg import IntMatrix, determinant, invariant_factors, smith_normal_form
from .pi1 import Finite, pi1_from_json, render_pi1
from .topology import (
    EXAMPLE_COMPLEXES,
    MAX_DIMENSION,
    ChainComplex,
    dim_of,
    euler_characteristic,
    homology,
    homology_of_complex,
    profile_json_chunks,
    render_profile,
    space_from_json,
    universal_cover_homology,
)

# what argparse picks for an 80-column terminal
_HELP_WIDTH = 78


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 64 instead of 2, and whose
    help and usage text is wrapped at a fixed width instead of the terminal's,
    so that it does not depend on ``COLUMNS``."""

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=_HELP_WIDTH)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_SEARCH_CAP,
        help="largest group order the subgroup search accepts "
        f"(default {DEFAULT_SEARCH_CAP})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polydepth",
        description="Depth bounds for finite polyhedra and splitting "
        "lengths of groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_bound = sub.add_parser(
        "bound", help="depth bound report for a space-expression JSON file"
    )
    p_bound.add_argument("space", help="path to a space-expression JSON file")
    _add_format(p_bound)
    p_bound.add_argument(
        "--rule",
        choices=sorted(RULES),
        help="force this rule instead of taking the best applicable bound",
    )
    p_bound.set_defaults(func=_cmd_bound)

    p_hom = sub.add_parser(
        "homology", help="homology profile of a space-expression JSON file"
    )
    p_hom.add_argument("space", help="path to a space-expression JSON file")
    p_hom.add_argument(
        "--universal-cover",
        action="store_true",
        help="profile of the universal cover instead of the space itself",
    )
    _add_format(p_hom)
    p_hom.set_defaults(func=_cmd_homology)

    p_sl = sub.add_parser("sl", help="splitting length of a group")
    source = p_sl.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", metavar="NAME", help="built-in group name")
    source.add_argument(
        "--table", metavar="FILE", help="Cayley table file (order, then rows)"
    )
    source.add_argument(
        "--descriptor", metavar="FILE", help="fundamental-group descriptor JSON file"
    )
    _add_cap(p_sl)
    _add_format(p_sl)
    p_sl.set_defaults(func=_cmd_sl)

    p_verify = sub.add_parser(
        "verify", help="run a self-check suite; exits 1 if any check fails"
    )
    p_verify.add_argument("suite", choices=tuple(_SUITES), help="which suite to run")
    _add_cap(p_verify)
    _add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_catalog = sub.add_parser("catalog", help="list the built-in finite groups")
    _add_format(p_catalog)
    p_catalog.set_defaults(func=_cmd_catalog)

    return parser


def _load_json(path: str, parse):
    """Read a JSON file and apply the recursive `parse` to it.  Nesting too
    deep for the decoder or the parser is malformed input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_space(path: str):
    """Read a space-expression file; a space above the dimension cap is
    refused before any homology, since every rendering is dense in degree."""
    space = _load_json(path, space_from_json)
    dim = dim_of(space)
    if dim > MAX_DIMENSION:
        raise DimensionExceedsCap(dim, MAX_DIMENSION)
    return space


def _dump(body) -> str:
    return json.dumps(body, indent=2)


def _cmd_bound(args) -> int:
    space = _load_space(args.space)
    report = best_bound(space) if args.rule is None else forced_bound(space, args.rule)
    if args.format == "json":
        print(_dump(report_to_json(report)))
    else:
        print(render_report(report))
    return 2 if isinstance(report, NoBoundApplicable) else 0


def _cmd_homology(args) -> int:
    space = _load_space(args.space)
    if args.universal_cover:
        profile = universal_cover_homology(space)
    else:
        profile = homology(space)
    if args.format == "json":
        # written piece by piece: the text of a high-dimensional profile is
        # never held whole
        sys.stdout.writelines(profile_json_chunks(profile))
        sys.stdout.write("\n")
    else:
        print(render_profile(profile))
    return 0


def _cmd_sl(args) -> int:
    if args.catalog is not None:
        descriptor = Finite(catalog_group(args.catalog))
    elif args.table is not None:
        with open(args.table, encoding="utf-8") as fh:
            descriptor = Finite(parse_cayley_table(fh.read(), cap=args.cap))
    else:
        descriptor = _load_json(
            args.descriptor, lambda obj: pi1_from_json(obj, cap=args.cap)
        )
    if isinstance(descriptor, Finite):
        series = n1(descriptor.group, cap=args.cap)
        value, witness = series.length, render_series(descriptor.group, series)
    else:
        value, witness = sl_of(descriptor, cap=args.cap), None
    if args.format == "json":
        body: dict = {"group": render_pi1(descriptor), "sl": value}
        if witness is not None:
            body["witness"] = witness
        print(_dump(body))
    else:
        line = f"sl={value}"
        if witness is not None:
            line += f" witness={witness}"
        print(line)
    return 0


# --- verify suites ---------------------------------------------------------
# Each suite returns (item, passed, detail) triples; the command renders one
# line per item.  Random data is seeded, so reruns print identical bytes.

_SUITE_SEED = 20260814


def _suite_prop32(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name in catalog_names():
        report = verify_prop32(catalog_group(name), cap=cap)
        if report.equal:
            detail = f"n1=n2=n3={report.value}"
        else:
            detail = (
                f"n1={report.n1.length} n2={report.n2.length} n3={report.n3}"
            )
        results.append((name, report.equal, detail))
    return results


def _suite_lemma34(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name in catalog_names():
        group = catalog_group(name)
        whole = n1(group, cap=cap).length
        checked = 0
        ok = True
        for sub in all_subgroups(group, cap=cap):
            if not is_retract(group, sub, cap=cap):
                continue
            part = n1(restrict_to_subgroup(group, sub), cap=cap).length
            checked += 1
            if sub.order == group.order:
                ok = ok and part == whole
            else:
                ok = ok and part < whole
        results.append((name, ok, f"retracts={checked} sl={whole}"))
    return results


def _suite_prop36_bridge(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name in catalog_names():
        factors = catalog_abelian_factors(name)
        if factors is None:
            continue
        closed_form = sl_abelian(from_cyclic_factors(0, factors))
        table_search = n1(catalog_group(name), cap=cap).length
        results.append(
            (
                name,
                closed_form == table_search,
                f"sl_abelian={closed_form} n1={table_search}",
            )
        )
    return results


def _random_zero_composition_complex(rng: random.Random) -> ChainComplex:
    """A random 2-complex whose boundary maps compose to zero: d2's columns
    are integer combinations of a kernel basis of d1 (columns of V past the
    rank in the Smith normal form)."""
    rows0 = rng.randint(1, 4)
    cols1 = rng.randint(1, 4)
    d1 = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(cols1)] for _ in range(rows0)],
        cols=cols1,
    )
    snf = smith_normal_form(d1)
    r = len(snf.diagonal)
    k = cols1 - r
    cols2 = rng.randint(1, 3)
    columns = []
    for _ in range(cols2):
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        columns.append(
            [
                sum(coeffs[t] * snf.V.entry(i, r + t) for t in range(k))
                for i in range(cols1)
            ]
        )
    d2 = IntMatrix.from_rows(
        [[columns[j][i] for j in range(cols2)] for i in range(cols1)],
        cols=cols2,
    )
    return ChainComplex(dim=2, boundary=(d1, d2), cells=(rows0, cols1, cols2))


def _euler_consistent(complex_: ChainComplex) -> tuple[bool, int]:
    chi_cells = euler_characteristic(complex_)
    profile = homology_of_complex(complex_)
    chi_ranks = sum(
        (-1) ** k * profile.group(k).free_rank for k in range(complex_.dim + 1)
    )
    return chi_cells == chi_ranks, chi_cells


def _suite_euler(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name, complex_ in EXAMPLE_COMPLEXES.items():
        ok, chi = _euler_consistent(complex_)
        results.append((name, ok, f"chi={chi}"))
    rng = random.Random(_SUITE_SEED)
    for index in range(20):
        complex_ = _random_zero_composition_complex(rng)
        ok, chi = _euler_consistent(complex_)
        results.append(
            (f"random-{index:02d}", ok, f"chi={chi} cells={complex_.cells}")
        )
    return results


def _snf_invariants_hold(m: IntMatrix) -> bool:
    """The dense Smith form is a valid factorisation, and the sparse
    elimination that homology runs finds the same diagonal."""
    snf = smith_normal_form(m)
    if snf.U @ m @ snf.V != snf.S:
        return False
    if invariant_factors(m) != snf.diagonal:
        return False
    if abs(determinant(snf.U)) != 1 or abs(determinant(snf.V)) != 1:
        return False
    if any(d <= 0 for d in snf.diagonal):
        return False
    return all(b % a == 0 for a, b in zip(snf.diagonal, snf.diagonal[1:]))


def _suite_snf(cap: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(_SUITE_SEED)
    results = []
    per_batch = 100
    for batch in range(10):
        ok = True
        for _ in range(per_batch):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            ok = ok and _snf_invariants_hold(m)
        lo, hi = batch * per_batch, (batch + 1) * per_batch - 1
        results.append((f"random-matrices[{lo}..{hi}]", ok, ""))
    return results


_SUITES = {
    "prop32": _suite_prop32,
    "lemma34": _suite_lemma34,
    "prop36-bridge": _suite_prop36_bridge,
    "euler": _suite_euler,
    "snf": _suite_snf,
}


def _cmd_verify(args) -> int:
    results = _SUITES[args.suite](args.cap)
    all_pass = all(ok for _, ok, _ in results)
    if args.format == "json":
        print(
            _dump(
                {
                    "suite": args.suite,
                    "results": [
                        {"item": item, "pass": ok, "detail": detail}
                        for item, ok, detail in results
                    ],
                    "all_pass": all_pass,
                }
            )
        )
    else:
        for item, ok, detail in results:
            status = "PASS" if ok else "FAIL"
            line = f"{item}: {status}"
            if detail:
                line += f" {detail}"
            print(line)
    return 0 if all_pass else 1


def _cmd_catalog(args) -> int:
    if args.format == "json":
        body = []
        for name in catalog_names():
            factors = catalog_abelian_factors(name)
            body.append(
                {
                    "name": name,
                    "order": catalog_group(name).order,
                    "abelian_factors": list(factors) if factors is not None else None,
                }
            )
        print(_dump(body))
    else:
        for name in catalog_names():
            factors = catalog_abelian_factors(name)
            if factors is None:
                shape = "nonabelian"
            elif factors == ():
                shape = "1"
            else:
                shape = "x".join(f"Z{f}" for f in factors)
            print(f"{name} order={catalog_group(name).order} {shape}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser run() uses, built on first use and then kept: building it
    costs about as much as a small request."""
    return build_parser()


def run(argv: "list[str] | None" = None) -> int:
    """Parse and execute one invocation; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except PolydepthError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
