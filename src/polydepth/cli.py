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
exceeded; ``bound`` still prints a structured report), 64 usage error,
141 (128 + SIGPIPE) when stdout was closed by its reader, with nothing
printed: a closed stdout is not malformed input.  ``run`` returns 141 when
a write fails so; ``main`` flushes stdout, and after a broken pipe points
it at ``os.devnull``, so that Python's flush at exit does not fail again
(the SIGPIPE note in the docs of the ``signal`` module).  Only ``main``
redirects: an in-process caller's stdout is left as it is.

Output is byte-deterministic: the same invocation always prints the
same bytes.

This module only parses arguments and prints results: each refusal is
made by the module that owns the rule, a space above the dimension cap by
the space reader, ``topology.space_from_json``.  Each command imports the
modules it runs.  Run as a program (``python -m polydepth.cli``, or the
installed ``polydepth``, which runs it the same way), it loads no
polydepth module at start-up but ``errors``, so that a cold
``sl --catalog`` never loads ``topology`` or ``depth``, ``homology``
on a space without a finite group never loads ``depth``, ``catalog`` or
``finitegroup``, and ``homology`` or ``bound`` on a space with no explicit
complex, such as a wedge or product of spheres, never loads ``intlinalg``
(``topology`` imports it only where a complex is built, read, checked or
reduced).  Imported as ``polydepth.cli`` by a program that calls ``run``
in-process, it loads every command module at import instead: a long-lived caller loads them once, while it sets up,
and no call loads a module.  A command imports a module, not names
(``from . import depth``, then ``depth.best_bound``): on Python 3.11
``from .depth import best_bound`` in a function costs twice as much a
call, since it first looks for ``depth.__path__``.

The rule names and what each one runs come from ``polydepth.depth``
(``RULES``, ``forced_bound``), and the verify suites from
``polydepth.suites`` (``SUITES``); ``--rule`` and the suite argument,
whose choices those modules own, are added when their subcommand first
parses.
"""

from __future__ import annotations

# Imported rather than run: load every command module now (see above).
# Before argparse, whose objects would otherwise sit in the heap while these
# modules compile: with no bytecode cache that costs about 0.5 MB of peak RSS.
if __name__ != "__main__":
    from . import catalog, depth, finitegroup, pi1, suites, topology  # noqa: F401

import argparse
import functools
import json
import os
import sys

from .errors import DEFAULT_SEARCH_CAP, PolydepthError

# what argparse picks for an 80-column terminal
_HELP_WIDTH = 78
# the exit code of a shell command killed by SIGPIPE
_BROKEN_PIPE = 128 + 13


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 64 instead of 2, and whose
    help and usage text is wrapped at a fixed width instead of the terminal's,
    so that it does not depend on ``COLUMNS``.

    ``late(parser)``, when given, runs once, just before the parser first
    parses: it adds the arguments whose choices come from a module that
    only this subcommand loads."""

    def __init__(self, *args, late=None, **kwargs):
        kwargs.setdefault(
            "formatter_class", functools.partial(argparse.HelpFormatter, width=_HELP_WIDTH)
        )
        super().__init__(*args, **kwargs)
        self._late = late

    def parse_known_args(self, args=None, namespace=None):
        late, self._late = self._late, None
        if late is not None:
            late(self)
        return super().parse_known_args(args, namespace)

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


def _add_rule(parser: argparse.ArgumentParser) -> None:
    from . import depth

    parser.add_argument(
        "--rule",
        choices=sorted(depth.RULES),
        help="force this rule instead of taking the best applicable bound",
    )


def _add_suite(parser: argparse.ArgumentParser) -> None:
    from . import suites

    parser.add_argument("suite", choices=tuple(suites.SUITES), help="which suite to run")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polydepth",
        description="Depth bounds for finite polyhedra and splitting "
        "lengths of groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_bound = sub.add_parser(
        "bound",
        help="depth bound report for a space-expression JSON file",
        late=_add_rule,
    )
    p_bound.add_argument("space", help="path to a space-expression JSON file")
    _add_format(p_bound)
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
        "verify",
        help="run a self-check suite; exits 1 if any check fails",
        late=_add_suite,
    )
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


def _cmd_bound(args) -> int:
    from . import depth, topology

    space = _load_json(args.space, topology.space_from_json)
    if args.rule is None:
        report = depth.best_bound(space)
    else:
        report = depth.forced_bound(space, args.rule)
    if args.format == "json":
        chunks = depth.report_json_chunks(report)
    else:
        chunks = depth._report_text_chunks(report)
    # written piece by piece, like a profile
    sys.stdout.writelines(chunks)
    sys.stdout.write("\n")
    return 2 if isinstance(report, depth.NoBoundApplicable) else 0


def _cmd_homology(args) -> int:
    from . import topology

    space = _load_json(args.space, topology.space_from_json)
    if args.universal_cover:
        profile = topology.universal_cover_homology(space)
    else:
        profile = topology.homology(space)
    if args.format == "json":
        chunks = topology.profile_json_chunks(profile)
    else:
        chunks = topology._profile_text_chunks(profile)
    # written piece by piece: the text of a high-dimensional profile is
    # never held whole
    sys.stdout.writelines(chunks)
    sys.stdout.write("\n")
    return 0


def _cmd_sl(args) -> int:
    from . import pi1

    if args.catalog is not None:
        from . import catalog

        descriptor = pi1.Finite(catalog.catalog_group(args.catalog))
    elif args.table is not None:
        from . import finitegroup

        with open(args.table, encoding="utf-8") as fh:
            table = finitegroup.parse_cayley_table(fh.read(), cap=args.cap)
        descriptor = pi1.Finite(table)
    else:
        descriptor = _load_json(
            args.descriptor, lambda obj: pi1.pi1_from_json(obj, cap=args.cap)
        )
    if isinstance(descriptor, pi1.Finite):
        from . import finitegroup

        series = finitegroup.n1(descriptor.group, cap=args.cap)
        value = series.length
        witness = finitegroup.render_series(descriptor.group, series)
    else:
        from . import depth

        value, witness = depth.sl_of(descriptor, cap=args.cap), None
    if args.format == "json":
        body: dict = {"group": pi1.render_pi1(descriptor), "sl": value}
        if witness is not None:
            body["witness"] = witness
        print(json.dumps(body, indent=2))
    else:
        line = f"sl={value}"
        if witness is not None:
            line += f" witness={witness}"
        print(line)
    return 0


def _cmd_verify(args) -> int:
    from . import suites

    results = suites.SUITES[args.suite](args.cap)
    all_pass = all(ok for _, ok, _ in results)
    if args.format == "json":
        body = {
            "suite": args.suite,
            "results": [
                {"item": item, "pass": ok, "detail": detail}
                for item, ok, detail in results
            ],
            "all_pass": all_pass,
        }
        print(json.dumps(body, indent=2))
    else:
        for item, ok, detail in results:
            status = "PASS" if ok else "FAIL"
            line = f"{item}: {status}"
            if detail:
                line += f" {detail}"
            print(line)
    return 0 if all_pass else 1


def _cmd_catalog(args) -> int:
    from . import catalog

    rows = [
        (name, catalog.catalog_group(name).order, catalog.catalog_abelian_factors(name))
        for name in catalog.catalog_names()
    ]
    if args.format == "json":
        print(json.dumps([
            {"name": name, "order": order,
             "abelian_factors": list(factors) if factors is not None else None}
            for name, order, factors in rows
        ], indent=2))
    else:
        for name, order, factors in rows:
            shape = "nonabelian" if factors is None else "x".join(f"Z{f}" for f in factors) or "1"
            print(f"{name} order={order} {shape}")
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
    except BrokenPipeError:
        return _BROKEN_PIPE
    except (ValueError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _BROKEN_PIPE
    if code == _BROKEN_PIPE:
        # what is still buffered would fail again in the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
