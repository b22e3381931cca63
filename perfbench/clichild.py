"""A traced cold CLI call: the same work as ``python -m polydepth.cli ARGS``,
with the interpreter's start, the ``import polydepth`` and the spans of the
call recorded to RECORD_FILE as JSON.

Usage: python clichild.py RECORD_FILE ARGS...
"""

import time

T_FIRST = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import polydepth  # noqa: E402

T_IMPORTED = time.perf_counter()

import polydepth.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_request()
    try:
        code = polydepth.cli.run(argv)
        sys.stdout.flush()
    finally:
        tracer.end_request()
        tracer.uninstall()
        body = {"first": T_FIRST, "imported": T_IMPORTED, "trace": tracer.export()}
        with open(record, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
