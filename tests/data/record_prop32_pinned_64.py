"""Regenerate ``prop32_pinned_64.json`` from the checkout at ROOT.

Usage: ``python tests/data/record_prop32_pinned_64.py ROOT``

ROOT is a clean copy of the commit whose reports the pins should hold (for
example ``git archive COMMIT | tar -x -C ROOT``).  The groups and their
relabellings are ``ORDER_64`` in this checkout's ``tests/test_lattice.py``;
each report is ``verify_prop32(group, cap=64)`` computed by ROOT's
``polydepth``, written as ``test_lattice._report_to_json`` renders it
(lengths, witness and complement masks, and the n3 chain).  The file is
written next to this script.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent


def record(root: pathlib.Path) -> None:
    sys.path.insert(0, str(HERE.parent))
    sys.path.insert(0, str(root / "src"))
    import polydepth
    from polydepth.finitegroup import verify_prop32
    from test_lattice import ORDER_64, _report_to_json, relabelled

    if not pathlib.Path(polydepth.__file__).resolve().is_relative_to(root):
        sys.exit(f"polydepth resolves to {polydepth.__file__}, not inside {root}")
    pins = {
        name: _report_to_json(verify_prop32(relabelled(build(), seed), 64))
        for name, (build, seed) in ORDER_64.items()
    }
    (HERE / "prop32_pinned_64.json").write_text(
        json.dumps(pins, indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: record_prop32_pinned_64.py ROOT")
    record(pathlib.Path(sys.argv[1]).resolve())
