"""Span tracing around polydepth's public functions, from outside the program.

``Tracer.install`` replaces each traced function at every polydepth module
attribute that holds it (so ``depth.homology`` and ``topology.homology`` are
both wrapped, and recursive calls are traced too) and each traced method on
its class.  Every call records a span ``[name, start, end, parent, request]``
in memory; counters are kept at the same boundaries.  ``uninstall`` puts the
originals back.

Per-layer time metrics are self times: a span's duration minus the time
its child spans cover, summed per layer and divided by the number of traced
requests.  Counters are divided the same way, except the largest entry
bit-length, which is a maximum.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, attribute path); a missing target is skipped and
# listed in Tracer.missing, so a renamed function reads as zero, not a crash.
TARGETS = {
    "cli.run": ("polydepth.cli", "run"),
    "topology.space_from_json": ("polydepth.topology", "space_from_json"),
    "topology.chain_complex": ("polydepth.topology", "ChainComplex.__init__"),
    "topology.homology": ("polydepth.topology", "homology"),
    "topology.homology_of_complex": ("polydepth.topology", "homology_of_complex"),
    "topology.cover": ("polydepth.topology", "universal_cover_homology"),
    "abelian.from_boundary_maps": ("polydepth.abelian", "from_boundary_maps"),
    "abelian.from_cyclic_factors": ("polydepth.abelian", "from_cyclic_factors"),
    "intlinalg.snf": ("polydepth.intlinalg", "smith_normal_form"),
    "intlinalg.matmul": ("polydepth.intlinalg", "IntMatrix.__matmul__"),
    "finitegroup.construct": ("polydepth.finitegroup", "FiniteGroup.__init__"),
    "finitegroup.lattice": ("polydepth.finitegroup", "all_subgroups"),
    "finitegroup.n1": ("polydepth.finitegroup", "n1"),
    "finitegroup.n2": ("polydepth.finitegroup", "n2"),
    # verify_prop32 calls n1 and n2 (traced) and runs n3's search inline, so
    # its self time is the n3 work
    "finitegroup.prop32": ("polydepth.finitegroup", "verify_prop32"),
    "pi1.from_json": ("polydepth.pi1", "pi1_from_json"),
    "catalog.group": ("polydepth.catalog", "catalog_group"),
    "depth.best_bound": ("polydepth.depth", "best_bound"),
    "depth.sl_of": ("polydepth.depth", "sl_of"),
    "depth.report_to_json": ("polydepth.depth", "report_to_json"),
}

# per-layer time metric -> the spans whose self time it sums
TIME_METRICS = {
    "cli.run_ms": ("cli.run",),
    "topology.chain_complex_ms": ("topology.chain_complex",),
    "topology.homology_of_complex_ms": ("topology.homology_of_complex",),
    "topology.homology_ms": ("topology.homology",),
    "topology.cover_ms": ("topology.cover",),
    "topology.space_from_json_ms": ("topology.space_from_json",),
    "abelian.from_boundary_maps_ms": ("abelian.from_boundary_maps",),
    "abelian.from_cyclic_factors_ms": ("abelian.from_cyclic_factors",),
    "intlinalg.snf_ms": ("intlinalg.snf",),
    "intlinalg.matmul_ms": ("intlinalg.matmul",),
    "finitegroup.construct_ms": ("finitegroup.construct",),
    "finitegroup.lattice_ms": ("finitegroup.lattice",),
    "finitegroup.n1_ms": ("finitegroup.n1",),
    "finitegroup.n2_ms": ("finitegroup.n2",),
    "finitegroup.n3_ms": ("finitegroup.prop32",),
    "pi1.from_json_ms": ("pi1.from_json",),
    "catalog.group_ms": ("catalog.group",),
    "depth.best_bound_ms": ("depth.best_bound",),
    "depth.sl_of_ms": ("depth.sl_of",),
    "depth.render_ms": ("depth.report_to_json",),
}

# per-layer count metrics, summed per traced request (snf_max_bits is a max)
COUNT_METRICS = {
    "cli.output_bytes": "bytes",
    "topology.profile_degrees": "count",
    "abelian.from_boundary_maps_calls": "count",
    "intlinalg.snf_calls": "count",
    "intlinalg.snf_input_cells": "count",
    "intlinalg.snf_nnz": "count",
    "intlinalg.snf_max_bits": "bits",
    "intlinalg.matmul_calls": "count",
    "finitegroup.subgroups": "count",
}


def _resolve(module: str, path: str):
    owner = sys.modules.get(module)
    if owner is None:
        return None, None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    return owner, attr


class Tracer:
    """Collects spans and counters for the requests it is told about.

    Spans live in memory for one request at a time: ``end_request`` folds
    them into per-name self times, which keeps a long traced run small.
    """

    def __init__(self):
        self.spent: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.requests = 0
        self.missing: list[str] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._seen: set = set()
        self._last_profile = None
        self._undo: list[tuple[object, str, object]] = []

    # --- requests ---------------------------------------------------------

    def begin_request(self) -> None:
        self.requests += 1
        self._spans.clear()
        self._seen = set()
        self._last_profile = None

    def end_request(self) -> None:
        """Fold this request's spans into self times: a span's duration minus
        the time its child spans cover."""
        spans = self._spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(spans):
            self.spent[name] += end - start - covered[index]
        spans.clear()

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] += value

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack, tracer = self._spans, self._stack, self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else -1, tracer.requests]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target of TARGETS that the loaded polydepth has."""
        self.missing = []
        hooks = {
            "intlinalg.snf": self._after_snf,
            "intlinalg.matmul": lambda args, result: self.add("intlinalg.matmul_calls", 1),
            "abelian.from_boundary_maps": lambda args, result: self.add(
                "abelian.from_boundary_maps_calls", 1
            ),
            "topology.homology": self._after_profile,
            "topology.cover": self._after_profile,
            "topology.homology_of_complex": self._after_complex,
            "finitegroup.lattice": self._after_lattice,
        }
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "polydepth"]
        for name, (module, path) in TARGETS.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- counters at span boundaries ---------------------------------------

    def _after_snf(self, args, result) -> None:
        m = args[0]
        entries = m.entries
        self.add("intlinalg.snf_calls", 1)
        self.add("intlinalg.snf_input_cells", len(entries))
        self.add("intlinalg.snf_nnz", sum(1 for x in entries if x))
        bits = max((abs(x).bit_length() for x in entries), default=0)
        self.counts["intlinalg.snf_max_bits"] = max(self.counts["intlinalg.snf_max_bits"], bits)
        if entries:
            self.add("snf_nonempty_calls", 1)

    def _after_profile(self, args, result) -> None:
        # a profile passed up unchanged through nested spans counts once
        if result is not self._last_profile:
            self._last_profile = result
            self.add("topology.profile_degrees", len(getattr(result, "groups", ())))

    def _after_complex(self, args, result) -> None:
        self._after_profile(args, result)
        complex_ = args[0]
        key = ("complex", id(complex_))
        if key not in self._seen:
            self._seen.add(key)
            self.add("boundary_maps", sum(1 for b in complex_.boundary if b.entries))

    def _after_lattice(self, args, result) -> None:
        key = ("group", id(args[0]))
        if key not in self._seen:
            self._seen.add(key)
            self.add("finitegroup.subgroups", len(result))

    # --- metrics --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the spans and counters, per traced
        request: (value, unit)."""
        per = max(self.requests, 1)
        out: dict[str, tuple[float, str]] = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = (1000.0 * sum(self.spent.get(n, 0.0) for n in names) / per, "ms")
        for metric, unit in COUNT_METRICS.items():
            value = self.counts.get(metric, 0.0)
            out[metric] = (value if metric.endswith("max_bits") else value / per, unit)
        maps = self.counts.get("boundary_maps", 0.0)
        ratio = self.counts.get("snf_nonempty_calls", 0.0) / maps if maps else 0.0
        out["intlinalg.snf_per_boundary"] = (ratio, "ratio")
        return out

    def export(self) -> dict:
        return {"spent": dict(self.spent), "counts": dict(self.counts)}

    def absorb(self, other: dict) -> None:
        """Fold in the self times and counters another tracer exported, for
        a request that ran in a child process."""
        for name, value in other["spent"].items():
            self.spent[name] += value
        for key, value in other["counts"].items():
            if key == "intlinalg.snf_max_bits":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
