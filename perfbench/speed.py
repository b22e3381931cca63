"""Host-speed calibration for the benchmark's timings.

Small shared hosts run this benchmark's single thread next to other tenants'
work, and its speed drifts by up to 2x for tens of seconds at a time: the
same loop reads 13 ms in one stretch and 20 ms in the next, with no steal
time recorded.  Such a drift moves every timing of a run alike, so the
benchmark brackets each timed interval by a fixed unit of work and scales
the interval by the unit's speed at that moment:

    scaled = raw * nominal / mean(unit before, unit after)

A scaled time reads as the time the interval would take on a host where the
unit takes its nominal time, about what it takes on an idle 2-vCPU cloud VM.
Two units, because the drift slows them differently:

* "interp", a pure-Python integer loop plus a pure-Python JSON encoding,
  for requests served in process (the loop alone tracks the groups and
  complexes requests but not the rendering that expression requests spend
  most of their time in; the two together track all three);
* "spawn", starting and ending a bare interpreter (``python -c pass``), for
  anything that starts a fresh interpreter: cold CLI calls and set-up.

Neither unit runs polydepth, so no change to the program can move it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

# one interp unit: an integer loop of this many steps, then the standard
# library's pure-Python JSON encoder (the path json.dumps takes with
# indent) over a profile-like list of this many degrees
LOOP_STEPS = 20_000
ENCODE_DEGREES = 320
_ENCODED = [{"degree": k, "rank": k % 3, "torsion": [2] * (k % 2)} for k in range(ENCODE_DEGREES)]


def _best_of_3(work) -> float:
    best = float("inf")
    clock = time.perf_counter
    for _ in range(3):
        t0 = clock()
        work()
        best = min(best, clock() - t0)
    return best


def _loop() -> None:
    acc = 0
    for i in range(LOOP_STEPS):
        acc += i * i % 7


def _encode() -> None:
    json.dumps(_ENCODED, indent=2)


def interp_seconds() -> float:
    """Seconds one interp unit takes right now.  Each half is timed best of
    3, so that an interrupt during one run does not skew the scale."""
    return _best_of_3(_loop) + _best_of_3(_encode)


def spawn_seconds() -> float:
    """Seconds a bare interpreter takes to start and exit right now (best of 2)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, stdin=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - t0)
    return best


# unit name -> (how to measure it, its seconds on the reference host)
UNITS = {"interp": (interp_seconds, 0.0024), "spawn": (spawn_seconds, 0.040)}


class Gauge:
    """Scales consecutive timings by the unit measured between them: the
    unit after one interval is the unit before the next."""

    def __init__(self, unit: str):
        self.measure, self.nominal = UNITS[unit]
        self.last: "float | None" = None
        self.units: list[float] = []

    def before(self) -> None:
        """Call right before a timed interval."""
        if self.last is None:
            self.last = self.measure()
            self.units.append(self.last)

    def after(self, raw: float) -> float:
        """Call right after the interval that took `raw` seconds; returns it
        scaled to the reference host."""
        after = self.measure()
        self.units.append(after)
        scaled = raw * self.nominal / ((self.last + after) / 2.0)
        self.last = after
        return scaled

    def slowdown(self) -> float:
        """How much slower than the reference host the units ran (median)."""
        ordered = sorted(self.units)
        return ordered[len(ordered) // 2] / self.nominal if ordered else 0.0

    def forget(self) -> None:
        """Other work ran since the last unit; measure a fresh one next."""
        self.last = None
