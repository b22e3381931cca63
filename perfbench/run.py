"""polydepth benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark measures the polydepth in
that checkout's ``src/`` and refuses to run if ``import polydepth`` finds
another copy.  It writes the seeded inputs under ``.perfbench_work/``,
starts a fresh client interpreter several times to time set-up (import plus
loading the inputs), and lets the last one send whole rounds of requests,
one at a time, for about S seconds, checking every answer against a
reference that does not come from polydepth (see ``reference.py``).
Every timing sits between two units of calibration work and is reported
scaled to a reference host speed (see ``speed.py``); the raw medians are in
the info line.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (see ``END_TO_END``); with ``--trace 1`` each
request also runs once under span tracing and the metrics are per layer.
The line before it holds the run's context: the polydepth file measured,
Python version, CPU count and model, sample counts, and the percentile that
``req_p90_ms`` stands for.

Workloads: cli-cold, groups, complexes, expressions (see ``plan.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plan as plans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# fresh interpreters started per run to time set-up; the median is reported
SETUP_SPAWNS = 9
# a run must end within this many seconds of starting
DEADLINE = 170.0

END_TO_END = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "req_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The run cannot produce a result."""


def tail_quantile(n: int) -> float:
    """The highest quantile, up to 0.9, with at least 10 samples beyond it."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n)) if n else 0.5


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Worker:
    """One client interpreter (worker.py) and the pipe protocol to it."""

    def __init__(self, args: list[str], env: dict, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def ready(self) -> dict:
        """Wait for the ready line; returns it with the parent-side time from
        spawn to ready."""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(0.0, self.deadline - time.perf_counter())):
                raise RunError("client set-up timed out")
        line = self.proc.stdout.readline()
        setup = time.perf_counter() - self.started
        if not line:
            raise RunError(f"client exited during set-up with code {self.proc.wait()}")
        body = json.loads(line)
        body["setup"] = setup
        body["interp"] = body["first"] - self.started
        body["import"] = body["imported"] - body["first"]
        return body

    def finish(self, command: str) -> "dict | None":
        remaining = max(1.0, self.deadline - time.perf_counter())
        out, _ = self.proc.communicate(f"{command}\n".encode(), timeout=remaining)
        if self.proc.returncode != 0:
            raise RunError(f"client exited with code {self.proc.returncode}")
        return json.loads(out.splitlines()[-1]) if command == "go" else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "polydepth" / "__init__.py").is_file():
        raise RunError(f"no polydepth sources under {ROOT / 'src'}")
    deadline = time.perf_counter() + DEADLINE
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        plan = plans.build(workload, seed, seconds, workdir, ROOT, tiny)
        plan["workdir"] = str(workdir.relative_to(ROOT))
        plan_file = workdir / "plan.json"
        plan_file.write_text(json.dumps(plan), encoding="utf-8")
        args = [str(plan_file), str(ROOT), str(seconds), "1" if trace else "0"]
        setups = []
        spawns = 1 if tiny else SETUP_SPAWNS
        gauge = speed.Gauge("spawn")
        for attempt in range(spawns):
            gauge.before()
            worker = Worker(args, env, deadline)
            try:
                setups.append(worker.ready())
                setups[-1]["scaled"] = gauge.after(setups[-1]["setup"])
                result = worker.finish("go" if attempt == spawns - 1 else "stop")
            finally:
                worker.kill()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    latencies = result["latencies"]
    n = len(latencies)
    q = tail_quantile(n)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "polydepth_file": setups[-1]["polydepth_file"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "setup_samples": len(setups),
        "latency_samples": n,
        "req_p90_quantile": round(q, 4),
        "rounds": result["rounds"],
        "elapsed_s": round(result["elapsed"], 3),
        "failures": result["failures"][:5],
    }
    # how much slower than the reference host the calibration units ran
    info["host_slowdown"] = {"setup": round(gauge.slowdown(), 3), "requests": round(result["slowdown"], 3)}
    attempted = result["attempted"]
    failed = len(result["failures"])
    if trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
        interp = result["interp"] or [s["interp"] for s in setups]
        imports = result["import"] or [s["import"] for s in setups]
        metrics["cli.interp_s"] = {"value": statistics.median(interp), "unit": "s"}
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": result["overhead_ratio"], "unit": "ratio"}
        info["untraced_spans"] = result["missing"]
        if latencies:
            info["untraced_p50_ms"] = 1000.0 * statistics.median(latencies)
    else:
        if not latencies:
            raise RunError("no request succeeded")
        info["raw_setup_s"] = statistics.median(s["setup"] for s in setups)
        info["raw_p50_ms"] = 1000.0 * statistics.median(result["raw_latencies"])
        values = {
            "setup_s": statistics.median(s["scaled"] for s in setups),
            "req_p50_ms": 1000.0 * statistics.median(latencies),
            "req_p90_ms": 1000.0 * quantile(latencies, q),
            "req_per_s": n / sum(latencies),
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, line


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest inputs and one set-up; for the self-test"
    )
    args = parser.parse_args(argv)
    try:
        info, line = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (RunError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
