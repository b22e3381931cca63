"""The benchmark's client: one fresh interpreter that imports polydepth, loads
a plan's inputs, and then sends the plan's requests one at a time.

Protocol on stdout: one "ready" JSON line once the first request could be
sent, then (after "go" arrives on stdin) one JSON line with the run's
samples.  Any other line on stdin ends the process after set-up, which is
how the parent measures set-up alone.

Usage: python worker.py PLAN_FILE ROOT SECONDS TRACE
"""

import time

T_FIRST = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import polydepth  # noqa: E402

T_IMPORTED = time.perf_counter()

import polydepth.cli  # noqa: E402

import reference as ref  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent


def guard(root: Path) -> str:
    """Refuse to measure a polydepth other than the one in root/src."""
    found = Path(polydepth.__file__).resolve()
    expected = (root / "src" / "polydepth").resolve()
    if found.parent != expected:
        sys.exit(f"polydepth resolves to {found}, not to {expected}; refusing to measure it")
    return str(found)


def load_inputs(plan: dict, root: Path) -> dict:
    """Read every input file a request will parse: Cayley-table text and
    space JSON.  The CLI requests read their own files."""
    inputs = {}
    for rnd in plan["rounds"]:
        for req in rnd:
            path = req.get("input")
            if path is None or path in inputs:
                continue
            text = (root / path).read_text(encoding="utf-8")
            inputs[path] = json.loads(text) if path.endswith(".json") else text
    return inputs


class Client:
    """Sends requests and checks answers; keeps what the run reports."""

    def __init__(self, plan: dict, root: Path, inputs: dict, tracer: "Tracer | None"):
        self.plan = plan
        self.root = root
        self.inputs = inputs
        self.tracer = tracer
        self.env = dict(os.environ)
        self.child_rss_kb = 0
        self.interp: list[float] = []
        self.imports: list[float] = []

    # --- one request -------------------------------------------------------

    def execute(self, req: dict, traced: bool):
        """Run one request; returns (seconds, answer).  The answer is whatever
        the check needs; only the request itself is timed."""
        op = req["op"]
        if op == "cli":
            return self._cli_process(req["argv"], traced)
        cap = self.plan["cap"]
        data = self.inputs.get(req.get("input"))
        clock = time.perf_counter
        if op == "cli-inproc":
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = polydepth.cli.run(req["argv"])
            seconds = clock() - t0
            text = out.getvalue()
            if traced:
                self.tracer.add("cli.output_bytes", len(text.encode()))
            return seconds, (code, text)
        # calls go through the package attributes, where a tracer wraps them
        pd = polydepth
        t0 = clock()
        if op == "group-sl":
            answer = pd.sl_of(pd.Finite(pd.parse_cayley_table(data)), cap=cap)
        elif op == "group-prop32":
            answer = pd.verify_prop32(pd.parse_cayley_table(data), cap=cap)
        elif op == "complex-homology":
            answer = pd.homology(pd.space_from_json(data))
        elif op == "complex-bound":
            answer = pd.best_bound(pd.space_from_json(data))
        else:
            raise ValueError(f"unknown request op {op!r}")
        return clock() - t0, answer

    def _cli_process(self, argv: list[str], traced: bool):
        record = None
        if traced:
            record = self.root / self.plan["workdir"] / "child.json"
            cmd = [sys.executable, str(HERE / "clichild.py"), str(record), *argv]
        else:
            cmd = [sys.executable, "-m", "polydepth.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            out = proc.stdout.read()
            proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        if record is None:
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        else:
            child = json.loads(record.read_text(encoding="utf-8"))
            self.interp.append(child["first"] - t0)
            self.imports.append(child["imported"] - child["first"])
            self.tracer.absorb(child["trace"])
            self.tracer.add("cli.output_bytes", len(out))
        return seconds, (proc.returncode, out.decode())

    # --- checks --------------------------------------------------------------

    @staticmethod
    def check(req: dict, answer) -> "str | None":
        kind, expected = req["check"], req["ref"]
        if req["op"] in ("cli", "cli-inproc"):
            code, text = answer
            if code != 0:
                return f"exit code {code}"
            try:
                body = json.loads(text)
            except ValueError:
                return "output is not JSON"
            if kind == "profile":
                return ref.check_profile_json(body, expected)
            if kind == "sl":
                return ref.check_sl_json(body, expected)
            return ref.check_fields(body, expected)
        if kind == "sl":
            return ref.check_fields({"sl": answer}, expected)
        if kind == "prop32":
            lengths = {"n1": answer.n1.length, "n2": answer.n2.length, "n3": answer.n3}
            return ref.check_fields(lengths, {k: expected["sl"] for k in lengths})
        if kind == "profile":
            def group_of(k):
                group = answer.group(k)
                return group.free_rank, group.torsion

            return ref.check_profile_groups(group_of, answer.dim, expected)
        body = {
            "bound": getattr(answer, "bound", None),
            "rule": getattr(answer, "applied_rule", None),
            "exact_depth": getattr(answer, "exact_depth", None),
        }
        return ref.check_fields(body, expected)

    # --- the closed loop -------------------------------------------------------

    def run(self, seconds: float) -> dict:
        """Send whole rounds, one request at a time, until the next round
        would end past `seconds` and the plan's fewest rounds are sent.
        Each untraced request is timed between units of calibration work,
        and its latency is kept both raw and scaled to the reference host
        (see speed.py).  With a tracer, every request runs twice, untraced
        and traced in alternating order, and only the traced run feeds the
        per-layer numbers."""
        rounds = self.plan["rounds"]
        gauge = speed.Gauge(self.plan["unit"])
        latencies: list[float] = []
        raw_latencies: list[float] = []
        spent = {False: 0.0, True: 0.0}
        failures: list[str] = []
        attempted = 0
        start = time.perf_counter()
        done = 0
        while True:
            for index, req in enumerate(rounds[done % len(rounds)]):
                passes = [False]
                if self.tracer is not None:
                    passes = [False, True] if index % 2 == 0 else [True, False]
                for traced in passes:
                    attempted += 1
                    gc.collect()  # no garbage left over from the previous request
                    if traced:
                        gauge.forget()
                        self.tracer.install()
                        self.tracer.begin_request()
                    else:
                        gauge.before()
                    try:
                        seconds_taken, answer = self.execute(req, traced)
                        reason = None
                    except Exception as err:  # a crash is a failed request
                        seconds_taken, answer, reason = 0.0, None, f"{type(err).__name__}: {err}"
                    finally:
                        if traced:
                            self.tracer.end_request()
                            self.tracer.uninstall()
                    if reason is None:
                        reason = self.check(req, answer)
                    if reason is not None:
                        gauge.forget()
                        failures.append(f"{req.get('name') or req.get('argv')}: {reason}")
                        continue
                    spent[traced] += seconds_taken
                    if not traced:
                        raw_latencies.append(seconds_taken)
                        latencies.append(gauge.after(seconds_taken))
            done += 1
            elapsed = time.perf_counter() - start
            if done >= self.plan["min_rounds"] and elapsed + elapsed / done / 2 >= seconds:
                break
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {
            "latencies": latencies,
            "raw_latencies": raw_latencies,
            "slowdown": gauge.slowdown(),
            "attempted": attempted,
            "failures": failures,
            "rounds": done,
            "elapsed": elapsed,
            "peak_rss_kb": self.child_rss_kb or own_rss,
            "interp": self.interp,
            "import": self.imports,
        }
        if self.tracer is not None:
            result["layers"] = self.tracer.layer_metrics()
            result["missing"] = self.tracer.missing
            result["overhead_ratio"] = spent[False] / spent[True] if spent[True] else 0.0
        return result


def main() -> None:
    plan_file, root, seconds, trace = sys.argv[1:5]
    root = Path(root)
    found = guard(root)
    plan = json.loads(Path(plan_file).read_text(encoding="utf-8"))
    inputs = load_inputs(plan, root)
    t_loaded = time.perf_counter()
    # the inputs live for the whole run; keep them out of every collection
    gc.freeze()
    ready = {"first": T_FIRST, "imported": T_IMPORTED, "loaded": t_loaded, "polydepth_file": found}
    print(json.dumps(ready), flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    client = Client(plan, root, inputs, Tracer() if trace == "1" else None)
    print(json.dumps(client.run(float(seconds))), flush=True)


if __name__ == "__main__":
    main()
