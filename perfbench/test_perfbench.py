"""Self-test of the benchmark: every workload at tiny size, the reference
checks, the generators, and the refusals.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import plan as plans  # noqa: E402
import reference as ref  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_every_workload_emits_every_metric(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert info["untraced_spans"] == []
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "groups":
            assert layers["intlinalg.snf_calls"] == 0
        if workload == "complexes":
            assert layers["intlinalg.snf_per_boundary"] == 2.0
            assert all(v == 0 for k, v in layers.items() if k.startswith("finitegroup."))
    else:
        assert result["metrics"]["success_ratio"]["value"] == 1.0
        assert info["polydepth_file"] == str(ROOT / "src" / "polydepth" / "__init__.py")


def corrupt(req: dict) -> dict:
    """The same request with one expected value made wrong."""
    bad = json.loads(json.dumps(req))
    expected = bad["ref"]
    if req["check"] == "profile":
        expected["ranks"]["0"] = expected["ranks"].get("0", 0) + 1
    elif req["check"] in ("sl", "prop32"):
        expected["sl"] += 1
    else:
        expected["bound"] += 1
    return bad


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_corrupted_expected_value_is_caught(workload):
    import worker

    workdir = ROOT / ".perfbench_work" / f"selftest-{workload}"
    try:
        plan = plans.build(workload, 7, 1.0, workdir, ROOT, tiny=True)
        plan["workdir"] = str(workdir.relative_to(ROOT))
        client = worker.Client(plan, ROOT, worker.load_inputs(plan, ROOT), None)
        client.env["PYTHONPATH"] = str(ROOT / "src")
        kinds = {}
        for req in plan["rounds"][0]:
            kinds.setdefault((req["op"], req["check"]), req)
        for req in kinds.values():
            _, answer = client.execute(req, traced=False)
            assert client.check(req, answer) is None, req
            assert client.check(corrupt(req), answer) is not None, req
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_checks_ignore_fields_the_reference_does_not_define():
    body = {"rule": "Cor-simply", "bound": 3, "evidence": {"chain": ["G", "1"]}}
    assert ref.check_fields(body, {"bound": 3, "rule": "Cor-simply"}) is None
    assert ref.check_fields(body, {"bound": 3, "exact_depth": 3}) is not None


def test_guard_refuses_a_polydepth_outside_the_checkout(tmp_path):
    import worker

    with pytest.raises(SystemExit) as exc:
        worker.guard(tmp_path)
    assert "refusing" in str(exc.value.code)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "groups", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("kind", ["torus", "klein"])
def test_surface_generators_keep_d_squared_zero(kind):
    rng = random.Random(1)
    maps = gen.surface_complex(kind, 4)
    assert [len(maps[0]), len(maps[1]), len(maps[1][0])] == [16, 48, 32]
    gen.shuffle_cells(rng, maps)
    gen.scramble_basis(rng, maps, 200)
    assert all(x == 0 for row in matmul(maps[0], maps[1]) for x in row)
    assert max(abs(x) for m in maps for row in m for x in row) > 1


def test_relabel_keeps_the_identity_at_zero():
    table = gen.relabel(random.Random(2), gen.dihedral(4))
    assert table[0] == list(range(8))
    assert [row[0] for row in table] == list(range(8))


def test_closed_forms():
    assert ref.poincare([1, 2]) == [1, 1, 1, 1]
    assert ref.primary_count([2, 6, 12]) == 5
    assert ref.group_sl("Z2xZ6") == 3 and ref.group_sl("Q8") == 1
    assert ref.sphere_product_bound([1, 1, 3]) == {"bound": 3, "rule": "Cor-abelian"}
    assert ref.sphere_wedge_bound([1, 2, 2])["bound"] == 3
