"""Smoke test for the benchmark: every workload at its smallest size.

Checks the result's shape against BENCHMARK.json and that no op failed.
Never gates on timings.  Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "42", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stdout
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values()), values
    if trace:
        assert values["error_rate"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_missing_hook_reports_null(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from maslovflow import errors, flow, maslov, odebvp
    from tracer import Tracer

    monkeypatch.delattr(odebvp._ShootingSystem, "propagate")
    tracer = Tracer({"odebvp": odebvp, "flow": flow, "maslov": maslov, "errors": errors})
    tracer.install()
    tracer.remove()
    assert tracer.unattached == ["odebvp._ShootingSystem.propagate"]
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["odebvp.propagate.self_s"] is None
    assert metrics["odebvp.build.calls"] == 0
