"""Smoke test of the benchmark: a one-second run of each BENCHMARK.json
workload is correct and reports every end-to-end metric it declares,
and a traced run reports every per-layer metric as a finite number.
No timing bound."""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _refuse(constant):
    raise ValueError(f"result holds {constant}, which is not strict JSON")


def _run(workload: str, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_runs_clean(workload):
    metrics = _run(workload, "0")
    for metric in BENCHMARK["end_to_end"]:
        assert metrics[metric["name"]]["value"] > 0.0, metric["name"]


def test_traced_run_reports_every_layer():
    metrics = _run("closed-form", "1")
    for metric in BENCHMARK["per_layer"]:
        assert math.isfinite(metrics[metric["name"]]["value"]), metric["name"]
