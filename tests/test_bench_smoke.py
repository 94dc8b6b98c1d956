"""Smoke test of the benchmark: a one-second run of each BENCHMARK.json
workload is correct and reports every end-to-end metric it declares.
No timing bound."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0.0, metric["name"]
