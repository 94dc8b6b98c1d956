"""Smoke test of the benchmark: a one-second cli-sweep run is correct and
reports every end-to-end metric BENCHMARK.json declares.  No timing bound."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_cli_sweep_bench_runs_clean():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        assert result["metrics"][metric["name"]]["value"] > 0.0, metric["name"]
