"""Benchmark entry point.

    python3 bench/run.py --workload <closed-form|cli-sweep|oracle> --seed N --seconds S --trace 0|1

Times a fresh interpreter's set-up (``first_op.py``, seven times, each
against a bare interpreter start just before it), then runs the
workload in ``worker.py``.  Both run in child interpreters
started with ``-E -s`` and a fixed environment: no
``RINDLER_RESONANCE_TOL``, one BLAS/OpenMP thread, and a scratch
directory inside the checkout that is removed on exit.  The last line
of standard output is the JSON result; the lines before it describe the
run, its environment and, with ``--trace 1``, each per-layer metric
with the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "rindler_resonance"
SETUP_RUNS = 7
# setup_s counts set-up time in bare interpreter starts, converted to
# seconds at this fixed length of one start (see setup_seconds).
BARE_START_S = 0.05
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def clean_env(workdir: Path) -> dict:
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LC_ALL": "C", "HOME": str(workdir)}
    env["TMPDIR"] = str(workdir)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def child(args: list, env: dict, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-E", "-s", *args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(args[:2])} exited with {proc.returncode}")
    return proc


def wall_seconds(args: list, env: dict) -> float:
    t0 = time.perf_counter()
    child(args, env, 60)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int, workdir: Path, env: dict) -> tuple:
    """(setup_s, median wall time of a set-up, median wall time of a bare start).

    The host's speed swings by up to 2x over tens of seconds, and a
    set-up's wall time swings with it.  Each set-up is therefore divided
    by a bare interpreter start run just before it, which the swing
    slows alike; the median of these ratios, times BARE_START_S, is
    setup_s.  Work added to the import or the first operation raises the
    ratio; a slower host does not.
    """
    first_op = [str(HERE / "first_op.py"), workload, str(seed), str(workdir)]
    bare, walls = [], []
    for _ in range(SETUP_RUNS):
        bare.append(wall_seconds(["-c", "pass"], env))
        walls.append(wall_seconds(first_op, env))
    ratios = [w / b for w, b in zip(walls, bare)]
    return statistics.median(ratios) * BARE_START_S, statistics.median(walls), statistics.median(bare)


def environment(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        env = clean_env(workdir)
        metrics = {}
        lines = []
        if not args.trace:
            setup, wall, bare = setup_seconds(args.workload, args.seed, workdir, env)
            metrics["setup_s"] = {"value": setup, "unit": "s"}
            lines.append(f"setup_wall_s = {wall:.6g} s, bare_start_s = {bare:.6g} s (medians, unbounded)")
        worker_args = [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--workdir", str(workdir),
        ]
        proc = child([str(HERE / "worker.py"), *worker_args], env, 2 * args.seconds + 120)
        result = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics.update(result["metrics"])
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for line in lines + result["lines"]:
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": environment(args.seed, result["numpy"])}))
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
