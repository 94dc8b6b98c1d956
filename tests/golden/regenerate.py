"""Regenerate the golden CLI transcripts.

Run from anywhere:

    python3 tests/golden/regenerate.py

Each case invokes the command line in a fresh subprocess and stores its
stdout byte for byte.  The script prints ``unchanged`` or ``changed``
for each case and rewrites only the changed files, so a golden change
names itself.  The test suite replays the same commands and compares
against the stored files, so regenerate only after a deliberate output
change and review the diff.
"""

import os
import pathlib
import subprocess
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
SRC = GOLDEN_DIR.parent.parent / "src"

# (name, argv, expected exit code)
CASES = [
    (
        "compute_scalar_text",
        [
            "compute", "--field", "scalar", "--parity", "anti",
            "--accel", "0", "--sep", "1.0", "--omega0", "299792458",
        ],
        0,
    ),
    (
        "compute_em_static_csv",
        [
            "compute", "--field", "em", "--parity", "sym",
            "--sep", "0.5", "--omega0", "0",
            "--dipole-a", "z", "--dipole-b", "z", "--format", "csv",
        ],
        0,
    ),
    (
        "sweep_sep_log",
        [
            "sweep", "--field", "scalar", "--parity", "sym",
            "--param", "sep", "--from", "0.1", "--to", "100", "--points", "4",
            "--spacing", "log", "--accel", "1e17", "--omega0", "299792458",
        ],
        0,
    ),
    (
        "regimes_summary",
        ["regimes", "--accel", "1e20", "--omega0", "1e15", "--sep", "0.01"],
        0,
    ),
    (
        "verify_asymptotes",
        ["verify", "--suite", "asymptotes"],
        0,
    ),
    (
        "verify_em_commutator",
        ["verify", "--suite", "em-commutator"],
        0,
    ),
]


def run_case(argv, extra_env=None):
    """Run one CLI invocation of this checkout's package; returns (stdout_bytes, exit_code).

    Warnings are errors in the child, as in the in-process tests.
    """
    env = {k: v for k, v in os.environ.items() if k != "RINDLER_RESONANCE_TOL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rindler_resonance.cli", *argv],
        capture_output=True,
        env=env,
    )
    return proc.stdout, proc.returncode


def main() -> int:
    for name, argv, expected_exit in CASES:
        stdout, code = run_case(argv)
        if code != expected_exit:
            print(f"{name}: exit {code}, expected {expected_exit}; not writing")
            return 1
        path = GOLDEN_DIR / f"{name}.txt"
        if path.is_file() and path.read_bytes() == stdout:
            print(f"{name}: unchanged")
            continue
        path.write_bytes(stdout)
        print(f"{name}: changed, wrote {path} ({len(stdout)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
