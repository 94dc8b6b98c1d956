"""One workload's first operation in a fresh interpreter.

``run.py`` times this whole process to get ``setup_s``: interpreter
start, importing ``rindler_resonance`` from ``src/``, and the first
operation.  The ``calibration`` mode instead prints the first and a warm
EM oracle call on one point, in ms, for ``oracle.em_calibration_ms``.

    python3 -E -s bench/first_op.py <closed-form|cli-sweep|oracle|calibration> <seed> <workdir>
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import rindler_resonance as rr  # noqa: E402

import inputs  # noqa: E402
from scenarios import oracle_scenario, point_energy, point_scenario  # noqa: E402


def main(mode: str, seed: int, workdir: Path) -> None:
    if not Path(rr.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported {rr.__file__}, not the package under {SRC}")
    if mode == "closed-form":
        print(point_energy(point_scenario(inputs.closed_form_point(seed, 0))).reduced)
    elif mode == "cli-sweep":
        from rindler_resonance import cli

        argv = inputs.cli_sweep(seed, 0).compute_argv(str(workdir / "first-compute.txt"))
        if cli.main(argv) != 0:
            sys.exit(f"error: compute exited non-zero for {argv}")
    elif mode == "oracle":
        print(rr.em_energy_pv_oracle(oracle_scenario(inputs.CALIBRATION_OP)))
    elif mode == "calibration":
        scenario = oracle_scenario(inputs.CALIBRATION_OP)
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            rr.em_energy_pv_oracle(scenario)
            times.append((time.perf_counter() - t0) * 1e3)
        print(json.dumps(times))
    else:
        sys.exit(f"error: unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
