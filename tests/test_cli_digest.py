"""One digest over about 300 ``compute`` and ``sweep`` runs of ``cli.main``.

Each run's stdout, stderr and exit code, and for one run in ten the
bytes it wrote with ``--out`` over a longer file, go into a sha256
that was recorded before the row path last changed.  Any byte of
output that moves, in any row, any regime or any error text, changes
the digest.

After a deliberate output change, re-record it: run

    python3 tests/test_cli_digest.py

from the repository root, review the changed output (the golden
transcripts in ``tests/golden`` show typical rows), and paste the
printed digest into ``EXPECTED_DIGEST``.  With ``--dump PATH`` the
script also writes every run's argv, exit code, stdout, stderr and
``--out`` text to PATH as a JSON list, so that two checkouts' outputs can be diffed run
by run rather than trusted.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import random
import sys
import tempfile

if __name__ == "__main__":  # run as a script: import this checkout's package
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rindler_resonance.cli import main

EXPECTED_DIGEST = "e01dbb347fb0175c5f4bd9f83074a2ddf2420eccfcf8bd2800b7d510dc74582b"
SEED = 20261020
RUNS = 300

# Fixed values and a sweep range per parameter: with accel 1e17 and sep
# 1 m, zeta is 0.56, and the sep and accel ranges reach all three regimes.
FIXED = {"accel": 1e17, "sep": 1.0, "omega0": 1e8}
SPAN = {"accel": (1e13, 1e21), "sep": (1e-4, 1e4), "omega0": (1e5, 1e11)}
TOP = sys.float_info.max
FIELD_OPTIONS = {
    "scalar": lambda rng: ["--coupling", rng.choice(["1", "1.7", "1e200", "0", "-3"])],
    "em": lambda rng: [
        "--dipole-a", rng.choice(["z", "x", "y", "0.3,-1.2,0.7", "1e308,1e308,0", "0,0,0"]),
        "--dipole-b", rng.choice(["z", "x", "1,0.5,-2", "1e-300,0,0"]),
    ],
}


def _decade(rng, low, high):
    return 10.0 ** rng.uniform(low, high)


def _bounds(rng, kind, param):
    """(fixed values, start, stop, spacing) for one sweep of this kind."""
    fixed = dict(FIXED)
    spacing = rng.choice(["lin", "log"])
    low, high = SPAN[param]
    if kind == "span":  # inside the parameter's range: every regime for sep and accel
        start, stop = sorted(_decade(rng, math.log10(low), math.log10(high)) for _ in range(2))
    elif kind == "wide":  # any magnitude: a*z and omega0*z overflow in part of the draws
        for name in fixed:
            fixed[name] = rng.choice([0.0, 1e-300, 1e308, _decade(rng, -300.0, 308.0)])
        start, stop = sorted(rng.sample([0.0, 1e-300, 1e308, _decade(rng, -300.0, 308.0),
                                         _decade(rng, -300.0, 308.0)], 2))
    elif kind == "below":  # a start out of the domain (zero is in it for accel and omega0)
        start, stop = rng.choice([-_decade(rng, -5.0, 5.0), 0.0, -5e-324]), _decade(rng, -3.0, 3.0)
    elif kind == "subnormal":
        start, stop = 5e-324, rng.choice([1e-323, 2.5e-308, 1.0])
    elif kind == "overflow":  # a*z beyond the largest float, or a log grid that overflows
        fixed.update(accel=1e308, sep=1e308)
        start, stop = rng.choice([(1e300, TOP), (TOP * (1.0 - 2.0**-52), TOP)])
        spacing = rng.choice([spacing, "log"])
    return fixed, start, stop, spacing


def argvs(seed=SEED, runs=RUNS):
    """``runs`` argv lists, in a fixed order for a seed: compute and sweep, both fields."""
    rng = random.Random(seed)
    kinds = ["span", "span", "span", "wide", "wide", "below", "subnormal", "overflow"]
    for i in range(runs):
        field = ("scalar", "em")[i % 2]
        parity = ("sym", "anti")[(i // 2) % 2]
        param = ("sep", "accel", "omega0")[(i // 4) % 3]
        common = ["--field", field, "--parity", parity, *FIELD_OPTIONS[field](rng)]
        fixed, start, stop, spacing = _bounds(rng, kinds[(i // 12) % len(kinds)], param)
        if i % 25 == 24:  # compute at the sweep's start, in either format
            fixed[param] = start
            flags = [x for name in fixed for x in (f"--{name}", repr(fixed[name]))]
            yield ["compute", *common, *flags, "--format", rng.choice(["csv", "text"])]
            continue
        flags = [x for name in fixed if name != param for x in (f"--{name}", repr(fixed[name]))]
        yield [
            "sweep", *common, *flags, "--param", param, "--from", repr(start), "--to", repr(stop),
            "--points", str(rng.randint(2, 12)), "--spacing", spacing,
        ]


def digest(workdir, runs=None) -> tuple:
    """(sha256, what the runs reached) over every run's argv, exit code, stdout, stderr
    and ``--out`` bytes; the second item holds the exit codes, the regime labels and the
    first word after "error: " of every failing run.  ``runs``, if a list, receives each
    run's argv, exit code, stdout, stderr and ``--out`` text as a dict."""
    h = hashlib.sha256()
    reached = set()
    target = pathlib.Path(workdir) / "out.csv"
    for i, argv in enumerate(argvs()):
        if i % 10 == 9:
            target.write_bytes(b"#" * 20_000)  # longer than any output: the cut shows
            argv = [*argv, "--out", str(target)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = target.read_bytes() if "--out" in argv else b""
        shown = " ".join(argv).replace(str(workdir), "<dir>")
        h.update(f"{shown}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        h.update(written + b"\n")
        reached.add(code)
        reached.update(line.rsplit(",", 1)[1] for line in out.getvalue().splitlines()[1:]
                       if "," in line)
        reached.update(err.getvalue().split()[1:2])
        if runs is not None:
            runs.append({"argv": shown, "code": code, "stdout": out.getvalue(),
                         "stderr": err.getvalue(), "out": written.decode()})
    return h.hexdigest(), reached


def test_argvs_cover_every_case():
    runs = list(argvs())
    assert len(runs) == RUNS
    sweeps = [argv for argv in runs if argv[0] == "sweep"]
    for option, choices in (("--field", {"scalar", "em"}), ("--parity", {"sym", "anti"}),
                            ("--param", {"sep", "accel", "omega0"}), ("--spacing", {"lin", "log"})):
        assert {argv[argv.index(option) + 1] for argv in sweeps} == choices
    assert {argv[-1] for argv in runs if argv[0] == "compute"} == {"csv", "text"}


def test_outputs_match_the_recorded_digest(tmp_path):
    sha, reached = digest(tmp_path)
    # Every regime, exit codes 0, 2 and 3, and the errors of an out-of-domain
    # start, an overflowing a*z ("energy shift is not finite") and an
    # overflowing log grid ("a log grid ... overflows").
    assert {0, 2, 3, "Inertial", "Intermediate", "FarZone", "separation", "energy", "a"} <= reached
    assert sha == EXPECTED_DIGEST


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the digest of this checkout's runs.")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write every run's argv, exit code and output as JSON")
    args = parser.parse_args()
    records = [] if args.dump else None
    with tempfile.TemporaryDirectory() as workdir:
        print(digest(workdir, records)[0])
    if args.dump:
        pathlib.Path(args.dump).write_text(json.dumps(records, indent=1) + "\n")
