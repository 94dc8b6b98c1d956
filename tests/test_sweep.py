"""``sweep`` evaluates each row through the closed form's float body;
each row must be the exact bytes ``compute --format csv`` prints for
the same inputs."""

import itertools

import numpy as np
import pytest

from rindler_resonance.cli import CSV_HEADER, main

# The sep and accel ranges cross at least two regimes (zeta below 0.1,
# between, above 10); omega0 leaves zeta alone.
RANGES = {
    "sep": (("--accel", "3e17", "--omega0", "7e8"), 0.01, 300.0),
    "accel": (("--sep", "2.5", "--omega0", "4e8"), 1e15, 1e19),
    "omega0": (("--accel", "1e17", "--sep", "60"), 1e6, 1e10),
}
FIELD_OPTIONS = {
    "scalar": ("--coupling", "1.7"),
    "em": ("--dipole-a", "0.3,-1.2,0.7", "--dipole-b", "1,0.5,-2"),
}
POINTS = 50


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grid(start, stop, spacing):
    if spacing == "log":
        return np.geomspace(start, stop, POINTS)
    return np.linspace(start, stop, POINTS)


@pytest.mark.parametrize(
    "field,param,spacing,parity",
    list(itertools.product(FIELD_OPTIONS, RANGES, ("lin", "log"), ("sym", "anti"))),
)
def test_sweep_rows_equal_compute_rows(capsys, field, param, spacing, parity):
    fixed, start, stop = RANGES[param]
    common = ("--field", field, "--parity", parity, *fixed, *FIELD_OPTIONS[field])
    code, out, _ = run(
        capsys, "sweep", *common, "--param", param, "--from", repr(start),
        "--to", repr(stop), "--points", str(POINTS), "--spacing", spacing,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == POINTS + 1
    regimes = set()
    for value, line in zip(grid(start, stop, spacing), lines[1:]):
        code, single, _ = run(
            capsys, "compute", *common, f"--{param}", repr(float(value)), "--format", "csv",
        )
        assert code == 0
        assert single.splitlines() == [CSV_HEADER, line]
        regimes.add(line.rsplit(",", 1)[1])
    assert len(regimes) >= (1 if param == "omega0" else 2)


ZERO_ACCEL_RANGES = {
    "sep": (("--accel", "0", "--omega0", "7e8"), 0.01, 300.0),
    "omega0": (("--accel", "0", "--sep", "60"), 1e6, 1e10),
}


@pytest.mark.parametrize(
    "field,param,spacing",
    list(itertools.product(FIELD_OPTIONS, ZERO_ACCEL_RANGES, ("lin", "log"))),
)
def test_zero_acceleration_sweep_rows_equal_compute_rows(capsys, field, param, spacing):
    # zeta is the constant 0.0 and every row is Inertial.
    fixed, start, stop = ZERO_ACCEL_RANGES[param]
    common = ("--field", field, "--parity", "anti", *fixed, *FIELD_OPTIONS[field])
    code, out, _ = run(
        capsys, "sweep", *common, "--param", param, "--from", repr(start),
        "--to", repr(stop), "--points", str(POINTS), "--spacing", spacing,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == POINTS + 1
    for value, line in zip(grid(start, stop, spacing), lines[1:]):
        cells = line.split(",")
        assert float(cells[CSV_HEADER.split(",").index("zeta")]) == 0.0
        assert cells[-1] == "Inertial"
        code, single, _ = run(
            capsys, "compute", *common, f"--{param}", repr(float(value)), "--format", "csv",
        )
        assert code == 0
        assert single.splitlines() == [CSV_HEADER, line]


@pytest.mark.parametrize("field", list(FIELD_OPTIONS))
def test_sweep_rows_equal_compute_rows_where_a_times_z_overflows(capsys, field):
    # a*z overflows from the second row on, while zeta stays finite.
    common = (
        "--field", field, "--parity", "sym", "--sep", "1e10", "--omega0", "1e8",
        *FIELD_OPTIONS[field],
    )
    code, out, _ = run(
        capsys, "sweep", *common, "--param", "accel", "--from", "1e300", "--to", "1e308",
        "--points", "9",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    for value, line in zip(np.linspace(1e300, 1e308, 9), lines[1:]):
        code, single, _ = run(capsys, "compute", *common, "--accel", repr(float(value)), "--format", "csv")
        assert code == 0
        assert single.splitlines() == [CSV_HEADER, line]


def test_sweep_rows_equal_compute_rows_where_omega0_times_z_overflows(capsys):
    # omega0*z overflows from the third row on, while theta stays finite.
    # Scalar only: the EM form squares theta, which overflows there.
    common = ("--field", "scalar", "--parity", "sym", "--sep", "1e10", "--accel", "1e20")
    code, out, _ = run(
        capsys, "sweep", *common, "--param", "omega0", "--from", "1e296", "--to", "1e304",
        "--points", "5", "--spacing", "log",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    for value, line in zip(np.logspace(296, 304, 5), lines[1:]):
        code, single, _ = run(capsys, "compute", *common, "--omega0", repr(float(value)), "--format", "csv")
        assert code == 0
        assert single.splitlines() == [CSV_HEADER, line]


@pytest.mark.parametrize(
    "param,start,stop,fixed",
    [
        ("accel", "-1", "1", ("--sep", "1", "--omega0", "1e8")),
        ("omega0", "-5", "5", ("--sep", "1", "--accel", "1e17")),
        ("sep", "-2", "2", ("--accel", "1e17", "--omega0", "1e8")),
        # zeta itself overflows from the second row on: a non-finite shift.
        ("accel", "1e300", "1e308", ("--sep", "1e20", "--omega0", "1e8")),
    ],
)
@pytest.mark.parametrize("field", list(FIELD_OPTIONS))
def test_out_of_domain_sweep_fails_like_compute(capsys, tmp_path, field, param, start, stop, fixed):
    common = ("--field", field, "--parity", "sym", *fixed, *FIELD_OPTIONS[field])
    target = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "sweep", *common, "--param", param, "--from", start, "--to", stop,
        "--points", "9", "--out", str(target),
    )
    assert code == 3
    assert out == ""
    assert not target.exists()

    for value in np.linspace(float(start), float(stop), 9):
        single_code, _, single_err = run(capsys, "compute", *common, f"--{param}", repr(float(value)))
        if single_code != 0:
            break
    assert single_code == 3
    assert err == single_err
    assert err.startswith("error: ")
