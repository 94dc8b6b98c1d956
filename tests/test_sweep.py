"""``sweep`` evaluates each row through the closed form's float body;
each row must be the exact bytes ``compute --format csv`` prints for
the same inputs."""

import contextlib
import io
import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rindler_resonance import SPEED_OF_LIGHT, DomainError, FieldKind, Parity, Regime, Scenario, cli
from rindler_resonance.cli import CSV_HEADER, _sweep_grid, main
from rindler_resonance.core import _energy_shift, point_geometry

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
    # The sweep's own grid; test_linear_grid_is_numpy_linspace and
    # test_log_grid_is_numpy_geomspace_to_rounding pin it to numpy.
    return _sweep_grid(start, stop, POINTS, spacing)


def test_linear_grid_is_numpy_linspace():
    # Bit for bit, on seeded grids of either sign from 1e-30 to 1e30.
    rng = random.Random(20260)
    for _ in range(2000):
        start, stop = sorted(
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, 30.0) for _ in range(2)
        )
        points = rng.randint(2, 200)
        expected = np.linspace(start, stop, points).tolist()
        assert _sweep_grid(start, stop, points, "lin") == expected, (start, stop, points)
    # A subnormal span takes numpy's zero-step branch.
    tiny = math.ulp(0.0)
    assert _sweep_grid(tiny, 2.0 * tiny, 200, "lin") == np.linspace(tiny, 2.0 * tiny, 200).tolist()


def test_log_grid_is_numpy_geomspace_to_rounding():
    # Ends exact; inside, libm's log10 and pow may round other than
    # numpy's, a relative 1e-14 at most for bounds within 1e+-30.
    rng = random.Random(20261)
    for _ in range(2000):
        start, stop = sorted(10.0 ** rng.uniform(-30.0, 30.0) for _ in range(2))
        points = rng.randint(2, 200)
        values = _sweep_grid(start, stop, points, "log")
        expected = np.geomspace(start, stop, points).tolist()
        assert values[0] == start and values[-1] == stop
        assert all(abs(x - y) <= 1e-14 * y for x, y in zip(values, expected))
    # Whole decades match numpy bit for bit.
    assert _sweep_grid(1e-3, 1e3, 7, "log") == np.geomspace(1e-3, 1e3, 7).tolist()
    # Near the largest float, 10**x of a rounded log10 may overflow.
    top = sys.float_info.max
    with pytest.raises(DomainError, match="overflows"):
        _sweep_grid(top * (1.0 - 2.0**-52), top, 5, "log")


# Any finite float, with the signed zeros, the subnormals and the ends of
# the float range drawn often.
bounds = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 1e308, -1e308,
                     sys.float_info.max, -sys.float_info.max, sys.float_info.max / 2.0,
                     -sys.float_info.max / 2.0]),
    st.floats(-324.0, 308.25).map(lambda e: 10.0**e),
)


@settings(max_examples=400, deadline=None)
@given(
    start=bounds, stop=bounds, points=st.integers(2, 300), spacing=st.sampled_from(["lin", "log"])
)
def test_every_grid_value_is_finite_and_at_least_the_first(start, stop, points, spacing):
    # cmd_sweep checks only the first grid value against the domain: every
    # later one is finite and no smaller, and a log grid is positive.
    # These are the bounds cmd_sweep lets through.
    start, stop = min(start, stop), max(start, stop)
    assume(start < stop and stop - start < math.inf and (spacing == "lin" or start > 0.0))
    try:
        values = _sweep_grid(start, stop, points, spacing)
    except DomainError as exc:  # only a log grid overflowing near the largest float
        assert spacing == "log" and "overflows" in str(exc)
        return
    assert len(values) == points
    assert values[0] == start and values[-1] == stop
    assert all(values[0] <= x < math.inf for x in values)
    if spacing == "log":
        assert all(x > 0.0 for x in values)


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
    # Scalar only: the EM yy and zz entries, about theta**2/zeta, overflow there.
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


def _acceleration_at(zeta):
    """An acceleration at which atoms 1 m apart have exactly this zeta."""
    a = zeta * 2.0 * SPEED_OF_LIGHT * SPEED_OF_LIGHT
    down = up = a
    for _ in range(64):
        for candidate in (down, up):
            if candidate >= 0.0 and point_geometry(candidate, 1.0, 1e8)[0] == zeta:
                return candidate
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
    raise AssertionError(f"no acceleration gives zeta = {zeta!r}")


EDGE_ZETAS = [
    math.nextafter(edge, to) for edge in (0.0, 0.1, 10.0) for to in (-math.inf, edge, math.inf)
]


@pytest.mark.parametrize("zeta", EDGE_ZETAS, ids=repr)
def test_regime_labels_agree_at_the_edges(capsys, monkeypatch, zeta):
    # At each regime bound and its neighbours, the sweep and compute
    # label, the regime of a package shift and Regime.classify agree;
    # below zeta = 0 all three raise the same DomainError.
    try:
        expected = Regime.classify(zeta).value
    except DomainError as exc:
        expected = str(exc)
    try:
        shift = _energy_shift(0.5, 1.0, zeta, Parity.SYMMETRIC, FieldKind.SCALAR)
        assert shift.regime.value == expected
    except DomainError as exc:
        assert str(exc) == expected
    if zeta < 0.0:
        # No kinematics reach a negative zeta; the row goes through classify.
        monkeypatch.setattr(cli, "scalar_closed_form", lambda s, points: [(zeta, 1.0, 0.5, 1.0)])
        scenario = Scenario.scalar_field(
            acceleration=0.0, separation=1.0, omega0=1e8, parity=Parity.SYMMETRIC
        )
        with pytest.raises(DomainError) as info:
            cli._closed_form_rows(scenario, "sep", [1.0])
        assert str(info.value) == expected
        return
    accel = repr(_acceleration_at(zeta))
    for field in FIELD_OPTIONS:
        common = ("--field", field, "--parity", "sym", "--sep", "1", *FIELD_OPTIONS[field])
        code, out, _ = run(capsys, "compute", *common, "--accel", accel, "--omega0", "1e8",
                           "--format", "csv")
        assert code == 0
        labels = [out.splitlines()[1].rsplit(",", 1)[1]]
        code, out, _ = run(capsys, "sweep", *common, "--accel", accel, "--param", "omega0",
                           "--from", "1e6", "--to", "1e10", "--points", "3")
        assert code == 0
        labels += [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert labels == [expected] * 4


def run_captured(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# Decades from 1e-300 to 1e308: in part of the draws a*z or omega0*z overflows.
magnitudes = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e308]),
    st.floats(-300.0, 308.0).map(lambda e: 10.0**e),
)
BASE_FLAGS = {"accel": "--accel", "sep": "--sep", "omega0": "--omega0"}


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(["scalar", "em"]),
    parity=st.sampled_from(["sym", "anti"]),
    param=st.sampled_from(list(BASE_FLAGS)),
    spacing=st.sampled_from(["lin", "log"]),
    base=st.fixed_dictionaries({name: magnitudes for name in BASE_FLAGS}),
    bounds=st.lists(magnitudes, min_size=2, max_size=2, unique=True).map(sorted),
    points=st.integers(2, 6),
    coupling=st.sampled_from(["1", "1.7", "0", "1e200"]),
    dipoles=st.sampled_from(["z", "x", "0.3,-1.2,0.7", "0,0,0", "1e308,1e308,0", "1e-300,0,0"]),
)
def test_every_sweep_row_is_the_compute_row(
    field, parity, param, spacing, base, bounds, points, coupling, dipoles
):
    # Each row is compute --format csv at its grid value; a failing sweep
    # prints compute's error at the first grid value where compute fails.
    start, stop = bounds
    if spacing == "log" and start == 0.0:
        spacing = "lin"
    common = ["--field", field, "--parity", parity]
    common += ["--coupling", coupling] if field == "scalar" else [
        "--dipole-a", dipoles, "--dipole-b", "0.3,-1.2,0.7"]
    for name, flag in BASE_FLAGS.items():
        if name != param:
            common += [flag, repr(base[name])]
    code, out, err = run_captured(
        "sweep", *common, "--param", param, "--from", repr(start), "--to", repr(stop),
        "--points", str(points), "--spacing", spacing,
    )
    rows = [CSV_HEADER]
    for value in _sweep_grid(start, stop, points, spacing):
        single = run_captured("compute", *common, BASE_FLAGS[param], repr(value), "--format", "csv")
        if single[0] != 0:
            assert (code, out, err) == (single[0], "", single[2])
            return
        assert single[1].splitlines()[0] == CSV_HEADER
        rows.append(single[1].splitlines()[1])
    assert (code, out, err) == (0, "\n".join(rows) + "\n", "")
