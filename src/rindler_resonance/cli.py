"""Command line front end.

Four subcommands: ``compute`` evaluates one configuration, ``sweep``
scans one parameter and emits CSV, ``verify`` runs the numerical
cross-check suites, and ``regimes`` prints the characteristic scales
for a given acceleration.  ``compute`` is a sweep of one point: both
build their CSV rows from the closed forms through one helper, so a
sweep row is the row ``compute --format csv`` prints for its value.

Exit codes: 0 success, 1 verification or numerical failure, 2 usage
error, 3 domain error (unphysical parameter values).

A flat ``key = value`` config file can seed any option; command line
flags win over config values.  The environment variable
RINDLER_RESONANCE_TOL overrides the relative tolerance used by the
verification integrals.

numpy is imported only by ``sweep`` (for its grid), ``verify`` and
the electromagnetic field.  A scalar ``compute`` and ``regimes`` run
without it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from .core import (
    SPEED_OF_LIGHT,
    DomainError,
    FieldKind,
    Parity,
    QuadratureError,
    Regime,
    Scenario,
    UsageError,
    check_finite_shift,
    check_kinematics,
    reduced_geometry,
    unruh_temperature,
)
from .scalar import scalar_closed_form

CSV_HEADER = "field,parity,a_mps2,z_m,omega0_radps,zeta,theta,reduced,si_joule,regime"

_SUITES = ("scalar-pv", "em-pv", "em-commutator", "asymptotes")
_AXIS_SHORTCUTS = {"x": "1,0,0", "y": "0,1,0", "z": "0,0,1"}
_REGIME_LABELS = {regime: regime.value for regime in Regime}

_CONFIG_KEYS = {
    "field": str,
    "parity": str,
    "accel": float,
    "sep": float,
    "omega0": float,
    "coupling": float,
    "dipole_a": str,
    "dipole_b": str,
    "param": str,
    "from": float,
    "to": float,
    "points": int,
    "spacing": str,
    "suite": str,
    "tol": float,
    "format": str,
    "out": str,
}


def _read_config(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            values[key] = caster(value)
        except ValueError:
            raise UsageError(
                f"{path}:{lineno}: cannot parse {value!r} as {caster.__name__} for {key!r}"
            ) from None
    return values


def _merge(args: argparse.Namespace, key: str, default=None):
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    config = getattr(args, "_config", {})
    if key in config:
        return config[key]
    return default


def _require(args: argparse.Namespace, key: str, flag: str):
    value = _merge(args, key)
    if value is None:
        raise UsageError(f"missing required option {flag} (or config key '{key}')")
    return value


def _parse_dipole(raw: str, name: str) -> list:
    text = raw.strip().lower()
    text = _AXIS_SHORTCUTS.get(text, text)
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{name} must be 'x', 'y', 'z', or three comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"cannot parse {name} components from {raw!r}") from None


def _build_scenario(args: argparse.Namespace) -> Scenario:
    field_kind = FieldKind.from_label(_require(args, "field", "--field"))
    parity = Parity.from_label(_require(args, "parity", "--parity"))
    separation = _require(args, "sep", "--sep")
    omega0 = _require(args, "omega0", "--omega0")
    acceleration = _merge(args, "accel", 0.0)
    if field_kind is FieldKind.SCALAR:
        return Scenario.scalar_field(
            acceleration=acceleration,
            separation=separation,
            omega0=omega0,
            parity=parity,
            coupling=_merge(args, "coupling", 1.0),
        )
    return Scenario.em_field(
        acceleration=acceleration,
        separation=separation,
        omega0=omega0,
        parity=parity,
        dipole_a=_parse_dipole(str(_merge(args, "dipole_a", "z")), "--dipole-a"),
        dipole_b=_parse_dipole(str(_merge(args, "dipole_b", "z")), "--dipole-b"),
    )


def _closed_form_rows(scenario: Scenario, grid: list, point, param=None) -> list:
    """CSV rows of the closed form, one per (a, z, omega0) float triple of ``grid``.

    ``point`` holds the a, z and omega0 columns: floats, except that
    the ``param`` column, if any, is the list of its grid values.
    Constant cells are formatted once into a ``%`` template.  The first
    non-finite shift raises DomainError.
    """
    if scenario.field_kind is FieldKind.SCALAR:
        closed_form = scalar_closed_form
    else:
        from .em import em_closed_form as closed_form
    zeta, theta, reduced, prefactor = map(list, zip(*closed_form(scenario, grid)))
    si_value = [p * r for p, r in zip(prefactor, reduced)]
    # Overflow shows up as inf or nan; the first such row fails.
    for r, si in zip(reduced, si_value):
        if not (math.isfinite(r) and math.isfinite(si)):
            check_finite_shift(r, si)

    # zeta is one value in an omega0 sweep and theta one in an accel
    # sweep, so each is formatted (and zeta classified) once.
    classify = Regime.classify
    if param == "omega0":
        zeta = zeta[0]
        regime = classify(zeta).value
    else:
        regime = [_REGIME_LABELS[classify(z)] for z in zeta]
    if param == "accel":
        theta = theta[0]
    template, varying = f"{scenario.field_kind.value},{scenario.parity.value}", []
    columns = (*point, zeta, theta, reduced, si_value, regime)
    for column, fmt in zip(columns, ("%.16e",) * 7 + ("%s",)):
        if isinstance(column, list):
            template += "," + fmt
            varying.append(column)
        else:
            template += "," + fmt % column
    return [template % row for row in zip(*varying)]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    point = (scenario.acceleration, scenario.separation, scenario.omega0)
    (row,) = _closed_form_rows(scenario, [point], point)
    fmt = str(_merge(args, "format", "text"))
    if fmt not in ("text", "csv"):
        raise UsageError(f"unknown format {fmt!r}; expected 'text' or 'csv'")
    if fmt == "csv":
        _emit(CSV_HEADER + "\n" + row + "\n", args.out)
        return 0
    a = scenario.acceleration
    rows = [
        *zip(CSV_HEADER.split(","), row.split(",")),
        ("unruh_K", f"{unruh_temperature(a):.16e}"),
        ("crossover_m", f"{SPEED_OF_LIGHT * SPEED_OF_LIGHT / a if a > 0.0 else math.inf:.16e}"),
    ]
    _emit("".join(f"{key:<14}{value}\n" for key, value in rows), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    param = str(_require(args, "param", "--param"))
    if param not in ("sep", "accel", "omega0"):
        raise UsageError(f"--param must be one of sep, accel, omega0; got {param!r}")
    start = _require(args, "from", "--from")
    stop = _require(args, "to", "--to")
    points = int(_merge(args, "points", 50))
    spacing = str(_merge(args, "spacing", "lin"))
    if points < 2:
        raise UsageError(f"--points must be at least 2, got {points}")
    if not start < stop:
        raise UsageError(f"--from must be strictly below --to, got {start} and {stop}")
    if spacing == "lin":
        values = np.linspace(start, stop, points).tolist()
    elif spacing == "log":
        if start <= 0.0:
            raise UsageError("log spacing requires strictly positive bounds")
        values = np.geomspace(start, stop, points).tolist()
    else:
        raise UsageError(f"--spacing must be 'lin' or 'log', got {spacing!r}")

    base = {
        "sep": None,
        "accel": _merge(args, "accel", 0.0),
        "omega0": None,
    }
    # The swept parameter needs no base value; the others stay fixed.
    if param != "sep":
        base["sep"] = _require(args, "sep", "--sep")
    if param != "omega0":
        base["omega0"] = _require(args, "omega0", "--omega0")

    # One scenario at the first grid value checks every other option as
    # compute does; the swept values are then checked in order.
    base[param] = values[0]
    sub = argparse.Namespace(**vars(args))
    for key, value in base.items():
        setattr(sub, key, value)
    scenario = _build_scenario(sub)
    point = [scenario.acceleration, scenario.separation, scenario.omega0]
    swept = ("accel", "sep", "omega0").index(param)
    grid = []
    for value in values:
        point[swept] = value
        if not 0.0 < value < math.inf:  # a zero may be in the domain
            check_kinematics(*point)
        grid.append(tuple(point))
    point[swept] = values

    rows = _closed_form_rows(scenario, grid, point, param)
    _emit("\n".join([CSV_HEADER, *rows]) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import run_suites
    from .quad import QuadratureSpec

    suite = str(_merge(args, "suite", "all"))
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise UsageError(f"unknown suite {suite!r}; expected one of {', '.join(_SUITES)} or all")
    tol = _merge(args, "tol")
    spec = QuadratureSpec.from_environment()
    fmt = str(_merge(args, "format", "text"))
    if fmt not in ("text", "csv"):
        raise UsageError(f"unknown format {fmt!r}; expected 'text' or 'csv'")
    reports = run_suites(names, spec=spec, tolerance=tol)
    chunks = []
    for name in names:
        report = reports[name]
        if fmt == "csv":
            chunks.append(report.to_csv())
        else:
            chunks.append(f"== suite {name} ==\n{report.to_text()}")
    _emit("".join(chunks), args.out)
    return 0 if all(report.passed for report in reports.values()) else 1


def cmd_regimes(args: argparse.Namespace) -> int:
    accel = _require(args, "accel", "--accel")
    c = SPEED_OF_LIGHT
    rows = [
        ("a_mps2", f"{accel:.16e}"),
        ("unruh_K", f"{unruh_temperature(accel):.16e}"),
        ("crossover_m", f"{(c * c / accel) if accel > 0 else math.inf:.16e}"),
    ]
    omega0 = _merge(args, "omega0")
    if omega0 is not None:
        if not (omega0 > 0.0 and math.isfinite(omega0)):
            raise DomainError(f"omega0 must be positive and finite, got {omega0}")
        rows.append(("wavelength_m", f"{c / omega0:.16e}"))
    sep = _merge(args, "sep")
    if sep is not None:
        geom = reduced_geometry(accel, sep, omega0 or 0.0)
        rows.append(("zeta", f"{geom.zeta:.16e}"))
        rows.append(("regime", geom.regime.value))
    text = "".join(f"{key:<14}{value}\n" for key, value in rows)
    _emit(text, args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", choices=["scalar", "em"], help="field the atoms couple to")
    parser.add_argument("--parity", choices=["sym", "anti"], help="two-atom state symmetry")
    parser.add_argument("--accel", type=float, help="proper acceleration in m/s^2 (default 0)")
    parser.add_argument("--sep", type=float, help="interatomic separation in m")
    parser.add_argument("--omega0", type=float, help="transition frequency in rad/s")
    parser.add_argument("--coupling", type=float, help="scalar coupling strength (default 1)")
    parser.add_argument("--dipole-a", dest="dipole_a", help="dipole of atom A: x|y|z or 'dx,dy,dz'")
    parser.add_argument("--dipole-b", dest="dipole_b", help="dipole of atom B: x|y|z or 'dx,dy,dz'")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="rindler-resonance",
        description="Resonance energy shift of two uniformly accelerated correlated atoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one configuration")
    _add_scenario(p_compute)
    p_compute.add_argument("--format", dest="format", choices=["text", "csv"])
    _add_common(p_compute)
    p_compute.set_defaults(handler=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="scan one parameter, emit CSV")
    _add_scenario(p_sweep)
    p_sweep.add_argument("--param", choices=["sep", "accel", "omega0"], help="parameter to sweep")
    p_sweep.add_argument("--from", dest="from", type=float, help="sweep start")
    p_sweep.add_argument("--to", dest="to", type=float, help="sweep end (exclusive of --from)")
    p_sweep.add_argument("--points", type=int, help="number of samples (default 50)")
    p_sweep.add_argument("--spacing", choices=["lin", "log"], help="sample spacing (default lin)")
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run numerical cross-check suites")
    p_verify.add_argument(
        "--suite", choices=list(_SUITES) + ["all"], help="suite to run (default all)"
    )
    p_verify.add_argument("--tol", type=float, help="override the suite tolerance")
    p_verify.add_argument("--format", dest="format", choices=["text", "csv"])
    _add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_regimes = sub.add_parser("regimes", help="characteristic scales for an acceleration")
    p_regimes.add_argument("--accel", type=float, help="proper acceleration in m/s^2")
    p_regimes.add_argument("--omega0", type=float, help="optional transition frequency in rad/s")
    p_regimes.add_argument("--sep", type=float, help="optional separation in m")
    _add_common(p_regimes)
    p_regimes.set_defaults(handler=cmd_regimes)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            setattr(args, "_config", _read_config(args.config))
        else:
            setattr(args, "_config", {})
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
