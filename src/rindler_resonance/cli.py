"""Command line front end.

Four subcommands: ``compute`` evaluates one configuration, ``sweep``
scans one parameter and emits CSV, ``verify`` runs the numerical
cross-check suites, and ``regimes`` prints the characteristic scales
for a given acceleration.

Exit codes: 0 success, 1 verification or numerical failure, 2 usage
error, 3 domain error (unphysical parameter values).

A flat ``key = value`` config file can seed any option; command line
flags win over config values.  The environment variable
RINDLER_RESONANCE_TOL overrides the relative tolerance used by the
verification integrals.

numpy is imported only by the paths that handle arrays: ``sweep``,
``verify`` and the electromagnetic field.  A scalar ``compute`` and
``regimes`` run without it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from .core import (
    CONSTANTS,
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
from .scalar import scalar_closed_form, scalar_resonance_energy

CSV_HEADER = "field,parity,a_mps2,z_m,omega0_radps,zeta,theta,reduced,si_joule,regime"

_SUITES = ("scalar-pv", "em-pv", "em-commutator", "asymptotes")
_SWEPT_INPUT = {"sep": "separation", "accel": "acceleration", "omega0": "omega0"}
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
    separation = float(_require(args, "sep", "--sep"))
    omega0 = float(_require(args, "omega0", "--omega0"))
    acceleration = float(_merge(args, "accel", 0.0))
    if field_kind is FieldKind.SCALAR:
        return Scenario.scalar_field(
            acceleration=acceleration,
            separation=separation,
            omega0=omega0,
            parity=parity,
            coupling=float(_merge(args, "coupling", 1.0)),
        )
    return Scenario.em_field(
        acceleration=acceleration,
        separation=separation,
        omega0=omega0,
        parity=parity,
        dipole_a=_parse_dipole(str(_merge(args, "dipole_a", "z")), "--dipole-a"),
        dipole_b=_parse_dipole(str(_merge(args, "dipole_b", "z")), "--dipole-b"),
    )


def _energy(scenario: Scenario):
    if scenario.field_kind is FieldKind.SCALAR:
        return scalar_resonance_energy(scenario)
    from .em import em_resonance_energy

    return em_resonance_energy(scenario)


def _csv_rows(scenario: Scenario, columns) -> list:
    """CSV rows: field, parity, the seven float columns of CSV_HEADER, regime.

    A column is a float, the same on every row, or a list of one float
    per row.  Constant cells are formatted once into a ``%`` template.
    """
    zeta, classify = columns[3], Regime.classify
    regime = (classify(zeta).value if isinstance(zeta, float)
              else [_REGIME_LABELS[classify(z)] for z in zeta])
    template, varying = f"{scenario.field_kind.value},{scenario.parity.value}", []
    for column, fmt in zip((*columns, regime), ("%.16e",) * 7 + ("%s",)):
        if isinstance(column, list):
            template += "," + fmt
            varying.append(column)
        else:
            template += "," + fmt % column
    return [template % row for row in zip(*varying)] if varying else [template]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    shift = _energy(scenario)
    fmt = str(_merge(args, "format", "text"))
    if fmt not in ("text", "csv"):
        raise UsageError(f"unknown format {fmt!r}; expected 'text' or 'csv'")
    geom = reduced_geometry(
        scenario.acceleration, scenario.separation, scenario.omega0, scenario.constants
    )
    if fmt == "csv":
        floats = (
            scenario.acceleration,
            scenario.separation,
            scenario.omega0,
            geom.zeta,
            geom.theta,
            shift.reduced,
            shift.si_value,
        )
        _emit(CSV_HEADER + "\n" + _csv_rows(scenario, floats)[0] + "\n", args.out)
        return 0
    rows = [
        ("field", scenario.field_kind.value),
        ("parity", scenario.parity.value),
        ("a_mps2", f"{scenario.acceleration:.16e}"),
        ("z_m", f"{scenario.separation:.16e}"),
        ("omega0_radps", f"{scenario.omega0:.16e}"),
        ("zeta", f"{geom.zeta:.16e}"),
        ("theta", f"{geom.theta:.16e}"),
        ("reduced", f"{shift.reduced:.16e}"),
        ("si_joule", f"{shift.si_value:.16e}"),
        ("regime", shift.regime.value),
        ("unruh_K", f"{unruh_temperature(scenario.acceleration, scenario.constants):.16e}"),
        ("crossover_m", f"{geom.crossover_length:.16e}"),
    ]
    if shift.warning:
        rows.append(("warning", shift.warning))
    text = "".join(f"{key:<14}{value}\n" for key, value in rows)
    _emit(text, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    param = str(_require(args, "param", "--param"))
    if param not in ("sep", "accel", "omega0"):
        raise UsageError(f"--param must be one of sep, accel, omega0; got {param!r}")
    start = float(_require(args, "from", "--from"))
    stop = float(_require(args, "to", "--to"))
    points = int(_merge(args, "points", 50))
    spacing = str(_merge(args, "spacing", "lin"))
    if points < 2:
        raise UsageError(f"--points must be at least 2, got {points}")
    if not start < stop:
        raise UsageError(f"--from must be strictly below --to, got {start} and {stop}")
    if spacing == "lin":
        values = np.linspace(start, stop, points)
    elif spacing == "log":
        if start <= 0.0:
            raise UsageError("log spacing requires strictly positive bounds")
        values = np.geomspace(start, stop, points)
    else:
        raise UsageError(f"--spacing must be 'lin' or 'log', got {spacing!r}")

    base = {
        "sep": None,
        "accel": float(_merge(args, "accel", 0.0)),
        "omega0": None,
    }
    # The swept parameter needs no base value; the others stay fixed.
    if param != "sep":
        base["sep"] = float(_require(args, "sep", "--sep"))
    if param != "omega0":
        base["omega0"] = float(_require(args, "omega0", "--omega0"))

    # One scenario at the first grid value checks every other option as
    # compute does; the swept column is then checked as a whole.
    base[param] = float(values[0])
    sub = argparse.Namespace(**vars(args))
    for key, value in base.items():
        setattr(sub, key, value)
    scenario = _build_scenario(sub)
    inputs = {
        "acceleration": scenario.acceleration,
        "separation": scenario.separation,
        "omega0": scenario.omega0,
    }
    in_domain = np.isfinite(values) & (values > 0.0 if param == "sep" else values >= 0.0)
    if not in_domain.all():
        check_kinematics(**{**inputs, _SWEPT_INPUT[param]: float(values[np.argmin(in_domain)])})
    inputs[_SWEPT_INPUT[param]] = values

    if scenario.field_kind is FieldKind.SCALAR:
        closed_form = scalar_closed_form
    else:
        from .em import em_closed_form as closed_form

    # Overflow shows up as inf or nan and is rejected row by row below.
    with np.errstate(all="ignore"):
        zeta, theta, reduced, prefactor = closed_form(scenario, **inputs)
        si_value = prefactor * reduced
    finite = np.isfinite(reduced) & np.isfinite(si_value)
    if not finite.all():
        k = int(np.argmin(finite))
        check_finite_shift(float(reduced[k]), float(si_value[k]))

    columns = (
        inputs["acceleration"], inputs["separation"], inputs["omega0"],
        zeta, theta, reduced, si_value,
    )
    rows = _csv_rows(scenario, [c if isinstance(c, float) else c.tolist() for c in columns])
    _emit("\n".join([CSV_HEADER, *rows]) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import commutator_agreeing_components, run_suites
    from .quad import QuadratureSpec

    suite = str(_merge(args, "suite", "all"))
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise UsageError(f"unknown suite {suite!r}; expected one of {', '.join(_SUITES)} or all")
    tol = _merge(args, "tol")
    tol = float(tol) if tol is not None else None
    spec = QuadratureSpec.from_environment()
    fmt = str(_merge(args, "format", "text"))
    if fmt not in ("text", "csv"):
        raise UsageError(f"unknown format {fmt!r}; expected 'text' or 'csv'")
    reports = run_suites(names, spec=spec, tolerance=tol)
    chunks = []
    all_ok = True
    for name in names:
        report = reports[name]
        if name == "em-commutator":
            agreeing = commutator_agreeing_components(report)
            gate = len(agreeing) > 0
            gate_note = (
                f"gate: agreeing components {','.join(agreeing) or 'none'}"
                f" -> {'pass' if gate else 'fail'}"
            )
        else:
            gate = report.passed
            gate_note = None
        all_ok = all_ok and gate
        if fmt == "csv":
            chunks.append(report.to_csv())
        else:
            chunks.append(f"== suite {name} ==\n{report.to_text()}")
            if gate_note:
                chunks.append(gate_note + "\n")
    _emit("".join(chunks), args.out)
    return 0 if all_ok else 1


def cmd_regimes(args: argparse.Namespace) -> int:
    accel = float(_require(args, "accel", "--accel"))
    if accel < 0.0 or not math.isfinite(accel):
        raise DomainError(f"acceleration must be >= 0 and finite, got {accel}")
    c = CONSTANTS.c
    rows = [
        ("a_mps2", f"{accel:.16e}"),
        ("unruh_K", f"{unruh_temperature(accel):.16e}"),
        ("crossover_m", f"{(c * c / accel) if accel > 0 else math.inf:.16e}"),
    ]
    omega0 = _merge(args, "omega0")
    if omega0 is not None:
        omega0 = float(omega0)
        if not (omega0 > 0.0 and math.isfinite(omega0)):
            raise DomainError(f"omega0 must be positive and finite, got {omega0}")
        rows.append(("wavelength_m", f"{c / omega0:.16e}"))
    sep = _merge(args, "sep")
    if sep is not None:
        sep = float(sep)
        geom = reduced_geometry(accel, sep, float(omega0 or 0.0))
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
