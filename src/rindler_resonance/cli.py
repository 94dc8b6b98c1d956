"""Command line front end.

Four subcommands: ``compute`` evaluates one configuration, ``sweep``
scans one parameter and emits CSV, ``verify`` runs the numerical
cross-check suites, and ``regimes`` prints the characteristic scales
for a given acceleration.  ``compute`` is a sweep of one point: both
build their CSV rows from the closed forms through one helper, so a
sweep row is the row ``compute --format csv`` prints for its value.
The helper goes from the swept values to the lines in one pass over the
closed-form rows, with no Python call beyond the closed form's own.

Exit codes: 0 success, 1 verification or numerical failure, 2 usage
error (an ``--out`` path that cannot be written is one), 3 domain error
(unphysical parameter values).  ``--out`` writes the utf-8 bytes over
an existing file in place and cuts it to the new length.

One table, ``_OPTIONS``, gives each option its caster, its choices and
its help text; ``_COMMANDS`` names the options each subcommand allows.
A flag is ``--name value`` or ``--name=value``, may be shortened to a
unique prefix, and takes the next token as its value even if that
starts with ``-``; the last repeat wins.  A flat ``key = value`` config
file (``--config``) can seed any option under its name with ``_`` for
``-``; command line flags win over config values.  A config value is
held to its flag's choices, with the flag's message, where its command
reads it, except ``field`` and ``parity``, whose labels take aliases
such as ``symmetric``.  The environment variable
RINDLER_RESONANCE_TOL overrides the relative tolerance used by the
verification integrals.

No command imports numpy: ``compute`` and ``sweep``, for either field,
``regimes`` and every ``verify`` suite (``all`` included) run without
it.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from itertools import repeat
from typing import Optional

from .core import (
    FARZONE_ZETA_MIN,
    INERTIAL_ZETA_MAX,
    SPEED_OF_LIGHT,
    _FLOAT_MAX,
    _SCALAR,
    DomainError,
    FieldKind,
    Parity,
    QuadratureError,
    Regime,
    Scenario,
    UsageError,
    _as_float,
    check_finite_shift,
    reduced_geometry,
    unruh_temperature,
)
from .scalar import scalar_closed_form

CSV_HEADER = "field,parity,a_mps2,z_m,omega0_radps,zeta,theta,reduced,si_joule,regime"

_SUITES = ("scalar-pv", "em-pv", "em-commutator", "asymptotes")
_AXIS_SHORTCUTS = {"x": "1,0,0", "y": "0,1,0", "z": "0,0,1"}
_POINT = ("accel", "sep", "omega0")  # the closed forms' (a, z, omega0) order
# Bound once: an Enum member's .value is a Python call on 3.11.
_INERTIAL_LABEL, _INTERMEDIATE_LABEL, _FARZONE_LABEL = (regime.value for regime in Regime)

# name: (caster, choices a flag must be one of, help text)
_OPTIONS = {
    "field": (str, ("scalar", "em"), "field the atoms couple to"),
    "parity": (str, ("sym", "anti"), "two-atom state symmetry"),
    "accel": (float, None, "proper acceleration in m/s^2 (default 0, required by regimes)"),
    "sep": (float, None, "interatomic separation in m"),
    "omega0": (float, None, "transition frequency in rad/s"),
    "coupling": (float, None, "scalar coupling strength (default 1)"),
    "dipole_a": (str, None, "dipole of atom A: x|y|z or 'dx,dy,dz' (default z)"),
    "dipole_b": (str, None, "dipole of atom B: x|y|z or 'dx,dy,dz' (default z)"),
    "param": (str, ("sep", "accel", "omega0"), "parameter to sweep"),
    "from": (float, None, "sweep start"),
    "to": (float, None, "sweep end, above --from"),
    "points": (int, None, "number of samples (default 50)"),
    "spacing": (str, ("lin", "log"), "sample spacing (default lin)"),
    "suite": (str, (*_SUITES, "all"), "suite to run (default all)"),
    "tol": (float, None, "override the suite tolerance"),
    "format": (str, ("text", "csv"), "output format (default text)"),
    "out": (str, None, "write output to this file instead of stdout"),
    "config": (str, None, "flat key = value config file"),
}


def _choice(name: str, value):
    """``value`` if it is one of the choices of option ``name``, else its flag's UsageError."""
    choices = _OPTIONS[name][1]
    if choices and value not in choices:
        flag = "--" + name.replace("_", "-")
        raise UsageError(f"{flag} must be one of {', '.join(choices)}; got {value!r}")
    return value


def _cast(name: str, value: str, where: str = ""):
    cast = _OPTIONS[name][0]
    try:
        return cast(value)
    except ValueError:
        raise UsageError(f"{where}cannot parse {value!r} as {cast.__name__} for {name!r}") from None


def _read_config(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        # "#" opens a comment at the start of a line or after whitespace,
        # as configparser's inline comments do: "out = run#1.csv" keeps it.
        line = raw.strip()
        cut = line.find("#")
        while cut > 0 and not line[cut - 1].isspace():
            cut = line.find("#", cut + 1)
        if cut >= 0:
            line = line[:cut].rstrip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS or key == "config":
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _cast(key, value.strip(), f"{path}:{lineno}: ")
    return values


def _require(opts: dict, key: str):
    value = opts.get(key)
    if value is None:
        raise UsageError(f"missing required option --{key} (or config key '{key}')")
    return value


def _parse_dipole(raw: str, name: str) -> tuple:
    text = raw.strip().lower()
    text = _AXIS_SHORTCUTS.get(text, text)
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{name} must be 'x', 'y', 'z', or three comma-separated numbers")
    try:
        return tuple([float(p) for p in parts])
    except ValueError:
        raise UsageError(f"cannot parse {name} components from {raw!r}") from None


def _build_scenario(opts: dict) -> Scenario:
    field_kind = FieldKind.from_label(_require(opts, "field"))
    parity = Parity.from_label(_require(opts, "parity"))
    separation = _require(opts, "sep")
    omega0 = _require(opts, "omega0")
    acceleration = opts.get("accel", 0.0)
    if field_kind is FieldKind.SCALAR:
        return Scenario.scalar_field(
            acceleration=acceleration,
            separation=separation,
            omega0=omega0,
            parity=parity,
            coupling=opts.get("coupling", 1.0),
        )
    return Scenario.em_field(
        acceleration=acceleration,
        separation=separation,
        omega0=omega0,
        parity=parity,
        dipole_a=_parse_dipole(opts.get("dipole_a", "z"), "--dipole-a"),
        dipole_b=_parse_dipole(opts.get("dipole_b", "z"), "--dipole-b"),
    )


def _closed_form_rows(scenario: Scenario, param: str, values: list) -> list:
    """CSV rows of the closed form, one per value of ``param`` in ``values``.

    ``param`` (sep, accel or omega0) takes each of ``values`` in turn;
    the other two inputs are the scenario's, repeated into the closed
    form's (a, z, omega0) points by ``zip``, so no Python code builds a
    point.  The fixed cells, zeta in an omega0 sweep and theta in an
    accel sweep among them, are formatted once into a ``%`` template.
    One pass over the closed-form rows builds the lines with no Python
    call; only a negative or nan zeta goes through
    :meth:`Regime.classify`, which raises.  The first non-finite shift
    raises DomainError.
    """
    if scenario.field_kind is _SCALAR:
        closed_form = scalar_closed_form
    else:
        from .em import em_closed_form as closed_form
    point = (scenario.acceleration, scenario.separation, scenario.omega0)
    inputs = [values if name == param else repeat(x) for name, x in zip(_POINT, point)]
    rows = closed_form(scenario, zip(*inputs))
    first = (*point, *rows[0][:2])  # a, z, omega0, zeta, theta
    fixed = {"accel": (1, 2, 4), "omega0": (0, 1, 3)}.get(param, (0, 2))
    cells = [",%.16e" % first[i] if i in fixed else ",%.16e" for i in range(7)]
    template = f"{scenario.field_kind.value},{scenario.parity.value}{''.join(cells)},%s"
    lines = []
    for value, (zeta, theta, reduced, prefactor) in zip(values, rows):
        si_value = prefactor * reduced
        if not (-_FLOAT_MAX <= reduced <= _FLOAT_MAX and -_FLOAT_MAX <= si_value <= _FLOAT_MAX):
            check_finite_shift(reduced, si_value)
        if zeta > FARZONE_ZETA_MIN:
            regime = _FARZONE_LABEL
        elif zeta >= INERTIAL_ZETA_MAX:
            regime = _INTERMEDIATE_LABEL
        elif zeta >= 0.0:
            regime = _INERTIAL_LABEL
        else:
            regime = Regime.classify(zeta).value  # raises for a negative or nan zeta
        if param == "omega0":
            lines.append(template % (value, theta, reduced, si_value, regime))
        elif param == "accel":
            lines.append(template % (value, zeta, reduced, si_value, regime))
        else:
            lines.append(template % (value, zeta, theta, reduced, si_value, regime))
    return lines


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout if ``out`` is None.

    A file gets the utf-8 bytes through its descriptor, overwritten in
    place, then cut to length if regular (not /dev/null or a pipe):
    truncating first frees its blocks, which on a file system with
    online discard costs several times the write.
    """
    if out is None:
        sys.stdout.write(text)
        return
    data = text.encode()
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc.strerror or exc}") from None


def _scale_rows(acceleration: float) -> list:
    """Table rows of the Unruh temperature and the crossover length c**2/a (inf at a = 0)."""
    c = SPEED_OF_LIGHT
    return [
        ("unruh_K", f"{unruh_temperature(acceleration):.16e}"),
        ("crossover_m", f"{c * c / acceleration if acceleration > 0.0 else math.inf:.16e}"),
    ]


def _emit_table(rows: list, out: Optional[str]) -> None:
    """Write (key, value) rows as two aligned columns."""
    _emit("".join(f"{key:<14}{value}\n" for key, value in rows), out)


def cmd_compute(opts: dict) -> int:
    scenario = _build_scenario(opts)
    (row,) = _closed_form_rows(scenario, "sep", [scenario.separation])
    if _choice("format", opts.get("format", "text")) == "csv":
        _emit(CSV_HEADER + "\n" + row + "\n", opts.get("out"))
        return 0
    rows = [*zip(CSV_HEADER.split(","), row.split(",")), *_scale_rows(scenario.acceleration)]
    _emit_table(rows, opts.get("out"))
    return 0


def _sweep_grid(start: float, stop: float, points: int, spacing: str) -> list:
    """``points`` values from start to stop, both kept exactly, without numpy.

    A "lin" grid is np.linspace(start, stop, points).tolist() bit for
    bit.  A "log" grid is 10**x over the "lin" grid of the log10 bounds;
    inside the ends it may round other than np.geomspace, whose pow and
    log10 are not libm's.
    """
    if spacing == "log":
        inner = _sweep_grid(math.log10(start), math.log10(stop), points, "lin")[1:-1]
        try:
            return [start, *[10.0**x for x in inner], stop]
        except OverflowError:  # a rounded log10 just below the largest float
            raise DomainError(f"a log grid from {start} to {stop} overflows") from None
    div = points - 1
    step = (stop - start) / div
    if step == 0.0:  # a subnormal span: as numpy, scale before multiplying
        values = [i / div * (stop - start) + start for i in range(points)]
    else:
        values = [i * step + start for i in range(points)]
    values[-1] = stop
    return values


def cmd_sweep(opts: dict) -> int:
    param = _choice("param", _require(opts, "param"))
    start = _require(opts, "from")
    stop = _require(opts, "to")
    points = opts.get("points", 50)
    spacing = opts.get("spacing", "lin")
    if points < 2:
        raise UsageError(f"--points must be at least 2, got {points}")
    if not start < stop:
        raise UsageError(f"--from must be strictly below --to, got {start} and {stop}")
    if _choice("spacing", spacing) == "log" and start <= 0.0:
        raise UsageError("log spacing requires strictly positive bounds")
    # An infinite bound or an overflowing span leaves stop - start
    # infinite; caught here, the grid holds finite values only.
    if not stop - start < math.inf:
        raise DomainError(f"--from and --to must span a finite range, got {start} and {stop}")
    values = _sweep_grid(start, stop, points, spacing)

    # The swept parameter needs no base value; the others stay fixed.
    base = {key: _require(opts, key) for key in ("sep", "omega0") if key != param}
    # One scenario at the first grid value checks every option as compute
    # does.  Every grid value is finite and at least the first, so the
    # first is the only one that can be out of the domain.
    base[param] = values[0]
    scenario = _build_scenario({**opts, **base})
    rows = _closed_form_rows(scenario, param, values)
    _emit("\n".join([CSV_HEADER, *rows]) + "\n", opts.get("out"))
    return 0


def cmd_verify(opts: dict) -> int:
    from .oracle import VerificationReport, run_suites
    from .quad import QuadratureSpec

    suite = _choice("suite", opts.get("suite", "all"))
    names = list(_SUITES) if suite == "all" else [suite]
    spec = QuadratureSpec.from_environment()
    fmt = _choice("format", opts.get("format", "text"))
    reports = run_suites(names, spec=spec, tolerance=opts.get("tol"))
    if fmt == "csv":  # one header: each check_id names its suite
        checks = [check for report in reports.values() for check in report.checks]
        text = VerificationReport(tuple(checks)).to_csv()
    else:
        text = "".join(f"== suite {name} ==\n{reports[name].to_text()}" for name in names)
    _emit(text, opts.get("out"))
    return 0 if all(report.passed for report in reports.values()) else 1


def cmd_regimes(opts: dict) -> int:
    accel = _require(opts, "accel")
    rows = [("a_mps2", f"{accel:.16e}"), *_scale_rows(accel)]
    omega0 = opts.get("omega0")
    if omega0 is not None:
        omega0 = _as_float(omega0, "omega0", "positive")
        rows.append(("wavelength_m", f"{SPEED_OF_LIGHT / omega0:.16e}"))
    sep = opts.get("sep")
    if sep is not None:
        geom = reduced_geometry(accel, sep, omega0 or 0.0)
        rows.append(("zeta", f"{geom.zeta:.16e}"))
        rows.append(("regime", geom.regime.value))
    _emit_table(rows, opts.get("out"))
    return 0


def _command(handler, summary: str, *names: str) -> tuple:
    """(handler, summary, {flag: option name}) for a subcommand allowing ``names``."""
    flags = {"--" + name.replace("_", "-"): name for name in (*names, "config", "out")}
    return handler, summary, flags


_SCENARIO = ("field", "parity", "accel", "sep", "omega0", "coupling", "dipole_a", "dipole_b")
_COMMANDS = {
    "compute": _command(cmd_compute, "evaluate one configuration", *_SCENARIO, "format"),
    "sweep": _command(
        cmd_sweep, "scan one parameter, emit CSV",
        *_SCENARIO, "param", "from", "to", "points", "spacing",
    ),
    "verify": _command(cmd_verify, "run numerical cross-check suites", "suite", "tol", "format"),
    "regimes": _command(
        cmd_regimes, "characteristic scales for an acceleration", "accel", "omega0", "sep"
    ),
}


def _parse(argv) -> tuple:
    """(command, flags) from argv; flags is None if help was asked for."""
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in ("-h", "--help"):
            return None, None
        got = f"; got {argv[0]!r}" if argv else ""
        raise UsageError(f"expected a command, one of {', '.join(_COMMANDS)}{got}")
    command, flags = argv[0], {}
    allowed = _COMMANDS[command][2]
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-h":
            return command, None
        flag, eq, value = token.partition("=")
        if flag not in allowed:
            if flag[:2] != "--" or flag == "--":
                raise UsageError(f"unexpected argument {token!r}")
            matches = [f for f in (*allowed, "--help") if f.startswith(flag)]
            if len(matches) != 1:
                which = f"ambiguous option {flag} could be {', '.join(matches)}"
                raise UsageError(which if matches else f"unknown option {flag} for {command}")
            flag = matches[0]
            if flag == "--help":
                return command, None
        name = allowed[flag]
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"option {flag} expects a value")
        flags[name] = _choice(name, _cast(name, value))
    return command, flags


def _help(command: Optional[str]) -> str:
    if command is None:
        usage, summary = "COMMAND", "Resonance energy shift of two uniformly accelerated atoms."
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        usage, summary, flags = command, *_COMMANDS[command][1:]
        rows = [("-h, --help", "print this help")]
        for flag, name in flags.items():
            _, choices, text = _OPTIONS[name]
            rows.append((flag, text + (f"; one of {', '.join(choices)}" if choices else "")))
    lines = [f"usage: rindler-resonance {usage} [--option value ...]", "", summary, ""]
    lines += [f"  {key:<12}{text}" for key, text in rows]
    return "\n".join(lines) + "\n"


def main(argv: Optional[list] = None) -> int:
    try:
        command, flags = _parse(sys.argv[1:] if argv is None else argv)
        if flags is None:
            sys.stdout.write(_help(command))
            return 0
        path = flags.get("config")
        return _COMMANDS[command][0]({**_read_config(path), **flags} if path else flags)
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
