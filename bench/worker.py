"""Runs one benchmark workload and prints its result as one JSON line.

Started by ``run.py`` in a fresh interpreter with a clean environment;
see ``bench/README.md`` for the workloads and metrics.  The package is
imported from ``src/`` of the checkout this file sits in, and only
through its public names.  Per-layer numbers come from timing calls
into each module from here; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import rindler_resonance as rr  # noqa: E402
from rindler_resonance import cli  # noqa: E402

import inputs  # noqa: E402
from scenarios import oracle_scenario, point_energy, point_scenario  # noqa: E402

if not Path(rr.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported {rr.__file__}, not the package under {SRC}")

NS = time.perf_counter_ns
C = rr.SPEED_OF_LIGHT
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
# Timing metrics count one reference-kernel call as this many ns (see Stats).
REFERENCE_NS = 5000.0
REFERENCE_X = np.linspace(0.1, 2.0, 16)
REFERENCE_REPEATS = 3

# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "core.scenario_us": "scalar_point_ms.p50, em_point_ms.p50 on closed-form, cli-sweep",
    "core.reduced_geometry_us": "scalar_point_ms.p50, em_point_ms.p50 on closed-form, cli-sweep",
    "scalar.energy_us": "scalar_point_ms.p50 on closed-form, cli-sweep",
    "em.coefficients_us": "em_point_ms.p50 on closed-form, cli-sweep",
    "em.potentials_us": "em_point_ms.p50 on closed-form, cli-sweep",
    "em.energy_us": "em_point_ms.p50 on closed-form, cli-sweep",
    "em.contract_us": "em_point_ms.p50 on closed-form, cli-sweep",
    "cli.sweep_row_us": "scalar_point_ms.p50, em_point_ms.p50 on cli-sweep",
    "cli.self_row_us": "scalar_point_ms.p50, em_point_ms.p50 on cli-sweep",
    "cli.compute_ms": "setup_s on cli-sweep",
    "quad.pv_kernel_ms": "scalar_point_ms.p50, em_point_ms.p50 on oracle; nothing on the others",
    "quad.density_ms": "scalar_point_ms.p50, em_point_ms.p50 on oracle; nothing on the others",
    "quad.self_ms": "scalar_point_ms.p50, em_point_ms.p50 on oracle; nothing on the others",
    "quad.head_evals": "scalar_point_ms.p50, em_point_ms.p50 on oracle; nothing on the others",
    "quad.window_evals": "scalar_point_ms.p50, em_point_ms.p50 on oracle; nothing on the others",
    "quad.tail_evals": "scalar_point_ms.p50, em_point_ms.p50 on oracle; nothing on the others",
    "oracle.scalar_pv_ms": "scalar_point_ms.p50 on oracle; nothing on the others",
    "oracle.em_pv_ms": "em_point_ms.p50 on oracle; nothing on the others",
    "oracle.self_ms": "scalar_point_ms.p50, em_point_ms.p50 on oracle; nothing on the others",
    "oracle.em_calibration_ms": "setup_s on oracle",
    "oracle.commutator_ms": "commutator_check_ms.p50 (printed, unbounded) on oracle",
    "trace.overhead_pct": "none: slow-down of this run's traced half against its untraced half",
}
UNITS = {"us": "us", "ms": "ms", "evals": "count", "pct": "%"}
# Public names due to be retired; their probes are skipped once the names are gone.
RETIRING = {"em.coefficients_us": "em_spectral_coefficients", "em.potentials_us": "em_potential_tensors"}


def percentile(values, p: float) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("no successful operation to take a percentile of")
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_rung(n: int) -> float:
    """Highest ladder percentile that leaves at least 10 of n samples beyond it."""
    return next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), 50.0)


def reference_kernel() -> float:
    """Fixed work of the kind a closed-form point does: math calls and small numpy arrays.

    It never calls the package, so no change to the package changes its cost.
    """
    acc = 0.0
    for k in range(8):
        acc += math.asinh(0.1 * k + 0.5) / (1.0 + k)
    return float((np.cos(REFERENCE_X * acc) / np.sqrt(1.0 + REFERENCE_X * REFERENCE_X)).sum())


def reference_ns() -> int:
    """Best of REFERENCE_REPEATS back-to-back kernel calls; the first after a large op runs cold."""
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        t0 = NS()
        reference_kernel()
        best = min(best, NS() - t0)
    return best


class Stats:
    """Best (shortest) time seen for each op's end-to-end call, in reference-kernel calls.

    A shared host can change speed by up to 2x, in spells from
    milliseconds to minutes, so a run's mean tracks the host's load.  Each
    op's best time over its repeats tracks the program far more closely,
    but a run that falls wholly in a slow spell still reads slow.  So the
    reference kernel is timed after every op call, and every timing metric
    is built from the ops' best times divided by the kernel's best time in
    the same run, times REFERENCE_NS.
    """

    def __init__(self, n_ops: int):
        self.best = array("d", [math.inf]) * n_ops
        self.reference_best = math.inf
        self.calls = 0
        self.wall_ns = 0

    def add(self, i: int, ns: int, reference_ns: int) -> None:
        self.best[i] = min(self.best[i], ns)
        self.reference_best = min(self.reference_best, reference_ns)
        self.calls += 1

    def scaled_ns(self, i: int) -> float:
        return self.best[i] * REFERENCE_NS / self.reference_best

    def points_per_s(self, wl, indices) -> float:
        """Points per second if every op ran at its best time."""
        points = sum(wl.points(wl.ops[i]) for i in indices)
        return points / (sum(self.scaled_ns(i) for i in indices) / 1e9)

    def point_ms(self, wl, indices) -> list:
        return [self.scaled_ns(i) / wl.points(wl.ops[i]) / 1e6 for i in indices]


def overhead_pct(untraced: Stats, traced: Stats) -> float:
    """How much longer, in %, the traced half takes per op than the untraced half, probes included."""
    per_call = [s.wall_ns / s.calls for s in (untraced, traced)]
    return (per_call[1] / per_call[0] - 1.0) * 100.0


@dataclasses.dataclass(frozen=True)
class Raised:
    """An op that raised; only the text is kept, so no traceback holds its arrays alive."""

    text: str


class Spans:
    """Durations of calls into each layer, timed from outside the package."""

    def __init__(self):
        self.ns = defaultdict(list)
        self.evals = {}
        self.unexpected = []

    def time(self, name: str, fn, *args):
        t0 = NS()
        out = fn(*args)
        self.ns[name].append(NS() - t0)
        return out


# ---------------------------------------------------------------- workloads


def probe_point(spans: Spans, p: inputs.Point) -> None:
    """Time one closed-form point layer by layer: core, then scalar or em."""
    scenario = spans.time("core.scenario_us", point_scenario, p)
    t0 = NS()
    geom = rr.reduced_geometry(p.acceleration, p.separation, p.omega0)
    geom_ns = NS() - t0
    spans.ns["core.reduced_geometry_us"].append(geom_ns)
    if p.field == "scalar":
        spans.time("scalar.energy_us", rr.scalar_resonance_energy, scenario)
        return
    layer_ns = {}
    for name, public in RETIRING.items():
        fn = getattr(rr, public, None)
        if fn is not None:
            t0 = NS()
            fn(geom)
            layer_ns[name] = NS() - t0
            spans.ns[name].append(layer_ns[name])
    t0 = NS()
    rr.em_resonance_energy(scenario)
    energy_ns = NS() - t0
    spans.ns["em.energy_us"].append(energy_ns)
    if "em.potentials_us" in layer_ns:
        spans.ns["em.contract_us"].append(energy_ns - layer_ns["em.potentials_us"] - geom_ns)


def check_point(ref, p: inputs.Point, reduced: float, si: float):
    """Why a closed-form result (reduced, si_value) for point p is wrong, or None."""
    if not (math.isfinite(reduced) and math.isfinite(si)):
        return f"non-finite result {reduced!r}, {si!r}"
    if p.field == "scalar":
        want, env, pref = ref.scalar_reference(
            p.acceleration, p.separation, p.omega0, p.coupling, p.parity
        )
    elif p.pair != "general":
        want, env, pref = ref.em_parallel_reference(
            p.acceleration, p.separation, p.omega0, p.dipole_a, p.dipole_b, p.parity
        )
    else:
        return None
    tol = ref.CLOSED_FORM_TOL
    if not ref.within(reduced, want, env, tol) or not ref.within(si, want * pref, env * pref, tol):
        return f"{reduced!r}, {si!r} vs {float(want)!r}, {float(want * pref)!r} (envelope {float(env):.3g})"
    return None


class ClosedForm:
    """Single-point library calls: a Scenario from SI inputs, then its energy."""

    name = "closed-form"

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.ops = [inputs.closed_form_point(seed, i) for i in range(inputs.CLOSED_FORM_POINTS)]
        self.kinds_in_cycle = {"scalar": len(self.ops) // 2, "em": len(self.ops) // 2}

    def kind(self, p):
        return p.field

    def points(self, p):
        return 1

    def warm_up(self):
        for p in self.ops[:50]:
            point_energy(point_scenario(p))

    def call(self, p):
        return point_energy(point_scenario(p))

    def trace(self, spans, p, out, ns):
        probe_point(spans, p)

    def check(self, ref, p, out) -> tuple:
        """(points failed, reason or None)."""
        if isinstance(out, Raised):
            return 1, f"raised {out.text}"
        why = check_point(ref, p, out.reduced, out.si_value)
        return (1, why) if why else (0, None)

    def defect(self, p):
        return inputs.known_defect("closed-form", p.zeta)


def sweep_grid(s: inputs.Sweep) -> np.ndarray:
    if s.spacing == "log":
        return np.geomspace(s.start, s.stop, s.points)
    return np.linspace(s.start, s.stop, s.points)


def sweep_row_point(s: inputs.Sweep, value: float) -> inputs.Point:
    values = dict(s.fixed)
    values[s.param] = float(value)
    return inputs.Point(
        field=s.field,
        parity=s.parity,
        acceleration=values["accel"],
        separation=values["sep"],
        omega0=values["omega0"],
        zeta=math.nan,
        theta=math.nan,
        dipole_a=s.dipole_a,
        dipole_b=s.dipole_b,
        pair=s.pair,
    )


CSV_HEADER = "field,parity,a_mps2,z_m,omega0_radps,zeta,theta,reduced,si_joule,regime"


def _regime(zeta: float) -> str:
    return "Inertial" if zeta < 0.1 else ("FarZone" if zeta > 10.0 else "Intermediate")


class CliSweep:
    """In-process ``cli.main(["sweep", ...])`` calls writing CSV files."""

    name = "cli-sweep"

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.ops = [inputs.cli_sweep(seed, i) for i in range(inputs.CLI_SWEEPS)]
        self.workdir = workdir
        self.kinds_in_cycle = {"scalar": len(self.ops) // 2, "em": len(self.ops) // 2}

    def out(self, s) -> str:
        return str(self.workdir / f"sweep-{s.index}.csv")

    def kind(self, s):
        return s.field

    def points(self, s):
        return s.points

    def warm_up(self):
        s = self.ops[1]
        cli.main(dataclasses.replace(s, points=50).argv(str(self.workdir / "warm.csv")))

    def call(self, s):
        return cli.main(s.argv(self.out(s)))

    def trace(self, spans, s, out, ns):
        spans.ns["cli.sweep_row_us"].append(ns / s.points)
        rows = [sweep_row_point(s, v) for v in sweep_grid(s)]
        t0 = NS()
        for p in rows:
            point_energy(point_scenario(p))
        spans.ns["cli.self_row_us"].append((ns - (NS() - t0)) / s.points)
        for p in rows[:: max(1, len(rows) // 50)]:
            probe_point(spans, p)
        spans.time("cli.compute_ms", cli.main, s.compute_argv(str(self.workdir / "compute.txt")))

    def check(self, ref, s, rc) -> tuple:
        if isinstance(rc, Raised) or rc != 0:
            return s.points, f"sweep exited with {rc!r}"
        with open(self.out(s), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CSV_HEADER or len(lines) != s.points + 1:
            return s.points, f"bad header or {len(lines) - 1} rows for {s.points}"
        bad = 0
        reason = None
        for k, (value, line) in enumerate(zip(sweep_grid(s), lines[1:])):
            why = self._check_row(ref, s, value, line.split(","))
            if why:
                bad += 1
                reason = reason or f"row {k}: {why}"
        return bad, reason

    def _check_row(self, ref, s, value, cols):
        if len(cols) != 10 or cols[0] != s.field or cols[1] != s.parity:
            return f"bad columns {cols[:2]}"
        a, z, w, zeta, theta, reduced, si = (float(x) for x in cols[2:9])
        if not all(math.isfinite(x) for x in (zeta, theta, reduced, si)):
            return "non-finite value"
        p = sweep_row_point(s, value)
        if any(abs(x - y) > 1e-14 * abs(y) for x, y in zip((a, z, w), (p.acceleration, p.separation, p.omega0))):
            return f"row inputs {(a, z, w)} differ from the grid value {value!r}"
        if cols[9] != _regime(zeta):
            return f"regime {cols[9]} at zeta {zeta!r}"
        zeta_ref, theta_ref = ref.reduced_zeta_theta(a, z, w)
        if abs(zeta - zeta_ref) > 1e-12 * zeta_ref or abs(theta - theta_ref) > 1e-12 * theta_ref:
            return f"zeta/theta {zeta!r}/{theta!r} vs {zeta_ref!r}/{theta_ref!r}"
        return check_point(ref, p, reduced, si)

    def defect(self, s):
        return None


def op_point(op: inputs.OracleOp, scenario) -> inputs.Point:
    return inputs.Point(
        field=op.field,
        parity=op.parity,
        acceleration=scenario.acceleration,
        separation=scenario.separation,
        omega0=scenario.omega0,
        zeta=op.zeta,
        theta=op.theta,
        dipole_a=scenario.dipole_a if op.field == "em" else None,
        dipole_b=scenario.dipole_b if op.field == "em" else None,
    )


class CountingDensity(rr.TrigPolyDensity):
    """TrigPolyDensity that counts its evaluation points by region and times itself.

    Regions: head below omega0/2, tail above 3*omega0/2, window between.
    """

    def start(self, omega0: float) -> "CountingDensity":
        object.__setattr__(self, "bounds", (0.5 * omega0, 1.5 * omega0))
        object.__setattr__(self, "counts", [0, 0, 0])
        object.__setattr__(self, "density_ns", 0)
        return self

    def __call__(self, w):
        t0 = NS()
        out = super().__call__(w)
        object.__setattr__(self, "density_ns", self.density_ns + NS() - t0)
        w = np.asarray(w)
        head = int(np.count_nonzero(w < self.bounds[0]))
        tail = int(np.count_nonzero(w > self.bounds[1]))
        self.counts[0] += head
        self.counts[1] += w.size - head - tail
        self.counts[2] += tail
        return out


def probe_kernel(spans: Spans, index: int, geom) -> bool:
    """PV kernel on sin(w S) with a counting density; checks PV = pi cos(omega0 S)."""
    density = CountingDensity(osc_time=geom.light_time, sin_coeffs=(1.0, 0.0, 0.0)).start(geom.omega0)
    t0 = NS()
    try:
        value = rr.pv_resonance_kernel(density, geom.omega0)
    except rr.QuadratureError:
        value = math.nan
    kernel_ns = NS() - t0
    spans.ns["quad.pv_kernel_ms"].append(kernel_ns)
    spans.ns["quad.density_ms"].append(density.density_ns)
    spans.ns["quad.self_ms"].append(kernel_ns - density.density_ns)
    spans.evals[index] = tuple(density.counts)
    return abs(value - math.pi * math.cos(geom.phase)) <= 1e-6 * math.pi


class Oracle:
    """Principal-value points of both fields and commutator consistency checks."""

    name = "oracle"

    def __init__(self, seed: int, seconds: int, workdir: Path):
        n = inputs.oracle_ops_per_cycle(seconds)
        self.ops = [inputs.oracle_op(seed, i, n) for i in range(n)]
        self.args = [self._prepare(op) for op in self.ops]
        self.kinds_in_cycle = defaultdict(int)
        for op in self.ops:
            self.kinds_in_cycle[self.kind(op)] += 1

    @staticmethod
    def _prepare(op):
        if op.kind == "commutator":
            return rr.reduced_geometry(2.0 * C * C * op.zeta, 1.0, op.theta * C)
        return oracle_scenario(op)

    def kind(self, op):
        return op.field

    def points(self, op):
        return 1

    def warm_up(self):
        # Pays the cached EM calibration before timing; setup_s measures it.
        rr.em_energy_pv_oracle(oracle_scenario(inputs.CALIBRATION_OP))

    def call(self, op):
        arg = self.args[op.index]
        if op.kind == "commutator":
            return rr.commutator_agreeing_components(rr.em_commutator_consistency(arg))
        if op.field == "scalar":
            return rr.scalar_energy_pv_oracle(arg)
        return rr.em_energy_pv_oracle(arg)

    def trace(self, spans, op, out, ns):
        arg = self.args[op.index]
        if op.kind == "commutator":
            spans.ns["oracle.commutator_ms"].append(ns)
            return
        spans.ns[f"oracle.{op.field}_pv_ms"].append(ns)
        geom = rr.reduced_geometry(arg.acceleration, arg.separation, arg.omega0)
        if not probe_kernel(spans, op.index, geom) and self.defect(op) is None:
            spans.unexpected.append(f"PV kernel identity failed at theta {op.theta!r}, zeta {op.zeta!r}")
        if op.field == "scalar":
            plain = rr.TrigPolyDensity(osc_time=geom.light_time, sin_coeffs=(1.0, 0.0, 0.0))
            t0 = NS()
            try:
                rr.pv_resonance_kernel(plain, geom.omega0)
            except rr.QuadratureError:
                pass
            spans.ns["oracle.self_ms"].append(ns - (NS() - t0))
        probe_point(spans, op_point(op, arg))

    def check(self, ref, op, out) -> tuple:
        if isinstance(out, Raised):
            return 1, f"raised {out.text}"
        if op.kind == "commutator":
            missing = sorted(set(ref.COMMUTATOR_REQUIRED) - set(out))
            return (1, f"components {missing} disagree") if missing else (0, None)
        if not math.isfinite(out):
            return 1, f"non-finite PV value {out!r}"
        scenario = self.args[op.index]
        crossed = None
        if op.field == "em" and op.dipoles[0] != op.dipoles[1]:
            crossed = rr.em_resonance_energy(scenario).reduced
        want, env = ref.pv_reference(op, scenario.acceleration, scenario.omega0, crossed)
        if not ref.within(out, want, env, ref.PV_TOL):
            return 1, f"PV {out!r} vs closed form {float(want)!r} (envelope {float(env):.3g})"
        return 0, None

    def defect(self, op):
        kind = "commutator" if op.kind == "commutator" else "pv"
        return inputs.known_defect(kind, op.zeta, op.theta)


WORKLOAD_CLASSES = {"closed-form": ClosedForm, "cli-sweep": CliSweep, "oracle": Oracle}


# ------------------------------------------------------------------ running


def run_timed(wl, seconds: float, spans=None, full_cycle=True):
    """Cycle through the workload's ops until ``seconds`` have passed.

    With ``full_cycle`` the first cycle always completes, so every op is
    attempted and checked once whatever the machine's speed.  An op that
    raised is not repeated: failed ops are left out of the timing metrics,
    and the time goes to more repeats of the others.  Returns the stats and
    the first cycle's outputs (a Raised for an op that raised).
    """
    stats = Stats(len(wl.ops))
    first = [None] * len(wl.ops)
    start = NS()
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        for i, op in enumerate(wl.ops):
            if cycle > 0 and isinstance(first[i], Raised):
                continue
            t0 = NS()
            try:
                out = wl.call(op)
            except Exception as exc:  # recorded as this op's failure
                out = Raised(f"{type(exc).__name__}: {exc}")
            ns = NS() - t0
            stats.add(i, ns, reference_ns())
            if cycle == 0:
                first[i] = out
            if spans is not None:
                wl.trace(spans, op, out, ns)
            if (cycle > 0 or not full_cycle) and time.perf_counter() >= deadline:
                stats.wall_ns = NS() - start
                return stats, first
        cycle += 1
        if time.perf_counter() >= deadline:
            stats.wall_ns = NS() - start
            return stats, first


def check_outputs(wl, first):
    """Check the first cycle's outputs; returns (attempted, failed, defects, unexpected, ok_ops)."""
    import reference as ref

    attempted = failed = 0
    defects = defaultdict(int)
    unexpected = []
    ok_ops = set()
    for i, op in enumerate(wl.ops):
        n_bad, reason = wl.check(ref, op, first[i])
        attempted += wl.points(op)
        failed += n_bad
        if not n_bad:
            ok_ops.add(i)
            continue
        region = wl.defect(op)
        if region:
            defects[region] += n_bad
        else:
            unexpected.append(f"{wl.name} op {i} ({wl.kind(op)}): {reason}")
    return attempted, failed, dict(defects), unexpected, ok_ops


def end_to_end(wl, stats, ok_ops) -> tuple:
    """Bounded end-to-end metrics, and report lines for the unbounded ones.

    Only medians are bounded.  PV point costs span an order of magnitude
    and cluster in omega0*S bands, so on the oracle workload a mean
    (throughput) or a tail depends on a handful of expensive points and
    swings more between runs than the median does.  Everything counts
    successful ops only; failures show in ``failed``.
    """
    metrics = {}
    lines = [
        f"reference_kernel_us = {stats.reference_best / 1e3:.6g} us (best; timings count it as {REFERENCE_NS / 1e3:g} us)",
        f"ops_per_s = {stats.points_per_s(wl, ok_ops):.6g} 1/s (at best times, unbounded)",
    ]

    def ok_of(*kinds):
        return [i for i in sorted(ok_ops) if wl.kind(wl.ops[i]) in kinds]

    for kind in ("scalar", "em"):
        lat = stats.point_ms(wl, ok_of(kind))
        metrics[f"{kind}_point_ms.p50"] = (median(lat), "ms")
        rung = tail_rung(wl.kinds_in_cycle[kind])
        rate = stats.points_per_s(wl, ok_of(kind))
        lines.append(f"{kind}_points_per_s = {rate:.6g} 1/s (at best times, unbounded)")
        lines.append(f"{kind}_point_ms.tail = {percentile(lat, rung):.6g} ms (p{rung:g}, unbounded)")
    if wl.name == "oracle":
        pv = stats.point_ms(wl, ok_of("scalar", "em"))
        rung = tail_rung(wl.kinds_in_cycle["scalar"] + wl.kinds_in_cycle["em"])
        lines.append(f"pv_point_ms.p50 = {median(pv):.6g} ms (unbounded)")
        lines.append(f"pv_point_ms.tail = {percentile(pv, rung):.6g} ms (p{rung:g}, unbounded)")
        comm = stats.point_ms(wl, ok_of("commutator"))
        if comm:
            lines.append(f"commutator_check_ms.p50 = {median(comm):.6g} ms (unbounded)")
    return metrics, lines


def calibration_ms(seed: int, workdir: Path, env_python: str) -> float:
    """First EM oracle call minus a warm call on the same point, in fresh interpreters."""
    diffs = []
    for _ in range(3):
        proc = subprocess.run(
            [env_python, "-E", "-s", str(HERE / "first_op.py"), "calibration", str(seed), str(workdir)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        first, warm = json.loads(proc.stdout.splitlines()[-1])
        diffs.append(first - warm)
    return median(diffs)


def side_probes(wl_name: str, seed: int, spans: Spans, workdir: Path) -> None:
    """Per-layer probes of the layers this workload never calls, on a few seeded inputs."""
    if wl_name != "cli-sweep":
        side = CliSweep(seed, 1, workdir)
        for s in side.ops[:2]:
            small = dataclasses.replace(s, points=200)
            t0 = NS()
            cli.main(small.argv(str(workdir / "side.csv")))
            side.trace(spans, small, 0, NS() - t0)
    if wl_name != "oracle":
        side = Oracle(seed, 30, workdir)
        side.warm_up()
        # One moderate-phase op of each kind; the oracle workload covers the slow domains.
        picks = {}
        for op in side.ops:
            if op.kind not in picks and op.theta < 5.0 and side.defect(op) is None:
                picks[op.kind] = op
        for op in picks.values():
            t0 = NS()
            out = side.call(op)
            side.trace(spans, op, out, NS() - t0)


def per_layer(spans: Spans, overhead_pct: float, calibration: float) -> tuple:
    metrics = {}
    absent = []
    for name in MOVES:
        unit = UNITS[name.rsplit("_", 1)[1]]
        if name in RETIRING and getattr(rr, RETIRING[name], None) is None:
            absent.append(name)
            continue
        if name == "em.contract_us" and getattr(rr, RETIRING["em.potentials_us"], None) is None:
            absent.append(name)
            continue
        if name.endswith("_evals"):
            k = ("quad.head_evals", "quad.window_evals", "quad.tail_evals").index(name)
            counts = [c[k] for c in spans.evals.values()]
            metrics[name] = (sum(counts) / len(counts), unit)
        elif name == "trace.overhead_pct":
            metrics[name] = (overhead_pct, unit)
        elif name == "oracle.em_calibration_ms":
            metrics[name] = (calibration, unit)
        else:
            scale = 1e3 if unit == "us" else 1e6
            metrics[name] = (median(spans.ns[name]) / scale, unit)
    return metrics, absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workdir = Path(args.workdir)

    wl = WORKLOAD_CLASSES[args.workload](args.seed, args.seconds, workdir)
    wl.warm_up()
    for _ in range(100):
        reference_kernel()
    lines = []
    unexpected_probes = []
    if args.trace:
        untraced, _ = run_timed(wl, args.seconds / 2.0, full_cycle=False)
        spans = Spans()
        stats, first = run_timed(wl, args.seconds / 2.0, spans=spans)
        overhead = overhead_pct(untraced, stats)
        side_probes(args.workload, args.seed, spans, workdir)
        metrics, absent = per_layer(spans, overhead, calibration_ms(args.seed, workdir, sys.executable))
        for name, (value, unit) in metrics.items():
            lines.append(f"layer {name} = {value:.6g} {unit}  (moves {MOVES[name]})")
        lines += [f"layer {name} absent: its public name is gone" for name in absent]
        unexpected_probes = spans.unexpected
    else:
        stats, first = run_timed(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, defects, unexpected, ok_ops = check_outputs(wl, first)
    if not args.trace:
        metrics, more = end_to_end(wl, stats, ok_ops)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        lines += more
    unexpected += unexpected_probes
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for region, n in sorted(defects.items()):
        lines.append(f"known defect {region}: {n} failed")
    lines += unexpected[:20]
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "lines": lines,
        "numpy": np.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
