"""Independent numerical cross-checks of the closed-form results.

Every closed form in this package has a second route to the same
number: the energy shifts have a principal-value frequency integral,
the asymptotes have the full formulas they approximate, and the
time-domain field commutator has a spectral reconstruction.  The
functions here evaluate both routes and package the comparisons into
:class:`VerificationReport` objects used by the command line ``verify``
command and by the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    CONSTANTS,
    DomainError,
    EnergyShift,
    FieldKind,
    Parity,
    ReducedGeometry,
    Scenario,
    envelope_root,
    parity_sign,
    reduced_geometry,
    scenario_geometry,
)
from .em import (
    _unit_dipole,
    em_farzone_asymptote,
    em_resonance_energy,
    em_spectral_coefficients,
    em_commutator_timedomain,
)
from .quad import (
    QuadratureSpec,
    TrigPolyDensity,
    damped_trig_moment,
    neville_extrapolate,
    pv_resonance_kernel,
)
from .scalar import (
    scalar_farzone_asymptote,
    scalar_resonance_energy,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "DEFAULT_THETA_GRID",
    "DEFAULT_ZETA_GRID",
    "scalar_energy_pv_oracle",
    "em_energy_pv_oracle",
    "scalar_pv_suite",
    "em_pv_suite",
    "em_commutator_consistency",
    "commutator_agreeing_components",
    "asymptote_convergence_report",
    "run_suites",
]

DEFAULT_THETA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
DEFAULT_ZETA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
_DEFAULT_DIPOLE_CONFIGS = (("z", "z"), ("x", "x"), ("y", "y"), ("x", "z"))
_AXIS_VECTORS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}
_REL_FLOOR = 1e-12


def relative_error(computed: float, reference: float, floor: float = _REL_FLOOR) -> float:
    """|computed - reference| over max(|reference|, floor)."""
    return abs(computed - reference) / max(abs(reference), floor)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    computed: float
    reference: float
    rel_error: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Sorted, serializable collection of check results."""

    checks: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.checks, key=lambda c: c.check_id))
        object.__setattr__(self, "checks", ordered)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def n_failed(self) -> int:
        return len(self.checks) - self.n_passed

    @property
    def worst(self) -> Optional[CheckResult]:
        if not self.checks:
            return None
        return max(self.checks, key=lambda c: c.rel_error / max(c.tolerance, 1e-300))

    def merged(self, *others: "VerificationReport") -> "VerificationReport":
        checks = list(self.checks)
        for other in others:
            checks.extend(other.checks)
        return VerificationReport(tuple(checks))

    def summary(self) -> str:
        worst = self.worst
        tail = ""
        if worst is not None:
            tail = f"; worst {worst.check_id} rel={worst.rel_error:.3e}"
        return (
            f"{'PASS' if self.passed else 'FAIL'}: "
            f"{self.n_passed}/{len(self.checks)} checks passed{tail}"
        )

    def to_text(self) -> str:
        lines = [self.summary()]
        for c in self.checks:
            line = (
                f"{'PASS' if c.passed else 'FAIL'} {c.check_id} "
                f"computed={c.computed:.9e} reference={c.reference:.9e} "
                f"rel={c.rel_error:.3e} tol={c.tolerance:.1e}"
            )
            if c.note:
                line += f" | {c.note}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["check_id", "computed", "reference", "rel_error", "tolerance", "passed", "note"]
        )
        for c in self.checks:
            writer.writerow(
                [
                    c.check_id,
                    f"{c.computed:.16e}",
                    f"{c.reference:.16e}",
                    f"{c.rel_error:.6e}",
                    f"{c.tolerance:.6e}",
                    "true" if c.passed else "false",
                    c.note,
                ]
            )
        return buf.getvalue()


def _normalized_pv(
    geom: ReducedGeometry,
    density: TrigPolyDensity,
    parity: Parity,
    spec: Optional[QuadratureSpec],
) -> float:
    """-p/pi times the principal-value integral of ``density`` at omega0.

    p is the parity sign.  Both fields' reduced shifts are this integral
    of their spectral density against the resonance kernel, the scalar
    one further divided by sqrt(1 + zeta**2).  The constant is analytic,
    not fitted to the closed form the oracle checks.
    """
    if not geom.omega0 > 0.0:
        raise DomainError("principal-value oracle requires omega0 > 0")
    pv = pv_resonance_kernel(density, geom.omega0, spec)
    return -parity_sign(parity) * pv / math.pi


def scalar_energy_pv_oracle(scenario: Scenario, spec: Optional[QuadratureSpec] = None) -> float:
    """Reduced scalar shift recomputed from the principal-value integral.

    Independent of the closed form: the spectral density sin(omega*S)
    is integrated against the resonance kernel and normalized by
    -p/(pi*sqrt(1+zeta**2)).
    """
    scenario.require_field(FieldKind.SCALAR)
    geom = scenario_geometry(scenario)
    density = TrigPolyDensity(osc_time=geom.light_time, sin_coeffs=(1.0, 0.0, 0.0))
    return _normalized_pv(geom, density, scenario.parity, spec) / envelope_root(geom.zeta)


def _em_density(geom: ReducedGeometry, left: tuple, right: tuple) -> TrigPolyDensity:
    coeff = em_spectral_coefficients(geom)
    cf1, cg0, cg2 = coeff.contracted(left, right)
    x_scale = geom.separation / geom.constants.c
    return TrigPolyDensity(
        osc_time=geom.light_time,
        cos_coeffs=(0.0, cf1 * x_scale, 0.0),
        sin_coeffs=(cg0, 0.0, cg2 * x_scale * x_scale),
    )


def em_energy_pv_oracle(scenario: Scenario, spec: Optional[QuadratureSpec] = None) -> float:
    """Reduced electromagnetic shift recomputed from the frequency integral.

    The dipole-contracted spectral density is integrated against the
    resonance kernel and normalized by -p/pi.
    """
    scenario.require_field(FieldKind.EM)
    geom = scenario_geometry(scenario)
    ua, _ = _unit_dipole(scenario.dipole_a, "dipole_a")
    ub, _ = _unit_dipole(scenario.dipole_b, "dipole_b")
    return _normalized_pv(geom, _em_density(geom, ua, ub), scenario.parity, spec)


def _pv_report(
    cases: Iterable[tuple],
    closed_form: Callable[[Scenario], EnergyShift],
    pv_oracle: Callable[[Scenario, Optional[QuadratureSpec]], float],
    spec: Optional[QuadratureSpec],
    tolerance: float,
) -> VerificationReport:
    """Closed form against principal-value oracle at each (check_id, scenario)."""
    checks = []
    for check_id, scenario in cases:
        reference = closed_form(scenario).reduced
        computed = pv_oracle(scenario, spec)
        rel = relative_error(computed, reference)
        checks.append(
            CheckResult(
                check_id=check_id,
                computed=computed,
                reference=reference,
                rel_error=rel,
                tolerance=tolerance,
                passed=rel <= tolerance,
            )
        )
    return VerificationReport(tuple(checks))


def scalar_pv_suite(
    spec: Optional[QuadratureSpec] = None,
    thetas: Sequence[float] = DEFAULT_THETA_GRID,
    zetas: Sequence[float] = DEFAULT_ZETA_GRID,
    parities: Iterable[Parity] = (Parity.SYMMETRIC, Parity.ANTISYMMETRIC),
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Closed form vs principal-value integral across the standard grid."""
    cases = (
        (
            f"scalar-pv/theta={theta:g}/zeta={zeta:g}/parity={parity.value}",
            Scenario.from_reduced(theta=theta, zeta=zeta, parity=parity),
        )
        for parity in parities
        for theta in thetas
        for zeta in zetas
    )
    return _pv_report(cases, scalar_resonance_energy, scalar_energy_pv_oracle, spec, tolerance)


def em_pv_suite(
    spec: Optional[QuadratureSpec] = None,
    thetas: Sequence[float] = DEFAULT_THETA_GRID,
    zetas: Sequence[float] = DEFAULT_ZETA_GRID,
    parities: Iterable[Parity] = (Parity.SYMMETRIC, Parity.ANTISYMMETRIC),
    dipole_configs: Sequence[tuple] = _DEFAULT_DIPOLE_CONFIGS,
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Closed form vs frequency integral for the EM shift across the grid."""
    cases = (
        (
            f"em-pv/dipoles={axis_a}{axis_b}/theta={theta:g}"
            f"/zeta={zeta:g}/parity={parity.value}",
            Scenario.from_reduced(
                theta=theta,
                zeta=zeta,
                parity=parity,
                field_kind=FieldKind.EM,
                dipole_a=_AXIS_VECTORS[axis_a],
                dipole_b=_AXIS_VECTORS[axis_b],
            ),
        )
        for axis_a, axis_b in dipole_configs
        for parity in parities
        for theta in thetas
        for zeta in zetas
    )
    return _pv_report(cases, em_resonance_energy, em_energy_pv_oracle, spec, tolerance)


_COMMUTATOR_COMPONENTS = (("x", "x"), ("y", "y"), ("z", "z"), ("x", "z"), ("z", "x"))
_CONE_BAND = 0.25
_GUARD_BAND = 1e-2


def _commutator_freq_side(
    geom: ReducedGeometry, totals: tuple, u: float, eta: float
) -> dict:
    """Spectral commutator of every sampled component at time difference u.

    ``totals`` holds the (f1, g0, g2) coefficient tensors, each with its
    antisymmetric companion added.
    """
    s_time = geom.light_time
    x_scale = geom.separation / geom.constants.c
    m1 = damped_trig_moment(1, "sin", "cos", u, s_time, eta)
    m0 = damped_trig_moment(0, "sin", "sin", u, s_time, eta)
    m2 = damped_trig_moment(2, "sin", "sin", u, s_time, eta)
    out = {}
    for comp in _COMMUTATOR_COMPONENTS:
        index = ("xyz".index(comp[0]), "xyz".index(comp[1]))
        cf1, cg0, cg2 = (t[index] for t in totals)
        moment = cf1 * x_scale * m1 + cg0 * m0 + cg2 * x_scale**2 * m2
        out[comp] = 2.0 / (math.pi * geom.separation**3) * moment
    return out


def em_commutator_consistency(
    geom: ReducedGeometry,
    u_samples: Optional[Sequence[float]] = None,
    spec: Optional[QuadratureSpec] = None,
    tolerance: float = 1e-3,
) -> VerificationReport:
    """Cross-check the two commutator representations component by component.

    Away from the light-cone crossings both representations must vanish
    as the regulator is removed; each is extrapolated to zero regulator
    and the limits compared against the finite-regulator scale.  Near
    the crossings (within 25% of S) the singular content dominates and
    the two regulated values must agree directly; these matched checks
    are the ones that genuinely probe the tensor structure.

    Samples falling inside the guard band |u -+ S| <= S/100 are
    excluded.  Per-component summary entries report the pass fraction
    and the first failing sample, so a systematic disagreement is named
    rather than averaged away.
    """
    if geom.zeta <= 0.0:
        raise DomainError("commutator consistency requires a positive acceleration")
    coeff = em_spectral_coefficients(geom)
    totals = (coeff.f1 + coeff.f1_nd, coeff.g0 + coeff.g0_nd, coeff.g2 + coeff.g2_nd)
    s_time = geom.light_time
    if u_samples is None:
        u_samples = tuple(
            m * s_time for m in (0.0, 0.5, 0.90, 0.95, 1.05, 1.10, 2.0, 3.0)
        )
    checks = []
    per_component: dict = {comp: [] for comp in _COMMUTATOR_COMPONENTS}
    for u in sorted(u_samples):
        dist = min(abs(u - s_time), abs(u + s_time))
        if dist <= _GUARD_BAND * s_time:
            continue
        near_cone = dist < _CONE_BAND * s_time
        eps0 = min(0.04 * s_time, dist / 6.0)
        eps_levels = tuple(eps0 * 0.5**j for j in range(7))
        td = {comp: [] for comp in _COMMUTATOR_COMPONENTS}
        fd = {comp: [] for comp in _COMMUTATOR_COMPONENTS}
        for eps in eps_levels:
            slice_ = em_commutator_timedomain(u, geom, eps)
            freq = _commutator_freq_side(geom, totals, u, eps)
            for comp in _COMMUTATOR_COMPONENTS:
                td[comp].append(slice_.tensor[comp])
                fd[comp].append(freq[comp])
        for comp in _COMMUTATOR_COMPONENTS:
            label = f"{comp[0]}{comp[1]}"
            td_vals = td[comp]
            fd_vals = fd[comp]
            if near_cone:
                kind = "cone"
                pairs = list(zip(td_vals, fd_vals))[-2:]
                rel = max(
                    abs(t - f) / max(abs(t), abs(f), 1e-300) if (t, f) != (0.0, 0.0) else 0.0
                    for t, f in pairs
                )
                computed, reference = pairs[-1]
            else:
                kind = "limit"
                scale = max(max(abs(v) for v in td_vals), max(abs(v) for v in fd_vals))
                if scale == 0.0:
                    computed = reference = 0.0
                    rel = 0.0
                else:
                    computed, _ = neville_extrapolate(eps_levels, td_vals)
                    reference, _ = neville_extrapolate(eps_levels, fd_vals)
                    rel = abs(computed - reference) / scale
            passed = rel <= tolerance
            per_component[comp].append((u, passed, kind))
            checks.append(
                CheckResult(
                    check_id=(
                        f"em-commutator/comp={label}/u={u / s_time:+.2f}S/kind={kind}"
                    ),
                    computed=computed,
                    reference=reference,
                    rel_error=rel,
                    tolerance=tolerance,
                    passed=passed,
                )
            )
    total_pairs = 0
    total_passed = 0
    for comp, outcomes in per_component.items():
        label = f"{comp[0]}{comp[1]}"
        n = len(outcomes)
        n_ok = sum(1 for _, ok, _ in outcomes if ok)
        total_pairs += n
        total_passed += n_ok
        frac = n_ok / n if n else 1.0
        first_fail = next(((u, kind) for u, ok, kind in outcomes if not ok), None)
        note = (
            "all samples agree"
            if first_fail is None
            else f"first failing u = {first_fail[0] / s_time:+.2f}*S ({first_fail[1]} check)"
        )
        checks.append(
            CheckResult(
                check_id=f"em-commutator/summary/comp={label}",
                computed=frac,
                reference=1.0,
                rel_error=1.0 - frac,
                tolerance=0.1,
                passed=frac >= 0.9,
                note=note,
            )
        )
    overall = total_passed / total_pairs if total_pairs else 1.0
    checks.append(
        CheckResult(
            check_id="em-commutator/summary/overall",
            computed=overall,
            reference=1.0,
            rel_error=1.0 - overall,
            tolerance=0.1,
            passed=overall >= 0.9,
            note=f"{total_passed}/{total_pairs} sampled (u, component) pairs agree",
        )
    )
    return VerificationReport(tuple(checks))


def commutator_agreeing_components(report: VerificationReport) -> tuple:
    """Component labels whose summary checks passed, sorted."""
    out = []
    for c in report.checks:
        prefix = "em-commutator/summary/comp="
        if c.check_id.startswith(prefix) and c.passed:
            out.append(c.check_id[len(prefix):])
    return tuple(sorted(out))


def _loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    coeffs = np.polyfit(np.log(np.asarray(xs)), np.log(np.abs(np.asarray(ys))), 1)
    return float(coeffs[0])


def _phase_aligned_zetas(omega_ratio: float, ks: Sequence[int]) -> list:
    # omega0 * S = 2 * omega_ratio * asinh(zeta) = k*pi at these zetas.
    return [math.sinh(k * math.pi / (2.0 * omega_ratio)) for k in ks]


def _slope_check(check_id: str, slope: float, reference: float, tol: float, note: str) -> CheckResult:
    dev = abs(slope - reference)
    return CheckResult(
        check_id=check_id,
        computed=slope,
        reference=reference,
        rel_error=dev,
        tolerance=tol,
        passed=dev <= tol,
        note=note + " (rel_error holds the absolute slope deviation)",
    )


def _ratio_check(check_id: str, ratio: float, tol: float, note: str = "") -> CheckResult:
    dev = abs(ratio - 1.0)
    return CheckResult(
        check_id=check_id,
        computed=ratio,
        reference=1.0,
        rel_error=dev,
        tolerance=tol,
        passed=dev <= tol,
        note=note,
    )


def asymptote_convergence_report(spec: Optional[QuadratureSpec] = None) -> VerificationReport:
    """Power-law envelopes and far-zone formulas against the full results.

    Envelope slopes are fitted at phase-aligned separations (the cosine
    factor at an extremum) so that the oscillation does not contaminate
    the log-log fit.  Slope checks use absolute deviation; ratio checks
    compare asymptote/full to 1.
    """
    checks = []
    c_light = CONSTANTS.c

    # Scalar near zone: inertial-regime envelope ~ 1/z.
    accel = 1e16
    omega_ratio = 1000.0
    omega0 = omega_ratio * accel / c_light
    seps = [k * math.pi * c_light / omega0 for k in range(3, 10)]
    shifts = [
        scalar_resonance_energy(
            Scenario.scalar_field(
                acceleration=accel, separation=z, omega0=omega0, parity=Parity.ANTISYMMETRIC
            )
        ).si_value
        for z in seps
    ]
    checks.append(
        _slope_check(
            "asymptote/scalar/near-zone-slope",
            _loglog_slope(seps, shifts),
            -1.0,
            0.05,
            "fit over 7 phase-aligned separations at zeta < 0.015",
        )
    )

    # Scalar far zone: envelope ~ 1/z**2 and ratio convergence.
    accel = 1e18
    omega_ratio = 1.0
    omega0 = omega_ratio * accel / c_light
    zetas = _phase_aligned_zetas(omega_ratio, range(3, 8))
    seps = [2.0 * c_light**2 * z / accel for z in zetas]
    shifts = [
        scalar_resonance_energy(
            Scenario.scalar_field(
                acceleration=accel, separation=z, omega0=omega0, parity=Parity.ANTISYMMETRIC
            )
        ).si_value
        for z in seps
    ]
    checks.append(
        _slope_check(
            "asymptote/scalar/far-zone-slope",
            _loglog_slope(seps, shifts),
            -2.0,
            0.05,
            "fit over zeta from 55 to 3e4 at phase-aligned separations",
        )
    )
    for zeta_probe, tol in ((100.0, 1e-3), (1000.0, 1e-3)):
        scn = Scenario.from_reduced(theta=0.0, zeta=zeta_probe, parity=Parity.SYMMETRIC)
        full = scalar_resonance_energy(scn).reduced
        asym = scalar_farzone_asymptote(scn).reduced
        checks.append(
            _ratio_check(
                f"asymptote/scalar/far-zone-ratio/zeta={zeta_probe:g}",
                asym / full,
                tol,
                "static transition (omega0 = 0)",
            )
        )
    zeta_probe = math.sinh(2.0 * math.pi)  # phase-aligned at omega_ratio = 1
    scn = Scenario.from_reduced(
        theta=2.0 * zeta_probe, zeta=zeta_probe, parity=Parity.SYMMETRIC
    )
    checks.append(
        _ratio_check(
            "asymptote/scalar/far-zone-ratio/oscillating",
            scalar_farzone_asymptote(scn).reduced / scalar_resonance_energy(scn).reduced,
            1e-3,
            f"zeta = {zeta_probe:.1f}, omega_ratio = 1",
        )
    )

    # EM far zone: z**-2 for separation- and transverse-axis dipoles,
    # z**-4 along the acceleration axis.
    for axis, omega_ratio, reference, ks in (
        ("z", 1.0, -2.0, range(3, 8)),
        ("y", 1.0, -2.0, range(3, 8)),
        ("x", 0.5, -4.0, range(2, 6)),
    ):
        accel = 1e18
        omega0 = omega_ratio * accel / c_light
        unit = _AXIS_VECTORS[axis]
        zetas = _phase_aligned_zetas(omega_ratio, ks)
        seps = [2.0 * c_light**2 * z / accel for z in zetas]
        shifts = [
            em_resonance_energy(
                Scenario.em_field(
                    acceleration=accel,
                    separation=z,
                    omega0=omega0,
                    parity=Parity.SYMMETRIC,
                    dipole_a=unit,
                    dipole_b=unit,
                )
            ).si_value
            for z in seps
        ]
        checks.append(
            _slope_check(
                f"asymptote/em/far-zone-slope/axis={axis}",
                _loglog_slope(seps, shifts),
                reference,
                0.1,
                f"omega_ratio = {omega_ratio:g}, phase-aligned sampling",
            )
        )

    # EM far-zone formula vs full result.  The acceleration-axis
    # coefficient keeps only the term surviving at small omega_ratio,
    # so that probe uses omega_ratio = 1e-4 instead of phase alignment.
    zeta_probe = math.sinh(2.0 * math.pi)
    for axis, omega_ratio, tol, note in (
        ("z", 1.0, 1e-3, ""),
        ("y", 1.0, 1e-3, ""),
        ("x", 1e-4, 1e-3, "acceleration-axis coefficient is a low-omega_ratio form"),
    ):
        zp = zeta_probe if omega_ratio == 1.0 else 100.0
        unit = _AXIS_VECTORS[axis]
        scn = Scenario.from_reduced(
            theta=2.0 * omega_ratio * zp,
            zeta=zp,
            parity=Parity.SYMMETRIC,
            field_kind=FieldKind.EM,
            dipole_a=unit,
            dipole_b=unit,
        )
        checks.append(
            _ratio_check(
                f"asymptote/em/far-zone-ratio/axis={axis}",
                em_farzone_asymptote(scn).reduced / em_resonance_energy(scn).reduced,
                tol,
                note or f"zeta = {zp:.1f}",
            )
        )
    return VerificationReport(tuple(checks))


def run_suites(
    names: Sequence[str],
    spec: Optional[QuadratureSpec] = None,
    tolerance: Optional[float] = None,
) -> dict:
    """Run named verification suites; keys are suite names.

    Known names: scalar-pv, em-pv, em-commutator, asymptotes.
    """
    kwargs = {"tolerance": tolerance} if tolerance is not None else {}
    out = {}
    for name in names:
        if name == "scalar-pv":
            out[name] = scalar_pv_suite(spec, **kwargs)
        elif name == "em-pv":
            out[name] = em_pv_suite(spec, **kwargs)
        elif name == "em-commutator":
            c = CONSTANTS.c
            geom = reduced_geometry(2.0 * c * c, 1.0, c)  # zeta = 1, theta = 1
            out[name] = em_commutator_consistency(geom, spec=spec, **kwargs)
        elif name == "asymptotes":
            out[name] = asymptote_convergence_report(spec)
        else:
            raise DomainError(f"unknown verification suite {name!r}")
    return out
