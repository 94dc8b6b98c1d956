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

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
    _as_float,
    DomainError,
    EnergyShift,
    FieldKind,
    Parity,
    ReducedGeometry,
    Scenario,
    parity_sign,
    reduced_geometry,
    scenario_geometry,
)
from .em import (
    _contract,
    _dipole_weights,
    _spectral_entries,
    _wightman_kernel,
    em_farzone_asymptote,
    em_resonance_energy,
)
from .quad import (
    QuadratureSpec,
    TrigPolyDensity,
    pv_resonance_kernel,
)
from .scalar import (
    scalar_farzone_asymptote,
    scalar_resonance_energy,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "scalar_energy_pv_oracle",
    "em_energy_pv_oracle",
    "scalar_pv_suite",
    "em_pv_suite",
    "em_commutator_consistency",
    "commutator_agreeing_components",
    "asymptote_convergence_report",
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


def relative_error(computed: float, reference: float) -> float:
    """|computed - reference| over max(|reference|, 1e-12)."""
    return abs(computed - reference) / max(abs(reference), _REL_FLOOR)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    computed: float
    reference: float
    rel_error: float
    tolerance: float
    passed: bool
    note: str = ""


def _check(
    check_id: str,
    computed: float,
    reference: float,
    deviation: float,
    tolerance: float,
    note: str = "",
) -> CheckResult:
    """The one place a check is built: it passes iff deviation <= tolerance.

    ``tolerance`` must be one positive, finite real number, or DomainError.
    """
    tolerance = _as_float(tolerance, "tolerance", "positive")
    return CheckResult(
        check_id, computed, reference, deviation, tolerance, deviation <= tolerance, note
    )


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
    parity: Parity,
    spec: Optional[QuadratureSpec],
    cos_coeffs: tuple = (0.0, 0.0, 0.0),
    sin_coeffs: tuple = (0.0, 0.0, 0.0),
) -> float:
    """-p/pi times the principal-value integral of a density in v = omega/omega0.

    The density has the given coefficients of powers of v and osc_time
    omega0*S, so the kernel's pole sits at v = 1; p is the parity sign.
    Both fields' reduced shifts are this integral, the scalar one further
    divided by sqrt(1 + zeta**2).  The constant is analytic, not fitted
    to the closed form the oracle checks.

    Raises DomainError where the phase omega0*S is not positive, also
    where omega0 > 0 but the phase underflows to 0.
    """
    if not geom.phase > 0.0:
        raise DomainError(
            f"principal-value oracle requires a positive phase omega0*S, got "
            f"{geom.phase!r} at omega0 = {geom.omega0!r}"
        )
    density = TrigPolyDensity(geom.phase, cos_coeffs, sin_coeffs)
    pv = pv_resonance_kernel(density, 1.0, spec)
    return -parity_sign(parity) * pv / math.pi


def scalar_energy_pv_oracle(scenario: Scenario, spec: Optional[QuadratureSpec] = None) -> float:
    """Reduced scalar shift recomputed from the principal-value integral.

    Independent of the closed form: the spectral density sin(v*omega0*S)
    is integrated against the resonance kernel and normalized by
    -p/(pi*sqrt(1+zeta**2)).
    """
    scenario.require_field(FieldKind.SCALAR)
    geom = scenario_geometry(scenario)
    pv = _normalized_pv(geom, scenario.parity, spec, sin_coeffs=(1.0, 0.0, 0.0))
    return pv / geom.envelope


def em_energy_pv_oracle(scenario: Scenario, spec: Optional[QuadratureSpec] = None) -> float:
    """Reduced electromagnetic shift recomputed from the frequency integral.

    The coefficient families f1, g0 and g2, contracted with the unit
    dipoles, make the density f1*x*cos(v*omega0*S) + (g0 + g2*x**2)*sin(v*omega0*S)
    with x = omega*z/c = v*theta, integrated against the resonance kernel
    and normalized by -p/pi.  Its accuracy is ``spec.abs_tol`` times the
    density's size at the pole (the sum of the coefficients' magnitudes),
    not a fraction of the shift: where the shift is far below that size,
    as the EM shift (about 4/zeta) is at a large zeta, its relative error
    grows.
    """
    scenario.require_field(FieldKind.EM)
    geom = scenario_geometry(scenario)
    weights, _ = _dipole_weights(scenario)
    f1, g0, g2 = (_contract(weights, family, 1.0) for family in _spectral_entries(geom.zeta))
    theta = geom.theta
    return _normalized_pv(
        geom, scenario.parity, spec, (0.0, f1 * theta, 0.0), (g0, 0.0, g2 * theta * theta)
    )


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
        checks.append(
            _check(check_id, computed, reference, relative_error(computed, reference), tolerance)
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


_COMMUTATOR_COMPONENTS = ("xx", "yy", "zz", "xz", "zx")
_CIRCLE_NODES = 32


def _agreement_check(check_id: str, outcomes: list, note: str) -> CheckResult:
    # Passes iff at least 90% agree: 1 - frac <= 0.1 and frac >= 0.9
    # give the same answer for every fraction the suite can reach, k/3
    # for one component and k/15 over all of them.
    frac = sum(outcomes) / len(outcomes)
    return _check(check_id, frac, 1.0, 1.0 - frac, 0.1, note)


def em_commutator_consistency(geom: ReducedGeometry, tolerance: float = 1e-8) -> VerificationReport:
    """Cross-check the two commutator representations on the light cone.

    The field commutator is supported on the light-cone crossings
    u = +-S.  The spectral density (g0 + f1*x + g2*x**2 families, x =
    omega*z/c) makes it a sum of delta(u - S) and its first two
    derivatives there, with the coefficient tensors as weights.  On the
    time-domain side it is the boundary-value difference of the
    correlation tensor G, so the same weights are Laurent coefficients
    of G at w = S, of orders -1, -2 and -3:

        g0 = -(pi z**3/hbar) a_-1,
        (z/c) f1 = -(pi z**3/hbar) a_-2,
        (z/c)**2 g2 = (pi z**3/(2 hbar)) a_-3,

    where a_-k sums the coefficients of G(w) and of the swapped term
    G(-w; n = -1)^T.  G is even in w (it depends on w only through the
    square of the odd chordal time; see ``em._wightman_kernel``), and
    the transpose of the n = -1 tensor is the n = +1 tensor, so
    G(-w; n = -1)^T = G(w) and a_-k is twice G's coefficient.  That is
    taken with the trapezoid rule on a circle of radius
    r = min(S, pi*c/a)/2 around w = S, so r = S/2 at a = 0 (Trefethen & Weideman, SIAM Rev. 56
    (2014) 385), which keeps every other pole at least 4r away: no
    regulator and no extrapolation.

    Each of xx, yy, zz, xz and zx is compared at every order, with the
    error relative to the largest entry of that order's tensors.  The
    per-component summaries name the first failing order, so a
    systematic disagreement is named rather than averaged away.

    The check holds for zeta up to at least 2e3.  From 3.2e3 to 1e5 G
    cancels near the pole in floats, and yy and zz fail at order -1.
    """
    c = SPEED_OF_LIGHT
    f1, g0, g2 = _spectral_entries(geom.zeta)
    x_scale = geom.separation / c
    spectral = (g0, [x_scale * e for e in f1], [x_scale * x_scale * e for e in g2])
    s_time = geom.light_time
    radius = 0.5 * s_time / max(1.0, geom.acceleration * s_time / (math.pi * c))
    offsets = [radius * cmath.exp(2j * math.pi * j / _CIRCLE_NODES) for j in range(_CIRCLE_NODES)]
    nodes = [_wightman_kernel(s_time + o, geom) for o in offsets]  # (xx, yy, zz, xz) of G
    # 2/N: twice a node mean, the second term being the crossing at -S.
    scale = -2.0 * math.pi * geom.separation**3 / REDUCED_PLANCK / _CIRCLE_NODES
    timed = [
        [weight * scale * math.fsum((e * o**k).real for e, o in zip(entry, offsets))
         for entry in zip(*nodes)]
        for k, weight in ((1, 1.0), (2, 1.0), (3, -0.5))
    ]
    checks = []
    outcomes: dict = {label: [] for label in _COMMUTATOR_COMPONENTS}
    for order, references, computed_t in zip((-1, -2, -3), spectral, timed):
        envelope = max(map(abs, (*references, *computed_t)))
        for label, computed, reference in zip(
            _COMMUTATOR_COMPONENTS, (*computed_t, -computed_t[3]), (*references, -references[3])
        ):
            rel = abs(computed - reference) / envelope
            check_id = f"em-commutator/comp={label}/u=+1.00S/order={order}"
            check = _check(check_id, computed, reference, rel, tolerance)
            outcomes[label].append((order, check.passed))
            checks.append(check)
    for label, results in outcomes.items():
        failing = [order for order, ok in results if not ok]
        note = f"first failing u = +1.00*S (order {failing[0]} check)" if failing else "all orders agree"
        checks.append(
            _agreement_check(f"em-commutator/summary/comp={label}", [ok for _, ok in results], note)
        )
    every = [ok for results in outcomes.values() for _, ok in results]
    checks.append(
        _agreement_check(
            "em-commutator/summary/overall",
            every,
            f"{sum(every)}/{len(every)} (order, component) pairs agree",
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
    """Least-squares slope of log|y| against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(abs(y)) for y in ys]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    covariance = math.fsum((x - mx) * (y - my) for x, y in zip(lx, ly))
    return covariance / math.fsum((x - mx) * (x - mx) for x in lx)


def _phase_aligned_separations(accel: float, omega_ratio: float, ks: Sequence[int]) -> list:
    # omega0 * S = 2 * omega_ratio * asinh(zeta) = k*pi at these zetas.
    zetas = [math.sinh(k * math.pi / (2.0 * omega_ratio)) for k in ks]
    return [2.0 * SPEED_OF_LIGHT**2 * z / accel for z in zetas]


def asymptote_convergence_report(tolerance: Optional[float] = None) -> VerificationReport:
    """Power-law envelopes and far-zone formulas against the full results.

    Envelope slopes are fitted at phase-aligned separations (the cosine
    factor at an extremum) so that the oscillation does not contaminate
    the log-log fit.  Slope checks use absolute deviation; ratio checks
    compare asymptote/full to 1.  A given ``tolerance`` replaces every
    check's own.
    """
    checks = []
    c_light = SPEED_OF_LIGHT
    near_omega0 = 1000.0 * 1e16 / c_light

    # The scalar envelope goes as 1/z in the near zone and 1/z**2 in the
    # far zone; the EM one as z**-2 for separation- and transverse-axis
    # dipoles, z**-3 for a crossed x-z pair and z**-4 along the
    # acceleration axis, where omega_ratio = 1 would zero both leading
    # terms at phase alignment.  Rows: check_id, dipole pair (None:
    # scalar), acceleration, omega_ratio, separations, reference slope,
    # tolerance, note (empty: the EM sampling note).
    aligned = _phase_aligned_separations(1e18, 1.0, range(3, 8))
    slope_cases = (
        (
            "asymptote/scalar/near-zone-slope",
            None,
            1e16,
            1000.0,
            [k * math.pi * c_light / near_omega0 for k in range(3, 10)],
            -1.0,
            0.05,
            "fit over 7 phase-aligned separations at zeta < 0.015",
        ),
        (
            "asymptote/scalar/far-zone-slope",
            None,
            1e18,
            1.0,
            aligned,
            -2.0,
            0.05,
            "fit over zeta from 55 to 3e4 at phase-aligned separations",
        ),
        ("asymptote/em/far-zone-slope/axis=z", "zz", 1e18, 1.0, aligned, -2.0, 0.1, ""),
        ("asymptote/em/far-zone-slope/axis=y", "yy", 1e18, 1.0, aligned, -2.0, 0.1, ""),
        ("asymptote/em/far-zone-slope/pair=xz", "xz", 1e18, 1.0, aligned, -3.0, 0.1, ""),
        (
            "asymptote/em/far-zone-slope/axis=x",
            "xx",
            1e18,
            0.5,
            _phase_aligned_separations(1e18, 0.5, range(2, 6)),
            -4.0,
            0.1,
            "",
        ),
    )
    for check_id, pair, accel, omega_ratio, seps, reference, tol, note in slope_cases:
        omega0 = omega_ratio * accel / c_light
        if pair is None:
            energy, build = scalar_resonance_energy, Scenario.scalar_field
            extra = {"parity": Parity.ANTISYMMETRIC}
        else:
            energy, build = em_resonance_energy, Scenario.em_field
            da, db = (_AXIS_VECTORS[axis] for axis in pair)  # "xz": dipole_a along x
            extra = {"parity": Parity.SYMMETRIC, "dipole_a": da, "dipole_b": db}
        shifts = [
            energy(build(acceleration=accel, separation=z, omega0=omega0, **extra)).si_value
            for z in seps
        ]
        slope = _loglog_slope(seps, shifts)
        tol = tol if tolerance is None else tolerance
        note = note or f"omega_ratio = {omega_ratio:g}, phase-aligned sampling"
        note += " (rel_error holds the absolute slope deviation)"
        checks.append(_check(check_id, slope, reference, abs(slope - reference), tol, note))

    # Far-zone formulas against the full results, all to 1e-3: static
    # and phase-aligned oscillating scalar transitions, then the EM ones,
    # at omega_ratio = 0.5 where x dipoles take part.  Rows: check_id,
    # dipole pair (None: scalar), theta, zeta, note.
    probe = math.sinh(2.0 * math.pi)  # a zeta phase-aligned at omega_ratio = 1 and 0.5
    at_probe = f"zeta = {probe:.1f}"
    at_half = at_probe + ", omega_ratio = 0.5"
    static = "static transition (omega0 = 0)"
    ratio_cases = (
        ("asymptote/scalar/far-zone-ratio/zeta=100", None, 0.0, 100.0, static),
        ("asymptote/scalar/far-zone-ratio/zeta=1000", None, 0.0, 1000.0, static),
        (
            "asymptote/scalar/far-zone-ratio/oscillating",
            None,
            2.0 * probe,
            probe,
            at_probe + ", omega_ratio = 1",
        ),
        ("asymptote/em/far-zone-ratio/axis=z", "zz", 2.0 * probe, probe, at_probe),
        ("asymptote/em/far-zone-ratio/axis=y", "yy", 2.0 * probe, probe, at_probe),
        ("asymptote/em/far-zone-ratio/axis=x", "xx", probe, probe, at_half),
        ("asymptote/em/far-zone-ratio/pair=xz", "xz", probe, probe, at_half),
    )
    for check_id, pair, theta, zeta, note in ratio_cases:
        if pair is None:
            energy, asymptote, extra = scalar_resonance_energy, scalar_farzone_asymptote, {}
        else:
            energy, asymptote = em_resonance_energy, em_farzone_asymptote
            da, db = (_AXIS_VECTORS[axis] for axis in pair)
            extra = {"field_kind": FieldKind.EM, "dipole_a": da, "dipole_b": db}
        scn = Scenario.from_reduced(theta=theta, zeta=zeta, parity=Parity.SYMMETRIC, **extra)
        ratio = asymptote(scn).reduced / energy(scn).reduced
        tol = 1e-3 if tolerance is None else tolerance
        checks.append(_check(check_id, ratio, 1.0, abs(ratio - 1.0), tol, note))
    return VerificationReport(tuple(checks))


def run_suites(
    names: Sequence[str],
    spec: Optional[QuadratureSpec] = None,
    tolerance: Optional[float] = None,
) -> dict:
    """Run named verification suites; keys are suite names.

    Known names: scalar-pv, em-pv, em-commutator, asymptotes.  A given
    ``tolerance`` replaces every suite's own and must be positive and
    finite.
    """
    if tolerance is not None:
        tolerance = _as_float(tolerance, "tolerance", "positive")
    kwargs = {"tolerance": tolerance} if tolerance is not None else {}
    out = {}
    for name in names:
        if name == "scalar-pv":
            out[name] = scalar_pv_suite(spec, **kwargs)
        elif name == "em-pv":
            out[name] = em_pv_suite(spec, **kwargs)
        elif name == "em-commutator":
            c = SPEED_OF_LIGHT
            geom = reduced_geometry(2.0 * c * c, 1.0, c)  # zeta = 1, theta = 1
            out[name] = em_commutator_consistency(geom, **kwargs)
        elif name == "asymptotes":
            out[name] = asymptote_convergence_report(**kwargs)
        else:
            raise DomainError(f"unknown verification suite {name!r}")
    return out
