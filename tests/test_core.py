"""Reduced variables, conventions, and scenario validation."""

import collections
import dataclasses
import decimal
import enum
import fractions
import functools
import gc
import inspect
import itertools
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rindler_resonance import cli
from rindler_resonance.core import point_geometry
from rindler_resonance.em import (
    em_closed_form,
    em_farzone_asymptote,
    em_potential_tensors,
    em_reduced_components,
    em_resonance_energy,
    em_spectral_tensors,
    em_wightman_tensor,
)
from rindler_resonance.oracle import (
    asymptote_convergence_report,
    em_commutator_consistency,
    em_pv_suite,
    run_suites,
    scalar_pv_suite,
)
from rindler_resonance.quad import TrigPolyDensity, pv_resonance_kernel
from rindler_resonance.scalar import (
    scalar_closed_form,
    scalar_farzone_asymptote,
    scalar_inertial_limit,
    scalar_resonance_energy,
)

from rindler_resonance import (
    BOLTZMANN,
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
    DomainError,
    EnergyShift,
    FieldKind,
    FieldKindError,
    Parity,
    QuadratureSpec,
    Regime,
    Scenario,
    asinh_ratio,
    parity_sign,
    reduced_geometry,
    scenario_geometry,
    unruh_temperature,
)

C = SPEED_OF_LIGHT

# 50-digit evaluation of hbar*1e20/(2*pi*c*k_B) with the CODATA values
# used by the package.
T_UNRUH_1E20 = 0.4055013522745229791489


class TestReducedGeometry:
    def test_inertial_conventions(self):
        geom = reduced_geometry(0.0, 1.0, 5.0)
        assert geom.zeta == 0.0
        assert geom.light_time == 1.0 / C
        assert geom.crossover_length == math.inf

    def test_special_zeta_values(self):
        geom = reduced_geometry(2.0 * C * C, 1.0, 0.0)
        # asinh(1) = ln(1 + sqrt(2))
        assert geom.s_ratio == pytest.approx(math.log(1.0 + math.sqrt(2.0)), rel=1e-15)
        assert geom.s_ratio == pytest.approx(0.881374, abs=5e-7)

    def test_theta_is_omega_ratio_times_two_zeta(self):
        accel, omega0 = 3.7e18, 9.1e17
        geom = reduced_geometry(accel, 2.5, omega0)
        omega_ratio = omega0 * C / accel
        assert geom.theta == pytest.approx(2.0 * omega_ratio * geom.zeta, rel=1e-13)

    def test_light_time_continuity_at_zero_acceleration(self):
        z = 2.0
        inertial = reduced_geometry(0.0, z, 1.0).light_time
        for accel in (1e6, 1e3, 1.0):
            moving = reduced_geometry(accel, z, 1.0).light_time
            assert abs(moving - inertial) <= 1e-15 * inertial

    def test_phase_and_acceleration_round_trip(self):
        geom = reduced_geometry(4.4e17, 1.3, 2.2e16)
        assert geom.phase == geom.theta * geom.s_ratio
        assert geom.acceleration == pytest.approx(4.4e17, rel=1e-15)

    @pytest.mark.parametrize("a,z,omega0", [(1e300, 1e300, 0.0), (0.0, 1e300, 1e300)])
    def test_overflowing_reduced_variables(self, a, z, omega0):
        # zeta or theta beyond the largest float, from finite inputs.
        with pytest.raises(DomainError, match="overflow"):
            reduced_geometry(a, z, omega0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reduced_geometry(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            reduced_geometry(1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            reduced_geometry(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            reduced_geometry(1.0, 1.0, -1.0)


class TestAsinhRatio:
    def test_limits_and_monotonicity(self):
        assert asinh_ratio(0.0) == 1.0
        assert asinh_ratio(1.0) == math.asinh(1.0)
        with pytest.raises(DomainError):
            asinh_ratio(-0.1)

    def test_series_matches_direct_branch_at_crossover(self):
        # The series takes over below 1e-4; both branches must agree
        # there to well below the downstream tolerances.
        for zeta in (0.99e-4, 1.01e-4, 5e-5, 1e-5):
            direct = math.asinh(zeta) / zeta
            series = 1.0 - zeta**2 / 6.0 + 3.0 * zeta**4 / 40.0
            assert abs(asinh_ratio(zeta) - direct) < 1e-15
            assert abs(asinh_ratio(zeta) - series) < 1e-15

    @given(st.floats(min_value=1e-8, max_value=1e3))
    def test_bounded_by_one(self, zeta):
        assert 0.0 < asinh_ratio(zeta) <= 1.0


class TestUnruhTemperature:
    def test_zero_and_negative(self):
        assert unruh_temperature(0.0) == 0.0
        with pytest.raises(DomainError):
            unruh_temperature(-1.0)

    def test_order_of_magnitude_point(self):
        assert unruh_temperature(1e20) == pytest.approx(T_UNRUH_1E20, rel=1e-12)
        assert 0.1 <= unruh_temperature(1e20) <= 1.0

    def test_inverted_definition_gives_one_kelvin(self):
        a_one_kelvin = 2.0 * math.pi * C * BOLTZMANN / REDUCED_PLANCK
        assert unruh_temperature(a_one_kelvin) == pytest.approx(1.0, rel=1e-15)

    def test_linear_in_acceleration(self):
        assert unruh_temperature(2e19) == pytest.approx(2.0 * unruh_temperature(1e19), rel=1e-15)


class TestParityAndCorrelation:
    def test_parity_signs(self):
        assert parity_sign(Parity.SYMMETRIC) == 1.0
        assert parity_sign(Parity.ANTISYMMETRIC) == -1.0

    def test_labels(self):
        assert Parity.from_label("Symmetric") is Parity.SYMMETRIC
        assert Parity.from_label(" anti ") is Parity.ANTISYMMETRIC
        assert FieldKind.from_label("EM") is FieldKind.EM
        with pytest.raises(DomainError):
            Parity.from_label("mixed")
        with pytest.raises(DomainError):
            FieldKind.from_label("tensor")

    @pytest.mark.parametrize("label", [None, 1, Parity.SYMMETRIC, FieldKind.EM], ids=repr)
    def test_labels_must_be_text(self, label):
        # These once reached label.strip() and raised AttributeError.
        with pytest.raises(DomainError, match="unknown parity"):
            Parity.from_label(label)
        with pytest.raises(DomainError, match="unknown field kind"):
            FieldKind.from_label(label)

    def test_energy_shift_refuses_text_labels_and_a_numeric_warning(self):
        members = (Regime.INERTIAL, Parity.SYMMETRIC, FieldKind.SCALAR)
        for k, (text, field) in enumerate(
            (("Inertial", "regime"), ("sym", "parity"), ("scalar", "field_kind"))
        ):
            labels = members[:k] + (text,) + members[k + 1:]
            with pytest.raises(DomainError, match=rf"^{field} must be "):
                EnergyShift(1.0, 2.0, 2.0, *labels)
        for warning in (5, b"warning", 0.5):
            with pytest.raises(DomainError, match="^warning must be text or None"):
                EnergyShift(1.0, 2.0, 2.0, *members, warning=warning)
        assert EnergyShift(1.0, 2.0, 2.0, *members, warning="w").warning == "w"


class TestRegime:
    def test_thresholds(self):
        assert Regime.classify(0.0) is Regime.INERTIAL
        assert Regime.classify(0.099) is Regime.INERTIAL
        assert Regime.classify(0.1) is Regime.INTERMEDIATE
        assert Regime.classify(10.0) is Regime.INTERMEDIATE
        assert Regime.classify(10.001) is Regime.FARZONE
        for bad in (-0.5, math.nan):
            with pytest.raises(DomainError):
                Regime.classify(bad)

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
    def test_classification_monotone_in_zeta(self, z1, z2):
        order = {Regime.INERTIAL: 0, Regime.INTERMEDIATE: 1, Regime.FARZONE: 2}
        lo, hi = sorted((z1, z2))
        assert order[Regime.classify(lo)] <= order[Regime.classify(hi)]


class TestScenario:
    def test_scalar_requires_coupling_and_rejects_dipoles(self):
        with pytest.raises(DomainError):
            Scenario(
                field_kind=FieldKind.SCALAR,
                parity=Parity.SYMMETRIC,
                acceleration=0.0,
                separation=1.0,
                omega0=1.0,
            )
        with pytest.raises(DomainError):
            Scenario(
                field_kind=FieldKind.SCALAR,
                parity=Parity.SYMMETRIC,
                acceleration=0.0,
                separation=1.0,
                omega0=1.0,
                coupling=1.0,
                dipole_a=np.array([0.0, 0.0, 1.0]),
            )

    def test_em_requires_both_dipoles_and_rejects_coupling(self):
        with pytest.raises(DomainError):
            Scenario.em_field(
                acceleration=0.0,
                separation=1.0,
                omega0=1.0,
                parity=Parity.SYMMETRIC,
                dipole_a=[0, 0, 1],
                dipole_b=None,
            )
        with pytest.raises(DomainError):
            Scenario(
                field_kind=FieldKind.EM,
                parity=Parity.SYMMETRIC,
                acceleration=0.0,
                separation=1.0,
                omega0=1.0,
                coupling=2.0,
                dipole_a=np.array([0.0, 0.0, 1.0]),
                dipole_b=np.array([0.0, 0.0, 1.0]),
            )

    def test_dipoles_are_frozen_copies(self):
        mu = np.array([1.0, 0.0, 0.0])
        sc = Scenario.em_field(
            acceleration=0.0,
            separation=1.0,
            omega0=1.0,
            parity=Parity.SYMMETRIC,
            dipole_a=mu,
            dipole_b=[0, 0, 1],
        )
        mu[0] = 7.0
        assert sc.dipole_a[0] == 1.0
        with pytest.raises(TypeError):
            sc.dipole_a[0] = 2.0

    def test_invalid_physical_inputs(self):
        for kwargs in (
            {"separation": 0.0},
            {"separation": -1.0},
            {"acceleration": -1.0},
            {"omega0": -1.0},
            {"separation": math.nan},
        ):
            merged = dict(acceleration=1.0, separation=1.0, omega0=1.0)
            merged.update(kwargs)
            with pytest.raises(DomainError):
                Scenario.scalar_field(parity=Parity.SYMMETRIC, **merged)

    def test_require_field(self):
        sc = Scenario.scalar_field(
            acceleration=0.0, separation=1.0, omega0=1.0, parity=Parity.SYMMETRIC
        )
        sc.require_field(FieldKind.SCALAR)
        with pytest.raises(FieldKindError):
            sc.require_field(FieldKind.EM)

    # Each of these read as antisymmetric or as EM: "sym" gave +0.5046
    # where Parity.SYMMETRIC gives -0.5046, with no error.
    NOT_MEMBERS = ["sym", "symmetric", "anti", None, 1, FieldKind.SCALAR]

    @pytest.mark.parametrize("parity", NOT_MEMBERS, ids=repr)
    def test_parity_must_be_a_member(self, parity):
        message = r"parity must be Parity\.SYMMETRIC or Parity\.ANTISYMMETRIC, got "
        dipoles = dict(dipole_a=(1.0, 0.0, 0.0), dipole_b=(1.0, 0.0, 0.0))
        for build in (
            lambda: Scenario.scalar_field(**{**KINEMATICS, "parity": parity}),
            lambda: Scenario.em_field(**{**KINEMATICS, "parity": parity}, **dipoles),
            lambda: Scenario.from_reduced(theta=1.0, zeta=1.0, parity=parity),
            lambda: Scenario(FieldKind.SCALAR, parity, 1.0, 1.0, 1.0, 1.0),
            lambda: dataclasses.replace(scalar_scenario(), parity=parity),
            lambda: parity_sign(parity),
        ):
            with pytest.raises(DomainError, match=message):
                build()

    @pytest.mark.parametrize(
        "kind", ["scalar", "em", "EM", None, 0, Parity.SYMMETRIC], ids=repr
    )
    def test_field_kind_must_be_a_member(self, kind):
        # A text kind fell into the EM branch and blamed the coupling.
        message = r"field_kind must be FieldKind\.SCALAR or FieldKind\.EM, got "
        for build in (
            lambda: Scenario(kind, Parity.SYMMETRIC, 1.0, 1.0, 1.0, 1.0),
            lambda: Scenario(kind, Parity.SYMMETRIC, 1.0, 1.0, 1.0, None, (1.0, 0, 0), (1.0, 0, 0)),
            lambda: Scenario.from_reduced(theta=1.0, zeta=1.0, parity=Parity.SYMMETRIC,
                                          field_kind=kind),
            lambda: dataclasses.replace(scalar_scenario(), field_kind=kind),
        ):
            with pytest.raises(DomainError, match=message):
                build()

    def test_from_reduced_passes_every_input_on(self):
        # The inputs the constructor refuses, from_reduced refuses too.
        reduced = dict(theta=1.0, zeta=1.0, parity=Parity.SYMMETRIC)
        dipoles = dict(dipole_a=(1.0, 0.0, 0.0), dipole_b=(0.0, 0.0, 1.0))
        with pytest.raises(DomainError, match="scalar scenario does not take dipole vectors"):
            Scenario.from_reduced(**reduced, dipole_a=(1.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="scalar scenario does not take dipole vectors"):
            Scenario.from_reduced(**reduced, field_kind=FieldKind.SCALAR, **dipoles)
        with pytest.raises(DomainError, match="does not take a scalar coupling"):
            Scenario.from_reduced(**reduced, field_kind=FieldKind.EM, coupling=1.0, **dipoles)
        with pytest.raises(DomainError, match="requires both dipole vectors"):
            Scenario.from_reduced(**reduced, field_kind=FieldKind.EM)
        # What it keeps equals the constructor's scenario at the same point.
        scalar = Scenario.from_reduced(**reduced, coupling=2.5)
        em = Scenario.from_reduced(**reduced, field_kind=FieldKind.EM, **dipoles)
        point = (scalar.acceleration, scalar.separation, scalar.omega0)
        assert scalar == Scenario(FieldKind.SCALAR, Parity.SYMMETRIC, *point, 2.5)
        assert em == Scenario(FieldKind.EM, Parity.SYMMETRIC, *point, None, *dipoles.values())
        assert Scenario.from_reduced(**reduced).coupling == 1.0

    def test_from_reduced_round_trip(self):
        sc = Scenario.from_reduced(theta=2.0, zeta=0.3, parity=Parity.SYMMETRIC)
        geom = scenario_geometry(sc)
        assert geom.theta == pytest.approx(2.0, rel=1e-15)
        assert geom.zeta == pytest.approx(0.3, rel=1e-15)

    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_from_reduced_round_trip_at_any_separation(self, theta, zeta, sep):
        sc = Scenario.from_reduced(
            theta=theta, zeta=zeta, parity=Parity.ANTISYMMETRIC, separation=sep
        )
        geom = scenario_geometry(sc)
        assert geom.theta == pytest.approx(theta, rel=1e-12)
        assert geom.zeta == pytest.approx(zeta, rel=1e-12, abs=1e-300)


def em_scenario(dipole_a):
    return Scenario.em_field(
        acceleration=1e17,
        separation=1.0,
        omega0=1e8,
        parity=Parity.SYMMETRIC,
        dipole_a=dipole_a,
        dipole_b=[0.0, 0.0, 1.0],
    )


HUGE = 10**400  # an int beyond the float range
LONG = 10**5000  # more digits than Python converts to text by default
KINEMATICS = dict(acceleration=1.0, separation=1.0, omega0=1.0, parity=Parity.SYMMETRIC)


Vector = collections.namedtuple("Vector", "x y z")


def scalar_with(**inputs):
    return Scenario.scalar_field(**{**KINEMATICS, **inputs})


def em_with(**inputs):
    dipoles = dict(dipole_a=[1.0, 0.0, 0.0], dipole_b=[0.0, 0.0, 1.0])
    return Scenario.em_field(**{**KINEMATICS, **dipoles, **inputs})


GEOM = reduced_geometry(1.0, 1.0, 1.0)
DENSITY = TrigPolyDensity(osc_time=1.0, cos_coeffs=(1.0, 0.0, 0.0))
ONE_PV_CASE = dict(thetas=(1.0,), zetas=(1.0,), parities=(Parity.SYMMETRIC,))

# Every public entry that takes a real number, as (entry, field, builder):
# the builder passes one input in the field and returns what the entry
# made of it, where repr shows every bit.
ENTRIES = [
    ("reduced_geometry", "acceleration", lambda x: reduced_geometry(x, 1.0, 1.0)),
    ("reduced_geometry", "separation", lambda x: reduced_geometry(1.0, x, 1.0)),
    ("reduced_geometry", "omega0", lambda x: reduced_geometry(1.0, 1.0, x)),
    ("scalar_field", "acceleration", lambda x: scalar_with(acceleration=x)),
    ("scalar_field", "separation", lambda x: scalar_with(separation=x)),
    ("scalar_field", "omega0", lambda x: scalar_with(omega0=x)),
    ("scalar_field", "coupling", lambda x: scalar_with(coupling=x)),
    ("em_field", "acceleration", lambda x: em_with(acceleration=x)),
    ("em_field", "separation", lambda x: em_with(separation=x)),
    ("em_field", "omega0", lambda x: em_with(omega0=x)),
    ("em_field", "dipole_a", lambda x: em_with(dipole_a=(x, 0.0, 1.0))),
    ("em_field", "dipole_b", lambda x: em_with(dipole_b=[0.0, x, 1.0])),
    ("from_reduced", "theta", lambda x: Scenario.from_reduced(
        theta=x, zeta=1.0, parity=Parity.SYMMETRIC)),
    ("from_reduced", "zeta", lambda x: Scenario.from_reduced(
        theta=1.0, zeta=x, parity=Parity.SYMMETRIC)),
    ("from_reduced", "separation", lambda x: Scenario.from_reduced(
        theta=1.0, zeta=1.0, parity=Parity.SYMMETRIC, separation=x)),
    ("asinh_ratio", "zeta", asinh_ratio),
    ("unruh_temperature", "acceleration", unruh_temperature),
    # si_value = prefactor * reduced holds in each EnergyShift cell, and the
    # field the cell names is the first one the constructor checks.
    ("EnergyShift", "reduced", lambda x: dataclasses.replace(
        energy_shift(), reduced=x, prefactor=0.0, si_value=0.0)),
    ("EnergyShift", "prefactor", lambda x: dataclasses.replace(
        energy_shift(), reduced=0.0, prefactor=x, si_value=0.0)),
    ("EnergyShift", "si_value", lambda x: dataclasses.replace(
        energy_shift(), reduced=1.0, prefactor=x, si_value=x)),
    ("em_spectral_tensors", "omega", lambda x: em_spectral_tensors(x, GEOM).f.values.tolist()),
    ("em_wightman_tensor", "u", lambda x: em_wightman_tensor(x, GEOM, 1e-9).values.tolist()),
    ("em_wightman_tensor", "eps", lambda x: em_wightman_tensor(0.5, GEOM, x).values.tolist()),
    ("QuadratureSpec", "rel_tol", lambda x: QuadratureSpec(rel_tol=x)),
    ("QuadratureSpec", "abs_tol", lambda x: QuadratureSpec(abs_tol=x)),
    ("TrigPolyDensity", "osc_time", lambda x: TrigPolyDensity(osc_time=x)),
    ("TrigPolyDensity", "cos_coeffs", lambda x: TrigPolyDensity(1.0, (x, 0.0, 0.0))),
    ("TrigPolyDensity", "sin_coeffs", lambda x: TrigPolyDensity(1.0, sin_coeffs=(0.0, 0.0, x))),
    ("pv_resonance_kernel", "omega0", lambda x: pv_resonance_kernel(DENSITY, x)),
    ("run_suites", "tolerance", lambda x: run_suites([], tolerance=x)),  # checked up front
    ("em_commutator_consistency", "tolerance", lambda x: em_commutator_consistency(
        GEOM, tolerance=x)),
    ("asymptote_convergence_report", "tolerance", lambda x: asymptote_convergence_report(
        tolerance=x)),
    ("scalar_pv_suite", "tolerance", lambda x: scalar_pv_suite(**ONE_PV_CASE, tolerance=x)),
    ("em_pv_suite", "tolerance", lambda x: em_pv_suite(
        **ONE_PV_CASE, dipole_configs=(("z", "z"),), tolerance=x)),
]

# Input kinds every entry refuses with a DomainError naming the field.
REFUSED = {
    "huge-int": HUGE,
    "long-int": LONG,
    "1-element": np.array([0.5]),
    "2-element": np.array([0.5, 0.5]),
    "text": "0.5",
    "bytes": b"0.5",
    "numpy-text": np.str_("0.5"),
    "complex": 0.5 + 0j,
    "numpy-complex": np.complex128(0.5),
    "none": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}

# Input kinds every entry takes as float(x) would be taken.
ACCEPTED = {
    "float64": np.float64(0.7),
    "float32": np.float32(0.1),
    "int64": np.int64(3),
    "numpy-bool": np.bool_(True),
    "bool": True,
    "Fraction": fractions.Fraction(1, 3),
    "Decimal": decimal.Decimal("0.1"),
    "0-d": np.array(0.25),
}


# Every public entry that takes a label, as (entry, field, builder).  They
# refuse every kind above, the accepted numbers included, and the kinds
# of LABEL_REFUSED.
LABEL_ENTRIES = [
    ("EnergyShift", "regime", lambda x: dataclasses.replace(energy_shift(), regime=x)),
    ("EnergyShift", "parity", lambda x: dataclasses.replace(energy_shift(), parity=x)),
    ("EnergyShift", "field_kind", lambda x: dataclasses.replace(energy_shift(), field_kind=x)),
    ("Parity.from_label", "parity", Parity.from_label),
    ("FieldKind.from_label", "field kind", FieldKind.from_label),
]


class Foreign(enum.Enum):
    """An enum outside the package, whose member's value is a valid label."""

    SYM = "sym"


LABEL_REFUSED = {**REFUSED, **ACCEPTED, "int": 1, "foreign-member": Foreign.SYM}

# None is their documented "each suite's own tolerance".
NONE_IS_DEFAULT = {"run_suites", "asymptote_convergence_report"}


def _cells(kinds, entries=ENTRIES):
    return {
        f"{entry}-{field.split()[0]}-{kind}": (build, field, value)
        for (entry, field, build), (kind, value) in itertools.product(entries, kinds.items())
        if not (value is None and entry in NONE_IS_DEFAULT)
    }


REFUSED_CELLS = {**_cells(REFUSED), **_cells(LABEL_REFUSED, LABEL_ENTRIES)}
ACCEPTED_CELLS = _cells(ACCEPTED)


@pytest.mark.parametrize("cell", list(REFUSED_CELLS))
def test_refused_input_kind(cell):
    # A DomainError naming the field: not Python's OverflowError or
    # TypeError, not numpy's ValueError, and no value made of text, of
    # an array or of a non-finite number.
    build, field, value = REFUSED_CELLS[cell]
    with pytest.raises(DomainError, match=rf"\b{re.escape(field)}\b"):
        build(value)


def _outcome(build, value):
    try:
        return repr(build(value))
    except DomainError:
        return DomainError


@pytest.mark.parametrize("cell", list(ACCEPTED_CELLS))
def test_accepted_input_kind(cell):
    # Exactly what float(x) gives, to the bit.  Only rel_tol refuses a
    # kind here, an int or bool outside (0, 1), and so does float(x).
    build, field, value = ACCEPTED_CELLS[cell]
    expected = _outcome(build, float(value))
    assert _outcome(build, value) == expected
    assert expected is not DomainError or field == "rel_tol" and float(value) >= 1.0


# Rows of the former hand-written table, by their ids: the product cell
# where the row was one; else the row, whose input is no product kind or
# whose match pins the wording of a message.
UNCONVERTIBLE = {
    "dipole0": "em_field-dipole_a-huge-int",
    "dipole1": (lambda: em_scenario((0, -(10**400), 1)), "dipole_a"),
    "dipole2": (lambda: em_scenario(np.array([10**400, 0, 0], dtype=object)), "dipole_a"),
    "abc": (lambda: em_scenario("abc"), "dipole_a"),
    "dipole4": (lambda: em_scenario(["a", "b", "c"]), "dipole_a"),
    "xyz": (lambda: em_scenario(b"xyz"), "dipole_a"),
    "scalar-acceleration": "scalar_field-acceleration-huge-int",
    "scalar-separation": "scalar_field-separation-huge-int",
    "scalar-omega0": "scalar_field-omega0-huge-int",
    "scalar-coupling": "scalar_field-coupling-huge-int",
    "em-acceleration": "em_field-acceleration-huge-int",
    "em-separation": "em_field-separation-huge-int",
    "em-omega0": "em_field-omega0-huge-int",
    "from-reduced-theta": "from_reduced-theta-huge-int",
    "from-reduced-zeta": "from_reduced-zeta-huge-int",
    "reduced-geometry": "reduced_geometry-acceleration-huge-int",
    "unruh": "unruh_temperature-acceleration-huge-int",
    "asinh-ratio": "asinh_ratio-zeta-huge-int",
    "long-scalar-acceleration": "scalar_field-acceleration-long-int",
    "long-em-acceleration": "em_field-acceleration-long-int",
    "long-coupling": "scalar_field-coupling-long-int",
    "long-reduced-geometry": "reduced_geometry-acceleration-long-int",
    "long-unruh": "unruh_temperature-acceleration-long-int",
    "long-asinh-ratio": "asinh_ratio-zeta-long-int",
    "long-shift": "EnergyShift-reduced-long-int",
    "long-dipole": (lambda: em_scenario(np.array([LONG, 0, 0], dtype=object)), "dipole_a"),
    "long-omega": (lambda: em_spectral_tensors(-LONG, GEOM), "omega"),
    "long-rel-tol": "QuadratureSpec-rel_tol-long-int",
    "huge-omega": "em_spectral_tensors-omega-huge-int",
    "huge-u": (lambda: em_wightman_tensor(HUGE, GEOM, 1e-9), "u must"),
    "huge-eps": "em_wightman_tensor-eps-huge-int",
    "huge-osc-time": "TrigPolyDensity-osc_time-huge-int",
    "huge-pv-omega0": "pv_resonance_kernel-omega0-huge-int",
    "huge-tolerance": "run_suites-tolerance-huge-int",
    "long-pv-omega0": "pv_resonance_kernel-omega0-long-int",
    "1-element-scalar-energy": (lambda: scalar_with(acceleration=np.array([1e17])),
                                r"acceleration must be one real number, got array\(\[1.e\+17\]\)"),
    "1-element-em-energy": (lambda: em_with(separation=np.array([2.0])),
                            "separation must be one real number"),
    "1-element-omega0": "scalar_field-omega0-1-element",
    "1-element-em-acceleration": "em_field-acceleration-1-element",
    "2-element": "scalar_field-acceleration-2-element",
    "text": (lambda: scalar_with(acceleration="1e17"), "acceleration must be one real number"),
    "bytes": "scalar_field-separation-bytes",
    "numpy-text": "em_field-omega0-numpy-text",
    "complex": (lambda: scalar_with(acceleration=1e17 + 0j),
                "acceleration must be one real number"),
    "numpy-complex": "em_field-omega0-numpy-complex",
    "none": "scalar_field-acceleration-none",
    "1-element-coupling": "scalar_field-coupling-1-element",
    "text-coupling": "scalar_field-coupling-text",
    "1-element-reduced-geometry": "reduced_geometry-acceleration-1-element",
    "complex-reduced-geometry": "reduced_geometry-acceleration-numpy-complex",
    "1-element-unruh": "unruh_temperature-acceleration-1-element",
    "1-element-asinh-ratio": "asinh_ratio-zeta-1-element",
    "1-element-from-reduced": "from_reduced-theta-1-element",
    "from-reduced-zero-separation": (lambda: Scenario.from_reduced(
        theta=1.0, zeta=1.0, parity=Parity.SYMMETRIC, separation=0.0), "separation"),
    "array-component": (lambda: em_scenario([np.array([1.0]), 0, 0]),
                        "dipole_a must hold three real numbers"),
    "1-element-shift-reduced": "EnergyShift-reduced-1-element",
    "1-element-shift-prefactor": "EnergyShift-prefactor-1-element",
    "1-element-shift-si-value": "EnergyShift-si_value-1-element",
    "text-shift-reduced": "EnergyShift-reduced-text",
    "1-element-spectral-omega": "em_spectral_tensors-omega-1-element",
    "1-element-osc-time": "TrigPolyDensity-osc_time-1-element",
    "1-element-rel-tol": "QuadratureSpec-rel_tol-1-element",
    "text-abs-tol": "QuadratureSpec-abs_tol-text",
    "1-element-tolerance": "run_suites-tolerance-1-element",
    "1-element-pv-omega0": "pv_resonance_kernel-omega0-1-element",
    "1-element-u": (lambda: em_wightman_tensor(np.array([0.5]), GEOM, 1e-9), "u must be one real"),
    "text-eps": "em_wightman_tensor-eps-text",
    "text-cos-coeff": "TrigPolyDensity-cos_coeffs-text",
    "complex-sin-coeff": "TrigPolyDensity-sin_coeffs-complex",
    "1-element-cos-coeff": "TrigPolyDensity-cos_coeffs-1-element",
    "float-cos-coeffs": (lambda: TrigPolyDensity(osc_time=1.0, cos_coeffs=1.0),
                         "cos_coeffs must hold three real numbers, got 1.0"),
    "none-sin-coeffs": (lambda: TrigPolyDensity(osc_time=1.0, sin_coeffs=None),
                        "sin_coeffs must hold three real numbers, got None"),
    "text-cos-coeffs": (lambda: TrigPolyDensity(osc_time=1.0, cos_coeffs="abc"),
                        "cos_coeffs must hold three real numbers, got 'abc'"),
}


class TestDipoleValidation:
    @pytest.mark.parametrize(
        "dipole,expected",
        [
            ([0.5, -1.0, 2.0], [0.5, -1.0, 2.0]),
            ((0.5, -1.0, 2.0), [0.5, -1.0, 2.0]),
            ([1, 0, -3], [1.0, 0.0, -3.0]),
            ((True, False, True), [1.0, 0.0, 1.0]),
            (np.array([0.5, -1.0, 2.0]), [0.5, -1.0, 2.0]),
            (np.array([1, 0, -3], dtype=np.int32), [1.0, 0.0, -3.0]),
            (Vector(0.5, -1.0, 2.0), [0.5, -1.0, 2.0]),
        ],
    )
    def test_accepted_forms_give_read_only_float64_copies(self, dipole, expected):
        # Stored as an immutable tuple of Python floats (IEEE doubles),
        # a plain tuple even where a tuple subclass was given.
        mu = em_scenario(dipole).dipole_a
        assert type(mu) is tuple
        assert [type(x) for x in mu] == [float, float, float]
        assert list(mu) == expected
        if isinstance(dipole, np.ndarray):
            dipole[0] = 9
            assert list(mu) == expected

    @pytest.mark.parametrize("dipole", [1.0, [1.0, 2.0], [[1.0], [2.0], [3.0]], np.zeros((3, 1))])
    def test_wrong_shape(self, dipole):
        with pytest.raises(DomainError, match="3-vector"):
            em_scenario(dipole)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component(self, bad):
        with pytest.raises(DomainError, match="finite"):
            em_scenario([0.0, bad, 1.0])
        with pytest.raises(DomainError, match="finite"):
            em_scenario((0.0, bad, 1.0))
        with pytest.raises(DomainError, match="dipole_b must be finite"):
            Scenario.em_field(**KINEMATICS, dipole_a=(1.0, 0.0, 0.0), dipole_b=(0.0, bad, 1.0))
        with pytest.raises(DomainError, match="finite"):
            em_scenario(np.array([0.0, bad, 1.0]))

    def test_float_tuples_are_kept_as_given(self):
        # Both dipoles of three finite floats skip every conversion.
        da, db = (0.6, 0.0, -0.8), (-0.0, 1e-300, 1e300)
        scenario = Scenario.em_field(**KINEMATICS, dipole_a=da, dipole_b=db)
        assert scenario.dipole_a is da and scenario.dipole_b is db
        as_list = Scenario.em_field(**KINEMATICS, dipole_a=list(da), dipole_b=list(db))
        assert scenario == as_list and hash(scenario) == hash(as_list)
        # A finite tuple whose sum overflows still passes.
        big = (1e308, 1e308, 0.0)
        assert Scenario.em_field(**KINEMATICS, dipole_a=big, dipole_b=big).dipole_a == big

    @pytest.mark.parametrize(
        "dipole",
        [
            [1j, 0.0, 0.0],
            [1.0 + 0j, 0.0, 0.0],
            [np.complex128(1 + 2j), 0.0, 0.0],
            [np.complex64(1), 0, 0],
            np.array([1 + 2j, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0], dtype=np.complex64),
        ],
    )
    def test_complex_component(self, dipole):
        with pytest.raises(DomainError, match="must be real"):
            em_scenario(dipole)

    @pytest.mark.parametrize("old_id", list(UNCONVERTIBLE))
    def test_unconvertible_component(self, old_id):
        # The rows of the former hand-written table under their ids: a
        # product cell where the row was one, else the row itself.
        row = UNCONVERTIBLE[old_id]
        if isinstance(row, str):
            test_refused_input_kind(row)
            return
        build, match = row
        with pytest.raises(DomainError, match=match):
            build()


def scalar_scenario():
    return Scenario.scalar_field(
        acceleration=1e17, separation=1.0, omega0=1e8, parity=Parity.ANTISYMMETRIC, coupling=0.5
    )


def energy_shift():
    return EnergyShift(
        reduced=-0.25,
        prefactor=2.0,
        si_value=-0.5,
        regime=Regime.INTERMEDIATE,
        parity=Parity.SYMMETRIC,
        field_kind=FieldKind.SCALAR,
    )


def _parameters(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


class TestRecordSemantics:
    """Scenario and EnergyShift behave as frozen dataclasses, validated on every construction."""

    @pytest.mark.parametrize(
        "record",
        [scalar_scenario(), em_scenario([1.0, 0.0, 0.0]), energy_shift()],
        ids=["scalar", "em", "shift"],
    )
    def test_every_field_is_frozen(self, record):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))

    def test_constructor_signatures(self):
        required = inspect.Parameter.empty
        kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert _parameters(Scenario) == [
            ("field_kind", kind, required),
            ("parity", kind, required),
            ("acceleration", kind, required),
            ("separation", kind, required),
            ("omega0", kind, required),
            ("coupling", kind, None),
            ("dipole_a", kind, None),
            ("dipole_b", kind, None),
        ]
        assert _parameters(EnergyShift) == [
            ("reduced", kind, required),
            ("prefactor", kind, required),
            ("si_value", kind, required),
            ("regime", kind, required),
            ("parity", kind, required),
            ("field_kind", kind, required),
            ("warning", kind, None),
        ]

    def test_positional_and_keyword_construction_agree(self):
        for record in (scalar_scenario(), em_scenario([0.6, 0.0, 0.8]), energy_shift()):
            values = [getattr(record, f.name) for f in dataclasses.fields(record)]
            positional = type(record)(*values)
            keyword = type(record)(**{f.name: v for f, v in zip(dataclasses.fields(record), values)})
            assert positional == keyword == record
            assert hash(positional) == hash(keyword) == hash(record)
            assert repr(positional) == repr(keyword) == repr(record)
        # EM scenarios compare and hash by dipole value, whatever the dipoles were given as.
        as_list, as_tuple, as_array = (
            em_scenario(d) for d in ([0.6, 0.0, 0.8], (0.6, 0.0, 0.8), np.array([0.6, 0.0, 0.8]))
        )
        assert as_list == as_tuple == as_array
        assert hash(as_list) == hash(as_tuple) == hash(as_array)
        other = em_scenario([0.0, 0.6, 0.8])
        assert other != as_list
        assert not other == as_list
        assert other != scalar_scenario()
        assert {as_list: "em"}[as_array] == "em"
        assert len({as_list, as_tuple, as_array, other}) == 2

    def test_replace_revalidates(self):
        scenario = scalar_scenario()
        assert dataclasses.replace(scenario, omega0=2e8).omega0 == 2e8
        with pytest.raises(DomainError):
            dataclasses.replace(scenario, separation=-1.0)
        with pytest.raises(DomainError, match="must be real"):
            dataclasses.replace(em_scenario([1.0, 0.0, 0.0]), dipole_a=[1j, 0, 0])
        with pytest.raises(DomainError):
            dataclasses.replace(energy_shift(), reduced=math.nan)

    def test_si_value_must_be_prefactor_times_reduced(self):
        members = (Regime.INERTIAL, Parity.SYMMETRIC, FieldKind.SCALAR)
        for numbers in ((1.0, 2.0, 5.0), (1.0, 2.0, np.float64(5.0)), (0.1, 3.0, 0.3)):
            with pytest.raises(DomainError, match=r"^si_value must be prefactor \* reduced"):
                EnergyShift(*numbers, *members)
        # A product that overflows is no finite si_value.
        with pytest.raises(DomainError, match="^si_value must be"):
            EnergyShift(1e200, 1e200, 1.0, *members)
        shift = energy_shift()
        for change in (dict(reduced=1.0), dict(prefactor=1.0), dict(si_value=1.0)):
            with pytest.raises(DomainError, match="^si_value must be"):
                dataclasses.replace(shift, **change)
        # Equal values pass whatever the sign of a zero; 0.1 * 3.0 is 0.30000000000000004.
        assert EnergyShift(-0.0, 2.0, 0.0, *members).si_value == 0.0
        assert EnergyShift(0.1, 3.0, 0.1 * 3.0, *members).si_value == 0.1 * 3.0


# Log-uniform over [1e-300, 1e300]: z*a, omega0*z and zeta**2 overflow
# on part of the range, so every overflow branch is drawn.
log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)

# A single point given four ways; the float dispatch must not change a bit.
POINT_FORMS = {
    "float": float,
    "float64": np.float64,
    "0-d": np.array,
    "1-element": lambda x: np.array([x]),
}


def _bits(value):
    # float.hex is nan-aware and tells -0.0 from 0.0.
    flat = np.asarray(value, dtype=float).reshape(-1)
    assert flat.size == 1
    return float(flat[0]).hex()


def _all_bits(values):
    return [_bits(v) for v in values]


def em_dipole_scenario():
    return Scenario.em_field(
        acceleration=1.0, separation=1.0, omega0=1.0, parity=Parity.ANTISYMMETRIC,
        dipole_a=[0.3, -1.2, 0.7], dipole_b=[1.0, 0.5, -2.0],
    )


def field_scenario(field, a, z, omega0, parity=Parity.ANTISYMMETRIC, dipoles=None):
    if field == "scalar":
        return Scenario.scalar_field(
            acceleration=a, separation=z, omega0=omega0, parity=parity, coupling=1.7
        )
    scenario = dataclasses.replace(
        em_dipole_scenario(), acceleration=a, separation=z, omega0=omega0, parity=parity
    )
    if dipoles is not None:
        scenario = dataclasses.replace(scenario, dipole_a=dipoles[0], dipole_b=dipoles[1])
    return scenario


def _em_dipole_pairs(seed=2016):
    """name: (dipole_a, dipole_b), seeded: parallel, antiparallel, crossed and general."""
    rng = random.Random(seed)
    d, e = ([rng.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(2))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    return {
        "parallel": (d, [scale * c for c in d]),
        "antiparallel": (d, [-scale * c for c in d]),
        "crossed": ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        "general": (d, e),
    }


EM_DIPOLE_PAIRS = _em_dipole_pairs()


def _contracted_potential_bits(scenario):
    """Bits of p * unit mu_A . em_potential_tensors(...).reduced . unit mu_B,
    contracted over the five nonzero entries as the energy contracts them;
    or DomainError, exactly where an entry of V or W (reduced/z**3) overflows."""
    geom = scenario_geometry(scenario)
    try:
        r = em_potential_tensors(geom).reduced
    except DomainError:
        cos_p, sin_p = math.cos(geom.phase), math.sin(geom.phase)
        entries = em_reduced_components(geom.zeta, geom.theta, cos_p, sin_p, geom.envelope)
        z = geom.separation
        assert not all(math.isfinite(e / z / z / z) for e in entries)
        return DomainError
    (ax, ay, az), (bx, by, bz) = (
        [c / math.hypot(*d) for c in d] for d in (scenario.dipole_a, scenario.dipole_b)
    )
    bilinear = (
        ax * bx * r["x", "x"] + ay * by * r["y", "y"] + az * bz * r["z", "z"]
        + (ax * bz - az * bx) * r["x", "z"]
    )
    return _bits(bilinear if scenario.parity is Parity.SYMMETRIC else -bilinear)


ROUTES = {
    "scalar": (scalar_closed_form, scalar_resonance_energy),
    "em": (em_closed_form, em_resonance_energy),
}


def _shift_bits(energy, scenario):
    """Bits of reduced, prefactor and si_value, and the regime; or the DomainError type."""
    try:
        shift = energy(scenario)
    except DomainError:
        return DomainError
    return _all_bits([shift.reduced, shift.prefactor, shift.si_value]) + [shift.regime]


def _row_bits(row):
    """_shift_bits of a closed-form row, which is not validated."""
    zeta, _, reduced, prefactor = row
    si_value = prefactor * reduced
    if not (math.isfinite(reduced) and math.isfinite(si_value)):
        return DomainError
    return _all_bits([reduced, prefactor, si_value]) + [Regime.classify(zeta)]


class TestFloatDispatch:
    """Floats, np.float64 and 0-d kinematics give the same bits; arrays
    with elements are refused when the scenario is built."""

    @staticmethod
    def assert_routes_match(floats, given):
        """Both energies on `given` kinematics, and a one-point closed-form
        row, give the bits of the energy on the equal `floats`."""
        for field, (closed_form, energy) in ROUTES.items():
            scenario = field_scenario(field, *floats)
            expected = _shift_bits(energy, scenario)
            if np.ndim(given[0]) or np.ndim(given[1]) or np.ndim(given[2]):
                with pytest.raises(DomainError, match="must be one real number"):
                    field_scenario(field, *given)
            else:
                assert _shift_bits(energy, field_scenario(field, *given)) == expected
            (row,) = closed_form(scenario, [floats])
            assert _all_bits(row[:2]) == _all_bits(point_geometry(*floats)[:2])
            assert _row_bits(row) == expected

    @classmethod
    def assert_point_forms_match(cls, a, z, omega0):
        for form in (np.float64, np.array):
            cls.assert_routes_match((a, z, omega0), (form(a), form(z), form(omega0)))

    @given(log_uniform, log_uniform, log_uniform)
    def test_reduced_variables(self, a, z, omega0):
        # zeta and theta, where z*a or omega0*z overflows and where neither does.
        self.assert_point_forms_match(a, z, omega0)

    @given(
        st.floats(min_value=-12.0, max_value=4.0).map(lambda e: 10.0**e),
        st.floats(min_value=-300.0, max_value=280.0).map(lambda e: 10.0**e),
        st.floats(min_value=-12.0, max_value=12.0).map(lambda e: 10.0**e),
    )
    def test_phase_cos_sin(self, zeta, theta, z):
        # cos and sin of omega0 * S, on both sides of the 1e-4 series
        # cutoff of asinh(zeta)/zeta, for phases from 1e-300 to 1e280.
        self.assert_point_forms_match(2.0 * C * C * zeta / z, z, theta * C / z)

    @given(
        st.floats(min_value=100.0, max_value=280.0).map(lambda e: 10.0**e),
        st.floats(min_value=-8.0, max_value=8.0).map(lambda e: 10.0**e),
    )
    def test_envelope_root(self, zeta, z):
        # sqrt(1 + zeta**2), and zeta itself where zeta**2 overflows.
        self.assert_point_forms_match(2.0 * C * C * zeta / z, z, C / z)

    @pytest.mark.parametrize("form", list(POINT_FORMS.values()), ids=list(POINT_FORMS))
    def test_overflow_needs_no_errstate(self, form):
        # No np.errstate here: under -W error a numpy overflow warning raises.
        # z*a overflows where zeta fits, zeta**2 overflows, and both do.
        for point in ((1e10, 1e300, 1.0), (1e217, 1.0, 1.0), (1e300, 1e300, 1e300)):
            self.assert_routes_match(point, [form(x) for x in point])
        zeta, _, _, _, root = point_geometry(1e217, 1.0, 1.0)
        assert zeta > 1e199 and root == zeta

    @pytest.mark.parametrize("form", list(POINT_FORMS.values()), ids=list(POINT_FORMS))
    def test_negative_zeta_raises_on_both_paths(self, form):
        # The closed forms do not validate, yet a negative a*z fails loudly
        # there; a scenario refuses it in every form.
        for field, (closed_form, _) in ROUTES.items():
            with pytest.raises(DomainError, match="non-negative"):
                closed_form(field_scenario(field, 1.0, 1.0, 1.0), [(-1e17, 1.0, 1e8)])
            with pytest.raises(DomainError, match="acceleration"):
                field_scenario(field, form(-1e17), form(1.0), form(1e8))

    @pytest.mark.parametrize(
        "form", [np.int64, np.uint64, lambda x: np.array([x]), lambda x: np.array(x)],
        ids=["int64", "uint64", "1-element", "0-d"],
    )
    def test_numpy_integers_do_not_wrap(self, form):
        # 1e10 * 1e10 exceeds the int64 range: numpy integer kinematics are
        # converted to float before any product.
        big = 10**10
        self.assert_routes_match((1e10, 1e10, 3.0), (form(big), form(big), form(3)))

    @pytest.mark.parametrize(
        "form",
        [np.float32, np.array, int, bool, fractions.Fraction, decimal.Decimal, np.bool_, np.int64,
         np.uint64, lambda x: np.array(x, dtype=np.int64)],
        ids=["float32", "0-d", "int", "bool", "Fraction", "Decimal", "np.bool_", "int64",
             "uint64", "0-d-int64"],
    )
    def test_scenario_stores_python_floats(self, form):
        # Every stored number is a Python float: the scenario hashes as
        # the float one does, and the energies, the geometry and the
        # Unruh temperature keep the bits of float(x).  np.float32 takes
        # no numpy comparison, so no overflow warning in a cast.
        given = [form(10**17), form(3), form(10**8)]
        floats = [float(x) for x in given]
        for field, (_, energy) in ROUTES.items():
            scenario, expected = field_scenario(field, *given), field_scenario(field, *floats)
            if field == "scalar":
                scenario = dataclasses.replace(scenario, coupling=form(2))
                expected = dataclasses.replace(expected, coupling=float(form(2)))
                assert type(scenario.coupling) is float
            assert all(type(x) is float for x in (
                scenario.acceleration, scenario.separation, scenario.omega0))
            assert scenario == expected and hash(scenario) == hash(expected)
            assert _shift_bits(energy, scenario) == _shift_bits(energy, expected)
        assert reduced_geometry(*given) == reduced_geometry(*floats)
        assert _bits(unruh_temperature(given[0])) == _bits(unruh_temperature(floats[0]))

    def test_numpy_integer_scenario(self):
        # np.int64 kinematics reach both resonance energies with the bits of floats.
        big = np.int64(10**10)
        scalar = Scenario.scalar_field(
            acceleration=big, separation=big, omega0=1.0, parity=Parity.SYMMETRIC
        )
        em = dataclasses.replace(
            em_dipole_scenario(), acceleration=big, separation=big, omega0=np.int64(3)
        )
        for scenario, energy in ((scalar, scalar_resonance_energy), (em, em_resonance_energy)):
            floats = dataclasses.replace(
                scenario, acceleration=1e10, separation=1e10, omega0=float(scenario.omega0)
            )
            assert scenario_geometry(scenario).zeta == scenario_geometry(floats).zeta
            shift, float_shift = energy(scenario), energy(floats)
            assert _all_bits([shift.reduced, shift.prefactor, shift.si_value]) == _all_bits(
                [float_shift.reduced, float_shift.prefactor, float_shift.si_value]
            )

    @staticmethod
    def assert_copies_agree(field, a, z, omega0):
        # The energy and the closed form each apply the parity sign (and
        # contract the dipoles), so both parities are checked.  The EM
        # energy evaluates em_reduced_components at the scenario's point:
        # it must also equal the contracted em_potential_tensors(...).reduced,
        # unless those potentials refuse a V or W that overflows.
        closed_form, energy = ROUTES[field]
        pairs = EM_DIPOLE_PAIRS.values() if field == "em" else [None]
        for parity, dipoles in itertools.product(Parity, pairs):
            scenario = field_scenario(field, a, z, omega0, parity, dipoles)
            (row,) = closed_form(scenario, [(a, z, omega0)])
            bits = _shift_bits(energy, scenario)
            assert bits == _row_bits(row)
            if field == "em" and bits is not DomainError:
                assert _contracted_potential_bits(scenario) in (bits[0], DomainError)

    @pytest.mark.parametrize("field", ["scalar", "em"])
    @given(a=log_uniform, z=log_uniform, omega0=log_uniform)
    def test_resonance_energy_equals_closed_form_row(self, field, a, z, omega0):
        self.assert_copies_agree(field, a, z, omega0)

    @pytest.mark.parametrize(
        "point,branch",
        [
            ((1e10, 1.0, 1e8), "series"),
            ((1e200, 1.0, 1e8), "root"),
            ((1e117, 1.0, 1e163), "theta2"),  # zeta ~ 6e99: finite, where zeta ~ 1 overflows
            ((1e200, 1.0, 1e170), "root+theta2"),
            ((1e17, 1.0, 1e8), "none"),
        ],
        ids=lambda p: p if isinstance(p, str) else None,
    )
    @pytest.mark.parametrize("field", ["scalar", "em"])
    def test_resonance_energy_equals_closed_form_row_on_each_branch(self, field, point, branch):
        # The asinh(zeta)/zeta series (zeta < 1e-4), root = zeta (zeta
        # above about 1.3e154) and theta**2 = inf, where the EM terms that
        # carry theta twice stay finite because theta meets u or v first.
        zeta, theta, _, _, root = point_geometry(*point)
        assert (zeta < 1e-4) == (branch == "series")
        assert (zeta * zeta == math.inf) == ("root" in branch)
        assert root == zeta or "root" not in branch
        assert (theta * theta == math.inf) == ("theta2" in branch)
        self.assert_copies_agree(field, *point)
        # Each point's shift is finite, so the bits above were compared.
        assert ROUTES[field][1](field_scenario(field, *point)).reduced != 0.0

    def test_potentials_refuse_an_overflowing_v_where_the_energy_fits(self):
        # Crossed unit dipoles read only the xz entry, of order zeta ~ 1e-120
        # here, against a prefactor 1/z**3 = 1.7e308: the energy fits while
        # V zz = -2/z**3 overflows, and the potentials raise DomainError
        # instead of returning -inf.
        point = (1.0, 1.8e-103, 1.0)
        self.assert_copies_agree("em", *point)
        crossed = field_scenario("em", *point, dipoles=EM_DIPOLE_PAIRS["crossed"])
        assert _shift_bits(em_resonance_energy, crossed) is not DomainError
        assert _contracted_potential_bits(crossed) is DomainError


def package_shifts():
    """name: (shift, zeta of its regime) for every entry that returns an EnergyShift."""
    shifts = {}
    for parity in Parity:
        for a in (0.0, 1e17, 1e21, 2e15):  # zeta 0, 0.56, 5.6e3 and 0.011
            scalar = Scenario.scalar_field(
                acceleration=a, separation=1.0, omega0=1e8, parity=parity, coupling=0.5
            )
            em = Scenario.em_field(
                acceleration=a, separation=1.0, omega0=1e8, parity=parity,
                dipole_a=[0.0, 2e-30, 0.0], dipole_b=(0.0, -1e-29, 0.0),
            )
            general = dataclasses.replace(em_dipole_scenario(), acceleration=a, parity=parity)
            zeta = scenario_geometry(scalar).zeta
            tag = f"{parity.value}-zeta={zeta:.2g}"
            shifts[f"scalar_resonance_energy-{tag}"] = scalar_resonance_energy(scalar), zeta
            shifts[f"scalar_inertial_limit-{tag}"] = scalar_inertial_limit(scalar), 0.0  # at rest
            shifts[f"em_resonance_energy-{tag}"] = em_resonance_energy(em), zeta
            shifts[f"em_resonance_energy-general-{tag}"] = em_resonance_energy(general), zeta
            if a > 0.0:
                shifts[f"scalar_farzone_asymptote-{tag}"] = scalar_farzone_asymptote(scalar), zeta
                shifts[f"em_farzone_asymptote-{tag}"] = em_farzone_asymptote(em), zeta
    return shifts


PACKAGE_SHIFTS = package_shifts()


class TestPackageShifts:
    """Every shift the package returns is the record EnergyShift(*fields) would make."""

    def test_cover_every_regime_and_a_warning(self):
        shifts = [shift for shift, _ in PACKAGE_SHIFTS.values()]
        assert {s.regime for s in shifts} == set(Regime)
        assert {s.field_kind for s in shifts} == set(FieldKind)
        assert {s.parity for s in shifts} == set(Parity)
        warned = {n.split("-")[0] for n, (s, _) in PACKAGE_SHIFTS.items() if s.warning is not None}
        assert warned == {"scalar_farzone_asymptote", "em_farzone_asymptote"}

    @pytest.mark.parametrize("name", list(PACKAGE_SHIFTS))
    def test_equals_the_constructor_record(self, name):
        shift, zeta = PACKAGE_SHIFTS[name]
        names = [f.name for f in dataclasses.fields(EnergyShift)]
        built = EnergyShift(*[getattr(shift, n) for n in names])
        assert type(shift) is EnergyShift
        assert shift == built and hash(shift) == hash(built) and repr(shift) == repr(built)
        assert shift.si_value == shift.prefactor * shift.reduced
        assert shift.regime is Regime.classify(zeta)
        # Same keys in the same order, and the same size: the instance
        # dict still shares its keys with every other EnergyShift.
        assert list(shift.__dict__) == list(built.__dict__) == names
        size = sys.getsizeof(shift) + sys.getsizeof(shift.__dict__)
        assert size == sys.getsizeof(built) + sys.getsizeof(built.__dict__)

    @pytest.mark.parametrize(
        "energy",
        [scalar_resonance_energy, scalar_inertial_limit, scalar_farzone_asymptote,
         em_resonance_energy, em_farzone_asymptote],
        ids=lambda f: f.__name__,
    )
    def test_non_finite_shift_is_refused(self, energy):
        # The prefactor overflows: coupling**2, or the product of two
        # dipole magnitudes of 1e200.
        if energy.__module__.endswith("scalar"):
            scenario = Scenario.scalar_field(
                acceleration=1e17, separation=1.0, omega0=1e8, parity=Parity.SYMMETRIC,
                coupling=1e200,
            )
        else:
            scenario = Scenario.em_field(
                acceleration=1e17, separation=1.0, omega0=1e8, parity=Parity.SYMMETRIC,
                dipole_a=(0.0, 1e200, 0.0), dipole_b=(0.0, -1e200, 0.0),
            )
        with pytest.raises(DomainError, match="energy shift is not finite"):
            energy(scenario)


def python_calls(fn, *args) -> list:
    """Names of the Python-level calls made by fn(*args), fn itself included.

    The collector is off while fn runs: a collection it triggers would
    run the gc callbacks of other libraries (hypothesis has one) inside
    the count.
    """
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_qualname)

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return names


def line_events(fn, *args) -> collections.Counter:
    """Line events per function name while fn(*args) runs."""
    counts = collections.Counter()

    def trace(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_qualname] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return counts


# Sweep bounds per parameter (each sweep spans six decades from its
# low value) and the fixed values of the other two.
SWEEP_LOW = {"accel": 1e14, "sep": 1e-3, "omega0": 1e6}
SWEEP_BASE = {"accel": "1e17", "sep": "1", "omega0": "1e8"}


class TestPointCallCount:
    """A float point stays a handful of Python calls; counted, not timed."""

    @pytest.mark.parametrize("field", ["scalar", "em"])
    @pytest.mark.parametrize("acceleration", [0.0, 1e17, 1e21], ids=["inertial", "zeta~1", "far"])
    def test_resonance_energy_makes_three_calls(self, field, acceleration):
        # The energy evaluates its own point, with no closed-form call in
        # between, and builds its record in one call; EM adds the dipole
        # weights, the tensor entries and their contraction, one call each.
        if field == "scalar":
            scenario = Scenario.scalar_field(
                acceleration=acceleration, separation=1.0, omega0=1e8, parity=Parity.SYMMETRIC
            )
            energy = scalar_resonance_energy
        else:
            scenario = dataclasses.replace(em_dipole_scenario(), acceleration=acceleration)
            energy = em_resonance_energy
        energy(scenario)
        calls = python_calls(energy, scenario)
        assert calls[0] == energy.__name__
        assert len(calls) <= {"scalar": 3, "em": 6}[field], calls

    def test_em_field_with_float_tuples_makes_two_calls(self):
        # em_field and __init__, whose dipole checks are inline.
        dipoles = dict(dipole_a=(0.3, -1.2, 0.7), dipole_b=(1.0, 0.5, -2.0))
        calls = python_calls(functools.partial(Scenario.em_field, **KINEMATICS, **dipoles))
        assert calls == ["Scenario.em_field", "Scenario.__init__"]

    def test_whole_em_point_makes_eight_calls(self):
        dipoles = dict(dipole_a=(0.3, -1.2, 0.7), dipole_b=(1.0, 0.5, -2.0))

        def point():
            return em_resonance_energy(Scenario.em_field(**KINEMATICS, **dipoles))

        calls = python_calls(point)[1:]
        assert calls == [
            "Scenario.em_field", "Scenario.__init__", "em_resonance_energy", "_dipole_weights",
            "point_geometry", "em_reduced_components", "_contract", "_energy_shift",
        ]

    def test_scalar_field_with_floats_makes_two_calls(self):
        # scalar_field and __init__, whose float checks are inline.
        calls = python_calls(functools.partial(Scenario.scalar_field, **KINEMATICS, coupling=0.5))
        assert calls == ["Scenario.scalar_field", "Scenario.__init__"]

    @pytest.mark.parametrize("field", ["scalar", "em"])
    def test_from_reduced_makes_five_calls(self, field):
        # from_reduced, one conversion each of theta, zeta and the
        # separation, and __init__, which checks float-tuple dipoles inline.
        inputs = dict(theta=1.0, zeta=1.0, parity=Parity.SYMMETRIC)
        if field == "em":
            inputs.update(field_kind=FieldKind.EM, dipole_a=(1.0, 0.0, 0.0), dipole_b=(0.0, 0.0, 1.0))
        calls = python_calls(functools.partial(Scenario.from_reduced, **inputs))
        assert calls[0] == "Scenario.from_reduced" and "Scenario.__init__" in calls
        assert len(calls) <= 5, calls

    @pytest.mark.parametrize("param", ["sep", "accel", "omega0"])
    @pytest.mark.parametrize("field", ["scalar", "em"])
    def test_closed_form_rows_make_one_or_two_calls_per_row(self, field, param):
        # point_geometry per scalar row, and em_reduced_components and
        # _contract too per EM row: the points, the label, the finite check
        # and the line take no call, so neither Regime.classify nor
        # Enum.__hash__ runs per row.
        scenario = field_scenario(field, 1e17, 1.0, 1e8, Parity.SYMMETRIC)
        low = SWEEP_LOW[param]

        def values(n):  # log-spaced over six decades: sep and accel cross all three regimes
            return [low * 10.0 ** (6.0 * k / (n - 1)) for k in range(n)]

        short, long = (
            python_calls(cli._closed_form_rows, scenario, param, values(n)) for n in (4, 12)
        )
        assert len(long) - len(short) <= {"scalar": 1, "em": 3}[field] * (12 - 4), long
        assert not [name for name in long if "classify" in name or "__hash__" in name]

    @pytest.mark.parametrize("spacing", ["lin", "log"])
    @pytest.mark.parametrize("param", ["sep", "accel", "omega0"])
    @pytest.mark.parametrize("field", ["scalar", "em"])
    def test_whole_sweep_makes_one_or_two_calls_per_row(self, capsys, field, param, spacing):
        # The same bound through cli.main, and no line of cmd_sweep or main
        # runs once per row: the grid values go to the row helper untouched.
        fixed = [x for name, v in SWEEP_BASE.items() if name != param for x in (f"--{name}", v)]
        argv = [
            "sweep", "--field", field, "--parity", "sym", *fixed, "--param", param,
            "--from", repr(SWEEP_LOW[param]), "--to", repr(SWEEP_LOW[param] * 1e6),
            "--spacing", spacing,
        ]
        codes = []

        def sweep(n):
            codes.append(cli.main([*argv, "--points", str(n)]))

        short, long = (python_calls(sweep, n) for n in (4, 12))
        assert len(long) - len(short) <= {"scalar": 1, "em": 3}[field] * (12 - 4), long
        short, long = (line_events(sweep, n) for n in (4, 12))
        for name in ("main", "cmd_sweep"):
            assert long[name] == short[name] > 0, name
        assert codes == [0] * 4
        assert len(capsys.readouterr().out.splitlines()) == 2 * ((1 + 4) + (1 + 12))

    @pytest.mark.parametrize("dipoles", [(), ("--dipole-a", "x", "--dipole-b", "0.3,-1.2,0.7")])
    def test_cli_em_scenario_takes_the_float_tuple_check(self, dipoles):
        # The parsed dipoles are float tuples, so Scenario.__init__ keeps
        # them without the per-component _as_triple door.
        _, flags = cli._parse(["compute", "--field", "em", "--parity", "sym", "--sep", "1",
                               "--omega0", "1e8", *dipoles])
        calls = python_calls(cli._build_scenario, flags)
        assert "Scenario.__init__" in calls
        assert "_as_triple" not in calls, calls
