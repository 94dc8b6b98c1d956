"""Reduced variables, conventions, and scenario validation."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rindler_resonance import (
    BOLTZMANN,
    CONSTANTS,
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
    DomainError,
    EnergyShift,
    FieldKind,
    FieldKindError,
    Parity,
    PhysicalConstants,
    Regime,
    Scenario,
    asinh_ratio,
    atomic_correlation_factor,
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
        assert geom.omega_ratio is None
        assert geom.crossover_length == math.inf

    def test_special_zeta_values(self):
        geom = reduced_geometry(2.0 * C * C, 1.0, 0.0)
        # asinh(1) = ln(1 + sqrt(2))
        assert geom.s_ratio == pytest.approx(math.log(1.0 + math.sqrt(2.0)), rel=1e-15)
        assert geom.s_ratio == pytest.approx(0.881374, abs=5e-7)

    def test_theta_is_omega_ratio_times_two_zeta(self):
        geom = reduced_geometry(3.7e18, 2.5, 9.1e17)
        assert geom.theta == pytest.approx(2.0 * geom.omega_ratio * geom.zeta, rel=1e-13)

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

    def test_correlation_factor_values(self):
        omega0 = 3.0
        assert atomic_correlation_factor(0.0, omega0, Parity.SYMMETRIC) == 1.0
        assert atomic_correlation_factor(math.pi / omega0, omega0, Parity.SYMMETRIC) == pytest.approx(-1.0)
        assert atomic_correlation_factor(0.0, omega0, Parity.ANTISYMMETRIC) == -1.0

    @given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=0.0, max_value=10.0))
    def test_correlation_factor_even_in_u(self, u, omega0):
        sym = atomic_correlation_factor(u, omega0, Parity.SYMMETRIC)
        assert atomic_correlation_factor(-u, omega0, Parity.SYMMETRIC) == sym

    def test_labels(self):
        assert Parity.from_label("Symmetric") is Parity.SYMMETRIC
        assert Parity.from_label(" anti ") is Parity.ANTISYMMETRIC
        assert FieldKind.from_label("EM") is FieldKind.EM
        with pytest.raises(DomainError):
            Parity.from_label("mixed")
        with pytest.raises(DomainError):
            FieldKind.from_label("tensor")


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
        with pytest.raises(ValueError):
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
        ],
    )
    def test_accepted_forms_give_read_only_float64_copies(self, dipole, expected):
        mu = em_scenario(dipole).dipole_a
        assert mu.dtype == np.float64
        assert mu.shape == (3,)
        assert mu.tolist() == expected
        assert not mu.flags.writeable
        if isinstance(dipole, np.ndarray):
            assert not np.shares_memory(mu, dipole)
            dipole[0] = 9
            assert mu.tolist() == expected

    @pytest.mark.parametrize("dipole", [1.0, [1.0, 2.0], [[1.0], [2.0], [3.0]], np.zeros((3, 1))])
    def test_wrong_shape(self, dipole):
        with pytest.raises(DomainError, match="3-vector"):
            em_scenario(dipole)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component(self, bad):
        with pytest.raises(DomainError, match="finite"):
            em_scenario([0.0, bad, 1.0])
        with pytest.raises(DomainError, match="finite"):
            em_scenario(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize(
        "dipole",
        [
            [1j, 0.0, 0.0],
            [1.0 + 0j, 0.0, 0.0],
            [np.complex128(1 + 2j), 0.0, 0.0],
            np.array([1 + 2j, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0], dtype=np.complex64),
        ],
    )
    def test_complex_component(self, dipole):
        with pytest.raises(DomainError, match="must be real"):
            em_scenario(dipole)


class TestConstants:
    def test_frozen(self):
        with pytest.raises(Exception):
            CONSTANTS.c = 3e8

    def test_validation(self):
        with pytest.raises(DomainError):
            PhysicalConstants(c=-1.0)


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
            ("constants", kind, CONSTANTS),
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
        for record in (scalar_scenario(), energy_shift()):
            values = [getattr(record, f.name) for f in dataclasses.fields(record)]
            positional = type(record)(*values)
            keyword = type(record)(**{f.name: v for f, v in zip(dataclasses.fields(record), values)})
            assert positional == keyword == record
            assert hash(positional) == hash(keyword) == hash(record)
            assert repr(positional) == repr(keyword) == repr(record)

    def test_replace_revalidates(self):
        scenario = scalar_scenario()
        assert dataclasses.replace(scenario, omega0=2e8).omega0 == 2e8
        with pytest.raises(DomainError):
            dataclasses.replace(scenario, separation=-1.0)
        with pytest.raises(DomainError, match="must be real"):
            dataclasses.replace(em_scenario([1.0, 0.0, 0.0]), dipole_a=[1j, 0, 0])
        with pytest.raises(DomainError):
            dataclasses.replace(energy_shift(), reduced=math.nan)
