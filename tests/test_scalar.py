"""Scalar-field resonance shift: closed form, limits, asymptote."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from rindler_resonance import (
    DomainError,
    FieldKind,
    FieldKindError,
    Parity,
    Regime,
    SPEED_OF_LIGHT,
    Scenario,
    scalar_farzone_asymptote,
    scalar_inertial_limit,
    scalar_resonance_energy,
    scenario_geometry,
)

# 50-digit evaluations.
REDUCED_THETA1_ZETA1 = 0.449784872289726010235  # cos(asinh(1))/sqrt(2)


def scalar_scenario(theta, zeta, parity=Parity.SYMMETRIC, **kwargs):
    return Scenario.from_reduced(theta=theta, zeta=zeta, parity=parity, **kwargs)


class TestClosedForm:
    def test_unit_point_antisymmetric(self):
        shift = scalar_resonance_energy(scalar_scenario(1.0, 1.0, Parity.ANTISYMMETRIC))
        assert shift.reduced == pytest.approx(REDUCED_THETA1_ZETA1, rel=1e-14)

    def test_half_wave_inertial(self):
        shift = scalar_resonance_energy(scalar_scenario(math.pi, 0.0))
        assert shift.reduced == pytest.approx(1.0, rel=1e-14)
        assert shift.regime is Regime.INERTIAL

    def test_static_at_sqrt3(self):
        shift = scalar_resonance_energy(scalar_scenario(0.0, math.sqrt(3.0)))
        assert shift.reduced == pytest.approx(-0.5, rel=1e-14)

    def test_si_value_and_prefactor(self):
        sc = Scenario.scalar_field(
            acceleration=0.0,
            separation=2.0,
            omega0=0.0,
            parity=Parity.SYMMETRIC,
            coupling=3.0,
        )
        shift = scalar_resonance_energy(sc)
        c = SPEED_OF_LIGHT
        assert shift.prefactor == pytest.approx(9.0 / (16.0 * math.pi * c * c * 2.0), rel=1e-15)
        assert shift.si_value == shift.prefactor * shift.reduced
        assert shift.field_kind is FieldKind.SCALAR

    def test_rejects_em_scenario(self):
        sc = Scenario.em_field(
            acceleration=0.0,
            separation=1.0,
            omega0=1.0,
            parity=Parity.SYMMETRIC,
            dipole_a=[0, 0, 1],
            dipole_b=[0, 0, 1],
        )
        with pytest.raises(FieldKindError):
            scalar_resonance_energy(sc)

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=300.0),
    )
    def test_parity_flip_negates_exactly(self, theta, zeta):
        sym = scalar_resonance_energy(scalar_scenario(theta, zeta, Parity.SYMMETRIC))
        anti = scalar_resonance_energy(scalar_scenario(theta, zeta, Parity.ANTISYMMETRIC))
        assert anti.reduced == -sym.reduced
        assert anti.si_value == -sym.si_value

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=300.0),
    )
    def test_envelope_bound(self, theta, zeta):
        shift = scalar_resonance_energy(scalar_scenario(theta, zeta))
        assert abs(shift.reduced) * math.sqrt(1.0 + zeta * zeta) <= 1.0 + 1e-12

    @settings(max_examples=30)
    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=1e-3, max_value=100.0),
        st.sampled_from([1e-3, 1e3]),
    )
    def test_reduced_value_depends_only_on_theta_zeta(self, theta, zeta, kappa):
        base = scalar_scenario(theta, zeta)
        scaled = Scenario.scalar_field(
            acceleration=base.acceleration * kappa,
            separation=base.separation / kappa,
            omega0=base.omega0 * kappa,
            parity=base.parity,
        )
        r0 = scalar_resonance_energy(base).reduced
        r1 = scalar_resonance_energy(scaled).reduced
        assert r1 == pytest.approx(r0, rel=1e-12)


class TestInertialLimit:
    def test_matches_closed_form_bitwise_at_zero_acceleration(self):
        for theta in (0.0, 0.3, 1.0, math.pi, 17.2):
            sc = Scenario.scalar_field(
                acceleration=0.0,
                separation=1.0,
                omega0=theta * 299792458.0,
                parity=Parity.ANTISYMMETRIC,
            )
            assert scalar_resonance_energy(sc).reduced == scalar_inertial_limit(sc).reduced

    def test_values(self):
        assert scalar_inertial_limit(scalar_scenario(0.0, 0.0)).reduced == -1.0
        assert scalar_inertial_limit(
            scalar_scenario(0.5 * math.pi, 0.0)
        ).reduced == pytest.approx(0.0, abs=1e-15)

    def test_deviation_from_full_form_is_quadratic_in_zeta(self):
        theta = 1.0
        devs = []
        for zeta in (1e-3, 5e-4):
            full = scalar_resonance_energy(scalar_scenario(theta, zeta)).reduced
            inertial = scalar_inertial_limit(scalar_scenario(theta, zeta)).reduced
            devs.append(abs(full - inertial))
        assert 3.5 <= devs[0] / devs[1] <= 4.5


class TestFarzoneAsymptote:
    def test_static_example(self):
        full = scalar_resonance_energy(scalar_scenario(0.0, 100.0)).reduced
        asym = scalar_farzone_asymptote(scalar_scenario(0.0, 100.0)).reduced
        assert asym == -0.01
        assert full == pytest.approx(-0.009999500037496875273413, rel=1e-14)
        assert abs(asym / full - 1.0) < 1e-4

    def test_phase_zero_crossing(self):
        # 2*Omega*ln(2*zeta) = pi/2 lands on a zero of the cosine.
        zeta = 40.0
        theta = 0.5 * math.pi * zeta / math.log(2.0 * zeta)
        asym = scalar_farzone_asymptote(scalar_scenario(theta, zeta))
        assert asym.reduced == pytest.approx(0.0, abs=1e-14)

    def test_converges_to_full_form(self):
        # Fixed omega_ratio = 1, phase-aligned zetas, increasing zeta.
        gaps = []
        for k in (2, 4, 6):
            zeta = math.sinh(k * math.pi / 2.0)
            sc = scalar_scenario(2.0 * zeta, zeta)
            full = scalar_resonance_energy(sc).reduced
            asym = scalar_farzone_asymptote(sc).reduced
            gaps.append(abs(asym / full - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_warning_below_unit_zeta(self):
        low = scalar_farzone_asymptote(scalar_scenario(1.0, 0.5))
        high = scalar_farzone_asymptote(scalar_scenario(1.0, 5.0))
        assert low.warning is not None
        assert high.warning is None

    def test_requires_acceleration(self):
        sc = Scenario.scalar_field(
            acceleration=0.0, separation=1.0, omega0=1.0, parity=Parity.SYMMETRIC
        )
        with pytest.raises(DomainError):
            scalar_farzone_asymptote(sc)
