"""The closed forms over the whole float domain: a finite shift or a
DomainError, and correct values far beyond the crossover length."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from rindler_resonance import (
    DomainError,
    FieldKind,
    Parity,
    Scenario,
    em_potential_tensors,
    em_resonance_energy,
    parity_sign,
    scalar_resonance_energy,
    scenario_geometry,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
DIPOLE = st.lists(FINITE, min_size=3, max_size=3)
PARITY = st.sampled_from(list(Parity))
C = 299792458.0


def finite_or_domain_error(energy, scenario_factory):
    try:
        shift = energy(scenario_factory())
    except DomainError:
        return
    assert math.isfinite(shift.reduced)
    assert math.isfinite(shift.si_value)


@settings(max_examples=300)
@given(NON_NEGATIVE, POSITIVE, NON_NEGATIVE, FINITE, PARITY)
def test_scalar_is_finite_or_domain_error(acceleration, separation, omega0, coupling, parity):
    finite_or_domain_error(
        scalar_resonance_energy,
        lambda: Scenario.scalar_field(
            acceleration=acceleration, separation=separation, omega0=omega0,
            parity=parity, coupling=coupling,
        ),
    )


@settings(max_examples=300)
@given(NON_NEGATIVE, POSITIVE, NON_NEGATIVE, DIPOLE, DIPOLE, PARITY)
def test_em_is_finite_or_domain_error(acceleration, separation, omega0, da, db, parity):
    finite_or_domain_error(
        em_resonance_energy,
        lambda: Scenario.em_field(
            acceleration=acceleration, separation=separation, omega0=omega0,
            parity=parity, dipole_a=da, dipole_b=db,
        ),
    )


def test_overflowing_zeta_raises_domain_error():
    # zeta itself overflows: z*a/(2c^2) ~ 5.6e590.
    sc = Scenario.scalar_field(
        acceleration=1e308, separation=1e300, omega0=1.0, parity=Parity.SYMMETRIC
    )
    with pytest.raises(DomainError, match="not finite"):
        scalar_resonance_energy(sc)


def test_phase_where_omega0_times_z_overflows():
    # omega0*z overflows, but theta = 3.3e301 and the phase
    # theta*asinh(zeta)/zeta = 2.3e4 are finite at zeta = 1e300.
    kinematics = dict(
        acceleration=2.0 * C * C * 1e290, separation=1e10, omega0=1e300, parity=Parity.SYMMETRIC
    )
    shift = scalar_resonance_energy(Scenario.scalar_field(**kinematics))
    with mp.workdps(40):
        zeta = mp.mpf(kinematics["acceleration"]) * mp.mpf(1e10) / (2 * mp.mpf(C) ** 2)
        theta = mp.mpf(1e300) * mp.mpf(1e10) / mp.mpf(C)
        want = -mp.cos(theta * mp.asinh(zeta) / zeta) / mp.sqrt(1 + zeta * zeta)
        # A phase of 2.3e4 carries the last-bit rounding of theta and
        # zeta as an error of a few 1e-12 (measured 4.0e-12).
        assert abs(shift.reduced - want) <= 2e-11 / zeta
    # theta**2 overflows, yet z**3 (V + W)_yy ~ theta**2/zeta ~ 1e303 fits.
    shift = em_resonance_energy(
        Scenario.em_field(**kinematics, dipole_a=(0, 1, 0), dipole_b=(0, 1, 0))
    )
    assert math.isfinite(shift.reduced) and math.isfinite(shift.si_value)
    with mp.workdps(40):
        n = 1 + zeta * zeta
        cos_p, sin_p = mp.cos(theta * mp.asinh(zeta) / zeta), mp.sin(theta * mp.asinh(zeta) / zeta)
        f1, g0, g2 = (1 + 2 * zeta * zeta) / n, -1 / n**1.5, 1 / mp.sqrt(n)
        want = f1 * theta * sin_p - (g0 + g2 * theta * theta) * cos_p
        envelope = max(abs(f1 * theta), abs(g0), abs(g2 * theta * theta))
        assert abs(shift.reduced - want) <= 2e-11 * envelope


# From 1e300 on, a*z overflows at the separation below while zeta fits.
HUGE_ZETAS = (1e60, 1e77, 1e154, 1e200, 1e290, 1e300, 1e307)


def huge_zeta_scenario(theta, zeta, field_kind=FieldKind.SCALAR, parity=Parity.SYMMETRIC):
    # A long separation keeps a = 2 c**2 zeta / z finite.
    separation = 1e20
    kinematics = dict(
        acceleration=2.0 * C * C * (zeta / separation),
        separation=separation,
        omega0=theta * C / separation,
        parity=parity,
    )
    if field_kind is FieldKind.EM:
        return Scenario.em_field(**kinematics, dipole_a=(0, 1, 0), dipole_b=(0, 1, 0))
    return Scenario.scalar_field(**kinematics)


def mp_reduced_variables(geom):
    zeta = mp.mpf(geom.zeta)
    theta = mp.mpf(geom.theta)
    phase = theta * mp.asinh(zeta) / zeta
    return zeta, theta, mp.cos(phase), mp.sin(phase)


@pytest.mark.parametrize("zeta", HUGE_ZETAS)
@pytest.mark.parametrize("theta", (0.3, 7.0))
@pytest.mark.parametrize("parity", list(Parity))
def test_scalar_far_beyond_crossover(theta, zeta, parity):
    sc = huge_zeta_scenario(theta, zeta, parity=parity)
    with mp.workdps(40):
        z, _, cos_p, _ = mp_reduced_variables(scenario_geometry(sc))
        envelope = 1 / mp.sqrt(1 + z * z)
        want = -parity_sign(parity) * cos_p * envelope
        shift = scalar_resonance_energy(sc)
        assert abs(shift.reduced - want) <= 1e-13 * envelope


@pytest.mark.parametrize("zeta", HUGE_ZETAS)
@pytest.mark.parametrize("theta", (0.3, 7.0))
def test_em_far_beyond_crossover(theta, zeta):
    sc = huge_zeta_scenario(theta, zeta, FieldKind.EM)
    geom = scenario_geometry(sc)
    reduced = em_potential_tensors(geom).reduced
    with mp.workdps(60):
        z, t, cos_p, sin_p = mp_reduced_variables(geom)
        z2 = z * z
        n = 1 + z2
        # (f1, g0, g2) per entry of z**3 (V + W), from the spectral coefficients.
        terms = {
            ("x", "x"): ((1 + 4 * z2) / n**2, -(1 + 2 * z2 + 4 * z2 * z2) / n**2.5, 1 / n**1.5),
            ("y", "y"): ((1 + 2 * z2) / n, -1 / n**1.5, 1 / mp.sqrt(n)),
            ("z", "z"): ((-2 - z2 * (1 + 2 * z2)) / n**2, (2 + 5 * z2) / n**2.5, -z2 / n**1.5),
            ("x", "z"): (z * (1 - 2 * z2) / n**2, z * (1 + 4 * z2) / n**2.5, z / n**1.5),
        }
        for slot, (f1, g0, g2) in terms.items():
            want = f1 * t * sin_p - (g0 + g2 * t * t) * cos_p
            envelope = max(abs(f1 * t), abs(g0), abs(g2 * t * t))
            assert abs(reduced[slot] - want) <= 1e-13 * envelope, slot
        shift = em_resonance_energy(sc)
    assert shift.reduced == reduced["y", "y"]
    assert math.isfinite(shift.si_value)
