"""The closed forms over the whole float domain: a finite shift or a
DomainError, and correct values far beyond the crossover length."""

import dataclasses
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from rindler_resonance import (
    DomainError,
    FieldKind,
    Parity,
    Scenario,
    em_farzone_asymptote,
    em_potential_tensors,
    em_resonance_energy,
    parity_sign,
    scalar_farzone_asymptote,
    scalar_resonance_energy,
    scenario_geometry,
)
from rindler_resonance.cli import main
from rindler_resonance.core import _farzone_point, point_geometry
from rindler_resonance.em import em_closed_form, em_reduced_components

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


AXES = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


def mp_farzone_asymptotes(geom, cos_sin=None):
    """The scalar far-zone asymptote of the symmetric state, then each EM far-zone entry.

    The entries (xx, yy, zz and xz; zx = -xz) map to (value, envelope),
    the envelope being |sin term| + |cos term| at the far-zone phase,
    whose cos and sin may be given.
    """
    zeta, theta = mp.mpf(geom.zeta), mp.mpf(geom.theta)
    r = theta / zeta
    phase = r * mp.log(2 * zeta)
    cos_p, sin_p = cos_sin or (mp.cos(phase), mp.sin(phase))
    coefficients = {  # (sin, cos) coefficients
        "xx": (4 * r / zeta, (4 - r * r) / zeta),
        "yy": (2 * theta, -theta * theta / zeta),
        "zz": (-2 * theta, theta * theta / zeta),
        "xz": (-2 * r, r * r),
    }
    entries = {
        pair: (s * sin_p + c * cos_p, abs(s * sin_p) + abs(c * cos_p))
        for pair, (s, c) in coefficients.items()
    }
    return -cos_p / zeta, entries


@pytest.mark.parametrize("pair", ("yy", "xx", "xz"))
def test_em_farzone_asymptote_where_theta_squared_overflows(pair):
    # theta = 3.3e301 and zeta = 1e300: theta**2 overflows, theta**2/zeta ~ 1e303 fits.
    sc = Scenario.em_field(
        acceleration=2.0 * C * C * 1e290, separation=1e10, omega0=1e300,
        parity=Parity.SYMMETRIC, dipole_a=AXES[pair[0]], dipole_b=AXES[pair[1]],
    )
    geom = scenario_geometry(sc)
    shift = em_farzone_asymptote(sc)
    assert math.isfinite(shift.reduced) and math.isfinite(shift.si_value)
    with mp.workdps(40):
        want, envelope = mp_farzone_asymptotes(geom)[1][pair]
        assert abs(shift.reduced - want) <= 1e-9 * envelope


@pytest.mark.parametrize("zeta", (9e307, 1.5e308))
def test_farzone_asymptotes_where_two_zeta_overflows(zeta):
    # 2*zeta exceeds the largest float while zeta and both asymptotes fit.
    separation = 1e300
    kinematics = dict(
        acceleration=2.0 * C * C * (zeta / separation), separation=separation,
        omega0=1e-290, parity=Parity.SYMMETRIC,
    )
    scalar = Scenario.scalar_field(**kinematics)
    geom = scenario_geometry(scalar)
    with mp.workdps(40):
        want_scalar, entries = mp_farzone_asymptotes(geom)
        got = scalar_farzone_asymptote(scalar).reduced
        assert math.isfinite(got) and abs(got - want_scalar) <= 1e-13 / mp.mpf(geom.zeta)
        for pair in ("yy", "xx", "xz"):
            em = Scenario.em_field(**kinematics, dipole_a=AXES[pair[0]], dipole_b=AXES[pair[1]])
            got = em_farzone_asymptote(em).reduced
            want, envelope = entries[pair]
            # xz ~ 1e-610 lies below the float range and reads 0.
            assert math.isfinite(got) and abs(got - want) <= 1e-13 * envelope + 5e-324, pair


# From 1e300 on, a*z overflows at the separation below while zeta fits.
HUGE_ZETAS = (1e60, 1e77, 1e154, 1e200, 1e290, 1e300, 1e307)


def huge_zeta_scenario(theta, zeta, field_kind=FieldKind.SCALAR, parity=Parity.SYMMETRIC):
    # A long separation keeps a = 2 c**2 zeta / z finite.
    separation = 1e20
    kinematics = dict(
        acceleration=2.0 * C * C * (zeta / separation),
        separation=separation,
        omega0=theta * (C / separation),
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


def mp_reduced_entries(geom):
    """slot: (value, envelope) of each nonzero entry of z**3 (V + W) but zx = -xz."""
    return mp_entries(*mp_reduced_variables(geom))


def mp_entries(z, t, cos_p, sin_p):
    """mp_reduced_entries at zeta z and theta t, with the cos and sin of the phase given."""
    z2 = z * z
    n = 1 + z2
    # (f1, g0, g2) per entry of z**3 (V + W), from the spectral coefficients.
    terms = {
        ("x", "x"): ((1 + 4 * z2) / n**2, -(1 + 2 * z2 + 4 * z2 * z2) / n**2.5, 1 / n**1.5),
        ("y", "y"): ((1 + 2 * z2) / n, -1 / n**1.5, 1 / mp.sqrt(n)),
        ("z", "z"): ((-2 - z2 * (1 + 2 * z2)) / n**2, (2 + 5 * z2) / n**2.5, -z2 / n**1.5),
        ("x", "z"): (z * (1 - 2 * z2) / n**2, -z * (1 + 4 * z2) / n**2.5, -z / n**1.5),
    }
    return {
        slot: (f1 * t * sin_p - (g0 + g2 * t * t) * cos_p,
               max(abs(f1 * t), abs(g0), abs(g2 * t * t)))
        for slot, (f1, g0, g2) in terms.items()
    }


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


# The moderate zetas let a flipped xz sign fail; from 1e60 on the xz cos
# term is far below the tolerance.
@pytest.mark.parametrize("zeta", (0.5, 2.0, 30.0) + HUGE_ZETAS)
@pytest.mark.parametrize("theta", (0.3, 7.0))
def test_em_far_beyond_crossover(theta, zeta):
    sc = huge_zeta_scenario(theta, zeta, FieldKind.EM)
    geom = scenario_geometry(sc)
    reduced = em_potential_tensors(geom).reduced
    with mp.workdps(60):
        for slot, (want, envelope) in mp_reduced_entries(geom).items():
            assert abs(reduced[slot] - want) <= 1e-13 * envelope, slot
        shift = em_resonance_energy(sc)
    assert shift.reduced == reduced["y", "y"]
    assert math.isfinite(shift.si_value)


# The closed form takes no branch on theta or a: theta meets u or v
# before it is squared at every point.  From zeta = 6.7e153 on
# a = 1/(1 + zeta**2) is subnormal; the last two points lie on both
# sides of that bound.  The phase theta*asinh(zeta)/zeta of up to 7e5
# leaves about 1e-10 of each envelope.
@pytest.mark.parametrize(
    "ratio,zeta",
    [(ratio, zeta) for zeta in (1e150, 1e154, 1e160, 1e200, 3.3e213, 1e250, 1e300)
     for ratio in (1e-3, 1.3, 1e3)]
    + [(1.0, 6.70e153), (1.0, 6.71e153)],
)
def test_em_where_the_inverse_norm_is_subnormal(ratio, zeta):
    sc = huge_zeta_scenario(ratio * zeta, zeta, FieldKind.EM)
    with mp.workdps(80):
        assert_em_entries(sc, mp_reduced_entries(scenario_geometry(sc)))


# theta**2 overflows from theta = 1.34e154; the points lie on both sides
# of that bound.  The phase there is 3e145, so the reference takes its
# float cos and sin: the phase's rounding (ROADMAP item 15) is not this
# test's subject.
@pytest.mark.parametrize("theta", (1.3407e154, 1.3409e154))
def test_em_where_theta_squared_overflows(theta):
    sc = huge_zeta_scenario(theta, 1e10, FieldKind.EM)
    geom = scenario_geometry(sc)
    with mp.workdps(80):
        cos_p, sin_p = mp.mpf(math.cos(geom.phase)), mp.mpf(math.sin(geom.phase))
        assert_em_entries(sc, mp_entries(mp.mpf(geom.zeta), mp.mpf(geom.theta), cos_p, sin_p))


def assert_em_entries(sc, entries):
    """Each closed-form entry within 1e-9 of its envelope, and the x-x shift equal to xx."""
    reduced = em_potential_tensors(scenario_geometry(sc)).reduced
    for slot, (want, envelope) in entries.items():
        assert abs(reduced[slot] - want) <= 1e-9 * envelope, slot
    x_pair = dataclasses.replace(sc, dipole_a=(1, 0, 0), dipole_b=(1, 0, 0))
    assert em_resonance_energy(x_pair).reduced == reduced["x", "x"]


def test_em_entries_at_ordinary_points():
    # Log-uniform in zeta and theta, against mpmath at the float zeta,
    # theta, cos and sin of point_geometry: the entries' own rounding.
    rng = random.Random(38)
    with mp.workdps(50):
        for _ in range(200):
            zeta, theta = 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-4.0, math.log10(3e3))
            point = point_geometry(2.0 * C * C * zeta, 1.0, theta * C)
            got = em_reduced_components(*point)
            want = mp_entries(*(mp.mpf(x) for x in point[:4]))
            for value, (slot, (exact, envelope)) in zip(got, want.items()):
                assert abs(value - exact) <= 1e-14 * envelope, (slot, zeta, theta)


# yy ~ theta**2/zeta overflows at theta = 1e160 and zeta = 1e10; xx and xz fit.
UNUSED_ENTRY_OVERFLOWS = dict(theta=1e160, zeta=1e10, parity=Parity.SYMMETRIC,
                              field_kind=FieldKind.EM)


# At theta = 1.005e308 and zeta = 1e150 (both phases in the first
# quadrant) yy and zz are inf - inf = nan, and xx ~ -2e165 fits.
@pytest.mark.parametrize("theta,zeta,pair,slot", [
    (1e160, 1e10, "xx", 0), (1e160, 1e10, "xz", 3), (1.005e308, 1e150, "xx", 0),
])
def test_em_where_an_unused_entry_overflows(theta, zeta, pair, slot):
    sc = dataclasses.replace(
        huge_zeta_scenario(theta, zeta, FieldKind.EM),
        dipole_a=AXES[pair[0]], dipole_b=AXES[pair[1]],
    )
    point = point_geometry(sc.acceleration, sc.separation, sc.omega0)
    entries = em_reduced_components(*point)
    assert not math.isfinite(entries[1])
    assert em_resonance_energy(sc).reduced == entries[slot]
    assert em_closed_form(sc, [(sc.acceleration, sc.separation, sc.omega0)])[0][2] == entries[slot]
    # The far-zone phase, 2.4e151 or 3.5e160, is taken as the float one, as above.
    geom, phase, _ = _farzone_point(sc, FieldKind.EM)
    with mp.workdps(40):
        cos_sin = mp.mpf(math.cos(phase)), mp.mpf(math.sin(phase))
        want, envelope = mp_farzone_asymptotes(geom, cos_sin)[1][pair]
        assert abs(em_farzone_asymptote(sc).reduced - want) <= 1e-13 * envelope


def test_em_pair_that_weighs_no_overflowing_entry_reads_zero():
    sc = Scenario.from_reduced(**UNUSED_ENTRY_OVERFLOWS, dipole_a=AXES["y"], dipole_b=AXES["x"])
    for energy in (em_resonance_energy, em_farzone_asymptote):
        reduced = energy(sc).reduced
        assert type(reduced) is float and reduced == 0.0


def test_em_farzone_pair_that_weighs_y_and_z_alike_skips_the_overflowing_entry():
    # wyy = wzz and wxz = 0: the far-zone yy = -zz takes the folded weight
    # wyy - wzz = 0, so its overflow leaves wxx*xx, not 0*inf.
    sc = Scenario.from_reduced(**UNUSED_ENTRY_OVERFLOWS, dipole_a=(1, 1, 1), dipole_b=(1, 1, 1))
    reduced = em_farzone_asymptote(sc).reduced
    assert math.isfinite(reduced)
    unit = 1.0 / math.hypot(1.0, 1.0, 1.0)
    geom, phase, _ = _farzone_point(sc, FieldKind.EM)
    with mp.workdps(40):
        cos_sin = mp.mpf(math.cos(phase)), mp.mpf(math.sin(phase))
        want, envelope = mp_farzone_asymptotes(geom, cos_sin)[1]["xx"]
        wxx = mp.mpf(unit * unit)
        assert abs(reduced - wxx * want) <= 1e-13 * wxx * envelope


def test_em_pair_on_the_overflowing_entry_raises():
    sc = Scenario.from_reduced(**UNUSED_ENTRY_OVERFLOWS, dipole_a=AXES["y"], dipole_b=AXES["y"])
    for energy in (em_resonance_energy, em_farzone_asymptote):
        with pytest.raises(DomainError, match="not finite"):
            energy(sc)


def test_em_sweep_row_where_an_unused_entry_overflows(capsys):
    accel, omega0 = repr(2.0 * C * C * 1e10), repr(1e160 * C)
    code = main([
        "sweep", "--field", "em", "--parity", "sym", "--dipole-a", "x", "--dipole-b", "x",
        "--accel", accel, "--omega0", omega0, "--param", "sep", "--from", "1", "--to", "1.5",
        "--points", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    for row in out.splitlines()[1:]:
        assert all(map(math.isfinite, map(float, row.split(",")[7:9]))), row


@pytest.mark.parametrize("asymptote", (scalar_farzone_asymptote, em_farzone_asymptote))
@pytest.mark.parametrize("acceleration", (2.0 * C * C * 1e-320, 5e-324))
def test_farzone_asymptotes_where_the_phase_is_not_finite(asymptote, acceleration):
    # At z = 1 m: theta/zeta overflows at zeta = 1e-320, and a = 5e-324
    # gives zeta = 0.
    kinematics = dict(acceleration=acceleration, separation=1.0, omega0=1e-10 * C,
                      parity=Parity.SYMMETRIC)
    if asymptote is scalar_farzone_asymptote:
        sc = Scenario.scalar_field(**kinematics)
    else:
        sc = Scenario.em_field(**kinematics, dipole_a=AXES["y"], dipole_b=AXES["y"])
    with pytest.raises(DomainError, match="far-zone phase"):
        asymptote(sc)
