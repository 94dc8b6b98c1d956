"""Electromagnetic shift: spectral tensors, potentials, correlation tensor."""

import math
import random
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from reference_chain import families, resum, si_tensor
from rindler_resonance import (
    DomainError,
    FieldKind,
    FieldKindError,
    REDUCED_PLANCK,
    Parity,
    Scenario,
    SingularityError,
    Tensor3,
    em_farzone_asymptote,
    em_inertial_potential,
    em_potential_tensors,
    em_energy_pv_oracle,
    em_resonance_energy,
    em_spectral_coefficients,
    em_spectral_tensors,
    em_wightman_tensor,
    reduced_geometry,
    scenario_geometry,
)
from rindler_resonance.em import (
    _spectral_entries,
    _wightman_kernel,
    em_closed_form,
    em_reduced_components,
)

C = 299792458.0

DIAGONAL = {("x", "x"), ("y", "y"), ("z", "z")}
OFF_PAIR = {("x", "z"), ("z", "x")}
ZERO_SLOTS = [(l, m) for l in "xyz" for m in "xyz"
              if (l, m) not in DIAGONAL and (l, m) not in OFF_PAIR]

# 50-digit evaluation of the correlation tensor at zeta = 1, z = 1,
# u = S/2, eps = S/1000.
WIGHTMAN_POINT = {
    ("x", "x"): complex(-9.747698405339847178015e-26, 3.962384776693076116543e-28),
    ("y", "y"): complex(-1.309252566668632757435e-25, 6.501294713407695987811e-28),
    ("z", "z"): complex(9.747698405339847178015e-26, -3.962384776693076116543e-28),
    ("x", "z"): complex(3.344827261346480396331e-26, -2.538909936714619871268e-28),
    ("z", "x"): complex(-3.344827261346480396331e-26, 2.538909936714619871268e-28),
}


def em_scenario(theta, zeta, da=(0, 0, 1), db=(0, 0, 1), parity=Parity.SYMMETRIC):
    return Scenario.from_reduced(
        theta=theta,
        zeta=zeta,
        parity=parity,
        field_kind=FieldKind.EM,
        dipole_a=da,
        dipole_b=db,
    )


def unit_geometry():
    # zeta = 1, theta = 1, z = 1.
    return scenario_geometry(em_scenario(1.0, 1.0))


class TestTensor3:
    def test_letter_and_integer_indexing_agree(self):
        t = Tensor3(np.arange(9.0).reshape(3, 3))
        assert t["x", "z"] == t[0, 2] == 2.0
        assert t["Z", "X"] == 6.0

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            Tensor3(np.zeros((2, 3)))

    def test_bad_key(self):
        t = Tensor3(np.zeros((3, 3)))
        with pytest.raises(KeyError):
            t["x"]

    def test_values_are_read_only(self):
        t = Tensor3(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            t.values[0, 0] = 1.0

    def test_items_are_python_numbers(self):
        # A real tensor gives floats (an int one too), the correlation tensor complex numbers.
        geom = unit_geometry()
        real = em_potential_tensors(geom).reduced
        assert {type(real[l, m]) for l in "xyz" for m in "xyz"} == {float}
        assert type(Tensor3(np.eye(3, dtype=int))["y", "y"]) is float
        wightman = em_wightman_tensor(0.5 * geom.light_time, geom, 1e-3 * geom.light_time)
        assert {type(wightman[l, m]) for l in "xyz" for m in "xyz"} == {complex}
        assert wightman["x", "z"] == complex(wightman.values[0, 2]) != 0.0


class TestSpectralTensors:
    def test_unit_zeta_zz_value(self):
        geom = unit_geometry()
        tensors = em_spectral_tensors(C, geom)  # x = omega*z/c = 1
        assert tensors.f["z", "z"] == pytest.approx(-1.25, rel=1e-15)

    def test_inertial_values(self):
        sc = Scenario.em_field(
            acceleration=0.0, separation=1.0, omega0=1.0,
            parity=Parity.SYMMETRIC, dipole_a=[0, 0, 1], dipole_b=[0, 0, 1],
        )
        geom = scenario_geometry(sc)
        omega = 0.75 * C
        tensors = em_spectral_tensors(omega, geom)
        x = omega / C
        assert tensors.g["z", "z"] == 2.0
        assert tensors.f["z", "z"] == pytest.approx(-2.0 * x, rel=1e-15)
        assert np.all(tensors.f_nd.values == 0.0)
        assert np.all(tensors.g_nd.values == 0.0)

    def test_rejects_negative_frequency(self):
        with pytest.raises(DomainError):
            em_spectral_tensors(-1.0, unit_geometry())

    def test_coefficients_are_read_only(self):
        coeff = em_spectral_coefficients(unit_geometry())
        assert len(vars(coeff)) == 6
        for name, array in vars(coeff).items():
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 5.0

    def test_overflowing_frequency_raises(self):
        # Finite coefficients, but g = g0 + g2*x**2 overflows at x = omega*z/c ~ 3e291.
        with pytest.raises(DomainError, match=r"not finite at omega = 1e\+300$"):
            em_spectral_tensors(1e300, reduced_geometry(1.0, 1.0, 1.0))

    @mp.workdps(60)
    def test_entries_match_mpmath_at_every_zeta(self):
        # The bounded-variable entries against the reference chain's
        # certified families in 60 digits, from 0 to the largest float,
        # where zeta**2 and (1 + zeta**2)**2.5 overflow a double.
        rng = random.Random(34)
        zetas = [0.0, 1e-300, 1e-8, 1.0, 1e62, 1e77, 1.2e77, 1e154, 1e200, sys.float_info.max]
        zetas += [10.0 ** rng.uniform(-300.0, 308.0) for _ in range(200)]
        for zeta in zetas:
            for family, reference in zip(_spectral_entries(zeta), families(zeta)):
                envelope = max(map(abs, reference))
                for entry, exact in zip(family, reference):
                    assert math.isfinite(entry), zeta
                    assert abs(entry - exact) <= 2e-15 * envelope, zeta

    @pytest.mark.parametrize("zeta", [1e77, 1.2e77, 1e200, 1e250])
    def test_every_route_finite_at_huge_zeta(self, zeta):
        # Where the rational forms in 1 + zeta**2 overflow to inf or nan.
        for da, db in [((0, 0, 1), (0, 0, 1)), ((1, 0, 0), (1, 0, 0)),
                       ((0, 1, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1))]:
            scenario = em_scenario(1.0, zeta, da, db)
            geom = scenario_geometry(scenario)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                coeff = em_spectral_coefficients(geom)
            assert all(np.isfinite(t).all() for t in vars(coeff).values())
            tensors = em_spectral_tensors(1.0, geom)
            assert all(np.isfinite(t.values).all() for t in vars(tensors).values())
            # The oracle's accuracy is abs_tol = 1e-12 times the density's size
            # at the pole; the shift itself, about 4/zeta, is far below it.
            f1, g0, g2 = (
                da[0] * db[0] * xx + da[1] * db[1] * yy + da[2] * db[2] * zz
                + (da[0] * db[2] - da[2] * db[0]) * xz
                for xx, yy, zz, xz in _spectral_entries(geom.zeta)
            )
            size = abs(f1) * geom.theta + abs(g0) + abs(g2) * geom.theta**2
            oracle = em_energy_pv_oracle(scenario)
            assert math.isfinite(oracle)
            assert abs(oracle - em_resonance_energy(scenario).reduced) <= 1e-12 * size

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_sparsity_pattern(self, theta, zeta, x_over_theta):
        geom = scenario_geometry(em_scenario(theta, zeta))
        omega = x_over_theta * geom.acceleration / (2.0 * C) if zeta else x_over_theta
        tensors = em_spectral_tensors(omega, geom)
        for l, m in ZERO_SLOTS:
            assert tensors.f[l, m] == 0.0
            assert tensors.g[l, m] == 0.0
        for l, m in DIAGONAL:
            assert tensors.f_nd[l, m] == 0.0
            assert tensors.g_nd[l, m] == 0.0
        assert tensors.f_nd["x", "z"] == -tensors.f_nd["z", "x"]
        assert tensors.g_nd["x", "z"] == -tensors.g_nd["z", "x"]


class TestPotentialTensors:
    def test_static_pair(self):
        pot = em_potential_tensors(scenario_geometry(em_scenario(0.0, 0.0)))
        expected = np.diag([1.0, 1.0, -2.0])
        assert np.array_equal(pot.reduced.values, expected)
        assert np.all(pot.w.values == 0.0)

    def test_half_wave_inertial_pair(self):
        pot = em_potential_tensors(scenario_geometry(em_scenario(math.pi, 0.0)))
        assert pot.reduced["z", "z"] == pytest.approx(2.0, rel=1e-14)
        assert pot.reduced["x", "x"] == pytest.approx(math.pi**2 - 1.0, rel=1e-14)
        assert pot.reduced["x", "x"] == pot.reduced["y", "y"]

    def test_matches_inertial_tensor_at_zero_acceleration(self):
        for theta in (0.0, 0.4, 1.7, math.pi, 9.3):
            geom = scenario_geometry(em_scenario(theta, 0.0))
            full = em_potential_tensors(geom).reduced.values
            limit = em_inertial_potential(geom).values
            assert np.allclose(full, limit, rtol=1e-13, atol=1e-13)

    def test_inertial_deviation_is_quadratic_in_zeta(self):
        theta = 1.0
        devs = []
        for zeta in (1e-3, 5e-4):
            geom = scenario_geometry(em_scenario(theta, zeta))
            full = em_potential_tensors(geom).reduced
            limit = em_inertial_potential(geom)
            devs.append(max(
                abs(full[l, l] - limit[l, l]) for l in "xyz"
            ))
        assert 3.5 <= devs[0] / devs[1] <= 4.5

    def test_antisymmetric_part_exact_negation(self):
        pot = em_potential_tensors(scenario_geometry(em_scenario(1.3, 2.7)))
        assert pot.w["x", "z"] == -pot.w["z", "x"]
        assert pot.w["x", "z"] != 0.0
        assert pot.reduced["x", "z"] == -pot.reduced["z", "x"]
        for l, m in ZERO_SLOTS:
            assert pot.reduced[l, m] == 0.0

    def test_antisymmetric_part_vanishes_at_rest(self):
        pot = em_potential_tensors(scenario_geometry(em_scenario(2.2, 0.0)))
        assert np.all(pot.w.values == 0.0)

    def test_overflowing_potentials_raise(self):
        # reduced is finite, but V and W carry 1/z**3 = 1e900.
        with pytest.raises(DomainError, match=r"not finite at separation = 1e-300$"):
            em_potential_tensors(reduced_geometry(1.0, 1e-300, 1.0))

    def test_overflowing_inertial_potential_raises(self):
        # theta**2 overflows from theta ~ 1.3e154.
        geom = reduced_geometry(0.0, 1.0, 1e200 * C)
        message = f"not finite at theta = {re.escape(repr(geom.theta))}$"
        with pytest.raises(DomainError, match=message):
            em_inertial_potential(geom)

    def test_reduced_consistent_with_v_plus_w(self):
        geom = scenario_geometry(em_scenario(0.9, 4.0))
        pot = em_potential_tensors(geom)
        z3 = geom.separation**3
        rebuilt = (pot.v.values + pot.w.values) * z3
        assert np.allclose(rebuilt, pot.reduced.values, rtol=1e-15, atol=0.0)

    @mp.workdps(30)
    def test_reduced_components_resum_the_spectral_families(self):
        # The spectral -> closed form link: the three Abel PVs turn the
        # density f1*x*cos + (g0 + g2*x**2)*sin into, at x = theta,
        # f1*theta*sin(phi) - (g0 + g2*theta**2)*cos(phi) per entry.  Link 3
        # in 30 digits at the same h, with cos(phi) and sin(phi) free, at seeded
        # points; the bound is 1e-15 of |g0| + |f1|*theta + |g2|*theta**2.
        rng = random.Random(44)
        for _ in range(2000):
            zeta = 10.0 ** rng.uniform(-8.0, 300.0)
            theta = 10.0 ** rng.uniform(-3.0, 3.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            cos_p, sin_p = math.cos(phi), math.sin(phi)
            root = math.sqrt(1.0 + zeta * zeta)
            if root == math.inf:
                root = zeta
            got = em_reduced_components(zeta, theta, cos_p, sin_p, root)
            fams = families(mp.mpf(zeta), mp.mpf(root))
            for entry, (want, sizes) in zip(got, resum(fams, *map(mp.mpf, (theta, cos_p, sin_p)))):
                assert abs(entry - want) <= 1e-15 * sum(sizes), (zeta, theta, phi)


class TestResonanceEnergy:
    def test_static_zz(self):
        shift = em_resonance_energy(em_scenario(0.0, 0.0))
        assert shift.reduced == -2.0
        assert shift.field_kind is FieldKind.EM

    def test_prefactor_uses_magnitudes(self):
        shift = em_resonance_energy(
            em_scenario(0.0, 0.0, da=[0.0, 0.0, 2.0], db=[3.0, 0.0, 0.0])
        )
        assert shift.prefactor == pytest.approx(6.0, rel=1e-15)
        assert shift.si_value == shift.prefactor * shift.reduced

    def test_reduced_ignores_dipole_magnitude(self):
        small = em_resonance_energy(em_scenario(1.0, 1.0, da=[0, 0, 1], db=[0, 0, 1]))
        large = em_resonance_energy(em_scenario(1.0, 1.0, da=[0, 0, 5], db=[0, 0, 1]))
        assert large.reduced == pytest.approx(small.reduced, rel=1e-15)
        assert large.si_value == pytest.approx(5.0 * small.si_value, rel=1e-15)

    def test_cross_dipoles_vanish_at_rest(self):
        shift = em_resonance_energy(em_scenario(1.0, 0.0, da=[1, 0, 0], db=[0, 0, 1]))
        assert shift.reduced == 0.0

    def test_cross_dipoles_pick_out_xz_entry(self):
        sc = em_scenario(1.0, 1.0, da=[1, 0, 0], db=[0, 0, 1])
        shift = em_resonance_energy(sc)
        pot = em_potential_tensors(scenario_geometry(sc))
        assert shift.reduced == pot.reduced["x", "z"]
        assert shift.reduced != 0.0

    def test_rejects_zero_dipole(self):
        # The energy, a one-row closed form and the far-zone asymptote
        # each name the zero dipole, whichever of the two it is.
        def one_row(sc):
            return em_closed_form(sc, [(sc.acceleration, sc.separation, sc.omega0)])

        for zero, dipoles in (("dipole_a", dict(da=[0, 0, 0])), ("dipole_b", dict(db=[0, 0, 0]))):
            sc = em_scenario(1.0, 10.0, **dipoles)
            for route in (em_resonance_energy, one_row, em_farzone_asymptote):
                with pytest.raises(DomainError, match=f"^{zero} must be a nonzero vector$"):
                    route(sc)

    def test_rejects_scalar_scenario(self):
        sc = Scenario.scalar_field(
            acceleration=0.0, separation=1.0, omega0=1.0, parity=Parity.SYMMETRIC
        )
        with pytest.raises(FieldKindError):
            em_resonance_energy(sc)

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_parity_flip_negates_exactly(self, theta, zeta):
        sym = em_resonance_energy(em_scenario(theta, zeta, parity=Parity.SYMMETRIC))
        anti = em_resonance_energy(em_scenario(theta, zeta, parity=Parity.ANTISYMMETRIC))
        assert anti.reduced == -sym.reduced


class TestFarzoneAsymptote:
    def test_separation_axis_at_quarter_phase(self):
        zeta = 50.0
        theta = 0.5 * math.pi * zeta / math.log(2.0 * zeta)
        shift = em_farzone_asymptote(em_scenario(theta, zeta))
        assert shift.reduced == pytest.approx(-2.0 * theta, rel=1e-14)

    def test_transverse_axis_mirrors_separation_axis(self):
        zeta = 50.0
        theta = 0.5 * math.pi * zeta / math.log(2.0 * zeta)
        y_shift = em_farzone_asymptote(em_scenario(theta, zeta, da=[0, 1, 0], db=[0, 1, 0]))
        z_shift = em_farzone_asymptote(em_scenario(theta, zeta))
        assert y_shift.reduced == -z_shift.reduced

    def test_acceleration_axis_at_half_phase(self):
        zeta = 50.0
        theta = math.pi * zeta / math.log(2.0 * zeta)
        r = theta / zeta
        shift = em_farzone_asymptote(em_scenario(theta, zeta, da=[1, 0, 0], db=[1, 0, 0]))
        assert shift.reduced == pytest.approx(-(4.0 - r * r) / zeta, rel=1e-12)

    def test_crossed_pair_at_quarter_phase(self):
        # xz = r**2 cos(phi) - 2r sin(phi) = -2r at phi = pi/2; zx = -xz.
        zeta = 50.0
        theta = 0.5 * math.pi * zeta / math.log(2.0 * zeta)
        shift = em_farzone_asymptote(em_scenario(theta, zeta, da=[1, 0, 0], db=[0, 0, 1]))
        swapped = em_farzone_asymptote(em_scenario(theta, zeta, da=[0, 0, 1], db=[1, 0, 0]))
        assert shift.reduced == pytest.approx(-2.0 * theta / zeta, rel=1e-14)
        assert swapped.reduced == -shift.reduced

    def test_bilinear_in_the_dipoles(self):
        # A tilted dipole gives the sum of its on-axis contractions.
        s = 1.0 / math.sqrt(2.0)
        tilted = em_farzone_asymptote(em_scenario(3.0, 40.0, da=[s, 0, s], db=[s, 0, s])).reduced
        on_axis = sum(
            em_farzone_asymptote(em_scenario(3.0, 40.0, da=da, db=db)).reduced
            for da in ([1, 0, 0], [0, 0, 1]) for db in ([1, 0, 0], [0, 0, 1])
        )
        assert tilted == pytest.approx(0.5 * on_axis, rel=1e-14)

    def test_converges_to_full_form(self):
        gaps = []
        for k in (2, 3, 4):
            zeta = math.sinh(k * math.pi)
            sc = em_scenario(2.0 * zeta, zeta, da=[0, 1, 0], db=[0, 1, 0])
            full = em_resonance_energy(sc).reduced
            asym = em_farzone_asymptote(sc).reduced
            gaps.append(abs(asym / full - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-9

    def test_orientation_sign(self):
        zeta = 40.0
        up = em_farzone_asymptote(em_scenario(3.0, zeta))
        down = em_farzone_asymptote(em_scenario(3.0, zeta, da=[0, 0, -1]))
        assert down.reduced == -up.reduced

    def test_parity_sign(self):
        sym = em_farzone_asymptote(em_scenario(3.0, 40.0, parity=Parity.SYMMETRIC))
        anti = em_farzone_asymptote(em_scenario(3.0, 40.0, parity=Parity.ANTISYMMETRIC))
        assert anti.reduced == -sym.reduced

    def test_warning_below_unit_zeta(self):
        low = em_farzone_asymptote(em_scenario(1.0, 0.5))
        high = em_farzone_asymptote(em_scenario(1.0, 5.0))
        assert low.warning is not None
        assert high.warning is None

    # From 1.3e154 on theta**2 overflows, from 6.7e153 on 1/(1 + zeta**2) is subnormal.
    @pytest.mark.parametrize("pair", [l + m for l in "xyz" for m in "xyz"])
    def test_matches_closed_form_on_every_pair(self, pair):
        axes = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
        for zeta in (1e6, 3e17, 1e154, 1e160, 1e250):
            for r in (1e-3, 0.5, 2.0, 60.0, 1e4):
                theta = r * zeta
                # Each entry's size over the phase; the other pairs are 0.
                envelope = {
                    "xx": (2.0 + r) ** 2 / zeta, "yy": theta * (2.0 + r), "zz": theta * (2.0 + r),
                    "xz": r * (2.0 + r), "zx": r * (2.0 + r),
                }.get(pair, 0.0)
                sc = em_scenario(theta, zeta, da=axes[pair[0]], db=axes[pair[1]])
                got, want = em_farzone_asymptote(sc).reduced, em_resonance_energy(sc).reduced
                assert abs(got - want) <= 1e-8 * envelope, (zeta, r)

    def test_requires_acceleration(self):
        sc = Scenario.em_field(
            acceleration=0.0, separation=1.0, omega0=1.0,
            parity=Parity.SYMMETRIC, dipole_a=[0, 0, 1], dipole_b=[0, 0, 1],
        )
        with pytest.raises(DomainError):
            em_farzone_asymptote(sc)


class TestWightmanTensor:
    def test_reference_point(self):
        geom = unit_geometry()
        s_time = geom.light_time
        tensor = em_wightman_tensor(0.5 * s_time, geom, s_time / 1000.0)
        for (l, m), want in WIGHTMAN_POINT.items():
            got = tensor[l, m]
            assert abs(got - want) <= 1e-10 * abs(want), (l, m, got, want)

    def test_structural_zeros_and_negations(self):
        geom = unit_geometry()
        s_time = geom.light_time
        tensor = em_wightman_tensor(0.5 * s_time, geom, s_time / 1000.0)
        for l, m in ZERO_SLOTS:
            assert tensor[l, m] == 0.0
        assert tensor["z", "x"] == -tensor["x", "z"]

    @pytest.mark.parametrize("zeta", [0.0, 1e-8, 1e-3, 1.0, 30.0, 1e3])
    def test_even_in_w(self, zeta):
        # G depends on w only through the square of the odd chordal time,
        # so G(-w) = G(w): near both crossings, on circles of the radii
        # the commutator suite uses and below, and on the real axis away
        # from them.
        geom = reduced_geometry(2.0 * C * C * zeta, 1.0, C)
        s_time = geom.light_time
        reach = s_time / max(1.0, geom.acceleration * s_time / (math.pi * C))  # min(S, pi c/a)
        rng = random.Random(20261020)
        points = [
            side * s_time + rng.uniform(0.05, 0.5) * reach * complex(math.cos(phi), math.sin(phi))
            for side in (1.0, -1.0)
            for phi in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(20))
        ]
        points += [rng.choice((0.0, 1.1, 2.0, 3.0)) * s_time + rng.uniform(0.0, 0.85) * s_time
                   for _ in range(20)]
        for w in points:
            assert min(abs(w - s_time), abs(w + s_time)) >= 0.05 * reach, w
            here, mirrored = _wightman_kernel(w, geom), _wightman_kernel(-w, geom)
            largest = max(map(abs, here))
            for got, want in zip(mirrored, here):
                assert abs(got - want) <= 1e-13 * largest, (zeta, w)

    def test_imaginary_part_linear_in_regulator(self):
        geom = unit_geometry()
        s_time = geom.light_time
        coarse = em_wightman_tensor(0.5 * s_time, geom, s_time / 2000.0)
        fine = em_wightman_tensor(0.5 * s_time, geom, s_time / 4000.0)
        ratio = coarse["x", "x"].imag / fine["x", "x"].imag
        assert ratio == pytest.approx(2.0, rel=1e-3)

    def test_lightcone_crossing_raises(self):
        geom = unit_geometry()
        with pytest.raises(SingularityError):
            em_wightman_tensor(geom.light_time, geom, 1e-25)

    def test_domain_checks(self):
        geom = unit_geometry()
        s_time = geom.light_time
        with pytest.raises(DomainError):
            em_wightman_tensor(0.5 * s_time, geom, 0.0)
        with pytest.raises(DomainError):
            em_wightman_tensor(0.5 * s_time, geom, -1.0)
        static = scenario_geometry(em_scenario(1.0, 0.0))
        assert np.isfinite(em_wightman_tensor(0.0, static, 1e-6).values).all()

    @staticmethod
    def assert_matches_mpmath(tensor, u, eps, geom):
        for slot, value in si_tensor(complex(u, -eps), geom).items():
            assert abs(tensor[slot] - value) <= 1e-12 * abs(value), slot
        for slot in ZERO_SLOTS:
            assert tensor[slot] == 0.0

    def test_far_from_crossings_matches_mpmath(self):
        geom = unit_geometry()
        s_time = geom.light_time
        u, eps = 50.0 * s_time, s_time / 100.0
        self.assert_matches_mpmath(em_wightman_tensor(u, geom, eps), u, eps, geom)

    @pytest.mark.parametrize("zeta", [1e50, 1e77])
    @pytest.mark.parametrize("u_over_s", [0.5, 1.5])
    def test_large_zeta_matches_mpmath(self, zeta, u_over_s):
        # hbar*a**4/(4 pi c**7), the prefactor of the sinh form, or its
        # product with the bracket overflows here, while the tensor fits.
        geom = reduced_geometry(2.0 * C * C * zeta, 1.0, C)
        s_time = geom.light_time
        u, eps = u_over_s * s_time, s_time / 100.0
        self.assert_matches_mpmath(em_wightman_tensor(u, geom, eps), u, eps, geom)

    def test_underflows_to_zero_where_gap_cubed_overflows(self):
        # The largest exact entry is 1.2e-330 at 200 S and 5.4e-790 at
        # 500 S, where sinh(a*u/(2c)) is about e**441 and still fits.
        geom = unit_geometry()
        s_time = geom.light_time
        for u_over_s in (200.0, 500.0):
            tensor = em_wightman_tensor(u_over_s * s_time, geom, s_time / 100.0)
            assert np.all(tensor.values == 0.0), u_over_s

    def test_inertial_limit_matches_mpmath(self):
        # At a = 0 the tensor is the inertial correlator (Boyer, Phys.
        # Rev. D 21 (1980) 2137), with T = z/c:
        # (4 hbar/(pi c**3)) [(w**2 + T**2) I - 2 T**2 N]/(w**2 - T**2)**3.
        for separation in (1e-8, 1.0, 100.0):
            geom = reduced_geometry(0.0, separation, C)
            s_time = geom.light_time
            for u_over_s in (0.0, 0.3, -0.7, 1.5, 3.0, 50.0):
                u, eps = u_over_s * s_time, s_time / 100.0
                tensor = em_wightman_tensor(u, geom, eps)
                with mp.workdps(50):
                    w2, t2 = mp.mpc(u, -eps) ** 2, (mp.mpf(separation) / C) ** 2
                    scale = 4 * mp.mpf(REDUCED_PLANCK) / (mp.pi * mp.mpf(C) ** 3) / (w2 - t2) ** 3
                    want = {
                        ("x", "x"): scale * (w2 + t2),
                        ("y", "y"): scale * (w2 + t2),
                        ("z", "z"): scale * (w2 - t2),
                    }
                envelope = max(abs(v) for v in want.values())
                for slot, value in want.items():
                    assert abs(tensor[slot] - value) <= 1e-13 * envelope, (separation, u_over_s)
                for slot in ZERO_SLOTS + sorted(OFF_PAIR):
                    assert tensor[slot] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-300.0, max_value=300.0),
        st.floats(min_value=-8.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=-6.0, max_value=-1.0),
    )
    def test_matches_mpmath_over_the_whole_domain(self, log_zeta, log_z, u_over_s, log_eps):
        # A finite tensor within (2e-12 + 1e-14 S/|u - S|) of the largest
        # exact entry, or DomainError exactly where an exact entry
        # overflows a double; never SingularityError off the cone.  The
        # S/|u - S| term is the rounding of a*u/(2c), which any float
        # evaluation carries.  Entries below the normal range may lose
        # their digits, down to 0.
        zeta, separation = 10.0**log_zeta, 10.0**log_z
        accel = 2.0 * C * C * zeta / separation
        assume(math.isfinite(accel) and abs(u_over_s - 1.0) >= 1e-6)
        geom = reduced_geometry(accel, separation, C)
        s_time = geom.light_time
        u, eps = u_over_s * s_time, 10.0**log_eps * s_time
        assume(geom.acceleration * u / (2.0 * C) <= 700.0)
        want = si_tensor(complex(u, -eps), geom)
        largest = sys.float_info.max
        if any(max(abs(v.real), abs(v.imag)) > largest for v in want.values()):
            with pytest.raises(DomainError):
                em_wightman_tensor(u, geom, eps)
            return
        tensor = em_wightman_tensor(u, geom, eps)
        envelope = max(abs(v) for v in want.values())
        bound = (2e-12 + 1e-14 * s_time / abs(u - s_time)) * envelope
        tiny = sys.float_info.min
        for slot, value in want.items():
            got = tensor[slot]
            assert abs(got - value) <= bound or (abs(value) < tiny and abs(got) < tiny), slot
        for slot in ZERO_SLOTS:
            assert tensor[slot] == 0.0

    def test_overflowing_entry_raises(self):
        # At z = 1e-100 m the prefactor's 1/z**4 takes each entry past the
        # float range although sinh and cosh stay finite.
        geom = reduced_geometry(1e20, 1e-100, 1e15)
        s_time = geom.light_time
        with pytest.raises(DomainError, match="^correlation tensor is not finite at w = "):
            em_wightman_tensor(3.0 * s_time, geom, 0.1 * s_time)

    @pytest.mark.parametrize("u_over_s", [1000.0, math.nan, math.inf])
    def test_non_finite_tensor_raises(self, u_over_s):
        geom = unit_geometry()
        s_time = geom.light_time
        with pytest.raises(DomainError):
            em_wightman_tensor(u_over_s * s_time, geom, s_time / 100.0)
