"""Quadrature engine: adaptive rule, damped moments, PV integral.

Reference values marked "50-digit" were evaluated with mpmath at
mp.dps = 50; closed-form references carry tighter tolerances than the
ones obtained by high-precision numerical quadrature (~1e-12 relative
for oscillatory improper integrals).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from rindler_resonance import (
    DomainError,
    QuadratureError,
    QuadratureSpec,
    SingularityError,
    TrigPolyDensity,
    adaptive_integral,
    damped_trig_moment,
    damped_trig_moment_limit,
    neville_extrapolate,
    pv_resonance_kernel,
)

PI_COS_1 = 1.697409754832973169691  # 50-digit pi*cos(1)


class TestAdaptiveIntegral:
    def test_constant(self):
        assert adaptive_integral(lambda w: np.ones_like(w), 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_sine_half_period(self):
        assert adaptive_integral(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_cosine_quarter_period(self):
        assert adaptive_integral(np.cos, 0.0, math.pi / 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_polynomial_exact_on_single_panel(self):
        # Degree 8 is far inside the rule's exactness degree, so the
        # very first panel already certifies.
        val = adaptive_integral(lambda w: w**8 - 3.0 * w**5 + 2.0, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 9.0 - 0.5 + 2.0, rel=1e-15)

    def test_damped_oscillation_to_infinity(self):
        val = adaptive_integral(lambda w: np.exp(-w) * np.sin(10.0 * w), 0.0, math.inf)
        assert val == pytest.approx(10.0 / 101.0, rel=1e-10)

    def test_scalar_only_callable_is_accepted(self):
        val = adaptive_integral(lambda w: math.exp(-float(w)), 0.0, math.inf)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_budget_exhaustion_raises(self):
        spec = QuadratureSpec(max_depth=2)
        with pytest.raises(QuadratureError, match="worst interval"):
            adaptive_integral(lambda w: np.sin(300.0 * w), 0.0, 20.0, spec)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            adaptive_integral(np.sin, 1.0, 1.0)
        with pytest.raises(DomainError):
            adaptive_integral(np.sin, math.inf, 1.0)

    def test_deterministic(self):
        f = lambda w: np.sin(7.0 * w) / (1.0 + w * w)
        assert adaptive_integral(f, 0.0, 30.0) == adaptive_integral(f, 0.0, 30.0)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=2.0)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_depth=0)

    def test_from_environment(self, monkeypatch):
        monkeypatch.delenv("RINDLER_RESONANCE_TOL", raising=False)
        assert QuadratureSpec.from_environment().rel_tol == 1e-9
        monkeypatch.setenv("RINDLER_RESONANCE_TOL", "1e-6")
        assert QuadratureSpec.from_environment().rel_tol == 1e-6
        monkeypatch.setenv("RINDLER_RESONANCE_TOL", "banana")
        with pytest.raises(DomainError):
            QuadratureSpec.from_environment()


class TestDampedTrigMoment:
    def test_spec_example_sin_cos(self):
        # k=0, u=2, S=1: 0.5*[(u-S)/((u-S)^2+eta^2) + (u+S)/((u+S)^2+eta^2)]
        # tends to 0.5*(1 + 1/3) = 2/3 as eta -> 0.
        for eta in (1e-4, 1e-6, 1e-8):
            val = damped_trig_moment(0, "sin", "cos", 2.0, 1.0, eta)
            assert val == pytest.approx(2.0 / 3.0, rel=1e-6)
        assert damped_trig_moment(0, "sin", "cos", 2.0, 1.0, 0.3) == pytest.approx(
            0.6237320979804402458594, rel=1e-14  # 50-digit closed form
        )

    def test_against_high_precision_quadrature(self):
        # 50-digit numerical values of the damped integrals themselves.
        assert damped_trig_moment(1, "sin", "cos", 0.7, 1.3, 0.45) == pytest.approx(
            -0.8023736095633471243086, rel=1e-9
        )
        assert damped_trig_moment(2, "sin", "sin", 0.7, 1.3, 0.45) == pytest.approx(
            -2.147138131131103037758, rel=1e-9
        )

    def test_odd_factor_vanishes_at_zero(self):
        for k in (0, 1, 2):
            for s_trig in ("sin", "cos"):
                assert damped_trig_moment(k, "sin", s_trig, 0.0, 1.3, 0.2) == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            damped_trig_moment(3, "sin", "cos", 1.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            damped_trig_moment(1, "tan", "cos", 1.0, 2.0, 0.1)
        with pytest.raises(DomainError):
            damped_trig_moment(1, "sin", "cos", 1.0, 2.0, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["sin", "cos"]),
        st.sampled_from(["sin", "cos"]),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.3, max_value=3.0),
    )
    def test_matches_adaptive_quadrature(self, k, u_trig, s_trig, u, S, eta):
        closed = damped_trig_moment(k, u_trig, s_trig, u, S, eta)
        tu = np.sin if u_trig == "sin" else np.cos
        ts = np.sin if s_trig == "sin" else np.cos
        brute = adaptive_integral(
            lambda w: w**k * tu(w * u) * ts(w * S) * np.exp(-eta * w), 0.0, math.inf
        )
        assert brute == pytest.approx(closed, rel=1e-7, abs=1e-9)


class TestDampedTrigMomentLimit:
    def test_spec_example(self):
        assert damped_trig_moment_limit(0, "sin", "cos", 2.0, 1.0) == pytest.approx(
            2.0 / 3.0, rel=1e-15
        )

    def test_matches_small_eta_values(self):
        for k, u_trig, s_trig in ((0, "sin", "cos"), (1, "cos", "cos"), (2, "sin", "cos")):
            limit = damped_trig_moment_limit(k, u_trig, s_trig, 2.4, 0.9)
            near = damped_trig_moment(k, u_trig, s_trig, 2.4, 0.9, 1e-7)
            assert limit != 0.0
            assert near == pytest.approx(limit, rel=1e-5)

    def test_parity_mismatched_combos_vanish(self):
        # i**(k+1) is purely imaginary for even k and purely real for
        # odd k, so half of the trig combinations have zero limit.
        for k, u_trig, s_trig in (
            (0, "sin", "sin"),
            (0, "cos", "cos"),
            (1, "sin", "cos"),
            (1, "cos", "sin"),
            (2, "sin", "sin"),
            (2, "cos", "cos"),
        ):
            assert damped_trig_moment_limit(k, u_trig, s_trig, 2.4, 0.9) == 0.0

    def test_light_cone_raises(self):
        with pytest.raises(SingularityError):
            damped_trig_moment_limit(0, "sin", "cos", 1.5, 1.5)
        with pytest.raises(SingularityError):
            damped_trig_moment_limit(2, "sin", "sin", -0.7, 0.7)


class TestNevilleExtrapolate:
    def test_polynomial_is_exact(self):
        xs = [0.8 * 0.5**j for j in range(5)]
        ys = [3.0 + 2.0 * x + 5.0 * x * x for x in xs]
        value, err = neville_extrapolate(xs, ys)
        assert value == pytest.approx(3.0, rel=1e-12)
        assert err < 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            neville_extrapolate([1.0], [2.0])
        with pytest.raises(ValueError):
            neville_extrapolate([1.0, 1.0], [2.0, 3.0])


class TestPvResonanceKernel:
    def test_spec_example_pi_cos_one(self):
        density = TrigPolyDensity(osc_time=1.0, sin_coeffs=(1.0, 0.0, 0.0))
        assert pv_resonance_kernel(density, 1.0) == pytest.approx(PI_COS_1, rel=1e-10)

    def test_zero_density(self):
        density = TrigPolyDensity(osc_time=1.0)
        assert pv_resonance_kernel(density, 1.0) == pytest.approx(0.0, abs=1e-11)

    def test_cosine_zero_phase(self):
        # omega0*S = pi/2 puts the result on a zero of the cosine.
        omega0 = 2.0
        density = TrigPolyDensity(osc_time=math.pi / 4.0, sin_coeffs=(1.0, 0.0, 0.0))
        assert pv_resonance_kernel(density, omega0) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=10.0),
        st.floats(min_value=0.3, max_value=10.0),
    )
    def test_sine_density_contour_identity(self, S, omega0):
        density = TrigPolyDensity(osc_time=S, sin_coeffs=(1.0, 0.0, 0.0))
        val = pv_resonance_kernel(density, omega0)
        assert val == pytest.approx(math.pi * math.cos(omega0 * S), rel=1e-8, abs=1e-8)

    def test_quadratic_growth_contour_identity(self):
        # omega^2*sin(omega*S) against the kernel integrates to
        # omega0^2*pi*cos(omega0*S): the extra 2*omega term from the
        # kernel split has a vanishing Abel integral.
        cases = ((0.8, 1.0), (1.7, 0.6), (1.0, 2.5), (5.0, 4.0), (10.0, 5.0), (10.0, 10.0))
        for S, omega0 in cases:
            density = TrigPolyDensity(osc_time=S, sin_coeffs=(0.0, 0.0, 1.0))
            val = pv_resonance_kernel(density, omega0)
            expected = omega0 * omega0 * math.pi * math.cos(omega0 * S)
            assert val == pytest.approx(expected, rel=1e-9, abs=1e-8)

    def test_small_phase_contour_identities(self):
        # omega0*S far below 1 in SI-like units: the rotated tail must
        # resolve both the kernel scale omega0 and the decay scale 1/S.
        omega0 = 3.0e5
        for phase in (1e-3, 1e-5, 1e-7):
            S = phase / omega0
            sine = TrigPolyDensity(osc_time=S, sin_coeffs=(1.0, 0.0, 0.0))
            assert pv_resonance_kernel(sine, omega0) == pytest.approx(
                math.pi * math.cos(phase), rel=1e-12
            )
            grow = TrigPolyDensity(osc_time=S, sin_coeffs=(0.0, 0.0, 1.0))
            assert pv_resonance_kernel(grow, omega0) == pytest.approx(
                omega0**2 * math.pi * math.cos(phase), rel=1e-9
            )

    def test_rejects_bare_callable(self):
        # The rotated tail needs the analytic envelope, which a bare
        # callable does not declare.
        with pytest.raises(TypeError, match="TrigPolyDensity"):
            pv_resonance_kernel(lambda w: np.sin(1.3 * w), 0.9)

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_linear_in_the_density(self, alpha, beta):
        S = 1.1
        omega0 = 0.7
        d1 = TrigPolyDensity(osc_time=S, sin_coeffs=(1.0, 0.0, 0.0))
        d2 = TrigPolyDensity(osc_time=S, sin_coeffs=(0.0, 0.0, 1.0), cos_coeffs=(0.0, 0.5, 0.0))
        combined = TrigPolyDensity(
            osc_time=S,
            sin_coeffs=(alpha, 0.0, beta),
            cos_coeffs=(0.0, 0.5 * beta, 0.0),
        )
        v1 = pv_resonance_kernel(d1, omega0)
        v2 = pv_resonance_kernel(d2, omega0)
        v12 = pv_resonance_kernel(combined, omega0)
        assert v12 == pytest.approx(alpha * v1 + beta * v2, rel=1e-7, abs=1e-7)

    def test_rejects_bad_omega0(self):
        density = TrigPolyDensity(osc_time=1.0, sin_coeffs=(1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            pv_resonance_kernel(density, 0.0)
        with pytest.raises(DomainError):
            pv_resonance_kernel(density, math.inf)

    def test_deterministic(self):
        density = TrigPolyDensity(osc_time=0.8, sin_coeffs=(0.3, 0.0, 1.0))
        assert pv_resonance_kernel(density, 1.3) == pv_resonance_kernel(density, 1.3)


class TestTrigPolyDensity:
    def test_evaluates_its_polynomial(self):
        d = TrigPolyDensity(osc_time=2.0, cos_coeffs=(1.0, 0.5, 0.0), sin_coeffs=(0.0, 0.0, 2.0))
        w = np.array([0.0, 0.7, 3.1])
        expected = (1.0 + 0.5 * w) * np.cos(2.0 * w) + 2.0 * w * w * np.sin(2.0 * w)
        assert np.allclose(d(w), expected, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            TrigPolyDensity(osc_time=0.0)
        with pytest.raises(DomainError):
            TrigPolyDensity(osc_time=1.0, sin_coeffs=(1.0, 2.0))


class TestAgainstMpmath:
    """Runtime high-precision spot checks (independent transcription)."""

    def test_damped_moment_spot_check(self):
        # Unit-length segments keep mpmath's tanh-sinh rule accurate on
        # the oscillation; a single [0, inf] call loses 5 digits here.
        mp.dps = 30
        u, S, eta, k = 1.9, 0.6, 0.35, 2
        ref = mp.quad(
            lambda w: w**k * mp.cos(w * u) * mp.sin(w * S) * mp.e ** (-eta * w),
            mp.linspace(0, 60, 61) + [mp.inf],
        )
        val = damped_trig_moment(k, "cos", "sin", u, S, eta)
        assert val == pytest.approx(float(ref), rel=1e-9)

    def test_pv_against_damped_mpmath_sweep(self):
        # Abel-regulated high-precision evaluation of the full kernel
        # integral, extrapolated in eta with the package extrapolator.
        # The pole is paired symmetrically so each mpmath piece is a
        # proper integral.
        mp.dps = 30
        S, omega0 = 0.9, 1.2

        def pv_eta(eta):
            g = lambda w: mp.sin(w * S) * (1 / (w + omega0) + 1 / (w - omega0)) * mp.e ** (
                -eta * w
            )
            head = mp.quad(g, [0, omega0 / 2])
            paired = mp.quad(lambda t: g(omega0 + t) + g(omega0 - t), [0, omega0 / 2])
            tail = mp.quadosc(g, [3 * omega0 / 2, mp.inf], period=2 * mp.pi / S)
            return float(head + paired + tail)

        etas = [0.4 * 0.6**j for j in range(7)]
        ref, _ = neville_extrapolate(etas, [pv_eta(e) for e in etas])
        density = TrigPolyDensity(osc_time=S, sin_coeffs=(1.0, 0.0, 0.0))
        assert pv_resonance_kernel(density, omega0) == pytest.approx(ref, rel=1e-6)
