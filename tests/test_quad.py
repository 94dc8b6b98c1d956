"""The PV integral and its private adaptive rule.

Reference values marked "50-digit" were evaluated with mpmath at
mp.dps = 50; closed-form references carry tighter tolerances than the
ones obtained by high-precision numerical quadrature (~1e-12 relative
for oscillatory improper integrals).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from rindler_resonance import (
    DomainError,
    FieldKind,
    Parity,
    QuadratureError,
    QuadratureSpec,
    TrigPolyDensity,
    Scenario,
    em_energy_pv_oracle,
    pv_resonance_kernel,
    scalar_energy_pv_oracle,
)
from rindler_resonance.quad import _adaptive_integral, _e1, _scaled_rule_error

PI_COS_1 = 1.697409754832973169691  # 50-digit pi*cos(1)

SCALAR = Scenario.from_reduced(theta=1.0, zeta=1.0, parity=Parity.SYMMETRIC)
EM = Scenario.from_reduced(
    theta=1.0, zeta=1.0, parity=Parity.SYMMETRIC, field_kind=FieldKind.EM,
    dipole_a=(0.0, 0.0, 1.0), dipole_b=(0.0, 0.0, 1.0),
)


def integrate(f, lower, upper):
    """The kernel's private rule at the default QuadratureSpec's tolerances."""
    return _adaptive_integral(f, lower, upper, 1e-9, 1e-12)


class TestAdaptiveIntegral:
    def test_constant(self):
        assert integrate(lambda w: np.ones_like(w), 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_sine_half_period(self):
        assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_cosine_quarter_period(self):
        assert integrate(np.cos, 0.0, math.pi / 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_polynomial_exact_on_single_panel(self):
        # Degree 8 is far inside the rule's exactness degree, so the
        # very first panel already certifies.
        val = integrate(lambda w: w**8 - 3.0 * w**5 + 2.0, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 9.0 - 0.5 + 2.0, rel=1e-15)

    def test_budget_exhaustion_raises(self):
        # 1/w is not integrable at 0: bisection toward it reaches the
        # fixed depth of 50 and stops there.
        with pytest.raises(QuadratureError, match=r"worst interval \[0, 8\.88178e-16\]"):
            integrate(lambda w: 1.0 / w, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises(self, bad):
        # nan > tol is False, so the convergence loop alone would stop
        # and return the non-finite value.
        with pytest.raises(QuadratureError, match=r"\[0, 1\] is not finite"):
            integrate(lambda w: np.where(w > 0.5, bad, 1.0), 0.0, 1.0)

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("f, lower, upper, exact", [
        (np.sin, 0.0, math.pi, 2.0),
        (np.exp, 0.0, 1.0, math.e - 1.0),
        (lambda w: 1.0 / (1.0 + w * w), 0.0, 30.0, math.atan(30.0)),
        # Integrable endpoint behaviour: the Kronrod nodes are interior.
        (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
        (np.log, 0.0, 1.0, -1.0),
    ], ids=["sin", "exp", "lorentzian", "sqrt", "log"])
    def test_meets_the_relative_tolerance(self, f, lower, upper, exact, rel_tol):
        # abs_tol = 0, so only rel_tol * |I| can certify the integral.
        value = _adaptive_integral(f, lower, upper, rel_tol, 0.0)
        assert abs(value - exact) <= rel_tol * abs(exact)

    @pytest.mark.parametrize("abs_tol", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_a_vanishing_integral_certifies_through_abs_tol(self, abs_tol):
        # An odd integrand on a symmetric range: rel_tol * |I| is rounding
        # noise, so abs_tol is the target that stops the bisection.
        f = lambda w: np.sin(5.0 * w) * np.exp(-w * w)
        assert abs(_adaptive_integral(f, -2.0, 2.0, 1e-9, abs_tol)) <= abs_tol

    def test_deterministic(self):
        f = lambda w: np.sin(7.0 * w) / (1.0 + w * w)
        assert integrate(f, 0.0, 30.0) == integrate(f, 0.0, 30.0)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=2.0)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1.0)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["rel_tol", "abs_tol"]

    def test_from_environment(self, monkeypatch):
        monkeypatch.delenv("RINDLER_RESONANCE_TOL", raising=False)
        assert QuadratureSpec.from_environment().rel_tol == 1e-9
        monkeypatch.setenv("RINDLER_RESONANCE_TOL", "1e-6")
        assert QuadratureSpec.from_environment().rel_tol == 1e-6
        monkeypatch.setenv("RINDLER_RESONANCE_TOL", "banana")
        with pytest.raises(DomainError, match="RINDLER_RESONANCE_TOL must parse as a float, got 'banana'"):
            QuadratureSpec.from_environment()
        # Out-of-range values name the variable and show its text, not rel_tol.
        for raw in ("nan", "inf", "-inf", "0", "-1e-6", "1e-400", "1", "2"):
            monkeypatch.setenv("RINDLER_RESONANCE_TOL", raw)
            with pytest.raises(DomainError, match=rf"^RINDLER_RESONANCE_TOL must be in \(0, 1\), got '{raw}'$"):
                QuadratureSpec.from_environment()


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
        # omega0*S far below 1 in SI-like units, where the tail's two
        # exponential integrals each grow like -ln(omega0*S) and cancel.
        omega0 = 3.0e5
        for phase in (1e-3, 1e-5, 1e-7):
            S = phase / omega0
            sine = TrigPolyDensity(osc_time=S, sin_coeffs=(1.0, 0.0, 0.0))
            assert pv_resonance_kernel(sine, omega0) == pytest.approx(
                math.pi * math.cos(phase), rel=1e-12
            )
            grow = TrigPolyDensity(osc_time=S, sin_coeffs=(0.0, 0.0, 1.0))
            assert pv_resonance_kernel(grow, omega0) == pytest.approx(
                omega0**2 * math.pi * math.cos(phase), rel=1e-13
            )

    @pytest.mark.parametrize("omega0", [1e-3, 1.0, 3e5])
    @pytest.mark.parametrize("coeffs, exact, scale", [
        ({"sin_coeffs": (1.0, 0.0, 0.0)}, lambda x, w0: math.pi * math.cos(x), 0),
        ({"cos_coeffs": (0.0, 1.0, 0.0)}, lambda x, w0: -math.pi * w0 * math.sin(x), 1),
        ({"sin_coeffs": (0.0, 0.0, 1.0)}, lambda x, w0: math.pi * w0 * w0 * math.cos(x), 0),
    ], ids=["sin", "w_cos", "w2_sin"])
    def test_exact_monomials_across_phases(self, coeffs, exact, scale, omega0):
        # sin(wS), w*cos(wS) and w**2*sin(wS) have the exact PVs
        # pi*cos(x), -pi*omega0*sin(x) and pi*omega0**2*cos(x), x = omega0*S.
        # Seeded phases from 1e-300 to 3, and both sides of x = 0.1/1.5,
        # where the Abel tail's w**2*sin share switches to its series.
        # w*cos(wS)'s PV vanishes with x, so it is held to the density's
        # size omega0 (scale 1), not to itself.
        rng = np.random.default_rng(44)
        phases = list(10.0 ** rng.uniform(-300.0, math.log10(3.0), 100))
        phases += [0.1 / 1.5 * f for f in (0.999, 1.0, 1.001)]
        for phase in phases:
            S = float(phase) / omega0
            x = omega0 * S
            got = pv_resonance_kernel(TrigPolyDensity(osc_time=S, **coeffs), omega0)
            want = exact(x, omega0)
            if scale:
                assert got == pytest.approx(want, rel=0.0, abs=1e-14 * omega0), phase
            else:
                assert got == pytest.approx(want, rel=1e-14), phase

    def test_rejects_bare_callable(self):
        # The closed-form tail needs the analytic envelope, which a bare
        # callable does not declare.
        with pytest.raises(TypeError, match="TrigPolyDensity"):
            pv_resonance_kernel(lambda w: np.sin(1.3 * w), 0.9)

    @pytest.mark.parametrize("spec", ["x", 1e-6, {"rel_tol": 1e-3}, 0], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda spec: pv_resonance_kernel(TrigPolyDensity(osc_time=1.0, sin_coeffs=(1.0,) * 3), 1.0, spec),
        lambda spec: scalar_energy_pv_oracle(SCALAR, spec),
        lambda spec: em_energy_pv_oracle(EM, spec),
    ], ids=["pv_resonance_kernel", "scalar_oracle", "em_oracle"])
    def test_rejects_a_spec_that_is_not_a_quadrature_spec(self, call, spec):
        # A falsy 0 does not stand for the default spec; only None does.
        message = f"^spec must be a QuadratureSpec or None, got {type(spec).__name__}$"
        with pytest.raises(TypeError, match=message):
            call(spec)

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
        # The density's size at the pole, which scales abs_tol, overflows.
        with pytest.raises(DomainError, match="overflows"):
            pv_resonance_kernel(TrigPolyDensity(osc_time=1.0, cos_coeffs=(0.0, 0.0, 1.0)), 1e200)

    def test_abs_tol_times_the_density_size_overflows(self):
        # abs_tol is in units of the density's size M = 1e300, so the
        # folded integral's absolute target 0.25 * abs_tol * M is inf at
        # abs_tol = 1e10; the error names both factors.
        density = TrigPolyDensity(osc_time=1.0, sin_coeffs=(1e300, 0.0, 0.0))
        assert pv_resonance_kernel(density, 1.0) == pytest.approx(1e300 * PI_COS_1, rel=1e-12)
        message = r"^0\.25 \* abs_tol \* M overflows double precision \(abs_tol = 10000000000\.0, M = 1e\+300\)$"
        with pytest.raises(DomainError, match=message):
            pv_resonance_kernel(density, 1.0, QuadratureSpec(abs_tol=1e10))

    @pytest.mark.parametrize("omega0, osc_time", [(1.3, 0.02), (1.3, 0.7), (1.3, 60.0)],
                             ids=["series-tail", "phase-0.91", "phase-78"])
    @pytest.mark.parametrize("coeffs", [
        {"cos_coeffs": (1.3, 0.0, 0.0)},
        {"cos_coeffs": (0.0, -0.7, 0.0)},
        {"cos_coeffs": (0.0, 0.0, 2.1)},
        {"sin_coeffs": (1.3, 0.0, 0.0)},
        {"sin_coeffs": (0.0, -0.7, 0.0)},
        {"sin_coeffs": (0.0, 0.0, 2.1)},
        {"cos_coeffs": (0.3, -0.2, 1.1), "sin_coeffs": (-1.7, 0.4, 0.9)},
    ], ids=["c0", "c1", "c2", "s0", "s1", "s2", "mixed"])
    def test_scales_exactly_with_the_density(self, coeffs, omega0, osc_time):
        # abs_tol is in units of the density's size M, so scaling the
        # density by a power of two scales every panel value, error
        # estimate and convergence target of the folded integral alike,
        # and the closed-form tail with them: the same bisections, and a
        # result that scales exactly.  At phase 78 the folded integral
        # needs bisection, which an absolute abs_tol would cut short at
        # the scale 2**-600.
        base = pv_resonance_kernel(TrigPolyDensity(osc_time=osc_time, **coeffs), omega0)
        for power in (-600, -60, -1, 1, 60, 600):
            factor = math.ldexp(1.0, power)
            scaled = {name: tuple(factor * c for c in value) for name, value in coeffs.items()}
            got = pv_resonance_kernel(TrigPolyDensity(osc_time=osc_time, **scaled), omega0)
            assert got == factor * base, power

    @pytest.mark.parametrize(
        "osc_time, omega0, coeffs",
        [
            (1e-200, 1.0, {"sin_coeffs": (1.0, 0.0, 0.0)}),
            (5e-324, 1.0, {"sin_coeffs": (1.0, 0.0, 0.0)}),
            (1.0, 1.3e308, {"cos_coeffs": (1.0, 0.0, 0.0)}),
            (1e300, 1e10, {"cos_coeffs": (1.0, 0.0, 0.0)}),
        ],
    )
    def test_extreme_scales_raise_only_typed_errors(self, osc_time, omega0, coeffs):
        # A tiny S once divided by S**2 = 0; a phase omega0*S beyond the
        # float range once reached math.cos and cmath.exp.  The sine
        # density at S = 1e-200 still integrates to pi*cos(omega0*S).
        density = TrigPolyDensity(osc_time=osc_time, **coeffs)
        if osc_time == 1e-200:
            assert pv_resonance_kernel(density, omega0) == pytest.approx(math.pi, rel=1e-12)
        else:
            with pytest.raises(DomainError, match="beyond double precision"):
                pv_resonance_kernel(density, omega0)

    @pytest.mark.parametrize("coeffs, expected", [
        ({"sin_coeffs": (1.0, 0.0, 0.0)}, math.pi),
        ({"cos_coeffs": (0.0, 1.0, 0.0)}, 0.0),
        ({"sin_coeffs": (0.0, 0.0, 1.0)}, math.pi),
        # The exact PV holds -2/S**2, which overflows.
        ({"cos_coeffs": (0.0, 0.0, 1.0)}, QuadratureError),
    ], ids=["sin", "w_cos", "w2_sin", "w2_cos"])
    def test_tiny_phases(self, coeffs, expected):
        # omega0 = 1, so the phase is S.  At 1e-305 the monomials give
        # pi*cos(S), -pi*sin(S), pi*cos(S) and an overflow; below about
        # 5.6e-309, 1/S leaves the float range, and at 5e-324 half the
        # phase is 0.
        density = TrigPolyDensity(osc_time=1e-305, **coeffs)
        if expected is QuadratureError:
            with pytest.raises(QuadratureError, match="is not finite"):
                pv_resonance_kernel(density, 1.0)
        else:
            assert pv_resonance_kernel(density, 1.0) == pytest.approx(expected, abs=1e-13)
        for phase in (1e-310, 5e-324):
            with pytest.raises(DomainError, match=rf"^omega0 \* osc_time = {phase!r} is beyond double precision"):
                pv_resonance_kernel(TrigPolyDensity(osc_time=phase, **coeffs), 1.0)

    def test_deterministic(self):
        density = TrigPolyDensity(osc_time=0.8, sin_coeffs=(0.3, 0.0, 1.0))
        assert pv_resonance_kernel(density, 1.3) == pv_resonance_kernel(density, 1.3)


class TestTrigPolyDensity:
    def test_evaluates_its_polynomial(self):
        d = TrigPolyDensity(osc_time=2.0, cos_coeffs=(1.0, 0.5, 0.0), sin_coeffs=(0.0, 0.0, 2.0))
        for w in (0.0, 0.7, 3.1):
            expected = (1.0 + 0.5 * w) * math.cos(2.0 * w) + 2.0 * w * w * math.sin(2.0 * w)
            assert d(w) == pytest.approx(expected, rel=1e-15, abs=1e-15)

    def test_phase_overflow_raises(self):
        with pytest.raises(DomainError, match="overflows"):
            TrigPolyDensity(osc_time=1e300, sin_coeffs=(1.0, 0.0, 0.0))(1e10)

    def test_validation(self):
        with pytest.raises(DomainError):
            TrigPolyDensity(osc_time=0.0)
        with pytest.raises(DomainError):
            TrigPolyDensity(osc_time=1.0, sin_coeffs=(1.0, 2.0))


class TestScaledRuleError:
    def test_capped_ratio_gives_resasc(self):
        # A ratio far above 1, whose 1.5th power would overflow a float.
        assert _scaled_rule_error(1.0, 0.0, 1e-300) == 1e-300

    def test_zero_resasc_gives_the_plain_difference(self):
        assert _scaled_rule_error(1.0, 0.75, 0.0) == 0.25

    def test_nan_difference_stays_nan(self):
        assert math.isnan(_scaled_rule_error(1.0, math.nan, 1.0))


class TestAgainstMpmath:
    """Runtime high-precision spot checks (independent transcription)."""

    def test_exponential_integral(self):
        # E1(-i*x) on both sides of the series/continued-fraction switch
        # at x = 4 and at the ends of the float range.
        rng = np.random.default_rng(43)
        xs = list(10.0 ** rng.uniform(-8.0, 6.0, 200)) + [3.99, 4.0, 4.01, 1e-300, 1e300]
        with mp.workdps(40):
            for x in xs:
                ref = mp.e1(-1j * mp.mpf(x))
                assert abs(_e1(float(x)) - ref) <= 1e-14 * abs(ref), x

    def test_pv_against_damped_mpmath_sweep(self):
        # PV integral_0^inf sin(S w) (1/(w + omega0) + 1/(w - omega0)) dw
        # is exactly pi*cos(omega0*S); the reference is that value at
        # 30 digits.
        S, omega0 = 0.9, 1.2
        with mp.workdps(30):
            ref = float(mp.pi * mp.cos(mp.mpf(omega0) * mp.mpf(S)))
        density = TrigPolyDensity(osc_time=S, sin_coeffs=(1.0, 0.0, 0.0))
        assert pv_resonance_kernel(density, omega0) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("S, omega0", [
        (1.1, 0.7), (0.8, 1.0), (5.0, 4.0), (0.3, 0.5), (2.0, 3.0),
        # Phases omega0*S from 1e-3 to 300, and an SI-like omega0.
        (1e-3 / 3e5, 3e5), (0.1 / 3e5, 3e5), (30 / 3e5, 3e5), (100.0, 1.0),
        (3e4, 1e-2), (500.0, 1e-3), (1e-4, 10.0), (200 / 7, 7.0),
    ])
    @pytest.mark.parametrize("family, k", [(f, k) for f in ("cos_coeffs", "sin_coeffs") for k in range(3)])
    def test_every_monomial(self, family, k, S, omega0):
        # Abel PV of w**k times cos(wS) or sin(wS) against the kernel,
        # x = omega0*S.  The cos, w*sin and w**2*cos references need the
        # cosine and sine integrals Ci and Si.
        with mp.workdps(40):
            w0, inv_s = mp.mpf(omega0), 1 / mp.mpf(S)
            x = w0 * mp.mpf(S)
            ci, si, c, s = mp.ci(x), mp.si(x), mp.cos(x), mp.sin(x)
            cos_ref = -2 * (ci * c + si * s)
            ref = float({
                ("cos_coeffs", 0): cos_ref,
                ("sin_coeffs", 0): mp.pi * c,
                ("cos_coeffs", 1): -mp.pi * w0 * s,
                ("sin_coeffs", 1): 2 * inv_s + 2 * w0 * (si * c - ci * s),
                ("cos_coeffs", 2): -2 * inv_s**2 + w0**2 * cos_ref,
                ("sin_coeffs", 2): mp.pi * w0**2 * c,
            }[family, k])
        coeffs = [0.0, 0.0, 0.0]
        coeffs[k] = 1.0
        density = TrigPolyDensity(osc_time=S, **{family: tuple(coeffs)})
        assert abs(pv_resonance_kernel(density, omega0) - ref) <= 1e-12 * max(omega0**k, abs(ref))
