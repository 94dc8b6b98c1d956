"""The principal-value resonance integral.

The resonance shift is a principal-value frequency integral of an
oscillatory spectral density against the kernel

    K(w) = 1/(w + w0) + 1/(w - w0) = 2*w/(w**2 - w0**2).

It is evaluated in three pieces.  The head [0, w0/2] and the pole
window [w0/2, 3*w0/2], folded onto t = |w - w0| so that its principal
value needs no subtraction, make one real-axis integral over
(0, w0/2], the only numerical piece.  The tail from A = 3*w0/2 is
exact: writing the density as Re[E(w) e^{iSw}], with E its analytic
envelope, its polynomial part has an elementary Abel integral, and the
rest is two pole terms, E(w0)/(w - w0) + E(-w0)/(w + w0), each of
whose tails is one exponential integral E1 at an imaginary argument.
Nothing is damped or extrapolated.  A larger A would lose digits at
small w0*S, where the last two pieces grow with A and cancel.

The folded integral runs through the kernel's own adaptive Gauss-Kronrod
rule, which takes plain floats and is not part of the public API.  It is
deterministic: fixed nodes and worst-interval-first bisection with
first-index tie breaking.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Optional

from .core import DomainError, QuadratureError, SingularityError, _as_float, _as_triple

__all__ = [
    "QuadratureSpec",
    "TrigPolyDensity",
    "pv_resonance_kernel",
]

# 15-point Kronrod abscissae and weights with the embedded 7-point Gauss
# rule (weights _WG7 attach to the odd-index abscissae, the centre included).
_XGK = (
    -0.9914553711208126,
    -0.9491079123427585,
    -0.8648644233597691,
    -0.7415311855993944,
    -0.5860872354676911,
    -0.4058451513773972,
    -0.2077849550078985,
    0.0,
    0.2077849550078985,
    0.4058451513773972,
    0.5860872354676911,
    0.7415311855993944,
    0.8648644233597691,
    0.9491079123427585,
    0.9914553711208126,
)
_WGK = (
    0.02293532201052922,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.16900472663926790,
    0.19035057806478541,
    0.20443294007529889,
    0.20948214108472783,
    0.20443294007529889,
    0.19035057806478541,
    0.16900472663926790,
    0.14065325971552592,
    0.10479001032225018,
    0.06309209262997855,
    0.02293532201052922,
)
_WG7 = (
    0.12948496616886969,
    0.27970539148927667,
    0.38183005050511894,
    0.41795918367346939,
    0.38183005050511894,
    0.27970539148927667,
    0.12948496616886969,
)

_ENV_REL_TOL = "RINDLER_RESONANCE_TOL"

# _adaptive_integral's subdivision budget: bisection depth per interval,
# and intervals in all.
_MAX_DEPTH = 50
_MAX_INTERVALS = 10_000

# 1/(n*n!) for n = 40 down to 1: the power series of E1(-i*x), highest term first.
_EIN_COEFFS = tuple(1.0 / (n * math.factorial(n)) for n in range(40, 0, -1))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of :func:`pv_resonance_kernel`.

    Attributes
    ----------
    rel_tol, abs_tol:
        Convergence target of the kernel's folded head-and-window
        integral I, its one numerical piece: I is accepted once its
        error estimate drops below max(abs_tol * M / 4, rel_tol * |I|).
        abs_tol is in units of M, the density's size at the pole (see
        :func:`pv_resonance_kernel`), never an absolute value.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        object.__setattr__(self, "rel_tol", _as_float(self.rel_tol, "rel_tol", "positive"))
        object.__setattr__(self, "abs_tol", _as_float(self.abs_tol, "abs_tol", ">= 0"))
        if not self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")

    @classmethod
    def from_environment(cls) -> "QuadratureSpec":
        """Default spec, with rel_tol overridden by RINDLER_RESONANCE_TOL if set."""
        raw = os.environ.get(_ENV_REL_TOL)
        if raw is None:
            return cls()
        try:
            rel = float(raw)
        except ValueError:
            raise DomainError(f"{_ENV_REL_TOL} must parse as a float, got {raw!r}") from None
        if not 0.0 < rel < 1.0:
            raise DomainError(f"{_ENV_REL_TOL} must be in (0, 1), got {raw!r}")
        return cls(rel_tol=rel)


def _scaled_rule_error(ik: float, ig: float, resasc: float) -> float:
    # Plain |K15 - G7| tracks the error of the 7-point rule; rescale it
    # toward the much smaller 15-point error the usual way.  The ratio
    # is capped before the power, which cannot overflow then, and a nan
    # ratio stays nan.
    uasc = abs(ik - ig)
    if not resasc > 0.0:
        return uasc
    return resasc * min(200.0 * uasc / resasc, 1.0) ** 1.5


def _gk_panel(f: Callable, a: float, b: float) -> tuple:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = [f(mid + half * x) for x in _XGK]
    ik = half * sum(map(operator.mul, _WGK, fv))
    err = math.nan
    if math.isfinite(ik):
        ig = half * sum(map(operator.mul, _WG7, fv[1::2]))
        mean = ik / (b - a)
        resasc = half * sum(w * abs(v - mean) for w, v in zip(_WGK, fv))
        err = _scaled_rule_error(ik, ig, resasc)
    if not math.isfinite(err):
        raise QuadratureError(
            f"panel on [{a:.6g}, {b:.6g}] is not finite: "
            f"value {ik}, error estimate {err}"
        )
    return ik, err


def _adaptive_integral(f: Callable, lower: float, upper: float, rel_tol: float, abs_tol: float) -> float:
    """Integrate f on [lower, upper], lower < upper finite, by adaptive Gauss-Kronrod.

    The integral I is accepted once its error estimate drops below
    max(abs_tol, rel_tol * |I|).  Endpoints are never evaluated (the
    Kronrod nodes are interior), so integrable endpoint behaviour is
    tolerated.  The subdivision budget is fixed: bisection depth 50 per
    interval and 10 000 intervals in all.

    Raises QuadratureError when a panel's value or error estimate is not
    finite or the tolerance cannot be certified within the budget; the
    message names the interval.
    """
    total, total_err = _gk_panel(f, lower, upper)
    intervals = [(lower, upper, total, total_err, 0)]
    while total_err > max(abs_tol, rel_tol * abs(total)):
        worst = max(range(len(intervals)), key=lambda i: intervals[i][3])
        a, b, v, e, depth = intervals[worst]
        if depth >= _MAX_DEPTH or len(intervals) >= _MAX_INTERVALS:
            raise QuadratureError(
                "adaptive integral failed to converge: worst interval "
                f"[{a:.6g}, {b:.6g}] has error estimate {e:.3e} "
                f"(total {total:.6e}, error {total_err:.3e})"
            )
        m = 0.5 * (a + b)
        v1, e1 = _gk_panel(f, a, m)
        v2, e2 = _gk_panel(f, m, b)
        intervals[worst] = (a, m, v1, e1, depth + 1)
        intervals.append((m, b, v2, e2, depth + 1))
        total += v1 + v2 - v
        total_err += e1 + e2 - e
    return math.fsum(iv[2] for iv in intervals)


def _ein(x: float) -> complex:
    """sum_{n=1}^{40} (i*x)**n / (n*n!) by Horner's rule.

    E1(-i*x) = -gamma - ln(x) + i*pi/2 - _ein(x) (A&S 5.1.11).
    """
    return functools.reduce(lambda total, c: (total + c) * 1j * x, _EIN_COEFFS, 0j)


def _e1(x: float) -> complex:
    """E1(-i*x) = integral_x^inf e^{it}/t dt for x > 0, to about 1e-14 relative.

    Below x = 4 the 40-term series (:func:`_ein`); from there the
    continued fraction A&S 5.1.22, summed back from its 60th term.
    """
    if x < 4.0:
        return complex(-0.5772156649015329 - math.log(x), 0.5 * math.pi) - _ein(x)
    tail = -1j * x
    for n in range(60, 0, -1):
        tail = n / (1.0 + n / tail) - 1j * x
    return cmath.exp(1j * x) / tail


@dataclass(frozen=True)
class TrigPolyDensity:
    """Spectral density declared as polynomial-times-trig structure.

    Evaluates to

        (c0 + c1*w + c2*w**2) * cos(w*S) + (s0 + s1*w + s2*w**2) * sin(w*S)

    with S = ``osc_time``.  On the real axis this is the real part of
    E(w) * e^{iSw} with the analytic envelope

        E(w) = (c0 + c1*w + c2*w**2) - i*(s0 + s1*w + s2*w**2),

    whose values E(+-w0) at the kernel's poles give
    :func:`pv_resonance_kernel` its tail in closed form.  A bare
    callable carries no such envelope, so the kernel accepts only this
    type.
    """

    osc_time: float
    cos_coeffs: tuple = (0.0, 0.0, 0.0)
    sin_coeffs: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "osc_time", _as_float(self.osc_time, "osc_time", "positive"))
        for name in ("cos_coeffs", "sin_coeffs"):
            object.__setattr__(self, name, _as_triple(getattr(self, name), name))

    def __call__(self, w: float) -> float:
        """The density at one float w; DomainError where w*S overflows."""
        c0, c1, c2 = self.cos_coeffs
        s0, s1, s2 = self.sin_coeffs
        phase = w * self.osc_time
        try:
            return (c0 + (c1 + c2 * w) * w) * math.cos(phase) + (
                s0 + (s1 + s2 * w) * w
            ) * math.sin(phase)
        except ValueError:  # math.cos and math.sin refuse an infinite phase
            raise DomainError(f"the phase w * osc_time overflows at w = {w!r}") from None


def pv_resonance_kernel(
    density: TrigPolyDensity,
    omega0: float,
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """Principal value of integral_0^inf density(w) * K(w) dw.

    K(w) = 1/(w + omega0) + 1/(w - omega0).  The head [0, omega0/2] and
    the pole window [omega0/2, 3*omega0/2], folded onto t = |w - omega0|,
    are one integral over t in (0, omega0/2] (f = density, w0 = omega0):

        f(t)K(t) + [f(w0+t) - f(w0-t)]/t + f(w0+t)/(2w0+t) + f(w0-t)/(2w0-t)

    The improper tail is defined in the Abel sense.  With A = 3*omega0/2
    and the density written as Re[E(w) e^{iSw}] (see
    :class:`TrigPolyDensity`), E*K splits into the polynomial
    2*(E(w) - E(0))/w, whose Abel tail is elementary, and the two pole
    terms E(omega0)/(w - omega0) + E(-omega0)/(w + omega0), whose tails
    are exponential integrals:

        integral_A^inf Re[E(+-omega0) e^{iSw} / (w -+ omega0)] dw
            = Re[E(+-omega0) e^{+-iS*omega0} E1(-iS(A -+ omega0))],

    that is E1(-iS*omega0/2) for the pole at omega0 and
    E1(-5iS*omega0/2) for the one at -omega0.  Here
    E1(-ix) = integral_x^inf e^{it}/t dt = -Ci(x) + i*(pi/2 - Si(x)),
    summed by a 40-term series below x = 4 and a continued fraction
    above (A&S 5.1.11 and 5.1.22).  Only the folded head and window
    are integrated numerically.

    ``spec.abs_tol`` is in units of the density's size at the pole,
    M = sum_k (|c_k| + |s_k|) omega0**k: the folded integral I is
    accepted once its error estimate drops below
    max(abs_tol * M / 4, rel_tol * |I|), so a density with small
    coefficients is still integrated to ``spec.rel_tol``.  The result is
    accurate to about abs_tol * M, not to a fraction of itself, where
    it is far below M.  That holds at small phases too: the pieces that
    grow there (the E1 pole terms, and the s2 share of the polynomial's
    Abel tail, which is summed as a series in omega0*S below 0.1/1.5)
    are formed so that they do not cancel.  At the default spec,
    sin(wS) and w**2*sin(wS) stay within 1e-14 relative of pi*cos(omega0*S)
    and pi*omega0**2*cos(omega0*S) for phases from 1e-300 to 3, and
    w*cos(wS), whose PV vanishes with the phase, within 1e-14*omega0.

    Raises TypeError for a density that is not a TrigPolyDensity or a
    spec that is not a QuadratureSpec or None, DomainError unless
    omega0 is positive and finite, M and abs_tol * M / 4 are finite and
    the phase omega0*S is within reach of double precision (omega0*S/2
    above 0, 2.5*omega0*S finite, and 1/S finite, so at omega0 = 1 the
    phase must exceed about 5.6e-309), and QuadratureError if the folded
    integral cannot reach the requested tolerance or the result is not
    finite.  Only these three types are raised.
    """
    if not isinstance(density, TrigPolyDensity):
        raise TypeError(
            f"density must be a TrigPolyDensity, got {type(density).__name__}"
        )
    if spec is None:
        spec = QuadratureSpec()
    elif not isinstance(spec, QuadratureSpec):
        raise TypeError(f"spec must be a QuadratureSpec or None, got {type(spec).__name__}")
    omega0 = _as_float(omega0, "omega0", "positive")
    c0, c1, c2 = density.cos_coeffs
    s0, s1, s2 = density.sin_coeffs
    size = abs(c0) + abs(s0) + (abs(c1) + abs(s1)) * omega0 + (abs(c2) + abs(s2)) * omega0 * omega0
    if size == math.inf:
        raise DomainError(f"the density's size at omega0 = {omega0} overflows double precision")
    abs_tol = 0.25 * spec.abs_tol * size
    if abs_tol == math.inf:
        raise DomainError(
            f"0.25 * abs_tol * M overflows double precision (abs_tol = {spec.abs_tol!r}, M = {size!r})"
        )

    w_hi = 1.5 * omega0
    s_time = density.osc_time
    half = 0.5 * omega0 * s_time
    if not (half > 0.0 and 5.0 * half < math.inf and 1.0 / s_time < math.inf):
        raise DomainError(
            f"omega0 * osc_time = {omega0 * s_time!r} is beyond double precision "
            f"(omega0 = {omega0!r}, osc_time = {s_time!r})"
        )

    def folded(t: float) -> float:
        # The head at w = t and the window's halves at w = omega0 -+ t.
        low, down, up = density(t), density(omega0 - t), density(omega0 + t)
        head = low * (1.0 / (t + omega0) + 1.0 / (t - omega0))
        return head + (up - down) / t + up / (2.0 * omega0 + t) + down / (2.0 * omega0 - t)

    # Tail on [A, inf), A = w_hi: E*K = 2*(p0 + p1*w) + q(w).  With x = S*A,
    # the polynomial's Abel tail is Re[2e^{ix}(i*p0/S + p1*(ix - 1)/S**2)],
    # with 1/S**2 as two divisions by S, so that a tiny S gives no 1/0.  Its
    # s2 share, 2*s2*(x cos x - sin x)/S**2, is two O(x/S**2) terms that
    # cancel to -2*s2*S*A**3/3 at a small x, so below x = 0.1 it is summed
    # as that times its series in x**2.
    x = s_time * w_hi
    cos_x, sin_x = math.cos(x), math.sin(x)
    p0 = complex(c1, -s1)
    p1 = complex(c2, -s2)
    if x < 0.1:
        x2 = x * x
        series = 1 / 3 - x2 * (1 / 30 - x2 * (1 / 840 - x2 * (1 / 45360 - x2 / 3991680)))
        s2_part = -2.0 * s2 * x * w_hi * w_hi * series
    else:
        s2_part = 2.0 * s2 * (x * cos_x - sin_x) / s_time / s_time
    poly = (2.0 * complex(cos_x, sin_x) * (1j * p0 / s_time)).real
    poly += s2_part - 2.0 * c2 * (cos_x + x * sin_x) / s_time / s_time
    # q's tail is up*E1(-i*half) + down*E1(-5i*half), up and down being its
    # residues E(+-omega0) times e^{+-iS*omega0}.  At a small phase up ~ -down
    # and each E1 ~ -ln(half) is large, so it is summed as both*E1(-i*half)
    # + down*step: both = up + down formed from E(+-omega0) directly, and
    # step = E1(-5i*half) - E1(-i*half), whose logs cancel exactly to ln 5
    # where both E1 come from the series (5*half < 4).
    even = complex(c0, -s0) + p1 * omega0 * omega0
    odd = p0 * omega0
    both = 2.0 * (even * math.cos(2.0 * half) + 1j * odd * math.sin(2.0 * half))
    down = (even - odd) * cmath.exp(-2j * half)
    near = _e1(half)
    step = _ein(half) - _ein(5.0 * half) - math.log(5.0) if half < 0.8 else _e1(5.0 * half) - near
    poles = both * near + down * step

    try:
        total = _adaptive_integral(folded, 0.0, 0.5 * omega0, spec.rel_tol, abs_tol) + poly + poles.real
    except ArithmeticError as exc:  # a division by an underflowed 0, an overflowing fsum
        raise QuadratureError(f"principal value at omega0 = {omega0!r} fails: {exc}") from None
    if not math.isfinite(total):
        raise QuadratureError(f"principal value at omega0 = {omega0!r} is not finite: {total}")
    return total
