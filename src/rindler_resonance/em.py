"""Resonance interaction of two accelerated atoms with the
electromagnetic field.

Geometry: both atoms accelerate along x with the same proper
acceleration and are separated along z by a distance z.  The dipole
coupling makes the shift a bilinear form mu_A . T . mu_B in the two
transition dipoles, with a 3x3 kernel T that has diagonal entries plus
an antisymmetric xz/zx pair induced by the acceleration.

Two representations of the field correlations are implemented: a
spectral one (coefficient tensors of the frequency density, resummed
into the potential tensors V and W that give the shift in closed form)
and a time-domain one (the correlation tensor along the trajectories,
from which the field commutator follows as a boundary-value
difference).  The time-domain tensor is the inertial correlator
written in the chordal time sigma = (2c/a)*sinh(a*u/(2c)), one
formula for every a >= 0 that reduces to the inertial one at a = 0.
They are derived independently, so their mutual consistency is a
meaningful internal check; see the oracle module.  The closed form
works one point at a time in Python floats and the time-domain tensor
one w at a time in Python complex numbers; numpy is imported only where
a tensor record is built, from its five entries, by ``_tensor``.  The
dipole contraction is written once, in ``_contract``, with the weights
from ``_dipole_weights``: the closed form, the far-zone asymptote and
the PV oracle all use it.  A whole point, ``Scenario.em_field`` from
floats and its energy, makes eight Python calls.  The far-zone
asymptote is the same bilinear form in the leading large-zeta entries,
so every dipole pair has one.

All tensors are expressed in the fixed frame with
x = acceleration direction, z = separation direction.  Atom A sits at
the origin and atom B at +z, mu_A stands on the left of every bilinear
form mu_A . T . mu_B, and the separation vector points from A to B in
the time-domain tensor (swapping the atoms transposes it).  The sign of
the antisymmetric xz/zx part is fixed by this convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .core import (
    REDUCED_PLANCK,
    SPEED_OF_LIGHT,
    _EM,
    _SYMMETRIC,
    _as_float,
    _energy_shift,
    _farzone_point,
    DomainError,
    EnergyShift,
    ReducedGeometry,
    Scenario,
    SingularityError,
    parity_sign,
    point_geometry,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Tensor3",
    "SpectralCoefficients",
    "EmSpectralTensors",
    "PotentialTensors",
    "em_spectral_coefficients",
    "em_spectral_tensors",
    "em_potential_tensors",
    "em_resonance_energy",
    "em_inertial_potential",
    "em_farzone_asymptote",
    "em_wightman_tensor",
]

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

_SINGULAR_FLOOR = 1e-12


@dataclass(frozen=True)
class Tensor3:
    """Immutable 3x3 tensor indexable by axis letters or integers."""

    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        arr = np.array(self.values)
        if arr.shape != (3, 3):
            raise DomainError(f"Tensor3 needs shape (3, 3), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __getitem__(self, key) -> complex:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise KeyError(f"tensor index must be a pair, got {key!r}")
        value = self.values[tuple(_AXIS_INDEX[k.lower()] if isinstance(k, str) else k for k in key)]
        return complex(value) if self.values.dtype.kind == "c" else float(value)


def _tensor(xx, yy, zz, xz=0.0) -> Tensor3:
    """Tensor3 [[xx, 0, xz], [0, yy, 0], [-xz, 0, zz]] of Python numbers, every tensor's layout."""
    return Tensor3(((xx, 0.0, xz), (0.0, yy, 0.0), (-xz, 0.0, zz)))


@dataclass(frozen=True)
class SpectralCoefficients:
    """Polynomial-in-frequency coefficients of the spectral density.

    With x = omega*z/c, the density tensor multiplying the kernel is

        D(omega) = (f1 + f1_nd)*x*cos(omega*S)
                   + (g0 + g0_nd + (g2 + g2_nd)*x**2)*sin(omega*S).

    The *_nd tensors are the acceleration-induced antisymmetric parts;
    they carry one power of zeta and vanish identically at a = 0.
    """

    f1: np.ndarray
    g0: np.ndarray
    g2: np.ndarray
    f1_nd: np.ndarray
    g0_nd: np.ndarray
    g2_nd: np.ndarray


@dataclass(frozen=True)
class EmSpectralTensors:
    """Spectral tensors at a single frequency.

    ``f`` and ``g`` are the diagonal families multiplying cos(omega*S)
    and sin(omega*S); ``f_nd`` and ``g_nd`` are their antisymmetric
    acceleration-weighted companions (zero at a = 0).
    """

    f: Tensor3
    g: Tensor3
    f_nd: Tensor3
    g_nd: Tensor3


@dataclass(frozen=True)
class PotentialTensors:
    """Resummed potentials. ``reduced`` is z**3 * (V + W), dimensionless."""

    v: Tensor3
    w: Tensor3
    reduced: Tensor3


def _spectral_entries(zeta: float) -> tuple:
    """(xx, yy, zz, xz) of f1, g0 and g2 at zeta: three tuples of floats.

    The diagonal entries are the family's, xz its *_nd companion's
    (zx = -xz).  Written, as :func:`em_reduced_components` is, in
    u = 1/h and v = zeta/h with h = sqrt(1 + zeta**2) (zeta itself
    where that overflows): u, v, a = u**2 and b = v**2 lie in [0, 1],
    so every entry is finite at every zeta.
    """
    root = math.sqrt(1.0 + zeta * zeta)
    if root == math.inf:
        root = zeta
    u, v = 1.0 / root, zeta / root
    a, b = u * u, v * v
    return (
        (a * (a + 4.0 * b), a + 2.0 * b, -(2.0 * a * a + a * b + 2.0 * b * b),
         u * v * (a - 2.0 * b)),
        (-u * (a * a + 2.0 * a * b + 4.0 * b * b), -u * a, u * a * (2.0 * a + 5.0 * b),
         -v * a * (a + 4.0 * b)),
        (u * a, u, -u * b, -a * v),
    )


def em_spectral_coefficients(geom: ReducedGeometry) -> SpectralCoefficients:
    """Coefficient tensors of the spectral density for one geometry."""
    entries = _spectral_entries(geom.zeta)
    diagonal = [_tensor(*e[:3]).values for e in entries]
    return SpectralCoefficients(*diagonal, *[_tensor(0.0, 0.0, 0.0, e[3]).values for e in entries])


def em_spectral_tensors(omega: float, geom: ReducedGeometry) -> EmSpectralTensors:
    """Evaluate the spectral tensor families at angular frequency omega.

    DomainError where an entry overflows at a large omega.
    """
    omega = _as_float(omega, "omega", ">= 0")
    f1, g0, g2 = _spectral_entries(geom.zeta)
    x = omega * geom.separation / SPEED_OF_LIGHT
    f = [e * x for e in f1]
    g = [e0 + e2 * x * x for e0, e2 in zip(g0, g2)]
    if not all(map(math.isfinite, f + g)):
        raise DomainError(f"spectral tensors are not finite at omega = {omega!r}")
    return EmSpectralTensors(
        f=_tensor(*f[:3]),
        g=_tensor(*g[:3]),
        f_nd=_tensor(0.0, 0.0, 0.0, f[3]),
        g_nd=_tensor(0.0, 0.0, 0.0, g[3]),
    )


def em_reduced_components(zeta, theta, cos_p, sin_p, root) -> tuple:
    """Nonzero entries (xx, yy, zz, xz) of z**3*(V + W); zx = -xz.

    The arguments are the five floats of :func:`~.core.point_geometry`:
    cos and sin of the phase omega0*S and h = sqrt(1 + zeta**2).  It
    is the spectral coefficients resummed at omega0, written in
    u = 1/h and v = zeta/h: then 1/N = u**2, zeta**2/N = v**2 and
    zeta/N = u*v for N = 1 + zeta**2, and nothing overflows as zeta
    grows.  At every zeta and theta, theta meets u or v before it is
    squared, so no partial product overflows or underflows unless the
    entry does.  Both :func:`em_closed_form` and
    :func:`em_resonance_energy` evaluate their point through it.
    """
    u, v = 1.0 / root, zeta / root
    a, b = u * u, v * v
    # The xx sin_p coefficient and the cos_p coefficients, the only
    # terms that carry theta*a or theta**2: theta meets u or v first.
    ut = u * theta
    vut = v * ut
    s_xx = ut * u * (a + 4.0 * b)
    c_xx = u * (a * a + 2.0 * a * b + 4.0 * b * b) - (u * ut) * ut
    c_yy = u * a - ut * theta
    c_zz = u * (a * (2.0 * a + 5.0 * b)) - vut * (v * theta)
    c_xz = a * v * (a + 4.0 * b) + vut * ut
    xx = s_xx * sin_p + c_xx * cos_p
    yy = theta * (a + 2.0 * b) * sin_p + c_yy * cos_p
    zz = -theta * (2.0 * a * a + a * b + 2.0 * b * b) * sin_p - c_zz * cos_p
    xz = theta * u * v * (a - 2.0 * b) * sin_p + c_xz * cos_p
    return xx, yy, zz, xz


def em_potential_tensors(geom: ReducedGeometry) -> PotentialTensors:
    """Closed-form potentials V (diagonal family) and W (antisymmetric).

    V and W carry 1/z**3; ``reduced`` is their dimensionless sum
    z**3*(V + W) evaluated at the transition frequency, assembled from
    :func:`em_reduced_components`.  DomainError where an entry of V or
    W overflows (three divisions by a small z).
    """
    # reduced_geometry keeps the phase finite, so cos and sin need no guard.
    cos_p, sin_p = math.cos(geom.phase), math.sin(geom.phase)
    reduced = em_reduced_components(geom.zeta, geom.theta, cos_p, sin_p, geom.envelope)
    z = geom.separation
    v = [e / z / z / z for e in reduced]
    if not all(map(math.isfinite, v)):
        raise DomainError(f"potentials V and W are not finite at separation = {z!r}")
    return PotentialTensors(
        v=_tensor(*v[:3]),
        w=_tensor(0.0, 0.0, 0.0, v[3]),
        reduced=_tensor(*reduced),
    )


def _dipole_weights(scenario: Scenario) -> tuple:
    """((wxx, wyy, wzz, wxz), mu_A*mu_B): the unit dipoles' entry weights, then their magnitudes.

    wxz = ax*bz - az*bx carries zx = -xz.  DomainError for a zero
    dipole.  Callers divide the magnitude by z three times, as for V and
    W: no z**3 to overflow or underflow to zero.
    """
    (ax, ay, az), (bx, by, bz) = scenario.dipole_a, scenario.dipole_b
    mag_a, mag_b = math.hypot(ax, ay, az), math.hypot(bx, by, bz)
    if mag_a == 0.0 or mag_b == 0.0:
        raise DomainError(f"{'dipole_a' if mag_a == 0.0 else 'dipole_b'} must be a nonzero vector")
    ax, ay, az, bx, by, bz = ax / mag_a, ay / mag_a, az / mag_a, bx / mag_b, by / mag_b, bz / mag_b
    return (ax * bx, ay * by, az * bz, ax * bz - az * bx), mag_a * mag_b


def _contract(weights, entries, cos_p) -> float:
    """mu_A . T . mu_B for unit dipoles: wxx*xx + wyy*yy + wzz*zz + wxz*xz.

    An entry that the dipole pair does not use may overflow (to inf,
    or to nan as inf - inf), and its 0*inf or 0*nan would make a finite
    shift nan.  Where the sum is nan at a finite phase it is re-summed
    from the float 0.0 over the nonzero weights, so a pair that weighs
    no entry gives 0.0; a nan phase (zeta = inf) makes every entry nan
    and still propagates.
    """
    wxx, wyy, wzz, wxz = weights
    xx, yy, zz, xz = entries
    bilinear = wxx * xx + wyy * yy + wzz * zz + wxz * xz
    if bilinear != bilinear and cos_p == cos_p:
        bilinear = 0.0
        for weight, entry in zip(weights, entries):
            if weight != 0.0:
                bilinear += weight * entry
    return bilinear


def em_closed_form(scenario: Scenario, points: Iterable[tuple]) -> list:
    """(zeta, theta, reduced, prefactor) of the closed-form shift, one row per point.

    ``points`` yields (a, z, omega0) triples of Python floats.
    ``reduced`` is p * mu_A . z**3(V + W) . mu_B for unit dipoles, the
    entries of :func:`em_reduced_components` contracted by ``_contract``;
    the dipole magnitudes sit in the prefactor mu_A*mu_B/z**3.  Parity
    and dipoles come from ``scenario``, and the dipole weights are
    formed once per call.  Each row is the arithmetic of
    :func:`em_resonance_energy`, so it equals that energy on its point
    bit for bit.  The points are not validated; a zero dipole raises
    DomainError.
    """
    weights, magnitude = _dipole_weights(scenario)
    sign = 1.0 if scenario.parity is _SYMMETRIC else -1.0
    rows = []
    for a, z, w in points:
        zeta, theta, cos_p, sin_p, root = point_geometry(a, z, w)
        bilinear = _contract(weights, em_reduced_components(zeta, theta, cos_p, sin_p, root), cos_p)
        rows.append((zeta, theta, sign * bilinear, magnitude / z / z / z))
    return rows


def em_resonance_energy(scenario: Scenario) -> EnergyShift:
    """Resonance shift p * mu_A . (V + W) . mu_B for the correlated pair.

    :func:`em_closed_form` at the scenario's point (which the scenario
    holds as Python floats), by the same calls: ``_dipole_weights``,
    ``point_geometry``, :func:`em_reduced_components`, ``_contract`` and
    the record builder.  Raises DomainError for a zero dipole and when
    the result overflows double precision.
    """
    if scenario.field_kind is not _EM:
        scenario.require_field(_EM)
    weights, magnitude = _dipole_weights(scenario)
    z = scenario.separation
    zeta, theta, cos_p, sin_p, root = point_geometry(scenario.acceleration, z, scenario.omega0)
    bilinear = _contract(weights, em_reduced_components(zeta, theta, cos_p, sin_p, root), cos_p)
    reduced = bilinear if scenario.parity is _SYMMETRIC else -bilinear
    return _energy_shift(reduced, magnitude / z / z / z, zeta, scenario.parity, _EM)


def em_inertial_potential(geom: ReducedGeometry) -> Tensor3:
    """Reduced potential z**3*V of the same pair at rest.

    Only theta enters: (1 - 3nn)(cos t + t sin t) - (1 - nn) t**2 cos t
    with t = omega0*z/c.  The antisymmetric part is absent.  DomainError
    where t**2 overflows the entries (t above about 1.3e154).
    """
    t = geom.theta
    common = math.cos(t) + t * math.sin(t)
    transverse, axial = common - t * t * math.cos(t), -2.0 * common
    if not (math.isfinite(transverse) and math.isfinite(axial)):
        raise DomainError(f"inertial potential is not finite at theta = {t!r}")
    return _tensor(transverse, transverse, axial)


def em_farzone_asymptote(scenario: Scenario) -> EnergyShift:
    """Leading shift for separations far beyond the crossover length.

    The entries of z**3*(V + W) to leading order in 1/zeta, with
    r = theta/zeta = 2*omega0*c/a and phi = r*log(2*zeta),

        xx = [(4 - r**2) cos phi + 4r sin phi]/zeta,
        yy = -zz = 2 theta sin phi - (theta**2/zeta) cos phi,
        xz = -zx = r**2 cos phi - 2r sin phi,

    contracted with the unit dipoles as in :func:`em_resonance_energy`.
    At fixed a and omega0 the SI shift falls as z**-2 for transverse
    (y) and separation (z) dipoles, z**-3 for a crossed x-z pair and
    z**-4 along the acceleration (x) axis; any other pair mixes these.
    Requires acceleration > 0; below zeta = 1 the asymptote is not
    meaningful and the result carries a warning.
    """
    geom, phase, warning = _farzone_point(scenario, _EM)
    (wxx, wyy, wzz, wxz), magnitude = _dipole_weights(scenario)
    z, zeta, theta = geom.separation, geom.zeta, geom.theta
    r = theta / zeta
    cos_p, sin_p = math.cos(phase), math.sin(phase)
    xx = (4.0 * cos_p + 4.0 * r * sin_p) / zeta - r * (r / zeta) * cos_p
    yy = 2.0 * theta * sin_p - theta * (theta / zeta) * cos_p
    xz = r * r * cos_p - 2.0 * r * sin_p
    # zz = -yy here, so yy takes the folded weight wyy - wzz: a pair
    # that weighs y and z alike then skips an overflowing yy.
    bilinear = _contract((wxx, wyy - wzz, wxz, 0.0), (xx, yy, xz, 0.0), cos_p)
    reduced = parity_sign(scenario.parity) * bilinear
    return _energy_shift(reduced, magnitude / z / z / z, zeta, scenario.parity, _EM, warning)


def em_wightman_tensor(u: float, geom: ReducedGeometry, eps: float) -> Tensor3:
    """Field correlation tensor along the trajectory pair, for a >= 0.

    ``u`` is the proper-time difference and ``eps`` the positive
    regulator displacing it below the real axis.  The result is
    complex; at a = 0 it is the inertial correlator.  It is an even
    function of w = u - i*eps, and its transpose is the tensor with the
    atoms swapped.

    Raises DomainError unless u is finite and eps positive and finite.
    Beyond that it raises SingularityError only on a light-cone crossing
    (u = +-S with eps too small to resolve it), and DomainError only
    where an entry or sinh(a*u/(2c)) overflows (|u| beyond about
    710 c/a).  An entry below the normal range may read 0.
    """
    u, eps = _as_float(u, "u"), _as_float(eps, "eps", "positive")
    return _tensor(*_wightman_kernel(u - 1j * eps, geom))


def _wightman_kernel(w: complex, geom: ReducedGeometry) -> tuple:
    """Entries (xx, yy, zz, xz) of the correlation tensor at one complex w; zx = -xz.

    :func:`em_wightman_tensor` is this function at w = u - i*eps.  In
    the chordal time sigma = (2c/a)*sinh(a*w/(2c)), which is w at a = 0,
    the tensor is the inertial correlator with u -> sigma (Takagi, Prog.
    Theor. Phys. Suppl. 88 (1986) 1).  With s = sigma*c/z it reads

        G = (4 hbar c/(pi z**4)) * [(I - 2 zeta n X) s**2
              + (I - 2N)(1 + 2(I - Q) zeta**2 s**2)] / ((s - 1)(s + 1))**3,

    one formula for every a >= 0, with n = +1 for the separation vector
    from A to B; n = -1, the atoms swapped, is the transpose.  G depends
    on w only through s**2, and s is odd in w, so G(-w) = G(w).  The
    gaps s -+ 1 are products with the factor w -+ S, so they keep their
    digits near the light-cone crossings w = +-S, poles of order three.
    The products are ordered so that none overflows or underflows unless
    the entry does.

    Raises SingularityError where s - 1 or s + 1 is within
    ``_SINGULAR_FLOOR`` of 0, and DomainError where an entry is not
    finite: w itself is not, or sinh(a*w/(2c)) or the entry overflows.
    """
    c = SPEED_OF_LIGHT
    tau = geom.separation / c
    light = geom.light_time
    try:
        # x = a*w/(2c) and y = a*S/(2c) = asinh(zeta): s and both gaps
        # take their exponentials from the same two arguments.
        x = geom.acceleration * w / (2.0 * c)
        y = math.asinh(geom.zeta)
        half_below, half_above = 0.5 * (x - y), 0.5 * (x + y)
        s = w * _sinhc(x) / tau
        below = (w - light) * cmath.cosh(half_above) * _sinhc(half_below) / tau
        above = (w + light) * cmath.cosh(half_below) * _sinhc(half_above) / tau
        gap = min(abs(below), abs(above))
    except OverflowError:  # from cmath.sinh, cmath.cosh or abs
        raise DomainError(f"correlation tensor is not finite at w = {w}") from None
    if gap <= _SINGULAR_FLOOR:
        raise SingularityError(
            f"correlation tensor evaluated on a light-cone crossing w = +-S "
            f"(S = {light:.6g}, w = {w})"
        )
    # Each product below takes the prefactor 4*hbar*c/(pi*z**4) as
    # two square-root factors, and zeta only after the divisions.
    root = math.sqrt(4.0 * REDUCED_PLANCK / (math.pi * c**3)) / tau / tau
    q = 1.0 / below / above
    r = root * (s / below / above)
    t = geom.zeta * r
    common = r * q * r
    transverse = (root * q) * q * (root * q)
    pair = transverse + 2.0 * (t * q * t)
    entries = (common + transverse, common + pair, common - pair, -2.0 * (t * q * r))
    if not all(map(cmath.isfinite, entries)):
        raise DomainError(f"correlation tensor is not finite at w = {w}")
    return entries


def _sinhc(y: complex) -> complex:
    """sinh(y)/y, with its limit 1 at y = 0."""
    return cmath.sinh(y) / y if y else 1.0
