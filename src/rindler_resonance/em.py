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
difference).  They are derived independently, so their mutual
consistency is a meaningful internal check; see the oracle module.

All tensors are expressed in the fixed frame with
x = acceleration direction, z = separation direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _EM,
    _log_two_zeta,
    _scaled_product,
    DomainError,
    EnergyShift,
    ReducedGeometry,
    Regime,
    Scenario,
    SingularityError,
    UsageError,
    envelope_root,
    parity_sign,
    phase_cos_sin,
    reduced_variables,
    scenario_geometry,
)

__all__ = [
    "AXES",
    "Tensor3",
    "SpectralCoefficients",
    "EmSpectralTensors",
    "PotentialTensors",
    "CommutatorSlice",
    "em_spectral_coefficients",
    "em_spectral_tensors",
    "em_reduced_components",
    "em_potential_tensors",
    "em_closed_form",
    "em_resonance_energy",
    "em_inertial_potential",
    "em_farzone_asymptote",
    "em_wightman_tensor",
    "em_commutator_timedomain",
]

AXES = ("x", "y", "z")
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

_I3 = np.eye(3)
_N_DYAD = np.zeros((3, 3))
_N_DYAD[2, 2] = 1.0  # separation axis
_Q_DYAD = np.zeros((3, 3))
_Q_DYAD[0, 0] = 1.0  # acceleration axis
# Antisymmetric xz generator: CROSS[l, m] = n_m q_l - n_l q_m.
_CROSS = np.zeros((3, 3))
_CROSS[0, 2] = 1.0
_CROSS[2, 0] = -1.0

_SINGULAR_FLOOR = 1e-12

_classify = Regime.classify


def _index(key) -> tuple:
    if isinstance(key, tuple) and len(key) == 2:
        l, m = key
        if isinstance(l, str):
            l = _AXIS_INDEX[l.lower()]
        if isinstance(m, str):
            m = _AXIS_INDEX[m.lower()]
        return l, m
    raise KeyError(f"tensor index must be a pair, got {key!r}")


@dataclass(frozen=True)
class Tensor3:
    """Immutable 3x3 tensor indexable by axis letters or integers."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.shape != (3, 3):
            raise DomainError(f"Tensor3 needs shape (3, 3), got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __getitem__(self, key) -> complex:
        l, m = _index(key)
        value = self.values[l, m]
        return complex(value) if np.iscomplexobj(self.values) else float(value)

    def transpose(self) -> "Tensor3":
        return Tensor3(self.values.T)

    def contract(self, left: np.ndarray, right: np.ndarray) -> float:
        return float(np.real_if_close(left @ self.values @ right))


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

    def contracted(self, left: np.ndarray, right: np.ndarray) -> tuple:
        """Scalar coefficients (cf1, cg0, cg2) for unit vectors left, right."""
        total_f1 = self.f1 + self.f1_nd
        total_g0 = self.g0 + self.g0_nd
        total_g2 = self.g2 + self.g2_nd
        return (
            float(left @ total_f1 @ right),
            float(left @ total_g0 @ right),
            float(left @ total_g2 @ right),
        )


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


def em_spectral_coefficients(geom: ReducedGeometry) -> SpectralCoefficients:
    """Coefficient tensors of the spectral density for one geometry."""
    z2 = geom.zeta * geom.zeta
    n = 1.0 + z2
    n2 = n * n
    n15 = n * math.sqrt(n)
    n25 = n2 * math.sqrt(n)
    f1 = ((_I3 - 3.0 * _N_DYAD)
          + z2 * (2.0 * (_I3 + _Q_DYAD - _N_DYAD)
                  + (_I3 - _Q_DYAD - 2.0 * _N_DYAD) * (1.0 + 2.0 * z2))) / n2
    g0 = -((1.0 + z2) * _I3
           + z2 * (1.0 + 4.0 * z2) * _Q_DYAD
           - 3.0 * (1.0 + 2.0 * z2) * _N_DYAD) / n25
    g2 = ((1.0 + z2) * _I3 - z2 * _Q_DYAD - (1.0 + 2.0 * z2) * _N_DYAD) / n15
    zeta = geom.zeta
    f1_nd = zeta * (1.0 - 2.0 * z2) / n2 * _CROSS
    g0_nd = zeta * (1.0 + 4.0 * z2) / n25 * _CROSS
    g2_nd = zeta * (1.0 + z2) / n25 * _CROSS
    return SpectralCoefficients(f1=f1, g0=g0, g2=g2, f1_nd=f1_nd, g0_nd=g0_nd, g2_nd=g2_nd)


def em_spectral_tensors(omega: float, geom: ReducedGeometry) -> EmSpectralTensors:
    """Evaluate the spectral tensor families at angular frequency omega."""
    if omega < 0.0:
        raise DomainError(f"omega must be non-negative, got {omega}")
    coeff = em_spectral_coefficients(geom)
    x = omega * geom.separation / geom.constants.c
    return EmSpectralTensors(
        f=Tensor3(coeff.f1 * x),
        g=Tensor3(coeff.g0 + coeff.g2 * x * x),
        f_nd=Tensor3(coeff.f1_nd * x),
        g_nd=Tensor3(coeff.g0_nd + coeff.g2_nd * x * x),
    )


def em_reduced_components(theta, zeta, cos_p, sin_p) -> tuple:
    """Nonzero entries (xx, yy, zz, xz) of z**3*(V + W); zx = -xz.

    ``cos_p`` and ``sin_p`` are the cosine and sine of the phase
    omega0*S.  Plain arithmetic, so the arguments may be floats or
    numpy arrays that broadcast together.  It is the spectral
    coefficients resummed at omega0, written in u = 1/h and v = zeta/h
    with h = sqrt(1 + zeta**2): then 1/N = u**2, zeta**2/N = v**2 and
    zeta/N = u*v for N = 1 + zeta**2, and nothing overflows as zeta
    grows.  Where theta**2 overflows (theta above about 1.3e154) the
    theta**2 terms are regrouped so that theta meets u or v first.
    """
    h = envelope_root(zeta)
    u = 1.0 / h
    v = zeta / h
    a = u * u
    b = v * v
    t2 = theta * theta
    # The cos_p coefficients, the only terms that carry theta**2.
    cos_terms = (
        u * (a * a + 2.0 * a * b + 4.0 * b * b - a * t2),
        u * (a - t2),
        u * (a * (2.0 * a + 5.0 * b) - b * t2),
        a * v * (a + 4.0 * b + t2),
    )
    if isinstance(t2, np.ndarray):
        overflow = np.isinf(t2)
        if overflow.any():
            regrouped = _regrouped_cos_terms(theta, u, v, a, b)
            cos_terms = tuple(np.where(overflow, r, c) for r, c in zip(regrouped, cos_terms))
    elif t2 == math.inf:
        cos_terms = _regrouped_cos_terms(theta, u, v, a, b)
    c_xx, c_yy, c_zz, c_xz = cos_terms
    xx = theta * a * (a + 4.0 * b) * sin_p + c_xx * cos_p
    yy = theta * (a + 2.0 * b) * sin_p + c_yy * cos_p
    zz = -theta * (2.0 * a * a + a * b + 2.0 * b * b) * sin_p - c_zz * cos_p
    xz = theta * u * v * (a - 2.0 * b) * sin_p - c_xz * cos_p
    return xx, yy, zz, xz


def _regrouped_cos_terms(theta, u, v, a, b) -> tuple:
    # The cos_p coefficients of em_reduced_components where theta**2 = inf.
    # theta meets u or v before it is squared, so no partial product
    # exceeds both theta and the term it builds.
    ut = u * theta
    return (
        u * (a * a + 2.0 * a * b + 4.0 * b * b) - (u * ut) * ut,
        u * a - ut * theta,
        u * (a * (2.0 * a + 5.0 * b)) - (v * ut) * (v * theta),
        a * v * (a + 4.0 * b) + (v * ut) * ut,
    )


def _per_cubed_separation(value, separation):
    # value/z**3 as three divisions: no z**3 to overflow or underflow to
    # zero, and numpy rounds it exactly as Python does.
    return value / separation / separation / separation


def em_potential_tensors(geom: ReducedGeometry) -> PotentialTensors:
    """Closed-form potentials V (diagonal family) and W (antisymmetric).

    V and W carry 1/z**3; ``reduced`` is their dimensionless sum
    z**3*(V + W) evaluated at the transition frequency, assembled from
    :func:`em_reduced_components`.
    """
    xx, yy, zz, xz = em_reduced_components(geom.theta, geom.zeta, *phase_cos_sin(geom.phase))
    red_v = np.diag([xx, yy, zz])
    red_w = xz * _CROSS
    return PotentialTensors(
        v=Tensor3(_per_cubed_separation(red_v, geom.separation)),
        w=Tensor3(_per_cubed_separation(red_w, geom.separation)),
        reduced=Tensor3(red_v + red_w),
    )


def _unit_dipole(vec: tuple, name: str) -> tuple:
    x, y, z = vec
    mag = math.hypot(x, y, z)
    if mag == 0.0:
        raise DomainError(f"{name} must be a nonzero vector")
    return (x / mag, y / mag, z / mag), mag


def em_closed_form(scenario: Scenario, acceleration, separation, omega0) -> tuple:
    """(zeta, theta, reduced, prefactor) of the closed-form shift.

    ``reduced`` is p * mu_A . z**3(V + W) . mu_B for unit dipoles, the
    five nonzero entries of :func:`em_reduced_components` contracted
    as plain products; the dipole magnitudes sit in the prefactor
    mu_A*mu_B/z**3.  Parity, dipoles and constants come from
    ``scenario``; the kinematic inputs may be floats or numpy arrays
    that broadcast together, so one call evaluates a whole sweep with
    the arithmetic of a single point.  The inputs are not validated.
    """
    (ax, ay, az), mag_a = _unit_dipole(scenario.dipole_a, "dipole_a")
    (bx, by, bz), mag_b = _unit_dipole(scenario.dipole_b, "dipole_b")
    zeta, theta, ratio = reduced_variables(acceleration, separation, omega0, scenario.constants)
    xx, yy, zz, xz = em_reduced_components(theta, zeta, *phase_cos_sin(theta * ratio))
    bilinear = ax * bx * xx + ay * by * yy + az * bz * zz + (ax * bz - az * bx) * xz
    reduced = parity_sign(scenario.parity) * bilinear
    return zeta, theta, reduced, _per_cubed_separation(mag_a * mag_b, separation)


def em_resonance_energy(scenario: Scenario) -> EnergyShift:
    """Resonance shift p * mu_A . (V + W) . mu_B for the correlated pair.

    See :func:`em_closed_form`.  Raises DomainError when the inputs
    overflow double precision.
    """
    scenario.require_field(_EM)
    zeta, _, reduced, prefactor = em_closed_form(
        scenario, scenario.acceleration, scenario.separation, scenario.omega0
    )
    return EnergyShift(reduced, prefactor, prefactor * reduced, _classify(zeta), scenario.parity, _EM)


def em_inertial_potential(geom: ReducedGeometry) -> Tensor3:
    """Reduced potential z**3*V of the same pair at rest.

    Only theta enters: (1 - 3nn)(cos t + t sin t) - (1 - nn) t**2 cos t
    with t = omega0*z/c.  The antisymmetric part is absent.
    """
    t = geom.theta
    return Tensor3(
        (_I3 - 3.0 * _N_DYAD) * (math.cos(t) + t * math.sin(t))
        - (_I3 - _N_DYAD) * t * t * math.cos(t)
    )


def em_farzone_asymptote(scenario: Scenario) -> EnergyShift:
    """Leading shift for separations far beyond the crossover length.

    Valid for both dipoles along one common coordinate axis.  For
    dipoles along the separation (z) or transverse (y) axis the SI
    shift falls as z**-2; along the acceleration (x) axis the surviving
    term falls as z**-4.
    """
    scenario.require_field(_EM)
    if scenario.acceleration <= 0.0:
        raise DomainError("far-zone asymptote requires a positive acceleration")
    geom = scenario_geometry(scenario)
    ua, mag_a = _unit_dipole(scenario.dipole_a, "dipole_a")
    ub, mag_b = _unit_dipole(scenario.dipole_b, "dipole_b")
    axis = None
    for i in range(3):
        if abs(abs(ua[i]) - 1.0) < 1e-12 and abs(abs(ub[i]) - 1.0) < 1e-12:
            axis = i
            break
    if axis is None:
        raise UsageError(
            "far-zone asymptote requires both dipoles along the same coordinate axis"
        )
    zeta = geom.zeta
    theta = geom.theta
    phase = (theta / zeta) * _log_two_zeta(zeta)
    radial = 2.0 * theta * math.sin(phase) - _scaled_product(theta, theta, zeta) * math.cos(phase)
    axial = (4.0 / zeta) * math.cos(phase)
    diag = {
        0: axial,       # acceleration axis: only the 4/zeta term survives
        1: radial,      # transverse axis
        2: -radial,     # separation axis
    }[axis]
    orientation = math.copysign(1.0, ua[axis]) * math.copysign(1.0, ub[axis])
    reduced = parity_sign(scenario.parity) * orientation * diag
    prefactor = _per_cubed_separation(mag_a * mag_b, geom.separation)
    return EnergyShift(
        reduced=reduced,
        prefactor=prefactor,
        si_value=prefactor * reduced,
        regime=geom.regime,
        parity=scenario.parity,
        field_kind=_EM,
    )


def em_wightman_tensor(
    u: float,
    geom: ReducedGeometry,
    eps: float,
    n_sign: int = 1,
) -> Tensor3:
    """Field correlation tensor along the trajectory pair.

    ``u`` is the proper-time difference, ``eps`` the positive
    regulator displacing it below the real axis, and ``n_sign`` the
    orientation of the separation vector (-1 evaluates the tensor with
    the atoms swapped).  The result is complex.

    Raises SingularityError when u - i*eps lands on a light-cone
    crossing (u = +-S with eps too small to resolve it), and
    DomainError at zero acceleration where this representation
    degenerates.
    """
    if geom.zeta <= 0.0:
        raise DomainError("time-domain correlation tensor requires a positive acceleration")
    if not (eps > 0.0 and math.isfinite(eps)):
        raise DomainError(f"eps must be positive and finite, got {eps}")
    if n_sign not in (1, -1):
        raise DomainError(f"n_sign must be +1 or -1, got {n_sign}")
    c = geom.constants.c
    hbar = geom.constants.hbar
    accel = geom.acceleration
    zeta = geom.zeta
    w = u - 1j * eps
    sh2 = np.sinh(accel * w / (2.0 * c)) ** 2
    gap = sh2 - zeta * zeta
    if abs(gap) <= _SINGULAR_FLOOR * max(1.0, zeta * zeta):
        raise SingularityError(
            f"correlation tensor evaluated on a light-cone crossing near u = +-S "
            f"(u = {u:.6g}, S = {geom.light_time:.6g}, eps = {eps:.3g})"
        )
    prefactor = hbar * accel**4 / (4.0 * math.pi * c**7)
    t1 = (_I3 - 2.0 * zeta * n_sign * _CROSS) * sh2
    t2 = (zeta * zeta) * (_I3 - 2.0 * _N_DYAD) * (1.0 + 2.0 * (_I3 - _Q_DYAD) * sh2)
    return Tensor3(prefactor * (t1 + t2) / gap**3)


@dataclass(frozen=True)
class CommutatorSlice:
    """Field commutator at one proper-time difference.

    ``tensor`` is the real part; ``imag_residue`` records the largest
    imaginary leftover as a sanity measure (it should be at rounding
    level for any valid regulator).
    """

    tensor: Tensor3
    imag_residue: float


def em_commutator_timedomain(u: float, geom: ReducedGeometry, eps: float) -> CommutatorSlice:
    """Regulated field commutator from the correlation tensor.

    Computed as (i/hbar) times the boundary-value difference of the
    correlation tensor at +-u; exactly zero at u = 0 and supported on
    the light-cone crossings u = +-S as the regulator is removed.
    """
    g_fwd = em_wightman_tensor(u, geom, eps, n_sign=1).values
    g_bwd = em_wightman_tensor(-u, geom, eps, n_sign=-1).values
    chi = 1j * (g_fwd - g_bwd.T) / geom.constants.hbar
    residue = float(np.max(np.abs(chi.imag)))
    return CommutatorSlice(tensor=Tensor3(chi.real.copy()), imag_residue=residue)
