"""Resonance energy shift for atoms coupled to a massless scalar field.

The radiation-reaction part of the field correlations alone drives the
resonance shift, so the result is free of the thermal-like noise terms
and reduces to a single closed form: a cosine of the phase omega0*S
accumulated over the light-signal lapse S between the two accelerated
trajectories, scaled by 1/sqrt(1 + zeta**2).  Every entry works one
point at a time in Python floats, with no numpy.  A whole point,
``Scenario.scalar_field`` from floats and its energy, makes five Python
calls; an electromagnetic point makes eight, for its dipole weights,
kernel and contraction.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import (
    SPEED_OF_LIGHT,
    _SCALAR,
    _SYMMETRIC,
    _energy_shift,
    _farzone_point,
    EnergyShift,
    Scenario,
    parity_sign,
    point_geometry,
    scenario_geometry,
)

__all__ = [
    "scalar_resonance_energy",
    "scalar_inertial_limit",
    "scalar_farzone_asymptote",
]

# The prefactor is coupling**2/(_K*z), and _K*z rounds as 16*pi*c*c*z does.
_K = 16.0 * math.pi * SPEED_OF_LIGHT * SPEED_OF_LIGHT


def scalar_closed_form(scenario: Scenario, points: Iterable[tuple]) -> list:
    """(zeta, theta, reduced, prefactor) of the closed-form shift, one row per point.

    ``points`` yields (a, z, omega0) triples of Python floats.  The
    reduced value is -p * cos(omega0 * S) / sqrt(1 + zeta**2) with p the
    parity sign; parity and coupling come from ``scenario``.  Each row
    is the arithmetic of :func:`scalar_resonance_energy`, so it equals
    that energy on its point bit for bit.  Not validated.
    """
    sign = 1.0 if scenario.parity is _SYMMETRIC else -1.0
    lam = scenario.coupling
    rows = []
    for a, z, w in points:
        zeta, theta, cos_p, _, root = point_geometry(a, z, w)
        rows.append((zeta, theta, -sign * cos_p / root, lam * lam / (_K * z)))
    return rows


def scalar_resonance_energy(scenario: Scenario) -> EnergyShift:
    """Closed-form resonance shift, valid at every acceleration.

    :func:`scalar_closed_form` at the scenario's point (which the
    scenario holds as Python floats), written out so that it costs three
    Python calls: itself, ``point_geometry`` and the record builder.
    The symmetric state is shifted down at small separation.  At zero
    acceleration this reproduces the inertial expression bit for bit.
    Raises DomainError when the result overflows double precision.
    """
    if scenario.field_kind is not _SCALAR:
        scenario.require_field(_SCALAR)
    z, lam = scenario.separation, scenario.coupling
    zeta, _, cos_p, _, root = point_geometry(scenario.acceleration, z, scenario.omega0)
    reduced = (-cos_p if scenario.parity is _SYMMETRIC else cos_p) / root
    return _energy_shift(reduced, lam * lam / (_K * z), zeta, scenario.parity, _SCALAR)


def scalar_inertial_limit(scenario: Scenario) -> EnergyShift:
    """Shift of the same pair at rest: -p * cos(omega0 * z / c).

    The scenario's acceleration is ignored.
    """
    scenario.require_field(_SCALAR)
    geom = scenario_geometry(scenario)
    reduced = -parity_sign(scenario.parity) * math.cos(geom.theta)
    lam = scenario.coupling
    pref = lam * lam / (_K * scenario.separation)
    return _energy_shift(reduced, pref, 0.0, scenario.parity, _SCALAR)  # zeta = 0: at rest


def scalar_farzone_asymptote(scenario: Scenario) -> EnergyShift:
    """Leading behaviour for separations far beyond the crossover length.

    Reduced value -p * cos((theta/zeta) * ln(2*zeta)) / zeta, i.e. the
    shift falls off as 1/z**2 in SI terms and oscillates in ln(z).
    Requires acceleration > 0; below zeta = 1 the asymptote is not
    meaningful and the result carries a warning.
    """
    geom, phase, warning = _farzone_point(scenario, _SCALAR)
    zeta = geom.zeta
    reduced = -parity_sign(scenario.parity) * math.cos(phase) / zeta
    lam = scenario.coupling
    pref = lam * lam / (_K * scenario.separation)
    return _energy_shift(reduced, pref, zeta, scenario.parity, _SCALAR, warning)
