"""Resonance energy shift for atoms coupled to a massless scalar field.

The radiation-reaction part of the field correlations alone drives the
resonance shift, so the result is free of the thermal-like noise terms
and reduces to a single closed form: a cosine of the phase omega0*S
accumulated over the light-signal lapse S between the two accelerated
trajectories, scaled by 1/sqrt(1 + zeta**2).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Union

from .core import (
    _INERTIAL,
    _SCALAR,
    _log_two_zeta,
    DomainError,
    EnergyShift,
    ReducedGeometry,
    Regime,
    Scenario,
    envelope_root,
    parity_sign,
    phase_cos_sin,
    reduced_variables,
    scenario_geometry,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "scalar_chi_density",
    "scalar_closed_form",
    "scalar_resonance_energy",
    "scalar_inertial_limit",
    "scalar_farzone_asymptote",
]

ArrayLike = Union[float, "np.ndarray"]

_classify = Regime.classify


def scalar_chi_density(omega: ArrayLike, geom: ReducedGeometry) -> ArrayLike:
    """Spectral density sin(omega * S) of the scalar pair susceptibility.

    ``S`` is the light-signal lapse of the reduced geometry.  Accepts a
    scalar or an array of angular frequencies.
    """
    import numpy as np

    values = np.sin(np.asarray(omega, dtype=float) * geom.light_time)
    if values.ndim == 0:
        return float(values)
    return values


def _scalar_prefactor(scenario: Scenario, separation: ArrayLike) -> ArrayLike:
    lam = scenario.coupling
    c = scenario.constants.c
    return lam * lam / (16.0 * math.pi * c * c * separation)


def _shift(scenario: Scenario, reduced: float, regime: Regime, warning: Optional[str] = None) -> EnergyShift:
    pref = _scalar_prefactor(scenario, scenario.separation)
    return EnergyShift(reduced, pref, pref * reduced, regime, scenario.parity, _SCALAR, warning)


def scalar_closed_form(
    scenario: Scenario,
    acceleration: ArrayLike,
    separation: ArrayLike,
    omega0: ArrayLike,
) -> tuple:
    """(zeta, theta, reduced, prefactor) of the closed-form shift.

    The reduced value is -p * cos(omega0 * S) / sqrt(1 + zeta**2) with
    p the parity sign.  Parity, coupling and constants come from
    ``scenario``; the kinematic inputs may be floats or numpy arrays
    that broadcast together, so one call evaluates a whole sweep with
    the arithmetic of a single point.  The inputs are not validated.
    """
    zeta, theta, ratio = reduced_variables(acceleration, separation, omega0, scenario.constants)
    cos_p, _ = phase_cos_sin(theta * ratio)
    reduced = -parity_sign(scenario.parity) * cos_p / envelope_root(zeta)
    return zeta, theta, reduced, _scalar_prefactor(scenario, separation)


def scalar_resonance_energy(scenario: Scenario) -> EnergyShift:
    """Closed-form resonance shift, valid at every acceleration.

    See :func:`scalar_closed_form`; the symmetric state is shifted down
    at small separation.  At zero acceleration this reproduces the
    inertial expression bit for bit.  Raises DomainError when the
    inputs overflow double precision.
    """
    scenario.require_field(_SCALAR)
    zeta, _, reduced, pref = scalar_closed_form(
        scenario, scenario.acceleration, scenario.separation, scenario.omega0
    )
    return EnergyShift(reduced, pref, pref * reduced, _classify(zeta), scenario.parity, _SCALAR)


def scalar_inertial_limit(scenario: Scenario) -> EnergyShift:
    """Shift of the same pair at rest: -p * cos(omega0 * z / c).

    The scenario's acceleration is ignored.
    """
    scenario.require_field(_SCALAR)
    geom = scenario_geometry(scenario)
    reduced = -parity_sign(scenario.parity) * math.cos(geom.theta)
    return _shift(scenario, reduced, _INERTIAL)


def scalar_farzone_asymptote(scenario: Scenario) -> EnergyShift:
    """Leading behaviour for separations far beyond the crossover length.

    Reduced value -p * cos((theta/zeta) * ln(2*zeta)) / zeta, i.e. the
    shift falls off as 1/z**2 in SI terms and oscillates in ln(z).
    Requires acceleration > 0; below zeta = 1 the asymptote is not
    meaningful and the result carries a warning.
    """
    scenario.require_field(_SCALAR)
    if scenario.acceleration <= 0.0:
        raise DomainError("far-zone asymptote requires a positive acceleration")
    geom = scenario_geometry(scenario)
    zeta = geom.zeta
    sign = -parity_sign(scenario.parity)
    reduced = sign * math.cos((geom.theta / zeta) * _log_two_zeta(zeta)) / zeta
    warning = None
    if zeta < 1.0:
        warning = f"far-zone asymptote evaluated at zeta = {zeta:.3g} < 1; expect O(1) error"
    return _shift(scenario, reduced, geom.regime, warning)
