"""Kinematics, reduced variables, and shared result types.

Two identical two-level atoms ride parallel uniformly accelerated
trajectories separated by a distance ``z`` perpendicular to the
acceleration.  Everything downstream is controlled by two dimensionless
groups: ``zeta = z*a/(2*c**2)``, comparing the separation to the
crossover length ``c**2/a``, and ``theta = omega0*z/c``, the separation
in units of the transition wavelength.  This module owns the scenario
description, the reduced-variable bookkeeping, and the small shared
vocabulary (parity signs, regime labels, energy-shift records, and
every exception type the package raises) used by the scalar and
electromagnetic calculations.  It imports numpy only for a dipole that
is not three Python numbers.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SPEED_OF_LIGHT",
    "REDUCED_PLANCK",
    "BOLTZMANN",
    "DomainError",
    "UsageError",
    "FieldKindError",
    "QuadratureError",
    "SingularityError",
    "FieldKind",
    "Parity",
    "Regime",
    "Scenario",
    "ReducedGeometry",
    "EnergyShift",
    "check_finite_shift",
    "asinh_ratio",
    "check_kinematics",
    "reduced_variables",
    "envelope_root",
    "phase_cos_sin",
    "reduced_geometry",
    "unruh_temperature",
    "parity_sign",
    "atomic_correlation_factor",
]

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
REDUCED_PLANCK = 1.054571817e-34  # J*s, CODATA 2018
BOLTZMANN = 1.380649e-23  # J/K, exact

# Regime boundaries in zeta = z*a/(2*c**2).
INERTIAL_ZETA_MAX = 0.1
FARZONE_ZETA_MIN = 10.0

# Below this zeta the direct asinh(zeta)/zeta quotient loses digits.
_ASINH_RATIO_SERIES_CUTOFF = 1e-4


class DomainError(ValueError):
    """A physical parameter lies outside the supported domain."""


class UsageError(TypeError):
    """An operation was invoked with arguments of the wrong kind."""


class FieldKindError(UsageError):
    """An operation received a scenario built for the other field type."""


class QuadratureError(RuntimeError):
    """The requested tolerance could not be certified."""


class SingularityError(QuadratureError):
    """Evaluation requested on top of a light-cone singularity."""


class FieldKind(enum.Enum):
    SCALAR = "scalar"
    EM = "em"

    @classmethod
    def from_label(cls, label: str) -> "FieldKind":
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise DomainError(f"unknown field kind {label!r}; expected 'scalar' or 'em'") from None


class Parity(enum.Enum):
    """Exchange symmetry of the correlated two-atom state."""

    SYMMETRIC = "sym"
    ANTISYMMETRIC = "anti"

    @classmethod
    def from_label(cls, label: str) -> "Parity":
        key = label.strip().lower()
        aliases = {
            "sym": cls.SYMMETRIC,
            "symmetric": cls.SYMMETRIC,
            "anti": cls.ANTISYMMETRIC,
            "antisymmetric": cls.ANTISYMMETRIC,
        }
        if key not in aliases:
            raise DomainError(f"unknown parity {label!r}; expected 'sym' or 'anti'")
        return aliases[key]


class Regime(enum.Enum):
    """Qualitative regime of the interatomic separation.

    Classification is by ``zeta`` alone: below 0.1 the pair is
    effectively inertial, above 10 the acceleration dominates and the
    far-zone forms apply, in between neither simplification is safe.
    """

    INERTIAL = "Inertial"
    INTERMEDIATE = "Intermediate"
    FARZONE = "FarZone"

    @classmethod
    def classify(cls, zeta: float) -> "Regime":
        if not zeta >= 0.0:
            raise DomainError(f"zeta must be non-negative, got {zeta}")
        if zeta < INERTIAL_ZETA_MAX:
            return _INERTIAL
        if zeta > FARZONE_ZETA_MIN:
            return _FARZONE
        return _INTERMEDIATE


# Members bound once: an attribute lookup on an Enum class is slow on 3.11.
_SCALAR, _EM = FieldKind
_SYMMETRIC, _ANTISYMMETRIC = Parity
_INERTIAL, _INTERMEDIATE, _FARZONE = Regime


def parity_sign(parity: Parity) -> float:
    """Sign carried by the correlated state: +1 symmetric, -1 antisymmetric."""
    return 1.0 if parity is _SYMMETRIC else -1.0


def check_kinematics(acceleration: float, separation: float, omega0: float) -> None:
    """Raise DomainError unless z > 0, a >= 0 and omega0 >= 0 are all finite."""
    if not (separation > 0.0 and math.isfinite(separation)):
        raise DomainError(f"separation must be positive and finite, got {separation}")
    if not (acceleration >= 0.0 and math.isfinite(acceleration)):
        raise DomainError(f"acceleration must be >= 0 and finite, got {acceleration}")
    if not (omega0 >= 0.0 and math.isfinite(omega0)):
        raise DomainError(f"omega0 must be >= 0 and finite, got {omega0}")


_REALS = frozenset((float, int, bool))


def _as_dipole(vec, name: str) -> tuple:
    """A tuple of three finite floats; a list or tuple of Python numbers skips numpy."""
    if type(vec) in (list, tuple) and len(vec) == 3 and (
        type(vec[0]) in _REALS and type(vec[1]) in _REALS and type(vec[2]) in _REALS
    ):
        try:
            x, y, z = float(vec[0]), float(vec[1]), float(vec[2])
        except OverflowError:
            raise DomainError(f"{name} must be finite") from None
    else:
        # Arrays, numpy scalars, complex values and wrong shapes: import
        # numpy only the first time one arrives.
        np = sys.modules.get("numpy")
        if np is None:
            import numpy as np

        # The dtype is read first: a cast to float drops an imaginary
        # part with only a warning.
        arr = np.array(vec)
        if arr.dtype.kind == "c":
            raise DomainError(f"{name} must be real, got {vec!r}")
        try:
            arr = arr if arr.dtype == float else arr.astype(float)
        except (OverflowError, TypeError, ValueError):
            raise DomainError(f"{name} must hold three real numbers, got {vec!r}") from None
        if arr.shape != (3,):
            raise DomainError(f"{name} must be a 3-vector, got shape {arr.shape}")
        x, y, z = arr.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DomainError(f"{name} must be finite")
    return (x, y, z)


@dataclass(frozen=True, init=False)
class Scenario:
    """Full description of one two-atom configuration.

    Parameters
    ----------
    field_kind:
        Which field the atoms couple to.
    parity:
        Exchange symmetry of the shared excitation.
    acceleration:
        Common proper acceleration in m/s^2, zero for inertial atoms.
    separation:
        Interatomic distance in m, perpendicular to the acceleration.
    omega0:
        Atomic transition angular frequency in rad/s.
    coupling:
        Scalar coupling strength (scalar field only).
    dipole_a, dipole_b:
        Transition dipole vectors in C*m (electromagnetic field only):
        any three real, finite numbers, stored as a tuple of three
        floats; complex components raise DomainError.

    The SI constants are the fixed module values ``SPEED_OF_LIGHT``,
    ``REDUCED_PLANCK`` and ``BOLTZMANN``, not fields.  Every
    construction path validates, ``dataclasses.replace`` included.
    """

    field_kind: FieldKind
    parity: Parity
    acceleration: float
    separation: float
    omega0: float
    coupling: Optional[float] = None
    dipole_a: Optional[tuple] = None
    dipole_b: Optional[tuple] = None

    # Hand-written to validate and store in one step: the generated
    # frozen __init__ pays one object.__setattr__ per field.
    def __init__(
        self,
        field_kind: FieldKind,
        parity: Parity,
        acceleration: float,
        separation: float,
        omega0: float,
        coupling: Optional[float] = None,
        dipole_a=None,
        dipole_b=None,
    ) -> None:
        check_kinematics(acceleration, separation, omega0)
        if field_kind is _SCALAR:
            if coupling is None:
                raise DomainError("scalar scenario requires a coupling strength")
            if not math.isfinite(coupling):
                raise DomainError(f"coupling must be finite, got {coupling}")
            if dipole_a is not None or dipole_b is not None:
                raise DomainError("scalar scenario does not take dipole vectors")
        else:
            if coupling is not None:
                raise DomainError("electromagnetic scenario does not take a scalar coupling")
            if dipole_a is None or dipole_b is None:
                raise DomainError("electromagnetic scenario requires both dipole vectors")
            dipole_a = _as_dipole(dipole_a, "dipole_a")
            dipole_b = _as_dipole(dipole_b, "dipole_b")
        # One key at a time, in field order: the instance dict keeps its shared keys.
        d = self.__dict__
        d["field_kind"] = field_kind
        d["parity"] = parity
        d["acceleration"] = acceleration
        d["separation"] = separation
        d["omega0"] = omega0
        d["coupling"] = coupling
        d["dipole_a"] = dipole_a
        d["dipole_b"] = dipole_b

    @classmethod
    def scalar_field(
        cls,
        *,
        acceleration: float,
        separation: float,
        omega0: float,
        parity: Parity,
        coupling: float = 1.0,
    ) -> "Scenario":
        return cls(_SCALAR, parity, acceleration, separation, omega0, coupling, None, None)

    @classmethod
    def em_field(
        cls,
        *,
        acceleration: float,
        separation: float,
        omega0: float,
        parity: Parity,
        dipole_a,
        dipole_b,
    ) -> "Scenario":
        return cls(_EM, parity, acceleration, separation, omega0, None, dipole_a, dipole_b)

    @classmethod
    def from_reduced(
        cls,
        *,
        theta: float,
        zeta: float,
        parity: Parity,
        field_kind: FieldKind = FieldKind.SCALAR,
        separation: float = 1.0,
        coupling: float = 1.0,
        dipole_a=None,
        dipole_b=None,
    ) -> "Scenario":
        """Build a scenario realizing given reduced variables at a chosen separation.

        Inverts theta = omega0*z/c and zeta = z*a/(2*c**2) for omega0 and a.
        """
        if theta < 0.0 or zeta < 0.0:
            raise DomainError("theta and zeta must be non-negative")
        c = SPEED_OF_LIGHT
        omega0 = theta * c / separation
        acceleration = 2.0 * c * c * zeta / separation
        if field_kind is _SCALAR:
            return cls.scalar_field(
                acceleration=acceleration,
                separation=separation,
                omega0=omega0,
                parity=parity,
                coupling=coupling,
            )
        return cls.em_field(
            acceleration=acceleration,
            separation=separation,
            omega0=omega0,
            parity=parity,
            dipole_a=dipole_a,
            dipole_b=dipole_b,
        )

    def require_field(self, kind: FieldKind) -> None:
        if self.field_kind is not kind:
            raise FieldKindError(
                f"operation requires a {kind.value} scenario, got {self.field_kind.value}"
            )


def asinh_ratio(zeta: float) -> float:
    """Return asinh(zeta)/zeta, continued to 1 at zeta = 0.

    Direct evaluation below zeta = 1e-4 would subtract nearly equal
    quantities inside asinh, so a short even series is used there.
    """
    if zeta < 0.0:
        raise DomainError(f"zeta must be non-negative, got {zeta}")
    if zeta < _ASINH_RATIO_SERIES_CUTOFF:
        z2 = zeta * zeta
        return 1.0 - z2 / 6.0 + 3.0 * z2 * z2 / 40.0
    return math.asinh(zeta) / zeta


def _numpy_if_array(x):
    """The numpy module if ``x`` is a numpy array, else None.

    numpy is not imported here: an array cannot exist before numpy is
    loaded, so scalar callers never pay for the import.
    """
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else None


def _plain(x):
    # numpy scalars as the float of their value: np.float64 arithmetic
    # warns on overflow, and numpy integers wrap around.
    np = sys.modules.get("numpy")
    return float(x) if isinstance(x, float) or (np is not None and isinstance(x, np.integer)) else x


def reduced_variables(acceleration, separation, omega0) -> tuple:
    """Return (zeta, theta, asinh(zeta)/zeta) for floats or numpy arrays.

    The inputs broadcast together, so a sweep passes one array and two
    floats.  The ratio goes through :func:`asinh_ratio` element by
    element: numpy's arcsinh differs from ``math.asinh`` in the last
    bit on some inputs, and a sweep row must equal the single-point
    value exactly.

    zeta is formed as z*a/(2c^2) and theta as omega0*z/c; see
    :func:`_scaled_product` for the case where z*a or omega0*z
    overflows while zeta or theta fits.
    """
    c = SPEED_OF_LIGHT
    zeta = _scaled_product(separation, acceleration, 2.0 * c * c)
    theta = _scaled_product(omega0, separation, c)
    if type(zeta) is float or (np := _numpy_if_array(zeta)) is None:
        return zeta, theta, asinh_ratio(zeta)
    ratio = np.array([asinh_ratio(x) for x in zeta.ravel().tolist()])
    return zeta, theta, ratio.reshape(zeta.shape)


def _scaled_product(x, y, d):
    """x*y/d for floats or arrays, as x*(y/d) only where x*y overflows.

    Every finite product keeps its bits, and the result is inf only
    where x*y/d itself exceeds the largest float.
    """
    if type(x) is not float or type(y) is not float:
        np = _numpy_if_array(x) or _numpy_if_array(y)
        if np is not None:
            # Integer arrays would wrap around where x*y overflows.
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            with np.errstate(over="ignore"):
                value = x * y / d
                overflow = np.isinf(value)
                return np.where(overflow, x * (y / d), value) if overflow.any() else value
        x, y = _plain(x), _plain(y)
    value = x * y / d
    return value if value != math.inf else x * (y / d)


def _log_two_zeta(zeta: float) -> float:
    """log(2*zeta), as log(zeta) + log(2) only where 2*zeta overflows."""
    two_zeta = 2.0 * zeta
    return math.log(two_zeta) if two_zeta != math.inf else math.log(zeta) + math.log(2.0)


def _farzone_warning(zeta: float) -> Optional[str]:
    """The warning a far-zone asymptote carries below zeta = 1, else None."""
    if zeta < 1.0:
        return f"far-zone asymptote evaluated at zeta = {zeta:.3g} < 1; expect O(1) error"
    return None


def envelope_root(zeta):
    """sqrt(1 + zeta**2) for a float or an array, without overflow.

    Where 1 + zeta**2 overflows (zeta above about 1.3e154) the root is
    zeta itself to double precision, so zeta is returned there.
    """
    if type(zeta) is not float:
        if (np := _numpy_if_array(zeta)) is not None:
            with np.errstate(over="ignore"):
                root = np.sqrt(1.0 + zeta * zeta)
            return np.where(np.isfinite(root), root, zeta)
        zeta = _plain(zeta)
    root = math.sqrt(1.0 + zeta * zeta)
    return root if root != math.inf else zeta


def _cos_sin(phase: float) -> tuple:
    if not math.isfinite(phase):
        return math.nan, math.nan
    return math.cos(phase), math.sin(phase)


def phase_cos_sin(phase) -> tuple:
    """(cos, sin) of the phase omega0*S, for a float or an array.

    Arrays go through ``math`` element by element, since numpy's
    vectorised sin and cos may differ from it in the last bit.  A
    non-finite phase gives nan, which :class:`EnergyShift` rejects.
    """
    if type(phase) is float or (np := _numpy_if_array(phase)) is None:
        return _cos_sin(phase)
    cos_sin = np.array([_cos_sin(p) for p in phase.ravel().tolist()]).reshape(phase.shape + (2,))
    return cos_sin[..., 0], cos_sin[..., 1]


@dataclass(frozen=True)
class ReducedGeometry:
    """Reduced variables of one scenario, with c = ``SPEED_OF_LIGHT``.

    Attributes
    ----------
    zeta:
        z*a/(2*c**2), separation over twice the crossover length.
    s_ratio:
        asinh(zeta)/zeta, evaluated safely at zeta = 0.
    light_time:
        Proper-time lapse S = (z/c)*s_ratio between emission and
        absorption along the accelerated trajectories, in s.
    theta:
        omega0*z/c.
    crossover_length:
        c**2/a in m, infinite for inertial atoms.
    separation, omega0:
        Inputs carried through for convenience, SI units.
    """

    zeta: float
    s_ratio: float
    light_time: float
    theta: float
    crossover_length: float
    separation: float
    omega0: float

    @property
    def acceleration(self) -> float:
        """Proper acceleration reconstructed from zeta, in m/s^2."""
        c = SPEED_OF_LIGHT
        return 2.0 * c * c * self.zeta / self.separation

    @property
    def phase(self) -> float:
        """omega0 * light_time in the reduced form theta * s_ratio."""
        return self.theta * self.s_ratio

    @property
    def regime(self) -> Regime:
        return Regime.classify(self.zeta)


def reduced_geometry(
    acceleration: float,
    separation: float,
    omega0: float,
) -> ReducedGeometry:
    """Map (a, z, omega0) to the dimensionless groups driving the shift."""
    check_kinematics(acceleration, separation, omega0)
    c = SPEED_OF_LIGHT
    zeta, theta, ratio = reduced_variables(acceleration, separation, omega0)
    crossover = c * c / acceleration if acceleration > 0.0 else math.inf
    return ReducedGeometry(
        zeta=zeta,
        s_ratio=ratio,
        light_time=(separation / c) * ratio,
        theta=theta,
        crossover_length=crossover,
        separation=separation,
        omega0=omega0,
    )


def scenario_geometry(scenario: Scenario) -> ReducedGeometry:
    """Reduced geometry of a scenario."""
    return reduced_geometry(scenario.acceleration, scenario.separation, scenario.omega0)


def unruh_temperature(acceleration: float) -> float:
    """Unruh temperature hbar*a/(2*pi*c*k_B) in K; zero for a = 0."""
    if not (acceleration >= 0.0 and math.isfinite(acceleration)):
        raise DomainError(f"acceleration must be >= 0 and finite, got {acceleration}")
    return REDUCED_PLANCK * acceleration / (2.0 * math.pi * SPEED_OF_LIGHT * BOLTZMANN)


def atomic_correlation_factor(u: float, omega0: float, parity: Parity) -> float:
    """Two-atom correlation along the trajectory pair: +-cos(omega0*u).

    The sign is the parity sign; ``u`` is the proper-time difference.
    Field-specific prefactors are applied by the callers.
    """
    return parity_sign(parity) * math.cos(omega0 * u)


@dataclass(frozen=True, init=False)
class EnergyShift:
    """Resonance energy shift of one scenario.

    ``reduced`` is the dimensionless shape factor; ``si_value`` is the
    shift in J, equal to ``prefactor * reduced``.  ``warning`` is set
    when the requested evaluation is outside its comfort zone (for
    example a far-zone asymptote used at moderate zeta).  Every
    construction path checks finiteness, ``dataclasses.replace`` included.
    """

    reduced: float
    prefactor: float
    si_value: float
    regime: Regime
    parity: Parity
    field_kind: FieldKind
    warning: Optional[str] = None

    # Hand-written and stored as Scenario.__init__ is, for the same reasons.
    def __init__(
        self,
        reduced: float,
        prefactor: float,
        si_value: float,
        regime: Regime,
        parity: Parity,
        field_kind: FieldKind,
        warning: Optional[str] = None,
    ) -> None:
        check_finite_shift(reduced, si_value)
        d = self.__dict__
        d["reduced"] = reduced
        d["prefactor"] = prefactor
        d["si_value"] = si_value
        d["regime"] = regime
        d["parity"] = parity
        d["field_kind"] = field_kind
        d["warning"] = warning


def check_finite_shift(reduced: float, si_value: float) -> None:
    """Raise DomainError unless the reduced and SI shifts are both finite.

    They are not when the inputs overflow double precision, for example
    zeta = inf once a*z exceeds the largest float.
    """
    if not (math.isfinite(reduced) and math.isfinite(si_value)):
        raise DomainError(
            f"energy shift is not finite (reduced = {reduced!r}, si_value = {si_value!r}); "
            "the inputs overflow double precision"
        )
