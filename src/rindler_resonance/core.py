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
electromagnetic calculations.  Every real input of the package, a
dipole component included, becomes a Python float through the one
private door ``_as_float``, every label field is checked by
``_as_member``, and this module never imports numpy.
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
    "asinh_ratio",
    "reduced_geometry",
    "scenario_geometry",
    "unruh_temperature",
    "parity_sign",
]

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
REDUCED_PLANCK = 1.054571817e-34  # J*s, CODATA 2018
BOLTZMANN = 1.380649e-23  # J/K, exact

# Regime boundaries in zeta = z*a/(2*c**2).
INERTIAL_ZETA_MAX = 0.1
FARZONE_ZETA_MIN = 10.0

# Below this zeta the direct asinh(zeta)/zeta quotient loses digits.
_ASINH_RATIO_SERIES_CUTOFF = 1e-4

# x is finite exactly where -_FLOAT_MAX <= x <= _FLOAT_MAX; unlike
# math.isfinite, the comparison also rejects an int beyond the float range.
_FLOAT_MAX = sys.float_info.max


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
        """The member of a text label; DomainError for any other label or non-text."""
        try:
            return cls(label.strip().lower() if isinstance(label, str) else None)
        except ValueError:
            shown = _shown(label, repr)
            raise DomainError(f"unknown field kind {shown}; expected 'scalar' or 'em'") from None


class Parity(enum.Enum):
    """Exchange symmetry of the correlated two-atom state."""

    SYMMETRIC = "sym"
    ANTISYMMETRIC = "anti"

    @classmethod
    def from_label(cls, label: str) -> "Parity":
        """The member of a text label; DomainError for any other label or non-text."""
        key = label.strip().lower() if isinstance(label, str) else None
        aliases = {
            "sym": cls.SYMMETRIC,
            "symmetric": cls.SYMMETRIC,
            "anti": cls.ANTISYMMETRIC,
            "antisymmetric": cls.ANTISYMMETRIC,
        }
        if key not in aliases:
            raise DomainError(f"unknown parity {_shown(label, repr)}; expected 'sym' or 'anti'")
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
            raise DomainError(f"zeta must be non-negative, got {_shown(zeta)}")
        if zeta < INERTIAL_ZETA_MAX:
            return _INERTIAL
        if zeta > FARZONE_ZETA_MIN:
            return _FARZONE
        return _INTERMEDIATE


# Members bound once: an attribute lookup on an Enum class is slow on 3.11.
_SCALAR, _EM = FieldKind
_SYMMETRIC, _ANTISYMMETRIC = Parity
_INERTIAL, _INTERMEDIATE, _FARZONE = Regime

# Allocates a record without a class call: the Scenario factories and
# _energy_shift fill it themselves.
_new = object.__new__


def parity_sign(parity: Parity) -> float:
    """Sign carried by the correlated state: +1 symmetric, -1 antisymmetric.

    Raises DomainError for anything but a :class:`Parity` member.
    """
    if parity is _SYMMETRIC:
        return 1.0
    _as_member(Parity, parity, "parity")
    return -1.0


def _shown(value, text=str) -> str:
    """text(value) for an error message; an int too long for Python to print is named."""
    try:
        return text(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"<{type(value).__name__} too long to print>"


def check_kinematics(acceleration: float, separation: float, omega0: float) -> tuple:
    """(a, z, omega0) as floats; DomainError unless z > 0, a >= 0 and omega0 >= 0 are finite."""
    return (
        _as_float(acceleration, "acceleration", ">= 0"),
        _as_float(separation, "separation", "positive"),
        _as_float(omega0, "omega0", ">= 0"),
    )


def _as_float(value, name: str, low: str = "") -> float:
    """One finite real number as a Python float, or DomainError naming ``name``.

    The one door for a real input.  Bools, ints and floats (Python or
    numpy), Fraction, Decimal and 0-d arrays convert without importing
    numpy; text, complex values, None and arrays with elements are
    refused, and so are nan, the infinities and ints beyond the float
    range.  ``low`` bounds the value from below: ``">= 0"``, ``"positive"``,
    or ``""`` for no bound.
    """
    x = value
    if type(value) is not float:
        text = isinstance(value, (str, bytes, bytearray))
        kind = getattr(getattr(value, "dtype", None), "kind", "U" if text else "f")
        x = None
        if kind in "biuf" and getattr(value, "ndim", 0) == 0:
            try:
                x = float(value)
            except OverflowError:  # an int beyond the float range
                x = math.inf
            except (TypeError, ValueError):  # a complex, None, a list, a signalling NaN
                pass
        if x is None:
            raise DomainError(f"{name} must be one real number, got {_shown(value, repr)}")
    if low == "positive":
        ok = 0.0 < x <= _FLOAT_MAX
    elif low == ">= 0":
        ok = 0.0 <= x <= _FLOAT_MAX
    else:
        ok = -_FLOAT_MAX <= x <= _FLOAT_MAX
    if not ok:
        bound = f"{low} and finite" if low else "finite"
        raise DomainError(f"{name} must be {bound}, got {_shown(value)}")
    return x


def _as_member(cls: type, value, name: str):
    """``value`` if it is a member of the enum ``cls``, else DomainError naming ``name``.

    The one door for a label field: its text label, None, a number and
    another enum's member are all refused.
    """
    if type(value) is cls:
        return value
    members = " or ".join(f"{cls.__name__}.{m.name}" for m in cls)
    raise DomainError(f"{name} must be {members}, got {_shown(value, repr)}")


def _as_triple(given, name: str) -> tuple:
    """Three finite floats, each through :func:`_as_float`: a dipole or a coefficient set."""
    try:  # text iterates by character, and no character is a number
        items = () if isinstance(given, (str, bytes, bytearray)) else tuple(given)
    except TypeError:  # a number, None, a 0-d array
        items = ()
    for c in items:
        if isinstance(c, (list, tuple)) or getattr(c, "ndim", 0):  # a nested vector
            items = ()
        elif isinstance(c, complex) or getattr(getattr(c, "dtype", None), "kind", "") == "c":
            raise DomainError(f"{name} must be real, got {_shown(given, repr)}")
    if len(items) != 3:
        shown = _shown(given, repr)
        raise DomainError(f"{name} must hold three real numbers, got {shown}, not a 3-vector")
    return (_as_float(items[0], name), _as_float(items[1], name), _as_float(items[2], name))


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

    The kinematics and the coupling are stored as Python floats: any
    one real number converts, and anything else (text, a complex value,
    an array with elements) raises DomainError.  ``field_kind`` and
    ``parity`` must be members of :class:`FieldKind` and :class:`Parity`
    (``from_label`` reads their text labels); anything else raises
    DomainError.  The SI constants are the fixed module values
    ``SPEED_OF_LIGHT``, ``REDUCED_PLANCK`` and ``BOLTZMANN``, not
    fields.  Every construction path validates and converts through
    ``__init__``, ``dataclasses.replace`` included.
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
        if parity is not _SYMMETRIC and parity is not _ANTISYMMETRIC:
            parity = _as_member(Parity, parity, "parity")
        if not (
            type(acceleration) is type(separation) is type(omega0) is float
            and 0.0 < separation <= _FLOAT_MAX
            and 0.0 <= acceleration <= _FLOAT_MAX
            and 0.0 <= omega0 <= _FLOAT_MAX
        ):
            acceleration, separation, omega0 = check_kinematics(acceleration, separation, omega0)
        if field_kind is _SCALAR:
            if coupling is None:
                raise DomainError("scalar scenario requires a coupling strength")
            if not (type(coupling) is float and -_FLOAT_MAX <= coupling <= _FLOAT_MAX):
                coupling = _as_float(coupling, "coupling")
            if dipole_a is not None or dipole_b is not None:
                raise DomainError("scalar scenario does not take dipole vectors")
        elif field_kind is _EM:
            if coupling is not None:
                raise DomainError("electromagnetic scenario does not take a scalar coupling")
            if dipole_a is None or dipole_b is None:
                raise DomainError("electromagnetic scenario requires both dipole vectors")
            # A tuple of three finite floats is kept as given; a sum is
            # finite only if each term is, and one that overflows takes _as_triple.
            a, b = dipole_a, dipole_b
            if not (type(a) is tuple and len(a) == 3 and type(a[0]) is type(a[1]) is type(a[2])
                    is float and -_FLOAT_MAX <= a[0] + a[1] + a[2] <= _FLOAT_MAX):
                dipole_a = _as_triple(a, "dipole_a")
            if not (type(b) is tuple and len(b) == 3 and type(b[0]) is type(b[1]) is type(b[2])
                    is float and -_FLOAT_MAX <= b[0] + b[1] + b[2] <= _FLOAT_MAX):
                dipole_b = _as_triple(b, "dipole_b")
        else:
            field_kind = _as_member(FieldKind, field_kind, "field_kind")
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
        # __init__ called directly: a class call packs the arguments twice before it runs.
        self = _new(cls)
        self.__init__(_SCALAR, parity, acceleration, separation, omega0, coupling)
        return self

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
        self = _new(cls)
        self.__init__(_EM, parity, acceleration, separation, omega0, None, dipole_a, dipole_b)
        return self

    @classmethod
    def from_reduced(
        cls,
        *,
        theta: float,
        zeta: float,
        parity: Parity,
        field_kind: FieldKind = FieldKind.SCALAR,
        separation: float = 1.0,
        coupling: Optional[float] = None,
        dipole_a=None,
        dipole_b=None,
    ) -> "Scenario":
        """Build a scenario realizing given reduced variables at a chosen separation.

        Inverts theta = omega0*z/c and zeta = z*a/(2*c**2) for omega0 and a.
        The other inputs are validated as by the constructor; a scalar
        scenario takes coupling 1.0 unless one is given.
        """
        theta, zeta = _as_float(theta, "theta", ">= 0"), _as_float(zeta, "zeta", ">= 0")
        separation = _as_float(separation, "separation", "positive")  # the inversion divides by it
        c = SPEED_OF_LIGHT
        omega0 = theta * c / separation
        acceleration = 2.0 * c * c * zeta / separation
        if coupling is None and field_kind is _SCALAR:
            coupling = 1.0
        self = _new(cls)
        self.__init__(
            field_kind, parity, acceleration, separation, omega0, coupling, dipole_a, dipole_b
        )
        return self

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
    zeta = _as_float(zeta, "zeta", ">= 0")
    if zeta < _ASINH_RATIO_SERIES_CUTOFF:
        z2 = zeta * zeta
        return 1.0 - z2 / 6.0 + 3.0 * z2 * z2 / 40.0
    return math.asinh(zeta) / zeta


def point_geometry(acceleration: float, separation: float, omega0: float) -> tuple:
    """(zeta, theta, cos, sin, root) of one point given as three Python floats.

    zeta = z*a/(2c^2), theta = omega0*z/c, cos and sin of the phase
    omega0*S = theta*asinh(zeta)/zeta, and root = sqrt(1 + zeta**2); not
    validated.  A product is formed as z*(a/(2c^2)) or omega0*(z/c) only
    where the direct one overflows, the ratio takes the series of
    :func:`asinh_ratio` below zeta = 1e-4, a non-finite phase gives nan
    (which :class:`EnergyShift` rejects), and the root is zeta itself
    where 1 + zeta**2 overflows (zeta above about 1.3e154).
    """
    c = SPEED_OF_LIGHT
    zeta = separation * acceleration / (2.0 * c * c)
    if zeta == math.inf:
        zeta = separation * (acceleration / (2.0 * c * c))
    theta = omega0 * separation / c
    if theta == math.inf:
        theta = omega0 * (separation / c)
    if zeta < _ASINH_RATIO_SERIES_CUTOFF:
        if zeta < 0.0:  # as asinh_ratio: the closed forms do not validate
            raise DomainError(f"zeta must be non-negative, got {zeta}")
        z2 = zeta * zeta
        phase = theta * (1.0 - z2 / 6.0 + 3.0 * z2 * z2 / 40.0)
    else:
        phase = theta * (math.asinh(zeta) / zeta)
    root = math.sqrt(1.0 + zeta * zeta)
    if root == math.inf:
        root = zeta
    if math.isfinite(phase):
        return zeta, theta, math.cos(phase), math.sin(phase), root
    return zeta, theta, math.nan, math.nan, root


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
    envelope:
        sqrt(1 + zeta**2), equal to zeta where 1 + zeta**2 overflows.
    """

    zeta: float
    s_ratio: float
    light_time: float
    theta: float
    crossover_length: float
    separation: float
    omega0: float
    envelope: float

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
    """Map (a, z, omega0) to the dimensionless groups driving the shift.

    Raises DomainError for invalid kinematics, and where zeta or theta
    exceeds the largest float.
    """
    a, z, w = check_kinematics(acceleration, separation, omega0)
    zeta, theta, _, _, root = point_geometry(a, z, w)
    if not (zeta <= _FLOAT_MAX and theta <= _FLOAT_MAX):
        raise DomainError(
            f"reduced variables overflow double precision (zeta = {zeta!r}, theta = {theta!r})"
        )
    ratio = asinh_ratio(zeta)
    c = SPEED_OF_LIGHT
    return ReducedGeometry(
        zeta=zeta,
        s_ratio=ratio,
        light_time=(z / c) * ratio,
        theta=theta,
        crossover_length=c * c / a if a > 0.0 else math.inf,
        separation=z,
        omega0=w,
        envelope=root,
    )


def scenario_geometry(scenario: Scenario) -> ReducedGeometry:
    """Reduced geometry of a scenario."""
    return reduced_geometry(scenario.acceleration, scenario.separation, scenario.omega0)


def _farzone_point(scenario: Scenario, kind: FieldKind) -> tuple:
    """(geometry, phase (theta/zeta)*log(2*zeta), warning) of a far-zone asymptote.

    Refuses a non-positive acceleration and a phase that is not finite
    (zeta = 0, or theta/zeta beyond the largest float), warns
    below zeta = 1, and takes log(2*zeta) as log(zeta) + log(2) only
    where 2*zeta overflows.
    """
    scenario.require_field(kind)
    if scenario.acceleration <= 0.0:
        raise DomainError("far-zone asymptote requires a positive acceleration")
    geom = scenario_geometry(scenario)
    zeta = geom.zeta
    phase = math.nan
    if zeta > 0.0:  # z*a/(2c**2) may underflow to 0 although a > 0
        two_zeta = 2.0 * zeta
        log = math.log(two_zeta) if two_zeta != math.inf else math.log(zeta) + math.log(2.0)
        phase = (geom.theta / zeta) * log
    if not -_FLOAT_MAX <= phase <= _FLOAT_MAX:
        raise DomainError(
            f"far-zone phase (theta/zeta)*log(2*zeta) is not finite "
            f"(theta = {geom.theta!r}, zeta = {zeta!r})"
        )
    warning = None
    if zeta < 1.0:
        warning = f"far-zone asymptote evaluated at zeta = {zeta:.3g} < 1; expect O(1) error"
    return geom, phase, warning


def unruh_temperature(acceleration: float) -> float:
    """Unruh temperature hbar*a/(2*pi*c*k_B) in K; zero for a = 0."""
    acceleration = _as_float(acceleration, "acceleration", ">= 0")
    return REDUCED_PLANCK * acceleration / (2.0 * math.pi * SPEED_OF_LIGHT * BOLTZMANN)


@dataclass(frozen=True, init=False)
class EnergyShift:
    """Resonance energy shift of one scenario.

    ``reduced`` is the dimensionless shape factor; ``si_value`` is the
    shift in J, equal to ``prefactor * reduced``.  ``warning`` is set
    when the requested evaluation is outside its comfort zone (for
    example a far-zone asymptote used at moderate zeta).  The three
    numbers are stored as Python floats.  The constructor is the door
    for values from outside, ``dataclasses.replace`` included: it
    converts them, raises DomainError for anything that is not one real
    number, checks finiteness and refuses an ``si_value`` other than
    ``prefactor * reduced``; ``regime``, ``parity`` and
    ``field_kind`` must be members of their enums and ``warning`` text
    or None, or DomainError.  The shifts the package returns are
    built from its own floats by one private builder, which checks
    finiteness only.
    """

    reduced: float
    prefactor: float
    si_value: float
    regime: Regime
    parity: Parity
    field_kind: FieldKind
    warning: Optional[str] = None

    # Hand-written because it is the door for outside values,
    # dataclasses.replace included: each field is converted and checked
    # before it is stored, straight into __dict__ past the frozen setattr.
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
        # A non-finite float shift is left to check_finite_shift, which says why.
        if type(reduced) is not float:
            reduced = _as_float(reduced, "reduced")
        if type(si_value) is not float:
            si_value = _as_float(si_value, "si_value")
        check_finite_shift(reduced, si_value)
        prefactor = _as_float(prefactor, "prefactor")
        if si_value != prefactor * reduced:
            raise DomainError(f"si_value must be prefactor * reduced = {prefactor * reduced!r}, "
                              f"got {si_value!r}")
        regime = _as_member(Regime, regime, "regime")
        parity = _as_member(Parity, parity, "parity")
        field_kind = _as_member(FieldKind, field_kind, "field_kind")
        if not (warning is None or isinstance(warning, str)):
            raise DomainError(f"warning must be text or None, got {_shown(warning, repr)}")
        d = self.__dict__
        d["reduced"] = reduced
        d["prefactor"] = prefactor
        d["si_value"] = si_value
        d["regime"] = regime
        d["parity"] = parity
        d["field_kind"] = field_kind
        d["warning"] = warning


def _energy_shift(reduced, prefactor, zeta, parity, field_kind, warning=None) -> EnergyShift:
    """The record of a shift the package computed: si_value = prefactor * reduced.

    Every :class:`EnergyShift` the package returns is built here, from
    Python floats, into the fields and key order the constructor
    gives; the constructor stays the door for outside values.  Only
    finiteness is checked, by :func:`check_finite_shift` (a non-finite
    prefactor makes si_value non-finite).  The regime is that of zeta,
    as :meth:`Regime.classify` gives it; the pair at rest passes 0.
    """
    if zeta > FARZONE_ZETA_MIN:
        regime = _FARZONE
    elif zeta >= INERTIAL_ZETA_MAX:
        regime = _INTERMEDIATE
    elif zeta >= 0.0:
        regime = _INERTIAL
    else:
        regime = Regime.classify(zeta)  # raises for a negative or nan zeta
    si_value = prefactor * reduced
    if not (-_FLOAT_MAX <= reduced <= _FLOAT_MAX and -_FLOAT_MAX <= si_value <= _FLOAT_MAX):
        check_finite_shift(reduced, si_value)
    shift = _new(EnergyShift)
    d = shift.__dict__
    d["reduced"] = reduced
    d["prefactor"] = prefactor
    d["si_value"] = si_value
    d["regime"] = regime
    d["parity"] = parity
    d["field_kind"] = field_kind
    d["warning"] = warning
    return shift


def check_finite_shift(reduced: float, si_value: float) -> None:
    """Raise DomainError unless the reduced and SI shifts are both finite.

    They are not when the inputs overflow double precision, for example
    zeta = inf once a*z exceeds the largest float.
    """
    if not (-_FLOAT_MAX <= reduced <= _FLOAT_MAX and -_FLOAT_MAX <= si_value <= _FLOAT_MAX):
        raise DomainError(
            f"energy shift is not finite (reduced = {_shown(reduced, repr)}, si_value = "
            f"{_shown(si_value, repr)}); the inputs overflow double precision"
        )
