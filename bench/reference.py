"""Reference values for the benchmark checks.

The references are written out here in mpmath from the formulas of the
source paper, starting from the same SI inputs the package receives, so
no check depends on the code being timed.  Tolerances are relative to
the amplitude envelope of each result rather than to the value itself:
a zero of the cosine then does not count as a failure.

EM values are compared only for parallel or antiparallel dipole pairs.
For those the antisymmetric xz/zx term cancels exactly, so the sign of
that term, which is not settled yet, cannot fail a check.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 40

C = mp.mpf(299792458)

# Closed forms against mpmath, and PV points against the closed form.
CLOSED_FORM_TOL = 1e-9
PV_TOL = 1e-6
# Components a commutator check must report as agreeing.
COMMUTATOR_REQUIRED = ("xx", "yy", "zz")

def _reduced_variables(acceleration, separation, omega0):
    a, z, w = mp.mpf(acceleration), mp.mpf(separation), mp.mpf(omega0)
    zeta = z * a / (2 * C * C)
    theta = w * z / C
    ratio = mp.asinh(zeta) / zeta if zeta != 0 else mp.mpf(1)
    return zeta, theta, theta * ratio


def reduced_zeta_theta(acceleration, separation, omega0) -> tuple:
    zeta, theta, _ = _reduced_variables(acceleration, separation, omega0)
    return float(zeta), float(theta)


def parity_sign(parity: str) -> int:
    return 1 if parity == "sym" else -1


def scalar_reference(acceleration, separation, omega0, coupling, parity) -> tuple:
    """(reduced, envelope, prefactor) of the scalar shift -p cos(omega0 S)/sqrt(1+zeta^2)."""
    zeta, _, phase = _reduced_variables(acceleration, separation, omega0)
    envelope = 1 / mp.sqrt(1 + zeta * zeta)
    reduced = -parity_sign(parity) * mp.cos(phase) * envelope
    lam = mp.mpf(coupling)
    prefactor = lam * lam / (16 * mp.pi * C * C * mp.mpf(separation))
    return reduced, envelope, prefactor


def _em_diagonal(zeta, theta) -> list:
    """Per-axis (x, y, z) amplitude terms (f1*theta, g0, g2*theta^2) of z^3 V."""
    z2 = zeta * zeta
    n = 1 + z2
    f1 = ((1 + 4 * z2) / n**2, (1 + 2 * z2) / n, (-2 - z2 * (1 + 2 * z2)) / n**2)
    g0 = (-(1 + 2 * z2 + 4 * z2 * z2) / n**2.5, -1 / n**1.5, (2 + 5 * z2) / n**2.5)
    g2 = (1 / n**1.5, 1 / mp.sqrt(n), -z2 / n**1.5)
    return [(f1[k] * theta, g0[k], g2[k] * theta * theta) for k in range(3)]


def _unit(vec) -> tuple:
    v = [mp.mpf(x) for x in vec]
    norm = mp.sqrt(sum(x * x for x in v))
    return [x / norm for x in v], norm


def em_parallel_reference(acceleration, separation, omega0, dipole_a, dipole_b, parity) -> tuple:
    """(reduced, envelope, prefactor) of the EM shift for parallel or antiparallel dipoles.

    The envelope is the largest amplitude term of the bilinear sum.
    """
    zeta, theta, phase = _reduced_variables(acceleration, separation, omega0)
    ua, mag_a = _unit(dipole_a)
    ub, mag_b = _unit(dipole_b)
    sin_p, cos_p = mp.sin(phase), mp.cos(phase)
    total = mp.mpf(0)
    envelope = mp.mpf(0)
    for k, (f, g0, g2) in enumerate(_em_diagonal(zeta, theta)):
        weight = ua[k] * ub[k]
        total += weight * (f * sin_p - (g0 + g2) * cos_p)
        envelope = max(envelope, abs(weight) * max(abs(f), abs(g0), abs(g2)))
    prefactor = mag_a * mag_b / mp.mpf(separation) ** 3
    return parity_sign(parity) * total, envelope, prefactor


def em_cross_envelope(zeta: float, theta: float) -> float:
    """Largest amplitude term of the antisymmetric xz/zx part of z^3 W."""
    z = mp.mpf(zeta)
    z2 = z * z
    n = 1 + z2
    terms = (z * (1 - 2 * z2) / n**2 * theta, z * (1 + 4 * z2) / n**2.5, z * (1 + z2) / n**2.5 * theta**2)
    return float(max(abs(t) for t in terms))


def pv_reference(op, acceleration, omega0, crossed_closed_form=None) -> tuple:
    """(reduced, envelope) the PV oracle must match for an oracle op at separation 1 m.

    Scalar and parallel EM configurations use the mpmath closed form.
    For the crossed xz configuration the package's own closed form is the
    reference, since only the two routes' agreement is being checked there.
    """
    if op.field == "scalar":
        reduced, envelope, _ = scalar_reference(acceleration, 1.0, omega0, 1.0, op.parity)
        return reduced, envelope
    da, db = op.dipoles
    if da == db:
        reduced, envelope, _ = em_parallel_reference(acceleration, 1.0, omega0, da, db, op.parity)
        return reduced, envelope
    return crossed_closed_form, em_cross_envelope(op.zeta, op.theta)


def within(value: float, reference, envelope, tol: float) -> bool:
    if not math.isfinite(value):
        return False
    return abs(mp.mpf(value) - reference) <= tol * envelope
