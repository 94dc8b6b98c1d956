"""The tests' EM reference chain, each link once: correlation tensor ->
Laurent coefficients -> spectral families -> reduced entries.  Stdlib and
mpmath only.  In units c = z = 1 the tensor is 4/pi times
:func:`numerators` over D**3, D = s**2 - 1 with s = sigma*c/z the
chordal time; at w = S + eps, s = cosh(zeta*eps) + (h/zeta) sinh(zeta*eps)
with h = sqrt(1 + zeta**2), and g0 = -8 c_-1, f1 = -8 c_-2, g2 = 4 c_-3
(4/pi times the -2 pi, -2 pi and pi of ``oracle.em_commutator_consistency``).
"""

import math
import operator

from mpmath import mp


class Series(tuple):
    """A power series in eps, truncated at its length, under + - * with series and numbers."""

    def __add__(self, other):
        other = other if isinstance(other, Series) else (other, *[0] * (len(self) - 1))
        return Series(map(operator.add, self, other))

    def __sub__(self, other):
        return self + -1 * other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series(x * other for x in self)
        return Series(sum(self[i] * other[k - i] for i in range(k + 1)) for k in range(len(self)))

    __radd__, __rmul__ = __add__, __mul__


def numerators(s2, zeta):
    """(xx, yy, zz, xz) numerators over D**3 in s**2 and zeta: numbers or series alike."""
    lift = 2 * zeta * zeta * s2
    return s2 + 1, s2 + 1 + lift, s2 - 1 - lift, -2 * zeta * s2


def laurent_families(zeta, h_over_zeta) -> tuple:
    """((f1, g0, g2), residue): each family's (xx, yy, zz, xz), exactly, and the residue of 1/D."""
    # s through eps**3, as c_-1 needs: cosh and sinh's series, sinh's times h/zeta.
    s = Series(zeta**k / math.factorial(k) * (h_over_zeta if k % 2 else 1) for k in range(4))
    s2 = s * s
    reduced = Series((*s2[1:], 0))  # D/eps
    cube = reduced * reduced * reduced
    inverse = [1 / cube[0]]
    for k in range(1, len(cube)):
        inverse.append(-sum(cube[i] * inverse[k - i] for i in range(1, k + 1)) / cube[0])
    # c[k] is the coefficient of eps**(k - 3).
    laurent = [(n * Series(inverse))[:3] for n in numerators(s2, zeta)]
    return ([-8 * c[1] for c in laurent], [-8 * c[2] for c in laurent],
            [4 * c[0] for c in laurent]), 1 / reduced[0]


def families(zeta, h=None) -> tuple:
    """The exact families' closed form, in Fractions or mpmath; by default h = sqrt(1 + zeta**2)."""
    if h is None:
        zeta = mp.mpf(zeta)
        h = mp.sqrt(1 + zeta * zeta)
    z2, h2 = zeta * zeta, h * h
    h3, h4, h5 = h2 * h, h2 * h2, h2 * h2 * h
    f1 = ((1 + 4 * z2) / h4, (1 + 2 * z2) / h2, -(2 + z2 * (1 + 2 * z2)) / h4,
          zeta * (1 - 2 * z2) / h4)
    g0 = (-(1 + 2 * z2 + 4 * z2 * z2) / h5, -1 / h3, (2 + 5 * z2) / h5, -zeta * (1 + 4 * z2) / h5)
    return f1, g0, (1 / h3, 1 / h, -z2 / h3, -zeta / h3)


def resum(fams, theta, cos_p, sin_p) -> list:
    """Link 3 per entry (xx, yy, zz, xz): f1*theta*sin - (g0 + g2*theta**2)*cos and
    the sizes (|f1|*theta, |g0|, |g2|*theta**2), whose sum or largest is its envelope."""
    return [(f1 * theta * sin_p - (g0 + g2 * theta * theta) * cos_p,
             (abs(f1) * theta, abs(g0), abs(g2) * theta * theta)) for f1, g0, g2 in zip(*fams)]


@mp.workdps(50)
def si_tensor(w, geom) -> dict:
    """The nonzero entries of the SI correlation tensor at complex w, 50 digits, by slot.

    sigma = (2c/a)*sinh(a*w/(2c)), w itself at a = 0; the prefactor is 4*hbar*c/(pi*z**4).
    """
    a, z, w, c = mp.mpf(geom.acceleration), mp.mpf(geom.separation), mp.mpc(w), 299792458
    s2 = ((2 * c / a * mp.sinh(a * w / (2 * c)) if a else w) * c / z) ** 2
    hbar = mp.mpf(1.054571817e-34)  # J*s, CODATA 2018
    scale = 4 * hbar * c / (mp.pi * z**4) / (s2 - 1) ** 3
    xx, yy, zz, xz = (scale * n for n in numerators(s2, mp.mpf(geom.zeta)))
    return {("x", "x"): xx, ("y", "y"): yy, ("z", "z"): zz, ("x", "z"): xz, ("z", "x"): -xz}
