"""The derivation chain checked exactly, in ``fractions``: correlation
tensor -> Laurent coefficients -> spectral families.

In units c = z = hbar = 1 the chordal time along the pair is
s = sinh(zeta*w)/zeta, and near the light-cone crossing w = S + eps

    s(eps) = cosh(zeta*eps) + (h/zeta) sinh(zeta*eps),  h = sqrt(1 + zeta**2),

so s(0) = 1.  The correlation tensor G is 4/pi times the entries that
``em._wightman_kernel`` evaluates, with D = s**2 - 1:

    xx = (s**2 + 1)/D**3,                yy = (s**2 + 1 + 2 zeta**2 s**2)/D**3,
    zz = (s**2 - 1 - 2 zeta**2 s**2)/D**3,  xz = -2 zeta s**2/D**3.

D has a simple zero at eps = 0, so eight-term Taylor series (multiply
and reciprocal) give each entry's Laurent coefficients c_-3, c_-2 and
c_-1 exactly (link 1).  The spectral families are then g0 = -8 c_-1,
f1 = -8 c_-2 and g2 = 4 c_-3 (link 2): the 4/pi prefactor times the
-2 pi, -2 pi and pi of ``oracle.em_commutator_consistency``.  They are
compared with ``em._spectral_entries`` in floats, each entry within
1e-15 of its family's largest |entry|, the xz sign included.  The
scalar chain is one line: the residue of 1/D is 1/(2h), the scalar
closed form's envelope.

At zeta = (m**2 - n**2)/(2mn) for integers m > n, h = (m**2 + n**2)/(2mn)
is rational and the chain is exact.  As a function of t = n/m,
u = 1/h = 2t/(1 + t**2) and v = zeta/h = (1 - t**2)/(1 + t**2), and every
entry of ``_spectral_entries`` is a polynomial of degree at most 5 in u
and v.  A wrong entry of that shape differs from the right one by
P(t)/(1 + t**2)**5 with P of degree at most d = 10, which vanishes at no
more than 10 points.  The module checks 14 distinct zeta: ten of this
Pythagorean kind and four general ones, where zeta is its float's exact
rational and h/zeta is rounded by ``math.isqrt`` to 2*log2(zeta) + 64
bits.  So an algebraic error in the transcription that stays above
rounding cannot pass.
"""

import math
from fractions import Fraction

import pytest

from rindler_resonance import SPEED_OF_LIGHT, Parity, Scenario
from rindler_resonance.em import _spectral_entries
from rindler_resonance.scalar import scalar_closed_form

TERMS = 8
PYTHAGOREAN = [
    (2, 1), (3, 2), (5, 4), (11, 10), (101, 100), (3, 1), (4, 1), (10, 1), (20, 1), (7, 3),
]
GENERAL_ZETA = [0.37, 1e4, 1e20, 1e77]


def _multiply(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(TERMS)]


def _reciprocal(a):
    out = [1 / a[0]]
    for k in range(1, TERMS):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def _chain(zeta: Fraction, h_over_zeta: Fraction) -> tuple:
    """(f1, g0, g2, residue): the three families' (xx, yy, zz, xz) and the residue of 1/D."""
    s = [Fraction(1)]
    for k in range(1, TERMS):
        term = zeta**k / math.factorial(k)
        s.append(term if k % 2 == 0 else h_over_zeta * term)
    s2 = _multiply(s, s)
    assert s2[0] == 1
    # D/eps, so that the entries are (numerator/(D/eps)**3)/eps**3.
    reduced = [*s2[1:], Fraction(0)]
    inverse_cube = _reciprocal(_multiply(_multiply(reduced, reduced), reduced))
    weight = 2 * zeta * zeta
    plus = [x + weight * x for x in s2]
    minus = [x - weight * x for x in s2]
    numerators = (
        [s2[0] + 1, *s2[1:]],
        [plus[0] + 1, *plus[1:]],
        [minus[0] - 1, *minus[1:]],
        [-2 * zeta * x for x in s2],
    )
    # c[k] is the coefficient of eps**(k - 3).
    laurent = [_multiply(n, inverse_cube)[:3] for n in numerators]
    f1 = [-8 * c[1] for c in laurent]
    g0 = [-8 * c[2] for c in laurent]
    g2 = [4 * c[0] for c in laurent]
    return f1, g0, g2, 1 / reduced[0]


def _assert_matches_spectral_entries(zeta: Fraction, families) -> None:
    for name, exact, floats in zip(("f1", "g0", "g2"), families, _spectral_entries(float(zeta))):
        envelope = max(map(abs, floats))
        for axis, x, y in zip(("xx", "yy", "zz", "xz"), exact, floats):
            assert abs(float(x) - y) <= 1e-15 * envelope, (float(zeta), name, axis, float(x), y)


@pytest.mark.parametrize(("m", "n"), PYTHAGOREAN)
def test_laurent_coefficients_give_spectral_entries_exactly(m, n):
    zeta = Fraction(m * m - n * n, 2 * m * n)
    h = Fraction(m * m + n * n, 2 * m * n)
    *families, residue = _chain(zeta, h / zeta)
    _assert_matches_spectral_entries(zeta, families)
    assert residue == 1 / (2 * h)
    # At omega0 = 0 the phase is 0 and the symmetric reduced shift is -1/h.
    scenario = Scenario.scalar_field(
        acceleration=1.0, separation=1.0, omega0=1.0, parity=Parity.SYMMETRIC
    )
    point = (2.0 * SPEED_OF_LIGHT**2 * float(zeta), 1.0, 0.0)
    [(_, _, reduced, _)] = scalar_closed_form(scenario, [point])
    assert -reduced == pytest.approx(float(2 * residue), rel=1e-15)


@pytest.mark.parametrize("zeta_float", GENERAL_ZETA)
def test_laurent_coefficients_at_general_zeta(zeta_float):
    zeta = Fraction(zeta_float)
    bits = 2 * max(0, math.ceil(math.log2(zeta_float))) + 64
    p, q = zeta.numerator, zeta.denominator
    # h/zeta = sqrt(p**2 + q**2)/p, rounded down to `bits` bits.
    h_over_zeta = Fraction(math.isqrt(((p * p + q * q) << (2 * bits)) // (p * p)), 1 << bits)
    *families, _ = _chain(zeta, h_over_zeta)
    _assert_matches_spectral_entries(zeta, families)
