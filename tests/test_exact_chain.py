"""The derivation chain checked exactly, in ``fractions``: correlation
tensor -> Laurent coefficients -> spectral families -> reduced entries.

``reference_chain.laurent_families`` takes links 1 and 2 exactly.  The
families are compared with ``em._spectral_entries`` in floats, each
entry within 1e-15 of its family's largest |entry|, the xz sign
included, and they certify ``reference_chain.families``, the closed form
that the float tests read at every zeta.  The scalar chain is one line:
the residue of 1/D is 1/(2h), the scalar closed form's envelope.

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

Link 3: each entry of ``em_reduced_components`` is linear in cos(phi)
and sin(phi), with coefficients of degree at most 2 in theta that are
polynomials of degree at most 5 in u and v.  At one zeta a wrong entry
of that shape differs from the right one by a combination of the six
monomials theta**k cos(phi) and theta**k sin(phi), k <= 2, which is zero
if it vanishes at six points in general position.  The test draws eight
rational (theta <= 50, cos(phi), sin(phi)) per zeta, cos(phi) and
sin(phi) free, at the same 14 zeta, where d = 10 holds as above.  Each
entry must lie within 1e-15 of |g0| + |f1|*theta + |g2|*theta**2 of
link 3 on the exact families.
"""

import math
import random
from fractions import Fraction

import pytest

import reference_chain as chain
from rindler_resonance import SPEED_OF_LIGHT, Parity, Scenario
from rindler_resonance.em import _spectral_entries, em_reduced_components
from rindler_resonance.scalar import scalar_closed_form

PYTHAGOREAN = [
    (2, 1), (3, 2), (5, 4), (11, 10), (101, 100), (3, 1), (4, 1), (10, 1), (20, 1), (7, 3),
]
GENERAL_ZETA = [0.37, 1e4, 1e20, 1e77]


def exact_point(point) -> tuple:
    """zeta and h/zeta in Fractions: exact at a Pythagorean (m, n), rounded down at a float zeta."""
    if isinstance(point, tuple):
        m, n = point
        return Fraction(m * m - n * n, 2 * m * n), Fraction(m * m + n * n, m * m - n * n)
    zeta = Fraction(point)
    bits = 2 * max(0, math.ceil(math.log2(point))) + 64
    p, q = zeta.numerator, zeta.denominator
    # h/zeta = sqrt(p**2 + q**2)/p, rounded down to `bits` bits.
    return zeta, Fraction(math.isqrt(((p * p + q * q) << (2 * bits)) // (p * p)), 1 << bits)


def _assert_matches(zeta: Fraction, families, others, bound) -> None:
    for name, exact, other in zip(("f1", "g0", "g2"), families, others):
        envelope = max(map(abs, other))
        for axis, x, y in zip(("xx", "yy", "zz", "xz"), exact, other):
            assert abs(x - y) <= bound * envelope, (float(zeta), name, axis, float(x), float(y))


@pytest.mark.parametrize(("m", "n"), PYTHAGOREAN)
def test_laurent_coefficients_give_spectral_entries_exactly(m, n):
    zeta, h_over_zeta = exact_point((m, n))
    h = zeta * h_over_zeta
    families, residue = chain.laurent_families(zeta, h_over_zeta)
    _assert_matches(zeta, families, _spectral_entries(float(zeta)), 1e-15)
    assert tuple(map(tuple, families)) == chain.families(zeta, h)
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
    zeta, h_over_zeta = exact_point(zeta_float)
    families, _ = chain.laurent_families(zeta, h_over_zeta)
    _assert_matches(zeta, families, _spectral_entries(zeta_float), 1e-15)
    # The closed form at the same h, off only by its rounding.
    _assert_matches(zeta, families, chain.families(zeta, zeta * h_over_zeta), 1e-18)


@pytest.mark.parametrize("point", [*PYTHAGOREAN, *GENERAL_ZETA], ids=str)
def test_reduced_components_resum_the_exact_families(point):
    zeta, h_over_zeta = exact_point(point)
    families, _ = chain.laurent_families(zeta, h_over_zeta)
    rng = random.Random(17)
    for _ in range(8):
        theta = Fraction(rng.uniform(0.0, 50.0))
        cos_p, sin_p = Fraction(rng.uniform(-1.0, 1.0)), Fraction(rng.uniform(-1.0, 1.0))
        got = em_reduced_components(*map(float, (zeta, theta, cos_p, sin_p, zeta * h_over_zeta)))
        for axis, entry, (want, sizes) in zip(("xx", "yy", "zz", "xz"), got,
                                              chain.resum(families, theta, cos_p, sin_p)):
            assert abs(entry - want) <= 1e-15 * sum(sizes), (point, axis, float(theta))
