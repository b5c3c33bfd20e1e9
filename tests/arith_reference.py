"""Test-only trial-division split of a discriminant.

``discriminant_split`` factors (-1)^k d with ``arith.factorize``, which
divides by trial, and reads the fundamental discriminant off its square-free
part.  It is the oracle for ``arith.fundamental_split``, which walks the
smallest-prime-factor sieve, and behind it for ``lift.local_data`` and
``siegel.cohen_H``; the two routes share nothing but the answer.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from sklift.arith import factorize


class DiscriminantSplit(NamedTuple):
    """Splitting (-1)^k d = fundamental * conductor**2."""

    fundamental: int
    conductor: Fraction


def discriminant_split(k: int, d: int) -> DiscriminantSplit:
    """Split (-1)^k d into a fundamental discriminant times a square.

    ``fundamental`` is 1 or the discriminant of Q(sqrt((-1)^k d)); the
    conductor is the positive rational with fundamental * conductor^2 equal
    to (-1)^k d.  (The conductor is an integer whenever (-1)^k d = 0,1 mod 4,
    a half-integer otherwise, e.g. d=2, k odd: -2 = -8 * (1/2)^2.)
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    D = -d if k % 2 else d
    sf = 1
    for p, e in factorize(D).items():
        if e % 2:
            sf *= p
    if D < 0:
        sf = -sf
    if sf == 1:
        fund = 1
    elif sf % 4 == 1:
        fund = sf
    else:
        fund = 4 * sf
    ratio = Fraction(D, fund)
    num = math.isqrt(ratio.numerator)
    den = math.isqrt(ratio.denominator)
    cond = Fraction(num, den)
    assert fund * cond * cond == D
    return DiscriminantSplit(fundamental=fund, conductor=cond)
