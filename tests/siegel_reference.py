"""Test-only product of two degree-2 Siegel expansions.

``product_coeff`` multiplies two Fourier expansions term by term: the
coefficient of (FG) at T is the sum of F(T1) G(T2) over all splittings
T = T1 + T2 into positive semidefinite indices.  It reads each factor
through a coefficient function of any (not only reduced) index and shares
no code with the Eisenstein or lift engines, so ring identities between
weights give oracles that mix fundamental discriminants.
"""

import math

from sklift.siegel import FourierIndex


def _semidefinite_parts(T: FourierIndex):
    """Every T1 with T1 and T - T1 both positive semidefinite."""
    n, r, m = T
    for n1 in range(n + 1):
        for m1 in range(m + 1):
            n2, m2 = n - n1, m - m1
            # r1^2 <= 4 n1 m1 and (r - r1)^2 <= 4 n2 m2
            w1, w2 = math.isqrt(4 * n1 * m1), math.isqrt(4 * n2 * m2)
            for r1 in range(max(-w1, r - w2), min(w1, r + w2) + 1):
                yield FourierIndex(n1, r1, m1)


def product_coeff(F, G, T: FourierIndex):
    """The coefficient at T of the product of the expansions with
    coefficient functions F and G."""
    return sum(F(T1) * G(FourierIndex(T.n - T1.n, T.r - T1.r, T.m - T1.m)) for T1 in _semidefinite_parts(T))
