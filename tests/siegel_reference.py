"""Test-only product of two degree-2 Siegel expansions, and T(p) in Fractions.

``product_coeff`` multiplies two Fourier expansions term by term: the
coefficient of (FG) at T is the sum of F(T1) G(T2) over all splittings
T = T1 + T2 into positive semidefinite indices.  It reads each factor
through a coefficient function of any (not only reduced) index and shares
no code with the Eisenstein or lift engines, so ring identities between
weights give oracles that mix fundamental discriminants.

``hecke_Tp_fraction`` is the degree-2 T(p) of ``siegel.hecke_Tp_degree2``
with each image coefficient accumulated term by term in ``Fraction``, the
oracle for its integer sum over a common denominator.
"""

import math

from sklift.siegel import FourierIndex, SiegelExpansion, enumerate_reduced


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


def hecke_Tp_fraction(F, p: int) -> SiegelExpansion:
    """B(T) = A(pT) + p^(l-2) [sum_{j mod p, p | Q(j)} A((pn, r-2jn, Q(j)/p))
    + (p | n) A((n/p, r, pm))] + p^(2l-3) (p | content T) A(T/p),
    Q(j) = m - j r + j^2 n, summed in ``Fraction``."""
    out_bound = F.trace_bound // p
    l = F.weight
    table = {}
    for T in enumerate_reduced(out_bound):
        n, r, m = T.n, T.r, T.m
        val = F.coefficient(T.scale(p))
        mixed = 0
        for j in range(p):
            Q = m - j * r + j * j * n
            if Q % p == 0:
                mixed += F.coefficient(FourierIndex(p * n, r - 2 * j * n, Q // p))
        if n % p == 0:
            mixed += F.coefficient(FourierIndex(n // p, r, p * m))
        val += p ** (l - 2) * mixed
        if T.content % p == 0:
            val += p ** (2 * l - 3) * F.coefficient(FourierIndex(n // p, r // p, m // p))
        table[T] = val
    return SiegelExpansion(l, out_bound, table)
