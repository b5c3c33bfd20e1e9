"""Test-only plus-space form h of weight k + 1/2 for the eigenform of weight 2k.

``plus_form`` builds h from Cohen's basis of M_{k+1/2}(Gamma_0(4)),

    theta^(2k+1-4j) F_2^j,   j = 0, ..., (2k+1)//4,

with theta = sum_{n in Z} q^(n^2) and F_2 = sum_{n odd} sigma_1(n) q^n
(Koblitz, GTM 97, ch. IV, sec. 1), multiplied out in integers.  For odd k
Kohnen's plus space asks c(N) = 0 for N = 1, 2 mod 4; with c(0) = 0 as well
the conditions leave S+_{k+1/2}, which is one-dimensional wherever S_{2k} is
(2k = 18, 22, 26).  The null space of those conditions in the basis
coordinates comes from ``echelon_reference.row_reduce``, and h is normalized
to c(3) = 1.  Nothing here calls sklift.
"""

import math
from fractions import Fraction
from functools import lru_cache

from echelon_reference import row_reduce


def _times(a: list[int], b: list[int], n: int) -> list[int]:
    """The product of two integer q-series, truncated after q^n."""
    out = [0] * (n + 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                if i + j > n:
                    break
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def plus_form(two_k: int, n: int) -> tuple[Fraction, ...]:
    """c(0), ..., c(n) of h, the plus-space cusp form of weight k + 1/2 with c(3) = 1."""
    k = two_k // 2
    one = [1] + [0] * n
    theta = [0] * (n + 1)
    for m in range(math.isqrt(n) + 1):
        theta[m * m] = 2 if m else 1
    f2 = [0] * (n + 1)
    for m in range(1, n + 1, 2):
        f2[m] = sum(d for d in range(1, m + 1) if m % d == 0)
    theta_powers = [one]
    for _ in range(2 * k + 1):
        theta_powers.append(_times(theta_powers[-1], theta, n))
    basis, f2_power = [], one
    for j in range((2 * k + 1) // 4 + 1):
        basis.append(_times(theta_powers[2 * k + 1 - 4 * j], f2_power, n))
        f2_power = _times(f2_power, f2, n)
    rows = [[Fraction(b[N]) for b in basis] for N in range(n + 1) if N == 0 or N % 4 in (1, 2)]
    pivots = row_reduce(rows, len(basis))
    free = [j for j in range(len(basis)) if j not in pivots]
    assert len(free) == 1, f"plus-space cusp forms of weight {k}+1/2 have dimension {len(free)}"
    x = [Fraction(0)] * len(basis)
    x[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):  # pivot row i reads x[col] + rows[i][free] x[free] = 0
        x[col] = -rows[i][free[0]]
    c = [sum(xj * b[N] for xj, b in zip(x, basis)) for N in range(n + 1)]
    return tuple(v / c[3] for v in c)
