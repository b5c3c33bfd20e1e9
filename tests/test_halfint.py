"""The plus-space form h behind the Saito-Kurokawa lift, from two independent constructions.

``halfint_reference.plus_form`` builds h from Cohen's basis of
M_{k+1/2}(Gamma_0(4)).  Here it is checked against its known first values,
against the Jacobi route through ``siegel.cohen_H``, and against Kohnen's
T(p^2) relation; the last test states what the lift owes h.
"""

import math
from fractions import Fraction

import pytest

from sklift.arith import bernoulli, kronecker, sigma
from sklift.eigenforms import eigenform
from sklift.lift import LiftExpansion
from sklift.siegel import FourierIndex, cohen_H

from halfint_reference import plus_form

BOUND = 400  # c(0), ..., c(BOUND)
WEIGHTS = (18, 22, 26)  # 2k with dim S_{2k} = 1 and k odd


@pytest.mark.parametrize(
    "two_k, values",
    [(18, (1, -2, -16, 36)), (22, (1, 10, -88, -132)), (26, (1, -2, 224, -444))],
)
def test_plus_form_first_coefficients(two_k, values):
    c = plus_form(two_k, BOUND)
    assert tuple(c[N] for N in (3, 4, 7, 8)) == values
    assert all(v.denominator == 1 for v in c)
    assert c[0] == 0 and not any(c[N] for N in range(BOUND + 1) if N % 4 in (1, 2))


def _eisenstein(weight: int, m: int) -> Fraction:
    """The m-th coefficient of the level-one Eisenstein series E_weight, constant term 1."""
    return Fraction(1) if m == 0 else -2 * weight / bernoulli(weight) * sigma(weight - 1, m)


def _jacobi_form(two_k: int, n: int) -> list[Fraction]:
    """c(0), ..., c(n) of E_{k-3} e_{4,1} - E_{k-5} e_{6,1}, normalized to c(3) = 1.

    e_{j,1} is the Jacobi-Eisenstein series of weight j and index 1, whose
    (n, r) coefficient is H(j-1, 4n - r^2)/H(j-1, 0) (Eichler-Zagier, Thm 2.1),
    so the product's coefficient depends on N = 4n - r^2 alone.
    """
    k = two_k // 2
    e4 = [cohen_H(3, N) / cohen_H(3, 0) for N in range(n + 1)]
    e6 = [cohen_H(5, N) / cohen_H(5, 0) for N in range(n + 1)]
    c = [
        sum(_eisenstein(k - 3, m) * e4[N - 4 * m] - _eisenstein(k - 5, m) * e6[N - 4 * m] for m in range(N // 4 + 1))
        for N in range(n + 1)
    ]
    return [v / c[3] for v in c]


@pytest.mark.parametrize("two_k", WEIGHTS)
def test_plus_form_is_the_jacobi_form_from_cohen_H(two_k):
    # checks cohen_H at r = 3 and 5, and every N <= BOUND, against Cohen's basis
    assert tuple(_jacobi_form(two_k, BOUND)) == plus_form(two_k, BOUND)


def _eta18_theta1_squared(n: int) -> dict[tuple[int, int], int]:
    """The nonzero c(m, r), m <= n, of eta^18 theta_1(tau, z)^2, in integers.

    theta_1 = sum_{a odd} (-1)^((a-1)/2) q^(a^2/8) zeta^(a/2) and
    eta^18 = q^(3/4) prod (1 - q^j)^18.  For odd a and b, (a^2 + b^2 - 2)/8 is
    an integer, so the product is q times a series in integer powers of q.
    """
    eta = [1] + [0] * n  # prod (1 - q^j)^18 up to q^n, one factor at a time
    for j in range(1, n + 1):
        for _ in range(18):
            for i in range(n, j - 1, -1):
                eta[i] -= eta[i - j]
    theta = {}  # (e, r) -> coefficient of q^(e + 1/4) zeta^r in theta_1^2
    odd = range(-2 * math.isqrt(8 * n) - 1, 2 * math.isqrt(8 * n) + 2, 2)
    for a in odd:
        for b in odd:
            e = (a * a + b * b - 2) // 8
            if e < n:
                sign = 1 - 2 * (((a - 1) // 2 + (b - 1) // 2) % 2)
                theta[e, (a + b) // 2] = theta.get((e, (a + b) // 2), 0) + sign
    c = {}
    for (e, r), t in theta.items():
        for j in range(n - e):
            key = (e + j + 1, r)
            c[key] = c.get(key, 0) + t * eta[j]
    return {key: v for key, v in c.items() if v}


def test_plus_form_is_eta18_theta1_squared():
    # phi_{10,1} = eta^18 theta_1^2 is the Jacobi cusp form of weight 10 and
    # index 1 (Eichler-Zagier, sec. 9), and its c(m, r) is the coefficient of
    # the plus form of weight 9 + 1/2 at 4m - r^2 (Eichler-Zagier, Thm 5.4).
    # Neither side is scaled to the other, so the scale 1 (c(1, 1) = c(3) = 1)
    # is a check, not a normalization.
    n = 40
    c = _eta18_theta1_squared(n)
    h = plus_form(18, 4 * n)
    pairs = [(m, r) for m in range(1, n + 1) for r in range(-math.isqrt(4 * m), math.isqrt(4 * m) + 1) if r * r < 4 * m]
    assert len(pairs) == 678
    assert set(c) <= set(pairs)  # a cusp form: no term with 4m - r^2 <= 0
    assert all(c.get((m, r), 0) == h[4 * m - r * r] for m, r in pairs)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("two_k", WEIGHTS)
def test_plus_form_kohnen_hecke_relation(two_k, p):
    # c(p^2 N) + (-N/p) p^(k-1) c(N) + p^(2k-1) c(N/p^2) = a(p) c(N) for N = 0, 3 mod 4;
    # at p = 2 the formula does not hold for N = 1, 2 mod 4, where c(4N) need not vanish
    k = two_k // 2
    c = plus_form(two_k, BOUND)
    ap = eigenform(two_k).a(p)
    checked = 0
    for N in range(1, BOUND // (p * p) + 1):
        if N % 4 in (1, 2):
            continue
        lower = c[N // (p * p)] if N % (p * p) == 0 else 0
        assert c[p * p * N] + kronecker(-N, p) * p ** (k - 1) * c[N] + p ** (2 * k - 1) * lower == ap * c[N], N
        checked += 1
    assert checked == BOUND // (2 * p * p)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the lift starts each coefficient from L(1-k, chi_D0), where Ikeda's formula has c(|D0|)",
)
@pytest.mark.parametrize("two_k", WEIGHTS)
def test_lift_content_one_values_are_plus_form_coefficients(two_k):
    # A(1, r, m) = A(1, 1, 1) c(4m - r^2) on the 70 positive definite (1, r, m), m <= 13
    c = plus_form(two_k, BOUND)
    F = LiftExpansion(eigenform(two_k), 14)
    scale = F.coefficient(FourierIndex(1, 1, 1))
    indices = [FourierIndex(1, r, m) for m in range(1, 14) for r in range(math.isqrt(4 * m - 1) + 1)]
    assert len(indices) == 70
    mismatches = [T for T in indices if F.coefficient(T) != scale * c[T.disc]]
    assert not mismatches, f"{len(mismatches)} of 70 indices differ"
