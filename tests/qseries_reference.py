"""Test-only references for q-series products.

``schoolbook`` multiplies coefficient lists term by term; it shares nothing
with ``qseries.convolve_int`` but the problem statement.
``e4_cubed_minus_e6_squared`` builds E_4^3 - E_6^2 = 1728 Delta from the
Eisenstein coefficient lists with it, independently of ``delta_ints``
(Jacobi's identity).
"""

from sklift.qseries import eisenstein_series


def schoolbook(a, b, n_out):
    """Coefficients 0..n_out of (sum a_i x^i)(sum b_j x^j)."""
    return [
        sum(a[i] * b[n - i] for i in range(len(a)) if 0 <= n - i < len(b))
        for n in range(n_out + 1)
    ]


def integer_coeffs(series) -> list[int]:
    """The coefficients of a series whose coefficients are all integers."""
    assert all(c.denominator == 1 for c in series.coeffs)
    return [c.numerator for c in series.coeffs]


def e4_cubed_minus_e6_squared(n0: int) -> list[int]:
    """E_4^3 - E_6^2 up to q^n0."""
    e4 = integer_coeffs(eisenstein_series(4, n0))
    e6 = integer_coeffs(eisenstein_series(6, n0))
    cube = schoolbook(schoolbook(e4, e4, n0), e4, n0)
    return [x - y for x, y in zip(cube, schoolbook(e6, e6, n0))]
