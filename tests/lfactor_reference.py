"""Test-only reference for the Euler products of ``lfactor``.

``euler_product`` multiplies prod (1 - mu t) out one linear factor at a
time, each coefficient of t a dict from monomial to count.  It shares
nothing with the packed kernel ``lfactor._product_of_linears`` but the
monomial group law ``SymMonomial.__mul__``.
"""

from sklift.lfactor import SymMonomial


def euler_product(roots) -> list[dict]:
    """The coefficients of t^0 .. t^len(roots), as {(a, b, half, chi): count}."""
    coeffs = [{SymMonomial(): 1}]
    for mu in roots:
        out = [dict(c) for c in coeffs] + [{}]
        for j, c in enumerate(coeffs):
            target = out[j + 1]
            for m, count in c.items():
                key = m * mu
                target[key] = target.get(key, 0) - count
        coeffs = [{m: c for m, c in d.items() if c} for d in out]
    return [{tuple(m): c for m, c in d.items()} for d in coeffs]
