"""Test-only reference for the Euler products of ``lfactor``.

``euler_product`` multiplies prod (1 - mu t) out one linear factor at a
time, each coefficient of t a dict from monomial to count.  It shares
nothing with the packed kernel ``lfactor._product_of_linears`` but the
monomial group law ``SymMonomial.__mul__``.

``shifted_cap_multiset`` builds the CAP-induced parameters at any list of
shifts, the negative controls of ``lfactor.cap_check``.
"""

from sklift.lfactor import ONE, SatakeMultiset, SymMonomial, alpha, p_half


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


def shifted_cap_multiset(shifts_half) -> SatakeMultiset:
    """{1} and alpha^(+-1) p^(-c/2) with their inverses, for each c in ``shifts_half``."""
    entries = [ONE]
    for c in shifts_half:
        for mono in (alpha() * p_half(-c), alpha(-1) * p_half(-c)):
            entries += [mono, mono.inverse()]
    return SatakeMultiset(entries)
