"""The lift engine.

The weight-(k'+1) Eisenstein coefficients at a fixed index T, taken across a
ladder of admissible weights k' (odd, so that k'+1 is even), are uniform
specializations of local Laurent polynomials:

    A(T) / L(1-k', chi_{D_T}) = prod_p  p^(f_p (k'-1/2)) Ftilde_p(T; X)
                                        evaluated at X = p^(k'-1/2),

with f_p = ord_p of the conductor of D_T.  This module recovers each
Ftilde_p(T; X) by exact interpolation from finitely many weights, checks
the overdetermined sample for consistency, and then substitutes the Satake
parameter alpha_p of an eigenform for X to assemble the lift coefficient

    A_F(T) = L(1-k, chi_{D_T}) * f_T^(k-1/2) * prod_p Ftilde_p(T; alpha_p).

Everything stays in Q.  Ftilde_p is symmetric under X <-> 1/X, so
Ftilde_p(X) = sqrt(p)^(-s) P(y) with s = f_p mod 2, y = (X + 1/X)/sqrt(p)
and P rational of degree at most f_p.  Weight k' is sampled at the rational
y = (p^(2k'-1) + 1)/p^k', and a(p) = p^(k-1/2) (alpha_p + 1/alpha_p) puts
the Satake point at the rational y = a(p)/p^k, so

    p^(f_p (k-1/2)) Ftilde_p(alpha_p) = p^((f_p (2k-1) - s)/2) P(a(p)/p^k)

with an integer exponent.  P is found by Newton divided differences, in
integers over one common denominator, and evaluated in its Newton form;
only ``interpolate_local_poly`` rewrites it as a ``SymLaurent`` with exact
u + v*sqrt(p) coefficients.  A lift coefficient depends on T only through
D_T and content(T), so ``LiftExpansion`` computes it once per
(D_T, content) class.

A lift source is anything with three attributes: ``k_half``, an odd k;
``a(n)``, its Hecke eigenvalues, with a(1) = 1; and ``local_factors``, a
dict that ``lift_coeff`` fills as its memo.  ``eigenforms.Eigenform`` is the
lift proper and ``EisensteinPoint``, with a(n) = sigma_(2k-1)(n), the
Eisenstein degeneration; only ``_local_factor`` turns a(p) into y.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import (
    SqrtExt,
    _kronecker_prime,
    dirichlet_L_neg,
    divisors,
    fundamental_split,
    is_fundamental_discriminant,
    proportionality,
    sigma,
)
from .eigenforms import ParityGateError
from .siegel import FourierIndex, SiegelExpansion, cohen_divisor_sum, enumerate_reduced

__all__ = [
    "SymLaurent",
    "InterpolationError",
    "LiftSupportError",
    "EisensteinPoint",
    "LocalData",
    "local_data",
    "default_ladder",
    "interpolate_local_poly",
    "lift_coeff",
    "lift_expand",
    "LiftExpansion",
    "maass_check",
    "MaassReport",
    "hecke_ratio",
]


class InterpolationError(ArithmeticError):
    """The overdetermined sample system has no exact solution."""


class LiftSupportError(ValueError):
    """Lift coefficients exist only for positive definite indices."""


class SymLaurent:
    """Symmetric Laurent polynomial sum_m c_m (X^m + X^-m), m=0 counted once.

    Coefficients are exact elements of Q(sqrt p).  Symmetry under X <-> 1/X
    is structural: there is simply no slot for an asymmetric term.
    """

    def __init__(self, p: int, coeffs: dict[int, SqrtExt]):
        self.p = p
        self.coeffs = {m: c for m, c in sorted(coeffs.items()) if c}

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def is_one(self) -> bool:
        return self.coeffs == {0: SqrtExt(self.p, 1)}

    def coefficient(self, m: int) -> SqrtExt:
        return self.coeffs.get(m, SqrtExt(self.p, 0))

    def __eq__(self, other):
        return (
            isinstance(other, SymLaurent)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        parts = []
        for m, c in self.coeffs.items():
            series = f"(X^{m}+X^-{m})" if m else ""
            parts.append(f"({c.u}+{c.v}*sqrt{self.p}){series}")
        return f"SymLaurent[p={self.p}]: " + (" + ".join(parts) or "0")


class LocalData(NamedTuple):
    """Everything the local factor at p depends on."""

    p: int
    content_ord: int  # ord_p of content(T)
    conductor_ord: int  # ord_p of the conductor f_T
    chi: int  # chi_{fundamental}(p) in {-1, 0, 1}


def local_data(T: FourierIndex) -> tuple[int, int, dict[int, LocalData]]:
    """(fundamental discriminant, conductor, per-prime local data) of T.

    -D_T = D_0 f^2 comes from ``arith.fundamental_split``, which factors D_T
    once from the smallest-prime-factor sieve; each prime of f gets its
    valuations and chi_{D_0}(p), in increasing order.
    """
    if not T.is_positive_definite():
        raise LiftSupportError(f"{T} is not positive definite")
    fund, cond, ords = fundamental_split(-T.disc)
    content = T.content
    locals_ = {p: LocalData(p, _ord(content, p), f_p, _kronecker_prime(fund, p)) for p, f_p in ords.items()}
    return fund, cond, locals_


def _ord(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def default_ladder(count: int, start: int = 0) -> list[int]:
    """Odd weights k' = 9, 11, 13, ... (smallest block first).

    k'+1 >= 10 keeps every sampled Eisenstein series comfortably inside the
    absolutely convergent range.
    """
    return [9 + 2 * (start + i) for i in range(count)]


def _aux_fundamental(p: int, chi: int) -> int:
    """Smallest |D| fundamental discriminant D < 0 with chi_D(p) = chi."""
    d = 3
    while True:
        D = -d
        if is_fundamental_discriminant(D) and _kronecker_prime(D, p) == chi:
            return D
        d += 1


def _aux_index(p: int, c: int, f: int, chi: int) -> tuple[FourierIndex, int]:
    """An index whose conductor is the pure power p^f, content p^c, chi at p as given."""
    fund = _aux_fundamental(p, chi)
    d0 = -fund * p ** (2 * (f - c))
    r0 = d0 % 2
    prim = FourierIndex(1, r0, (d0 + r0 * r0) // 4)
    assert prim.disc == d0 and prim.content == 1
    return prim.scale(p**c), fund


def _aux_samples(p: int, c: int, f: int, chi: int, count: int, start: int = 0) -> list[tuple[int, int]]:
    """(k, eisenstein_coeff_arithmetic(k, aux) / L(1-k, chi_fund)) on the weight
    ladder, for the auxiliary index of ``_aux_index``: the sum over d | content
    of d^k H(k, D/d^2), each H with its L-value left out."""
    aux, fund = _aux_index(p, c, f, chi)
    ds = divisors(aux.content)
    return [
        (k, sum(d**k * cohen_divisor_sum(k, fund, p**f // d) for d in ds))
        for k in default_ladder(count, start)
    ]


def _interpolate_class(p: int, c: int, f: int, chi: int, ladder_start: int = 0) -> SymLaurent:
    """Interpolate Ftilde_p for the local class (ord_p content, ord_p cond, chi), f >= 1.

    The lift does not come here: ``_local_factor`` takes the same samples and
    evaluates their Newton form directly.
    """
    # one more weight than unknown slots
    return _solve_samples(p, f, _aux_samples(p, c, f, chi, f + c + 2, ladder_start))


def _newton_form(p: int, f: int, samples: list[tuple[int, int]]) -> tuple[list[int], list[int], int, int, int]:
    """(Y, G, degree, K, den): the rational P through the samples in Newton form, in integers.

    A sample (k, value) puts sqrt(p)^(-s) P(y), s = f mod 2, equal to
    value * p^(-f(k-1/2)) at y_k = (p^(2k-1) + 1)/p^k, the image of
    X = p^(k-1/2) under y = (X + 1/X)/sqrt(p).  With K the largest k, node
    y_k is Y_k/p^K and Newton coefficient i is p^(K i) G_i/den: G holds the
    divided differences of integer values V (the targets over one common
    denominator) on the integer nodes Y, times the product M of Y_b - Y_a
    over all node pairs.  Every divided difference of V has a denominator
    dividing M, so each step divides exactly.  P has degree below
    len(samples) - 1; the top divided difference (the overdetermined sample)
    must be 0, and the degree at most f.
    """
    s = f % 2
    K = max(k for k, _ in samples)
    shifts = [(f * (2 * k - 1) - s) // 2 for k, _ in samples]  # target = value / p^shift
    top = max(shifts)
    dv = math.lcm(*(value.denominator for _, value in samples))
    Y = [p ** (K - k) * (p ** (2 * k - 1) + 1) for k, _ in samples]
    n = len(Y)
    M = math.prod(Y[b] - Y[a] for b in range(n) for a in range(b))
    G = [
        value.numerator * (dv // value.denominator) * p ** (top - e) * M
        for (_, value), e in zip(samples, shifts)
    ]
    # in place: after pass j, G[i] is M g[Y_(i-j), ..., Y_i] for i >= j and the
    # Newton coefficient M g[Y_0, ..., Y_i] for i < j
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            G[i] = (G[i] - G[i - 1]) // (Y[i] - Y[i - j])
        if j == f + 1 and not any(G[j:]):
            break  # every higher divided difference is 0 as well
    if G[-1]:
        raise InterpolationError(
            "inconsistent interpolation samples (nonzero top divided difference)"
        )
    # the degree of P, in y and in the basis d_m alike, is that of its last nonzero Newton term
    degree = max((i for i, g in enumerate(G) if g), default=0)
    if degree > f:
        raise InterpolationError(
            f"local factor degree {degree} exceeds conductor valuation {f}"
        )
    return Y, G, degree, K, dv * p**top * M


def _solve_samples(p: int, f: int, samples: list[tuple[int, int]]) -> SymLaurent:
    """Solve for c_m in sum_m c_m (X^m + X^-m) = value * p^(-f(k-1/2)) at X = p^(k-1/2).

    In y = (X + 1/X)/sqrt(p) the basis functions are sqrt(p)^m d_m(y), with
    d_0 = 1, d_1 = y, d_2 = y^2 - 2/p and d_(m+1) = y d_m - d_(m-1)/p for
    m >= 2.  ``_newton_form`` gives P; rewritten as P = sum_m e_m d_m, it
    gives c_m = e_m sqrt(p)^-(m+s).
    """
    s = f % 2
    Y, G, degree, K, den = _newton_form(p, f, samples)
    ys = [Fraction(y, p**K) for y in Y]
    dd = [Fraction(g * p ** (K * i), den) for i, g in enumerate(G)]
    # Horner on the Newton form, e <- dd[i] + (y - y_i) e, in the basis d_m
    e: list[Fraction] = []
    for i in range(degree, -1, -1):
        ye = [Fraction(0)] + e  # y d_m = d_(m+1) + ...
        if len(e) > 1:
            ye[0] += 2 * e[1] / p  # ... 2/p d_0 for m = 1
        for m in range(2, len(e)):
            ye[m - 1] += e[m] / p  # ... d_(m-1)/p for m >= 2
        for m, em in enumerate(e):
            ye[m] -= ys[i] * em
        ye[0] += dd[i]
        e = ye
    coeffs = {}
    for m, em in enumerate(e):
        # sqrt(p)^-(m+s) is p^-h, times sqrt(p) when m + s is odd
        h = (m + s + 1) // 2
        coeffs[m] = SqrtExt(p, 0, em / p**h) if (m + s) % 2 else SqrtExt(p, em / p**h)
    return SymLaurent(p, coeffs)


def interpolate_local_poly(T: FourierIndex, p: int, ladder_start: int = 0) -> SymLaurent:
    """Local Laurent factor Ftilde_p(T; X), interpolated across weights.

    The engine samples an auxiliary index whose conductor is a pure power of
    p in the same local class as T (this needs no division by other primes),
    on the weight ladder from ``ladder_start``.
    """
    locals_ = local_data(T)[2]
    if p not in locals_:
        return SymLaurent(p, {0: SqrtExt(p, 1)})
    ld = locals_[p]
    return _interpolate_class(p, ld.content_ord, ld.conductor_ord, ld.chi, ladder_start=ladder_start)


class EisensteinPoint:
    """Degenerate source a(n) = sigma_(2k-1)(n): alpha_p = p^(k-1/2) for every p.

    Substituting it into the lift formula must reproduce the Eisenstein
    coefficients (in the arithmetic normalization).
    """

    def __init__(self, k_half: int):
        self.k_half = k_half
        self.local_factors: dict = {}  # LocalData -> (degree, value), lift_coeff's memo
        _check_lift_source(self)

    def a(self, n: int) -> int:
        return sigma(2 * self.k_half - 1, n)


def _check_lift_source(source) -> None:
    if source.k_half % 2 == 0:
        raise ParityGateError(f"k={source.k_half} must be odd for the degree-2 lift")


def lift_coeff(source, T: FourierIndex, provenance: list | None = None) -> Fraction:
    """Lift coefficient L(1-k, chi_{D_T}) f_T^(k-1/2) prod_p Ftilde_p(T; alpha_p).

    ``source`` is a lift source (see the module docstring).  A T that is
    not positive definite raises ``LiftSupportError`` (from ``local_data``).
    Each prime p of f_T
    contributes the rational p^(f_p (k-1/2)) Ftilde_p(T; alpha_p), read in
    Q at y = a(p)/p^k by ``_local_factor``.  The value depends on T only
    through D_T and content(T), so ``LiftExpansion`` calls this once per
    (D_T, content) class.  Numerators and denominators are multiplied as
    ints into one ``Fraction``.  Given a ``provenance`` list, appends
    (p, degree of Ftilde_p) for each prime p of the conductor, in increasing
    order.
    """
    _check_lift_source(source)
    k = source.k_half
    fund, cond, locals_ = local_data(T)
    memo = source.local_factors
    value = dirichlet_L_neg(k, fund)
    num, den = value.numerator, value.denominator
    for p, ld in locals_.items():
        if ld not in memo:
            memo[ld] = _local_factor(source, ld)
        degree, factor = memo[ld]
        if provenance is not None:
            provenance.append((p, degree))
        num *= factor.numerator
        den *= factor.denominator
    return Fraction(num, den)


def _local_factor(source, ld: LocalData) -> tuple[int, Fraction]:
    """(degree of Ftilde_p, p^(f (k-1/2)) Ftilde_p(alpha_p)) for the local class ``ld``.

    The value is p^((f (2k-1) - f mod 2)/2) P(y): P from ``_newton_form``,
    by Horner in integers at the source's rational Satake point y = a(p)/p^k
    (see the module docstring), with one ``Fraction`` at the end.
    ``lift_coeff``, which runs once per (D_T, content) class, keeps the pair
    in ``source.local_factors``, so each local class is computed once per
    source.
    """
    p, c, f = ld.p, ld.content_ord, ld.conductor_ord
    Y, G, degree, K, den = _newton_form(p, f, _aux_samples(p, c, f, ld.chi, f + c + 2))
    y = Fraction(source.a(p), p**source.k_half)
    yn, yd = y.numerator, y.denominator
    # Horner on the Newton form at y = yn/yd, scaled by den yd^degree: with
    # y - y_i = (yn p^K - Y_i yd)/(yd p^K), the p^(K i) of G_i cancels
    acc, scale = G[degree], 1
    for i in range(degree - 1, -1, -1):
        scale *= yd
        acc = G[i] * scale + (yn * p**K - Y[i] * yd) * acc
    num = p ** ((f * (2 * source.k_half - 1) - f % 2) // 2) * acc
    return degree, Fraction(num, den * yd**degree)


class LiftExpansion(SiegelExpansion):
    """Siegel expansion of a lift, computed on demand, with provenance per index.

    A lift coefficient depends on T only through D_T and content(T), so the
    expansion runs ``lift_coeff`` once per (D_T, content) class: the first
    read of a reduced positive definite index within the trace bound whose
    class is new computes its value and its interpolation provenance, and
    every later read of that class, from any reduced index, reuses them.
    Singular indices read 0 and indices beyond the bound raise.  ``table``
    and ``provenance`` hold the reduced indices read so far.  ``trace_bound``
    may be raised, never lowered (``table`` would keep entries beyond it):
    every value already read keeps its value, and wider reads fill the same memo.
    """

    def __init__(self, source, trace_bound: int):
        _check_lift_source(source)
        if trace_bound < 2:
            raise LiftSupportError(
                f"trace bound {trace_bound} yields an empty expansion (needs >= 2)"
            )
        super().__init__(source.k_half + 1, trace_bound, {})
        self.source = source
        self.provenance = {}  # FourierIndex -> tuple of (p, degree)
        self._classes = {}  # (disc, content) -> (value, provenance)

    def _lookup(self, red: FourierIndex) -> Fraction:
        if red not in self.table:
            if not red.is_positive_definite():
                return Fraction(0)
            key = (red.disc, red.content)
            if key not in self._classes:
                prov = []
                self._classes[key] = lift_coeff(self.source, red, prov), tuple(prov)
            self.table[red], self.provenance[red] = self._classes[key]
        return self.table[red]

    def provenance_text(self) -> str:
        lines = ["sklift lift-provenance v1"]
        for T in sorted(self.provenance):
            entries = ",".join(f"{p}:{deg}" for p, deg in self.provenance[T]) or "-"
            lines.append(f"{T.n} {T.r} {T.m} {entries}")
        return "\n".join(lines) + "\n"


def lift_expand(source, trace_bound: int) -> LiftExpansion:
    """The lift of a lift source (see the module docstring), with every
    reduced positive definite T of n + m <= trace_bound read; weight k + 1.
    A lift that vanishes at this truncation raises ``ArithmeticError``.
    """
    F = LiftExpansion(source, trace_bound)
    for T in enumerate_reduced(trace_bound, include_singular=False):
        F.coefficient(T)
    if F.is_zero():
        raise ArithmeticError("lift vanished identically at this truncation")
    return F


class MaassReport(NamedTuple):
    exponent: int | None
    checked: int
    failures: list[FourierIndex]

    @property
    def passed(self) -> bool:
        return self.exponent is not None and self.checked > 0


def maass_check(F: SiegelExpansion, k: int) -> MaassReport:
    """Verify A(n,r,m) = sum_{d | gcd(n,r,m)} d^k A(nm/d^2, r/d, 1).

    The exponent is k, as for a Maass lift of weight k+1; ``failures`` lists
    every index where the relation breaks.  Only indices whose right-hand
    side stays inside the trace bound are checked.
    """
    rows = []
    for T in F.reduced_indices():
        if not T.is_positive_definite():
            continue
        if T.n * T.m + 1 > F.trace_bound:
            continue
        rows.append(T)
    failures = []
    for T in rows:
        rhs = 0
        for d in divisors(T.content):
            rhs += d**k * F.coefficient(FourierIndex((T.n * T.m) // (d * d), T.r // d, 1))
        if rhs != F.coefficient(T):
            failures.append(T)
    return MaassReport(exponent=None if failures else k, checked=len(rows), failures=failures)


def hecke_ratio(F: SiegelExpansion, FP: SiegelExpansion) -> tuple[Fraction, int]:
    """The constant FP(T)/F(T) and how many nonzero F(T) read it; at least two, or it raises.

    T runs over the reduced indices within FP's bound.
    """
    ratio, tested, bad = proportionality(
        (T, FP.coefficient(T), F.coefficient(T)) for T in enumerate_reduced(FP.trace_bound)
    )
    if bad is not None:
        raise ArithmeticError(f"image not proportional at {bad} (ratio {ratio} before it)")
    if not tested:
        raise ArithmeticError(f"ratio {ratio} is read at fewer than two nonzero coefficients")
    return ratio, tested + 1
