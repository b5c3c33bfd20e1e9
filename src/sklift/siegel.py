"""Degree-2 Siegel expansions.

Semi-integral Fourier indices T = [n, r/2; r/2, m] with D_T = 4nm - r^2,
GL_2(Z) reduction to 0 <= r <= n <= m, Cohen's H function, Eisenstein
Fourier coefficients (``EisensteinExpansion`` computes each on its first
read), the Phi (boundary) operator and the degree-2 T(p) action on
coefficient tables.

Eisenstein coefficients come in two normalizations:

* ``eisenstein_coeff``  -- constant term 1.  Rank-1 coefficients then match
  the degree-1 Eisenstein series (so Phi is a strict left inverse), and the
  rank-2 coefficients carry the weight constant
  ``eisenstein_normalizer(l) = 2 / (zeta(1-l) zeta(3-2l))`` in front of the
  Cohen divisor sum.  (Check: weight 4 gives -60480 and the classical values
  A(1,1,1) = 13440, A(1,0,1) = 30240.)
* the "arithmetic" normalization ``eisenstein_coeff_arithmetic`` -- rank-2
  coefficient exactly L(1-k, chi) * (divisor sum of Cohen numbers), the
  shape the lift engine interpolates against.

Both are needed: with the constant omitted the Phi / Fourier-Jacobi / Hecke
validation triangle cannot close (the rank <= 1 and rank 2 layers would sit
in different scalings and the result would not be an eigenform).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import (
    _kronecker_prime,
    bernoulli,
    dirichlet_L_neg,
    divisors,
    factorize,
    fundamental_split,
    sigma,
)

__all__ = [
    "FourierIndex",
    "reduce_index",
    "cohen_H",
    "cohen_divisor_sum",
    "eisenstein_normalizer",
    "eisenstein_coeff",
    "eisenstein_coeff_arithmetic",
    "SiegelExpansion",
    "EisensteinExpansion",
    "eisenstein_expansion",
    "enumerate_reduced",
    "phi_operator",
    "hecke_Tp_degree2",
]


class FourierIndex(NamedTuple):
    """Semi-integral index T = [n, r/2; r/2, m]."""

    n: int
    r: int
    m: int

    @property
    def disc(self) -> int:
        """D_T = det(2T) = 4nm - r^2."""
        return 4 * self.n * self.m - self.r * self.r

    @property
    def content(self) -> int:
        return math.gcd(self.n, self.r, self.m)

    @property
    def trace(self) -> int:
        return self.n + self.m

    def is_positive_definite(self) -> bool:
        return self.n > 0 and self.disc > 0

    def is_positive_semidefinite(self) -> bool:
        return self.n >= 0 and self.m >= 0 and self.disc >= 0

    def is_reduced(self) -> bool:
        return 0 <= self.r <= self.n <= self.m

    def scale(self, c: int) -> "FourierIndex":
        return FourierIndex(c * self.n, c * self.r, c * self.m)

    def transform(self, U) -> "FourierIndex":
        """t(U) T U for U = ((a, b), (c, d)) with integer entries."""
        (a, b), (c, d) = U
        return FourierIndex(*_transform(*self, a, b, c, d))


def _transform(n: int, r: int, m: int, a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    # quadratic form Q(x, y) = n x^2 + r x y + m y^2 composed with U = ((a, b), (c, d))
    n2 = n * a * a + r * a * c + m * c * c
    m2 = n * b * b + r * b * d + m * d * d
    r2 = 2 * n * a * b + r * (a * d + b * c) + 2 * m * c * d
    return n2, r2, m2


def reduce_index(T: FourierIndex):
    """GL_2(Z)-reduce T to the unique 0 <= r <= n <= m representative.

    Returns (reduced, U) with transform(U) of T equal to the reduced index;
    both are checked before returning, the transform as a tuple.
    U = ((a, b), (c, d)) is tracked as four ints, each step multiplying it
    on the right by a generator.  Indefinite input is rejected.
    """
    n, r, m = T
    disc = 4 * n * m - r * r
    if n < 0 or m < 0 or disc < 0:
        raise ValueError(f"index {T} is not positive semidefinite")
    a, b, c, d = 1, 0, 0, 1
    while True:
        if n > m:
            # U <- U ((0, 1), (1, 0))
            n, m = m, n
            a, b, c, d = b, a, d, c
            continue
        if n == 0:
            break  # D >= 0 forces r = 0 here
        if not -n < r <= n:
            # U <- U ((1, t), (0, 1))
            t = (n - r) // (2 * n)
            m = m + r * t + n * t * t
            r = r + 2 * n * t
            b += a * t
            d += c * t
            continue
        if r < 0:
            # U <- U ((1, 0), (0, -1))
            r = -r
            b, d = -b, -d
        break
    assert 0 <= r <= n <= m and 4 * n * m - r * r == disc
    assert _transform(*T, a, b, c, d) == (n, r, m)
    return FourierIndex(n, r, m), ((a, b), (c, d))


@lru_cache(maxsize=None)
def cohen_H(r: int, N: int) -> Fraction:
    """Cohen's function H(r, N).

    H(r, 0) = zeta(1 - 2r); for N > 0 with -N = D f^2 (D fundamental),

        H(r, N) = L(1-r, chi_D) * sum_{d | f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d);

    N = 1, 2 mod 4 gives 0 (no discriminant -N).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return -bernoulli(2 * r) / (2 * r)
    if N % 4 in (1, 2):
        return Fraction(0)
    D, f, _ = fundamental_split(-N)
    return dirichlet_L_neg(r, D) * cohen_divisor_sum(r, D, f)


@lru_cache(maxsize=None)
def cohen_divisor_sum(r: int, D: int, f: int) -> int:
    """sum_{d | f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d), the integer that
    multiplies L(1-r, chi_D) in H(r, -D f^2).

    The sum is multiplicative in f, so it is taken as the Euler product over
    p^e || f of sigma_{2r-1}(p^e) - chi_D(p) p^(r-1) sigma_{2r-1}(p^(e-1)).
    """
    total = 1
    for p, e in factorize(f).items():
        q = p ** (2 * r - 1)
        lower = (q**e - 1) // (q - 1)  # sigma_{2r-1}(p^(e-1)); sigma_{2r-1}(p^e) is lower + q^e
        total *= lower + q**e - _kronecker_prime(D, p) * p ** (r - 1) * lower
    return total


@lru_cache(maxsize=None)
def eisenstein_normalizer(weight: int) -> Fraction:
    """2 / (zeta(1-l) zeta(3-2l)), the rank-2 constant for constant term 1."""
    z1 = -bernoulli(weight) / weight
    z2 = -bernoulli(2 * weight - 2) / (2 * weight - 2)
    return 2 / (z1 * z2)


def _check_eisenstein_weight(k: int) -> int:
    weight = k + 1
    if weight % 2 or weight < 4:
        raise ValueError(f"k={k} gives weight {weight}; need even weight >= 4")
    return weight


def _rank1_coeff(weight: int, g: int) -> Fraction:
    # g-th coefficient of the degree-1 Eisenstein series E_weight
    return Fraction(-2 * weight) / bernoulli(weight) * sigma(weight - 1, g)


def eisenstein_coeff_arithmetic(k: int, T: FourierIndex) -> Fraction:
    """Rank-2 Eisenstein coefficient, arithmetic normalization.

    sum_{d | content(T)} d^(l-1) H(l-1, D_T/d^2) with l = k+1; for content 1
    this is exactly L(1-k, chi_{D_T}) times the conductor divisor sum, the
    shape the interpolation engine consumes.
    """
    _check_eisenstein_weight(k)
    if not T.is_positive_definite():
        raise ValueError("arithmetic normalization is defined for rank 2 indices")
    total = 0
    D = T.disc
    for d in divisors(T.content):
        total += d**k * cohen_H(k, D // (d * d))
    return total


def eisenstein_coeff(k: int, T: FourierIndex) -> Fraction:
    """Fourier coefficient A(T) of the weight k+1 degree-2 Eisenstein series,
    normalized to constant term A(0) = 1."""
    return _reduced_eisenstein_coeff(_check_eisenstein_weight(k), reduce_index(T)[0])


def _reduced_eisenstein_coeff(weight: int, red: FourierIndex) -> Fraction:
    if red.m == 0:
        return Fraction(1)
    if red.disc == 0:
        # rank 1: orbit of (g, 0, 0), degree-1 Eisenstein coefficient
        return _rank1_coeff(weight, red.m)
    return eisenstein_normalizer(weight) * eisenstein_coeff_arithmetic(weight - 1, red)


def enumerate_reduced(trace_bound: int, include_singular: bool = True):
    """Reduced indices with n + m <= trace_bound, sorted."""
    out = []
    if include_singular:
        out.append(FourierIndex(0, 0, 0))
        out.extend(FourierIndex(0, 0, m) for m in range(1, trace_bound + 1))
    for n in range(1, trace_bound // 2 + 1):
        for m in range(n, trace_bound - n + 1):
            for r in range(0, n + 1):
                out.append(FourierIndex(n, r, m))  # 4nm - r^2 >= 3n^2 > 0
    return sorted(out)


class RangeError(KeyError):
    pass


_ZERO = Fraction(0)  # what an absent reduced index reads


class SiegelExpansion:
    """Coefficient table over reduced indices within a trace bound.

    Lookups reduce first, so coefficients are well-defined on GL_2(Z) orbits;
    an index already of reduced shape is read as it is.
    A reduced index inside the trace bound but absent from the table reads as
    0 (cuspidal tables only store the positive definite support); indices
    beyond the bound raise.  Subclasses that compute coefficients on demand
    override ``_lookup``, which receives the reduced index within the bound.
    """

    def __init__(self, weight: int, trace_bound: int, table: dict):
        self.weight = weight
        self.trace_bound = trace_bound
        self.table = dict(table)

    def coefficient(self, T: FourierIndex) -> Fraction:
        if not T.is_reduced():  # a reduced shape is semidefinite and its own reduction
            T, _ = reduce_index(T)
        if T.trace > self.trace_bound:
            raise RangeError(f"{T} beyond trace bound {self.trace_bound}")
        return self._lookup(T)

    def _lookup(self, red: FourierIndex) -> Fraction:
        return self.table.get(red, _ZERO)

    def reduced_indices(self):
        return sorted(self.table)

    def is_zero(self) -> bool:
        return not any(self.table.values())

    def __repr__(self):
        return (
            f"SiegelExpansion(weight={self.weight}, bound={self.trace_bound}, "
            f"{len(self.table)} reduced indices)"
        )

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            "sklift siegel-expansion v1",
            "group Sp4",
            f"weight {self.weight}",
            f"trace_bound {self.trace_bound}",
        ]
        for T in sorted(self.table):
            c = self.table[T]
            lines.append(f"{T.n} {T.r} {T.m} {c.numerator}/{c.denominator}")
        return "\n".join(lines) + "\n"


class EisensteinExpansion(SiegelExpansion):
    """The weight k+1 Eisenstein expansion, computed on demand.

    The first read of a reduced index within the trace bound computes its
    ``eisenstein_coeff`` and keeps it in ``table``; later reads of any index
    in the same GL_2(Z) orbit reuse it.
    """

    def __init__(self, k: int, trace_bound: int):
        super().__init__(_check_eisenstein_weight(k), trace_bound, {})

    def _lookup(self, red: FourierIndex) -> Fraction:
        if red not in self.table:
            self.table[red] = _reduced_eisenstein_coeff(self.weight, red)
        return self.table[red]


def eisenstein_expansion(k: int, trace_bound: int) -> EisensteinExpansion:
    """The weight k+1 Eisenstein expansion with every reduced T of trace <= bound computed."""
    E = EisensteinExpansion(k, trace_bound)
    for T in enumerate_reduced(trace_bound):
        E.coefficient(T)
    return E


def phi_operator(F: SiegelExpansion) -> "QSeries":
    """Siegel Phi operator: the degree-1 series sum_n A((n,0,0)) q^n.

    Identically zero exactly when F is cuspidal at this truncation.
    """
    from .qseries import QSeries  # only Phi needs it, so ``fj`` never loads it

    coeffs = [F.coefficient(FourierIndex(n, 0, 0)) for n in range(F.trace_bound + 1)]
    return QSeries(F.weight, F.trace_bound, coeffs)


def hecke_Tp_degree2(F: SiegelExpansion, p: int) -> SiegelExpansion:
    """Degree-2 level-one Hecke operator T(p) on coefficient tables.

    Classical normalization (B = coefficient table of T(p)F):

        B(T) = A(pT)
             + p^(l-2) * [ sum_{j mod p, p | Q(j)} A((pn, r-2jn, Q(j)/p))
                           + (p | n) A((n/p, r, pm)) ]
             + p^(2l-3) * (p | content T) A(T/p)

    with Q(j) = m - j r + j^2 n.  On the weight-l Eisenstein series this
    yields the eigenvalue 1 + p^(l-2) + p^(l-1) + p^(2l-3).  Each B(T) is
    summed in ints over the lcm of its terms' denominators, one ``Fraction``
    per image index.
    """
    out_bound = F.trace_bound // p
    if out_bound < 1:
        raise ValueError(
            f"trace bound {F.trace_bound} insufficient for T({p}) (needs >= {p})"
        )
    l = F.weight
    mixed_w, top_w = p ** (l - 2), p ** (2 * l - 3)
    table = {}
    for T in enumerate_reduced(out_bound):
        n, r, m = T.n, T.r, T.m
        terms = [(1, F.coefficient(T.scale(p)))]  # (weight, coefficient)
        for j in range(p):
            Q = m - j * r + j * j * n
            if Q % p == 0:
                terms.append((mixed_w, F.coefficient(FourierIndex(p * n, r - 2 * j * n, Q // p))))
        if n % p == 0:
            terms.append((mixed_w, F.coefficient(FourierIndex(n // p, r, p * m))))
        if T.content % p == 0:
            terms.append((top_w, F.coefficient(FourierIndex(n // p, r // p, m // p))))
        den = math.lcm(*(c.denominator for _, c in terms))
        table[T] = Fraction(sum(w * c.numerator * (den // c.denominator) for w, c in terms), den)
    return SiegelExpansion(l, out_bound, table)
