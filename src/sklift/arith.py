"""Exact arithmetic foundation.

Bernoulli numbers, Kronecker symbols, fundamental-discriminant splitting and
Dirichlet L-values at negative integers, all over ``fractions.Fraction``.
One module-level smallest-prime-factor sieve, grown on demand, serves the
split and the L-values.  ``fundamental_split`` walks it once to write a
discriminant as D_0 f^2; it is the one split behind ``lift.local_data``,
``siegel.cohen_H`` and ``is_fundamental_discriminant``.  L-values return 0
at once for parity-violating pairs and otherwise sum over half the residues
mod |D|, reading chi_D off a character table that the sieve fills without
factoring each residue, and summing in integers.  Also hosts the small
quadratic extension Q(sqrt p), in which ``lift.SymLaurent`` stores the
coefficients of a local factor, and ``proportionality``, the one exact
"num = c * den for a single c" test behind the Hecke, eigenform and
Fourier-Jacobi pattern checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

__all__ = [
    "bernoulli",
    "kronecker",
    "fundamental_split",
    "dirichlet_L_neg",
    "is_fundamental_discriminant",
    "factorize",
    "divisors",
    "sigma",
    "proportionality",
    "SqrtExt",
]


_BERNOULLI = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, convention B_1 = -1/2 (so zeta(1-k) = -B_k/k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        # recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0
        acc = Fraction(0)
        for j, bj in enumerate(_BERNOULLI):
            if bj:
                acc += math.comb(m + 1, j) * bj
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk-scale inputs)."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n)."""
    return sum(d**k for d in divisors(n))


def _kronecker_prime(D: int, p: int) -> int:
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = D % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def kronecker(D: int, m: int) -> int:
    """Kronecker symbol (D/m) for a discriminant D and m >= 1.

    Requires D = 1 or D = 0, 1 mod 4; completely multiplicative in m with
    period |D|.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if D != 1 and D % 4 not in (0, 1):
        raise ValueError(f"{D} is not 1 and not = 0,1 mod 4")
    if D == 1 or m == 1:
        return 1
    out = 1
    for p, e in factorize(m).items():
        s = _kronecker_prime(D, p)
        if s == 0:
            return 0
        if e % 2:
            out *= s
    return out


# smallest prime factor of every a < len(_SPF), with _SPF[1] = 1
_SPF: list[int] = [0, 1]


def _spf_table(n: int) -> list[int]:
    """The smallest-prime-factor sieve, grown (at least doubled) to cover n."""
    if len(_SPF) <= n:
        size = max(n + 1, 2 * len(_SPF))
        spf = list(range(size))
        for p in range(2, math.isqrt(size - 1) + 1):
            if spf[p] == p:
                for q in range(p * p, size, p):
                    if spf[q] == q:
                        spf[q] = p
        _SPF[:] = spf
    return _SPF


def fundamental_split(D: int) -> tuple[int, int, dict[int, int]]:
    """(D_0, f, {p: ord_p f}) with D = D_0 f^2, for a discriminant D != 0, D = 0, 1 mod 4.

    D_0 is 1 or a fundamental discriminant, f > 0, and the primes of f come
    in increasing order.  |D| is factored once from the sieve.  With s the
    signed product of the primes of odd exponent, D_0 is s when s = 1 mod 4
    and 4s otherwise, and ord_p f is half the exponent of p in D / D_0.
    """
    if D == 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is 0 or not = 0,1 mod 4")
    spf = _spf_table(abs(D))
    exponents = {}  # p -> ord_p(D), p increasing
    x, s = abs(D), -1 if D < 0 else 1
    while x > 1:
        p = spf[x]
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        exponents[p] = e
        s *= p ** (e % 2)
    fund = s if s % 4 == 1 else 4 * s
    if fund != s:
        exponents[2] -= 2  # s = 2, 3 mod 4 with D = 0, 1 mod 4 needs 4 | D / s
    ords = {p: e // 2 for p, e in exponents.items() if e > 1}
    cond = math.prod(p**e for p, e in ords.items())
    assert fund * cond * cond == D
    return fund, cond, ords


def is_fundamental_discriminant(D: int) -> bool:
    """D is 1 or the discriminant of a quadratic field: its own ``fundamental_split``.

    |D| must be small enough for the sieve, the scale of the L(1-k, chi_D)
    this predicate guards.
    """
    return D != 0 and D % 4 in (0, 1) and fundamental_split(D)[0] == D


def _character_split(D: int, h: int) -> tuple[list[int], list[int]]:
    """The residues 1 <= a <= h with chi_D(a) = +1, and those with -1.

    chi_D is read at primes from ``_kronecker_prime`` and extended to
    composites by complete multiplicativity along the sieve.
    """
    spf = _spf_table(h)
    chi = [0, 1] + [0] * (h - 1)
    for a in range(2, h + 1):
        p = spf[a]
        chi[a] = _kronecker_prime(D, p) if p == a else chi[p] * chi[a // p]
    plus = [a for a in range(1, h + 1) if chi[a] == 1]
    minus = [a for a in range(1, h + 1) if chi[a] == -1]
    return plus, minus


# m -> [a^m for 0 <= a < len], each grown (at least doubled) on demand
_POWERS: dict[int, list[int]] = {}


def _power_table(m: int, h: int) -> list[int]:
    """a^m for every 0 <= a <= h, and possibly beyond."""
    table = _POWERS.setdefault(m, [])
    if len(table) <= h:
        table.extend(map(pow, range(len(table), max(h + 1, 2 * len(table))), repeat(m)))
    return table


@lru_cache(maxsize=None)
def _bernoulli_terms(k: int) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(j, C(k, j) B_j L)]) over the j <= k with B_j != 0, L the lcm of their denominators."""
    bs = [(j, bernoulli(j)) for j in range(k + 1) if bernoulli(j)]
    L = math.lcm(*(b.denominator for _, b in bs))
    return L, [(j, math.comb(k, j) * b.numerator * (L // b.denominator)) for j, b in bs]


@lru_cache(maxsize=None)
def dirichlet_L_neg(k: int, D: int) -> Fraction:
    """L(1-k, chi_D) for a fundamental discriminant D (or D = 1), once per (k, D).

    The lift reads it once per (D_T, content) class, with D = D_0 of D_T;
    the cache serves the classes that share D_0.

    Computed as -B_{k,chi}/k with the generalized Bernoulli number evaluated
    through the finite sum

        B_{k,chi} = f^{k-1} sum_{a=1}^{f} chi(a) B_k(a/f),   f = |D|,

    which is exact and needs no functional equation.  For D != 1 a pair with
    chi_D(-1) = sign(D) != (-1)^k is a trivial zero and returns 0 at once.
    Otherwise B_k(1-x) = (-1)^k B_k(x) and chi(f-a) = chi(-1) chi(a) make the
    terms at a and f-a equal, so the sum runs over 1 <= a < f/2 and is
    doubled (a = f/2, for even f, has chi = 0).  chi on that half range comes
    from the sieve table of ``_character_split``.  The power sums
    S_m = sum_a chi(a) a^m, over the chi = +1 residues less the chi = -1
    ones, read a^m from one table per exponent m, shared by every D
    (``_power_table``), and the sum over j is taken in integers over
    L, the lcm of the Bernoulli denominators, with one ``Fraction`` at the
    end.  D = 1 keeps the full one-term sum, which gives zeta(0) = -1/2 at
    k = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if D != 1 and not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    f = abs(D)
    if D == 1:
        plus, minus, terms = [1], [], 1
    elif (D < 0) != (k % 2 == 1):
        return Fraction(0)
    else:
        plus, minus = _character_split(D, (f - 1) // 2)
        terms = 2
    L, coeffs = _bernoulli_terms(k)
    total = 0
    for j, c in coeffs:
        power = _power_table(k - j, f // 2 + 1).__getitem__
        total += c * f**j * (sum(map(power, plus)) - sum(map(power, minus)))
    return Fraction(-terms * total, L * f * k)


def proportionality(triples) -> tuple:
    """(c, tested, bad) for num = c * den over (key, num, den) triples of ints or Fractions.

    A zero den needs a zero num.  The first nonzero den fixes c (None before
    it); each later one is cross-multiplied in ints and counted in ``tested``.
    ``bad`` is the key where proportionality first breaks and reading stops, or None.
    """
    c = None
    tested = 0
    for key, num, den in triples:
        if not den:
            if num:
                return c, tested, key
            continue
        a, b = num.numerator * den.denominator, num.denominator * den.numerator
        if c is None:
            c = Fraction(a, b)
            cn, cd = c.numerator, c.denominator
        elif a * cd != cn * b:
            return c, tested, key
        else:
            tested += 1
    return c, tested, None


class SqrtExt:
    """Element u + v*sqrt(p) of Q(sqrt p), exact.

    p is a fixed prime per instance; mixing primes raises.  Holds the
    coefficients of ``lift.SymLaurent`` and half-integral powers p^{e/2}.
    """

    __slots__ = ("p", "u", "v")

    def __init__(self, p: int, u, v=0):
        self.p = p
        self.u = Fraction(u)
        self.v = Fraction(v)

    @classmethod
    def half_power(cls, p: int, e: int) -> "SqrtExt":
        """p**(e/2) for an integer e of either sign."""
        q, r = divmod(e, 2)
        base = Fraction(p) ** q
        return cls(p, base, 0) if r == 0 else cls(p, 0, base)

    def _coerce(self, other) -> "SqrtExt":
        if isinstance(other, SqrtExt):
            if other.p != self.p:
                raise ValueError("mixed sqrt primes")
            return other
        return SqrtExt(self.p, other)

    def __add__(self, other):
        o = self._coerce(other)
        return SqrtExt(self.p, self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return SqrtExt(self.p, self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        return SqrtExt(self.p, o.u - self.u, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        return SqrtExt(
            self.p,
            self.u * o.u + self.p * self.v * o.v,
            self.u * o.v + self.v * o.u,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return SqrtExt(self.p, -self.u, -self.v)

    def __eq__(self, other):
        if isinstance(other, SqrtExt):
            return self.p == other.p and self.u == other.u and self.v == other.v
        return self.v == 0 and self.u == other

    def __hash__(self):
        return hash((self.p, self.u, self.v))

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def rational(self) -> Fraction:
        if self.v != 0:
            raise ValueError(f"irrational residue: {self!r}")
        return self.u

    def __repr__(self):
        return f"SqrtExt(p={self.p}, {self.u} + {self.v}*sqrt({self.p}))"
