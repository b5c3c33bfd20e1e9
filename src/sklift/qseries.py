"""Truncated q-expansions with exact rational coefficients.

A ``QSeries`` holds coefficients of q^0 .. q^N0 for a fixed truncation N0.
Arithmetic between series truncates to the smaller N0; reading past the
truncation raises instead of silently extending with zeros.

Products route through an integer convolution based on Kronecker
substitution: each coefficient array is packed once into one signed big
integer, the two are multiplied once, and the product's signed digits are
read back.  The cusp basis works on the integer coefficient lists of E_4,
E_6 and Delta (``modular_ints``) and makes Fractions only for the echelon.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import bernoulli

__all__ = ["QSeries", "TruncationError", "eisenstein_series", "delta_series", "modular_ints"]


class TruncationError(ValueError):
    pass


def _pack(coeffs: list[int], width: int) -> int:
    """sum c_i 2^(8 width i) for signed c_i with |c_i| < 2^(8 width - 1)."""
    raw = b"".join(c.to_bytes(width, "little", signed=True) for c in coeffs)
    # a negative digit went in as c + 2^(8 width): take those carries back out
    one, zero = (1).to_bytes(width, "little"), bytes(width)
    carries = b"".join(one if c < 0 else zero for c in coeffs)
    return int.from_bytes(raw, "little") - (int.from_bytes(carries, "little") << 8 * width)


def _unpack(n: int, width: int, count: int) -> list[int]:
    """The first ``count`` signed digits of ``n`` packed as by ``_pack``.

    Adding 2^(8 width - 1) to every digit makes each one nonnegative and
    below 2^(8 width), so masking to ``count`` digits leaves them borrow-free.
    """
    half = 1 << 8 * width - 1
    bias = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    raw = ((n + bias) & ((1 << 8 * width * count) - 1)).to_bytes(width * count, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, width * count, width)]


def convolve_int(a: list[int], b: list[int], n_out: int) -> list[int]:
    """Exact integer convolution, coefficients 0..n_out of (sum a_i x^i)(sum b_j x^j).

    Kronecker substitution with signed digits: each operand is packed once
    into one big integer, the two are multiplied once (a squaring when
    ``a is b``), and the product's digits are read back.
    """
    square = a is b
    a = a[: n_out + 1]
    b = a if square else b[: n_out + 1]
    max_a = max((abs(x) for x in a), default=0)
    max_b = max_a if square else max((abs(x) for x in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * (n_out + 1)
    # every product digit is below terms * max_a * max_b in absolute value
    bound = min(len(a), len(b)) * max_a * max_b
    width = bound.bit_length() // 8 + 1
    A = _pack(a, width)
    product = A * A if square else A * _pack(b, width)
    return _unpack(product, width, n_out + 1)


def _sigma_list(e: int, n: int) -> list[int]:
    """[sigma_e(0)=0, sigma_e(1), ..., sigma_e(n)] by divisor sieve."""
    s = [0] * (n + 1)
    for d in range(1, n + 1):
        dp = d**e
        for j in range(d, n + 1, d):
            s[j] += dp
    return s


class QSeries:
    """Exact truncated power series sum_{n<=N0} a(n) q^n with a weight tag."""

    __slots__ = ("weight", "truncation", "coeffs")

    def __init__(self, weight: int, truncation: int, coeffs):
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != truncation + 1:
            raise ValueError("need exactly truncation+1 coefficients")
        self.weight = weight
        self.truncation = truncation
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, weight: int, truncation: int) -> "QSeries":
        return cls(weight, truncation, [0] * (truncation + 1))

    def a(self, n: int) -> Fraction:
        if n < 0:
            return Fraction(0)
        if n > self.truncation:
            raise TruncationError(f"coefficient {n} beyond truncation {self.truncation}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, n0: int) -> "QSeries":
        if n0 > self.truncation:
            raise TruncationError("cannot extend a series")
        return QSeries(self.weight, n0, self.coeffs[: n0 + 1])

    def _common(self, other: "QSeries") -> int:
        return min(self.truncation, other.truncation)

    def __add__(self, other: "QSeries") -> "QSeries":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        n0 = self._common(other)
        return QSeries(
            self.weight, n0, [x + y for x, y in zip(self.coeffs, other.coeffs)][: n0 + 1]
        )

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries(self.weight, self.truncation, [-c for c in self.coeffs])

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        return QSeries(self.weight, self.truncation, [c * x for x in self.coeffs])

    def __mul__(self, other: "QSeries") -> "QSeries":
        n0 = self._common(other)
        da = math.lcm(*(c.denominator for c in self.coeffs[: n0 + 1]))
        db = math.lcm(*(c.denominator for c in other.coeffs[: n0 + 1]))
        ia = [int(c * da) for c in self.coeffs[: n0 + 1]]
        ib = ia if other is self else [int(c * db) for c in other.coeffs[: n0 + 1]]
        prod = convolve_int(ia, ib, n0)
        dd = da * db
        return QSeries(self.weight + other.weight, n0, [Fraction(c, dd) for c in prod])

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError("negative powers not supported")
        if e == 0:
            return QSeries(0, self.truncation, [1] + [0] * self.truncation)
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.weight == other.weight
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.weight, self.truncation, self.coeffs))

    def agrees(self, other: "QSeries", upto: int | None = None) -> bool:
        n0 = min(self.truncation, other.truncation)
        if upto is not None:
            n0 = min(n0, upto)
        return self.coeffs[: n0 + 1] == other.coeffs[: n0 + 1]

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QSeries(weight={self.weight}, N0={self.truncation}, [{head}, ...])"

    # -- serialization (bit-exact text format) --------------------------------

    def to_text(self) -> str:
        lines = ["sklift qseries v1", f"weight {self.weight}", f"truncation {self.truncation}"]
        for n, c in enumerate(self.coeffs):
            lines.append(f"{n}:{c.numerator}/{c.denominator}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "QSeries":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0] != "sklift qseries v1":
            raise ValueError("bad header")
        weight = int(lines[1].split()[1])
        trunc = int(lines[2].split()[1])
        coeffs = [Fraction(0)] * (trunc + 1)
        for ln in lines[3:]:
            idx, val = ln.split(":")
            num, den = val.split("/")
            coeffs[int(idx)] = Fraction(int(num), int(den))
        return cls(weight, trunc, coeffs)


def eisenstein_series(weight: int, truncation: int) -> QSeries:
    """Level-one Eisenstein series E_w = 1 - (2w/B_w) sum sigma_{w-1}(n) q^n."""
    if weight < 4 or weight % 2:
        raise ValueError("weight must be even and >= 4")
    factor = Fraction(-2 * weight) / bernoulli(weight)
    sig = _sigma_list(weight - 1, truncation)
    coeffs = [Fraction(1)] + [factor * sig[n] for n in range(1, truncation + 1)]
    return QSeries(weight, truncation, coeffs)


def modular_ints(truncation: int) -> tuple[list[int], list[int], list[int]]:
    """Integer coefficients of E_4 = 1 + 240 sigma_3, E_6 = 1 - 504 sigma_5
    and Delta = (E_4^3 - E_6^2)/1728, each up to q^truncation."""
    n = truncation
    e4 = [1] + [240 * s for s in _sigma_list(3, n)[1:]]
    e6 = [1] + [-504 * s for s in _sigma_list(5, n)[1:]]
    e4_cube = convolve_int(convolve_int(e4, e4, n), e4, n)
    e6_square = convolve_int(e6, e6, n)
    return e4, e6, [(x - y) // 1728 for x, y in zip(e4_cube, e6_square)]


def delta_series(truncation: int) -> QSeries:
    """The discriminant cusp form (E_4^3 - E_6^2)/1728."""
    return QSeries(12, truncation, modular_ints(truncation)[2])
