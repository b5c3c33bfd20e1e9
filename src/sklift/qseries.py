"""Truncated q-expansions with exact rational coefficients.

A ``QSeries`` holds coefficients of q^0 .. q^N0 for a fixed truncation N0;
reading past the truncation raises instead of silently extending with zeros.

Products of integer coefficient lists route through one convolution based
on Kronecker substitution in base 10^w.  Each coefficient c is written as
its biased digit c + 10^w / 2, so a coefficient list becomes one string of
decimal digits with no sign in it; the string is read into a
``decimal.Decimal`` (a linear-time conversion) and the bias comes off as one
exact ``Decimal``.  The two operands are multiplied once by libmpdec, whose
multiplication uses a number-theoretic transform for large operands, and the
low digits the caller keeps are cut from the product by exact exponent shifts
and read back from their own decimal string; the discarded high digits are
never written out.  A product holds few large buffers at once: a digit
string dies once its ``Decimal`` exists, the packed operands once the
product exists, and the product once its biased copy exists.  So the
multiply, with the two packed operands and the transform's arrays, is the
peak.  A context of maximal precision that traps ``Inexact`` keeps every
step exact.  The cusp basis works on the integer coefficient
lists ``delta_ints`` (Delta from Jacobi's identity) and ``eisenstein_ints``
(E_w scaled by the numerator of B_w), echelonizes them in integers and
makes one Fraction per coefficient at the end.  ``QSeries`` wraps only the
values that are not Fractions yet.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .arith import bernoulli

__all__ = [
    "QSeries",
    "TruncationError",
    "eisenstein_series",
    "eisenstein_ints",
    "delta_ints",
]


class TruncationError(ValueError):
    pass


# Exact integer arithmetic in the decimal module: no operation here may round.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = True


def _bias(width: int, count: int) -> decimal.Decimal:
    """sum_{i < count} (10^width / 2) 10^(width i): the bias of ``count`` digits, count >= 1.

    It is built by doubling, half + half 10^(width count // 2), with one more
    digit for an odd count, so no digit string is written for it.
    """
    if count == 1:
        return _EXACT.scaleb(5, width - 1)
    half = _bias(width, count // 2)
    bias = _EXACT.add(half, _EXACT.scaleb(half, width * (count // 2)))
    return _EXACT.add(bias, _EXACT.scaleb(5, width * count - 1)) if count % 2 else bias


_BLOCK = 256  # coefficients formatted per piece of a packed digit string


def _pack(coeffs: list[int], width: int) -> decimal.Decimal:
    """sum c_i 10^(width i) for signed c_i with |c_i| < 10^width / 2.

    Each c_i is written as its biased digit c_i + 10^width / 2, which lies in
    [0, 10^width), so the operand is one string of zero-padded digits, grown
    one block of ``_BLOCK`` coefficients at a time; the bias comes off as one
    exact ``Decimal`` (``_bias``).  The string and its ``Decimal`` are alive
    together, then the ``Decimal``, the bias and the result: the string is
    gone before the bias is built.
    """
    half = 5 * 10 ** (width - 1)
    spec = f"%0{width}d"
    text = ""  # CPython grows a str with one reference in place: no list of pieces beside it
    for i in range(len(coeffs), 0, -_BLOCK):
        block = coeffs[max(i - _BLOCK, 0) : i][::-1]
        text += (spec * len(block)) % tuple([c + half for c in block])
    packed = decimal.Decimal(text)
    del text
    return _EXACT.subtract(packed, _bias(width, len(coeffs)))


def _unpack(n: decimal.Decimal, width: int, count: int) -> list[int]:
    """The first ``count`` signed digits of ``n``, packed as by ``_pack``.

    With M = 10^(width count), n = sum_i c_i 10^(width i) is congruent to its
    low ``count`` digits mod M.  Adding 10^width / 2 to each of those digits
    makes it nonnegative and below 10^width, so the biased low part lies in
    [0, M) and is the biased sum reduced mod M.  The reduction is a floor of
    an exponent shift, with no division, and only its width * count decimal
    digits are written out, side by side with no borrows between them; the
    high digits never reach a string.  The caller passes the product as a
    temporary, so it dies once its biased copy exists; the biased copy dies
    once the low part exists, and the low part once its digit string exists.
    The product, its biased copy and the low part are never alive at once.
    """
    half = 5 * 10 ** (width - 1)
    top = width * count
    n = _EXACT.add(n, _bias(width, count))
    quotient = _EXACT.scaleb(n, -top).to_integral_value(decimal.ROUND_FLOOR, _EXACT)
    n = _EXACT.subtract(n, _EXACT.scaleb(quotient, top))
    del quotient
    text = str(n).zfill(top)
    del n
    return [int(text[i - width : i]) - half for i in range(top, 0, -width)]


def _multiply(a: list[int], b: list[int], width: int) -> decimal.Decimal:
    """The product of ``a`` and ``b`` packed; the packed operands die with the call."""
    packed = _pack(a, width)
    return _EXACT.multiply(packed, packed if a is b else _pack(b, width))


def convolve_int(a: list[int], b: list[int], n_out: int) -> list[int]:
    """Exact integer convolution, coefficients 0..n_out of (sum a_i x^i)(sum b_j x^j).

    Kronecker substitution with signed base-10^w digits: each operand is
    packed once into one ``Decimal``, the two are multiplied once (libmpdec
    multiplies large operands by a number-theoretic transform), and only the
    n_out + 1 low digits of the product are read back (see ``_unpack``).  The
    width w is the number of decimal digits of 2 * terms * max|a| * max|b|,
    so every product digit, and every biased digit of the operands, lies in
    [0, 10^w) once 10^w / 2 is added.  A list is copied only when it is cut
    short, the packed operands die when the product exists (``_multiply``),
    and the product when its biased copy exists.  The arithmetic runs in a
    context of maximal precision that traps ``Inexact``: a rounded result
    raises instead of passing.
    """
    square = a is b
    if len(a) > n_out + 1:
        a = a[: n_out + 1]
    if len(b) > n_out + 1:
        b = a if square else b[: n_out + 1]
    max_a = max((abs(x) for x in a), default=0)
    max_b = max_a if square else max((abs(x) for x in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * (n_out + 1)
    width = len(str(2 * min(len(a), len(b)) * max_a * max_b))
    count = min(n_out + 1, len(a) + len(b) - 1)
    return _unpack(_multiply(a, b, width), width, count) + [0] * (n_out + 1 - count)


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
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(coeffs) != truncation + 1:
            raise ValueError("need exactly truncation+1 coefficients")
        self.weight = weight
        self.truncation = truncation
        self.coeffs = tuple(coeffs)

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

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        return QSeries(self.weight, self.truncation, [c * x for x in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.weight == other.weight
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QSeries(weight={self.weight}, N0={self.truncation}, [{head}, ...])"

    # -- serialization (bit-exact text format) --------------------------------

    def to_text(self) -> str:
        lines = ["sklift qseries v1", f"weight {self.weight}", f"truncation {self.truncation}"]
        for n, c in enumerate(self.coeffs):
            lines.append(f"{n}:{c.numerator}/{c.denominator}")
        return "\n".join(lines) + "\n"


def eisenstein_series(weight: int, truncation: int) -> QSeries:
    """Level-one Eisenstein series E_w = 1 - (2w/B_w) sum sigma_{w-1}(n) q^n."""
    ints = eisenstein_ints(weight, truncation)
    return QSeries(weight, truncation, [Fraction(c, ints[0]) for c in ints])


def eisenstein_ints(weight: int, truncation: int) -> list[int]:
    """num(B_w) E_w = num(B_w) - 2w den(B_w) sum sigma_{w-1}(n) q^n, in integers."""
    if weight < 4 or weight % 2:
        raise ValueError("weight must be even and >= 4")
    b = bernoulli(weight)
    scale = -2 * weight * b.denominator
    ints = _sigma_list(weight - 1, truncation)
    ints[0] = b.numerator
    for n in range(1, truncation + 1):  # in place: no sigma value is held beside its multiple
        ints[n] *= scale
    return ints


def delta_ints(truncation: int) -> list[int]:
    """Integer coefficients of Delta = q prod (1 - q^n)^24 up to q^truncation.

    Jacobi's identity prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2)
    gives the cube at once; three squarings raise it to the 24th power.
    """
    n = truncation - 1  # Delta / q is needed up to q^(truncation - 1)
    power = [0] * (n + 1)
    k = 0
    while k * (k + 1) // 2 <= n:
        power[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        power = convolve_int(power, power, n)
    return [0] + power

