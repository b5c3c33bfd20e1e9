import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from sklift import qseries
from sklift.arith import bernoulli
from sklift.qseries import (
    QSeries,
    TruncationError,
    _bias,
    _pack,
    _unpack,
    convolve_int,
    delta_ints,
    eisenstein_ints,
    eisenstein_series,
)

from qseries_reference import e4_cubed_minus_e6_squared, schoolbook


def test_eisenstein_normalization():
    e4 = eisenstein_series(4, 8)
    assert e4.a(0) == 1 and e4.a(1) == 240 and e4.a(2) == 2160
    e6 = eisenstein_series(6, 8)
    assert e6.a(0) == 1 and e6.a(1) == -504
    # non-integral coefficient ratio for weight 12
    e12 = eisenstein_series(12, 4)
    assert e12.a(1) == Fraction(65520, 691)


def test_eisenstein_rejects_bad_weights():
    with pytest.raises(ValueError):
        eisenstein_series(5, 10)
    with pytest.raises(ValueError):
        eisenstein_series(2, 10)


def test_delta_defining_identity():
    # E_4^3 - E_6^2 has constant term 0 and q-coefficient 1728
    diff = e4_cubed_minus_e6_squared(16)
    assert diff[0] == 0 and diff[1] == 1728


def eta24_oracle(n0):
    """tau(n) through q prod (1-q^m)^24 expanded term by term (slow, independent)."""
    coeffs = [Fraction(0)] * (n0 + 1)
    coeffs[0] = Fraction(1)
    for m in range(1, n0 + 1):
        for _ in range(24):
            # multiply by (1 - q^m)
            for i in range(n0, m - 1, -1):
                coeffs[i] -= coeffs[i - m]
    return [Fraction(0)] + coeffs[: n0]  # shift by the leading q


def test_delta_against_eta_product():
    n0 = 24
    d = delta_ints(n0)
    oracle = eta24_oracle(n0)
    for n in range(n0):
        assert d[n] == oracle[n]
    assert [d[i] for i in (1, 2, 3, 4, 5, 6, 7)] == [1, -24, 252, -1472, 4830, -6048, -16744]


def test_delta_ints_against_eta_product():
    n0 = 300
    assert delta_ints(n0) == eta24_oracle(n0)
    assert delta_ints(0) == [0] and delta_ints(1) == [0, 1]


def test_delta_ints_satisfy_defining_identity():
    # E_4^3 - E_6^2 = 1728 Delta, through schoolbook products
    n0 = 200
    assert e4_cubed_minus_e6_squared(n0) == [1728 * c for c in delta_ints(n0)]


@pytest.mark.parametrize("weight", range(4, 28, 2))
def test_eisenstein_ints_are_scaled_series(weight):
    # E_w = 1 - (2w/B_w) sum sigma_{w-1}(n) q^n with each divisor sum taken directly
    n0 = 40
    b = bernoulli(weight)
    sigma = [sum(d ** (weight - 1) for d in range(1, n + 1) if n % d == 0) for n in range(1, n0 + 1)]
    series = [Fraction(1)] + [-2 * weight / b * s for s in sigma]
    assert eisenstein_ints(weight, n0) == [b.numerator * c for c in series]
    assert eisenstein_series(weight, n0).coeffs == tuple(series)


def test_convolution_matches_schoolbook():
    rng = random.Random(3)
    cases = [([0, 0, 0], [5, -7], 4), ([3, 1], [0] * 6, 3), ([-1] * 5, [-(2**70)] * 7, 14)]
    for _ in range(200):
        bits = rng.randint(1, 400)
        a = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 16))]
        if rng.random() < 0.25:
            b = a
        elif rng.random() < 0.2:
            b = [-rng.randint(1, 2**bits) for _ in range(rng.randint(1, 16))]
        else:
            b = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 16))]
        cases.append((a, b, rng.randint(0, len(a) + len(b) + 3)))
        # the read-back of every digit of the product, and of the lowest only
        cases += [(a, b, len(a) + len(b) - 2), (a, b, 0)]
    for a, b, n_out in cases:
        assert convolve_int(a, b, n_out) == schoolbook(a, b, n_out), (a, b, n_out)


def _at_point(coeffs, x, P):
    total = 0
    for c in reversed(coeffs):
        total = (total * x + c) % P
    return total


def test_large_convolution_at_points_mod_prime():
    # 3601-term operands with ~60-digit coefficients, large enough for
    # libmpdec's transform multiplication; schoolbook would take minutes, so
    # each full product is checked at seeded points mod a prime
    P = 2**61 - 1
    rng = random.Random(61)
    a = [rng.randint(-(10**60), 10**60) for _ in range(3601)]
    b = [rng.randint(-(10**60), 10**60) for _ in range(3601)]
    c = [rng.randint(0, 10**59) for _ in range(3601)]
    for x, y in ((a, b), (a, a), (c, b)):
        n_out = len(x) + len(y) - 2
        prod = convolve_int(x, y, n_out)
        assert len(prod) == n_out + 1
        for _ in range(3):
            t = rng.randrange(2, P)
            assert _at_point(prod, t, P) == _at_point(x, t, P) * _at_point(y, t, P) % P


def test_convolution_digits_at_the_edge_of_their_width():
    # w = digits of 2 * terms * max|a| * max|b|; here 2 * max|a| * max|b| is
    # 10^w - 2, so every product digit is +-(10^w / 2 - 1)
    rng = random.Random(10)
    signs = [rng.choice((1, -1)) for _ in range(300)]
    top = 5 * 10**59 - 1
    for a, b in (([7], [7 * s for s in signs]), ([s for s in signs], [top]), ([-top], signs)):
        for n_out in (len(a) + len(b) - 2, len(a) + len(b) + 5):
            got = convolve_int(a, b, n_out)
            assert got == schoolbook(a, b, n_out), (a[:3], b[:3], n_out)
            edge = max(map(abs, got))
            assert all(abs(d) == edge for d in got[: len(a) + len(b) - 1])
            assert not any(got[len(a) + len(b) - 1 :])
    assert convolve_int([1] * 49, [-1] * 49, 100)[48] == -49  # a single digit at the edge


def test_truncated_read_back_below_a_negative_high_part():
    # Only the kept digits are biased, so a product whose discarded digits
    # end in a negative one is negative before the floor: the balanced digits
    # put the sign of the whole in its top nonzero digit
    rng = random.Random(25)
    cases = [([1, -(10**40)], [1, 10**40], n_out) for n_out in (0, 1)]
    for _ in range(40):
        a = [rng.randint(-(10**30), 10**30) for _ in range(rng.randint(2, 12))]
        b = [rng.randint(-(10**30), 10**30) for _ in range(rng.randint(2, 12))]
        a[-1], b[-1] = -(10**30), 10**30 - rng.randint(0, 10)
        cases.append((a, b, rng.randint(0, len(a) + len(b) - 3)))
    for a, b, n_out in cases:
        full = schoolbook(a, b, len(a) + len(b) - 2)
        assert next(c for c in reversed(full[n_out + 1 :]) if c) < 0
        assert convolve_int(a, b, n_out) == full[: n_out + 1], (a, b, n_out)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 255, 256, 257, 1000])
def test_bias_has_the_biased_digit_in_every_place(count):
    # _bias builds sum (10^w / 2) 10^(w i) by doubling; its digit string is the oracle
    for width in (1, 2, 44):
        assert _bias(width, count) == Decimal(str(5 * 10 ** (width - 1)) * count)


def test_pack_and_read_back_at_the_ends_of_the_digit_range():
    # |c| = 10^w / 2 - 1 is the largest coefficient the width rule lets in; its
    # biased digit is 1 or 10^w - 1, an end of [0, 10^w).  The read-back must
    # return the same digits, also below high digits it discards.
    rng = random.Random(28)
    for width in (1, 3, 40):
        edge = 5 * 10 ** (width - 1) - 1
        for count in (1, 2, 255, 256, 257, 600):  # around the block of the pack
            digits = [rng.choice((edge, -edge, 0, rng.randint(-edge, edge))) for _ in range(count)]
            digits[-1] = rng.choice((edge, -edge))
            value = sum(c * 10 ** (width * i) for i, c in enumerate(digits))
            assert _pack(digits, width) == value
            high = rng.choice((1, -1)) * rng.randint(1, 10**20) * 10 ** (width * count)
            for n in (value, value + high):
                assert _unpack(Decimal(n), width, count) == digits


def test_convolution_edge_operands():
    # the kept digits at +-(10^w / 2 - 1) from a length-1 factor +-1 (then w
    # is the digit count of 2 max|a|), operands with every coefficient
    # negative, and length-1 operands
    rng = random.Random(29)
    edge = 5 * 10**39 - 1
    signs = [rng.choice((edge, -edge)) for _ in range(300)]
    negative = [-rng.randint(1, 10**30) for _ in range(300)]
    cases = [(signs, [1], 299), (signs, [-1], 310), ([1], signs, 0), ([-edge], [-1], 2), ([edge], [1], 0)]
    cases += [(negative, negative[:7], 305), (negative, [-3], 10), (negative[:40], negative[40:], 80)]
    cases += [([-5], [-7], 0), ([12], [-1], 4), ([3], [0, 5, -6], 1), ([-(2**200)], [2**199 + 1], 0)]
    for a, b, n_out in cases:
        got = convolve_int(a, b, n_out)
        assert got == schoolbook(a, b, n_out), (a[:3], b[:3], n_out)
        if len(b) == 1 and abs(b[0]) == 1 and max(map(abs, a)) == edge:
            assert all(abs(d) == edge for d in got[: len(a)])


def test_square_packs_its_operand_once(monkeypatch):
    # a is b: one operand is packed for the product, also when it is cut short
    packed = []
    real = qseries._pack
    monkeypatch.setattr(qseries, "_pack", lambda coeffs, width: packed.append(len(coeffs)) or real(coeffs, width))
    rng = random.Random(30)
    negative = [-rng.randint(1, 10**25) for _ in range(200)]
    for a in (negative, [7], [-9], [5, 0, -1, 2**64], [rng.randint(-(10**40), 10**40) for _ in range(300)]):
        for n_out in (0, len(a) - 1, 2 * len(a) - 2, 2 * len(a) + 3):
            packed.clear()
            assert convolve_int(a, a, n_out) == schoolbook(a, a, n_out), (a[:3], n_out)
            assert packed == [min(len(a), n_out + 1)]


def test_product_holds_its_operands_and_the_transform_only():
    # Memory guard for the kernel, on the largest product of `eigenform
    # --weight 26 --prec 3600`.  The multiply sets the peak: while libmpdec
    # multiplies, the two packed operands and its number-theoretic transform
    # are alive and nothing else of the product needs to be, as the digit
    # strings die before it and the read-back starts after the packed operands
    # are gone.  Per decimal digit of the product, D = (3601 + 3601 - 1) w
    # with w = 73:
    #   - the operands hold D digits between them, 19 digits to an 8-byte
    #     word: 8 / 19 = 0.42 bytes;
    #   - the transform holds four arrays (three residues and a copy of the
    #     second operand) of its length, the least 2^k or 3 * 2^(k-1) words
    #     that holds the product's 27 668 words, 2^15: 4 * 8 * 2^15 / D = 1.99
    #     bytes.
    # That is 2.42 bytes per product digit; 2.45 leaves about 1 % for the
    # Python objects of the call.  Anything else held across the multiply,
    # down to a copy of one input list (29 kB), or a pack or read-back that
    # needs more than the multiply, breaks the bound.
    n = 3600
    a, b = delta_ints(n), eisenstein_ints(14, n)
    width = len(str(2 * (n + 1) * max(map(abs, a)) * max(map(abs, b))))
    assert width == 73
    digits = (2 * n + 1) * width
    assert 3 * 2**13 < digits // 19 <= 2**15  # the transform length is 2^15 words
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        convolve_int(a, b, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.45 * digits, peak / digits


def test_truncation_discipline():
    e4 = eisenstein_series(4, 10)
    short = e4.truncate(5)
    assert short.truncation == 5 and short.weight == 4 and short.coeffs == e4.coeffs[:6]
    with pytest.raises(TruncationError):
        short.a(6)
    with pytest.raises(TruncationError):
        short.truncate(9)


def test_scale_and_zero():
    assert QSeries(12, 6, [0] * 7).is_zero()
    e12 = eisenstein_series(12, 6)
    assert not e12.is_zero()
    assert e12.scale(3).scale(Fraction(1, 3)) == e12


def _parse_qseries(text):
    """Weight, truncation and coefficients of a ``QSeries.to_text`` file."""
    header, weight, truncation, *rows = text.splitlines()
    assert header == "sklift qseries v1"
    coeffs = []
    for n, row in enumerate(rows):
        index, value = row.split(":")
        assert int(index) == n
        coeffs.append(Fraction(value))
    return int(weight.split()[1]), int(truncation.split()[1]), coeffs


def test_serialization_roundtrip():
    # the written text determines the series
    e12 = eisenstein_series(12, 9).scale(Fraction(7, 13))
    text = e12.to_text()
    assert QSeries(*_parse_qseries(text)) == e12
