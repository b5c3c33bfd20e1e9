import random
from fractions import Fraction

import pytest

from sklift.qseries import (
    QSeries,
    TruncationError,
    convolve_int,
    delta_series,
    eisenstein_series,
)


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
    e4 = eisenstein_series(4, 16)
    e6 = eisenstein_series(6, 16)
    diff = e4**3 - e6**2
    assert diff.a(0) == 0 and diff.a(1) == 1728


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
    d = delta_series(n0)
    oracle = eta24_oracle(n0)
    for n in range(n0):
        assert d.a(n) == oracle[n]
    assert [d.a(i) for i in (1, 2, 3, 4, 5, 6, 7)] == [1, -24, 252, -1472, 4830, -6048, -16744]


def _schoolbook(a, b, n_out):
    return [
        sum(a[i] * b[n - i] for i in range(len(a)) if 0 <= n - i < len(b))
        for n in range(n_out + 1)
    ]


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
    for a, b, n_out in cases:
        assert convolve_int(a, b, n_out) == _schoolbook(a, b, n_out), (a, b, n_out)


def test_power_starts_from_the_base(monkeypatch):
    import sklift.qseries as qs

    e4 = eisenstein_series(4, 12)
    calls = []
    real = qs.convolve_int
    monkeypatch.setattr(qs, "convolve_int", lambda a, b, n: calls.append(n) or real(a, b, n))
    chain = QSeries(0, 12, [1] + [0] * 12)
    for e in range(7):
        calls.clear()
        assert e4**e == chain
        # squarings plus multiplications into the result, none by the one-series
        assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)
        chain = chain * e4


def test_truncation_discipline():
    e4 = eisenstein_series(4, 10)
    e6 = eisenstein_series(6, 5)
    prod = e4 * e6
    assert prod.truncation == 5 and prod.weight == 10
    with pytest.raises(TruncationError):
        prod.a(6)
    with pytest.raises(TruncationError):
        prod.truncate(9)


def test_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        eisenstein_series(4, 5) + eisenstein_series(6, 5)


def test_scale_and_zero():
    z = QSeries.zero(12, 6)
    assert z.is_zero()
    d = delta_series(6)
    assert (d.scale(3).scale(Fraction(1, 3))) == d


def test_serialization_roundtrip():
    d = delta_series(9).scale(Fraction(7, 13))
    text = d.to_text()
    back = QSeries.from_text(text)
    assert back == d
    assert back.to_text() == text
