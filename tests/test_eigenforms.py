import math
from fractions import Fraction

import pytest

from sklift.arith import SqrtExt, row_reduce
from sklift.eigenforms import (
    DimensionGateError,
    ParityGateError,
    cusp_space_basis,
    dim_cusp_forms,
    eigenform,
    hecke_Tp_level1,
    ramanujan_gate,
    satake_power_sum,
)
from sklift.qseries import QSeries, delta_series, eisenstein_series


def test_dimensions_match_basis_construction():
    expected = {10: 0, 12: 1, 14: 0, 16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1, 28: 2, 30: 2}
    for w, d in expected.items():
        assert dim_cusp_forms(w) == d
        assert len(cusp_space_basis(w, 40)) == d


def test_basis_weight_12_is_delta():
    (f,) = cusp_space_basis(12, 24)
    assert f == delta_series(24)


def test_basis_matches_qseries_products():
    # reference: Delta E_4^a E_6^b as Fraction QSeries products, then one echelon
    n0 = 60
    e4, e6 = eisenstein_series(4, n0), eisenstein_series(6, n0)
    dlt = (e4 * e4 * e4 - e6 * e6).scale(Fraction(1, 1728))
    for w in range(12, 62, 2):
        shapes = [(a, (w - 12 - 4 * a) // 6) for a in range((w - 12) // 4 + 1) if (w - 12 - 4 * a) % 6 == 0]
        rows = [list((dlt * e4**a * e6**b).coeffs) for a, b in shapes]
        row_reduce(rows, n0 + 1)
        assert cusp_space_basis(w, n0) == [QSeries(w, n0, row) for row in rows], w


def test_basis_weight_10_empty():
    assert cusp_space_basis(10, 24) == []


def test_basis_echelonized():
    b = cusp_space_basis(24, 30)
    assert b[0].a(1) == 1 and b[0].a(2) == 0
    assert b[1].a(1) == 0 and b[1].a(2) == 1


def test_hecke_T2_on_delta():
    d = delta_series(40)
    t2 = hecke_Tp_level1(d, 2)
    assert t2.agrees(d.scale(-24), upto=t2.truncation)


def test_hecke_on_zero_series():
    z = QSeries.zero(12, 20)
    assert hecke_Tp_level1(z, 3).is_zero()


def test_hecke_eigen_ratio_weight16():
    (f,) = cusp_space_basis(16, 93)
    t3 = hecke_Tp_level1(f, 3)
    lam = t3.a(1)
    for n in range(1, 31):
        assert t3.a(n) == lam * f.a(n)


def test_hecke_commutativity():
    (f,) = cusp_space_basis(18, 40)
    a = hecke_Tp_level1(hecke_Tp_level1(f, 2), 3)
    b = hecke_Tp_level1(hecke_Tp_level1(f, 3), 2)
    assert a == b


def test_eigenform_gates():
    with pytest.raises(ParityGateError):
        eigenform(12)
    with pytest.raises(ParityGateError):
        eigenform(20)
    with pytest.raises(DimensionGateError):
        eigenform(30)  # k = 15 odd but dim S_30 = 2
    with pytest.raises(DimensionGateError):
        eigenform(10)  # k = 5 odd, dim 0


def test_eigenform_first_coefficients():
    # frozen from the echelon basis; values agree with the classical tables
    f18 = eigenform(18, 64)
    assert (f18.a(2), f18.a(3), f18.a(5)) == (-528, -4284, -1025850)
    f22 = eigenform(22, 64)
    assert (f22.a(2), f22.a(3), f22.a(5)) == (-288, -128844, 21640950)
    f26 = eigenform(26, 64)
    assert (f26.a(2), f26.a(3), f26.a(5)) == (-48, -195804, -741989850)


@pytest.mark.parametrize("two_k", [18, 22, 26])
def test_eigenform_multiplicativity(two_k):
    f = eigenform(two_k, 64)
    k = two_k // 2
    assert f.a(1) == 1
    assert f.a(6) == f.a(2) * f.a(3)
    assert f.a(4) == f.a(2) ** 2 - 2 ** (two_k - 1)
    for m, n in ((2, 5), (3, 4), (2, 9), (5, 6), (2, 15), (7, 9)):
        if math.gcd(m, n) == 1 and m * n <= 64:
            assert f.a(m * n) == f.a(m) * f.a(n)


def test_satake_power_sums():
    f = eigenform(18, 64)
    k = 9
    for p in (2, 3, 5):
        s0 = satake_power_sum(f, p, 0)
        assert s0 == 2
        s1 = satake_power_sum(f, p, 1)
        assert s1 == SqrtExt(p, 0, Fraction(f.a(p), p**k))
        s2 = satake_power_sum(f, p, 2)
        assert s2 == s1 * s1 - 2
        # recurrence consistency further out
        s5 = satake_power_sum(f, p, 5)
        assert s5 == s1 * satake_power_sum(f, p, 4) - satake_power_sum(f, p, 3)


def test_satake_parity_structure():
    # p^(m(k-1/2)) s_m is polynomial in a(p), p; the sqrt part dies for even m
    f = eigenform(22, 64)
    for p in (2, 3):
        for m in range(0, 9):
            s = satake_power_sum(f, p, m)
            scaled = SqrtExt.half_power(p, m * (2 * f.k_half - 1)) * s
            assert scaled.u.denominator == 1 and scaled.v.denominator == 1
            if m % 2 == 0:
                assert s.v == 0
            else:
                assert s.u == 0


def test_ramanujan_gate_pass_and_fail():
    f = eigenform(18, 128)
    assert ramanujan_gate(f, 100).passed
    assert ramanujan_gate(f, 1).passed  # vacuous

    class Fake:
        k_half = 9

        def a(self, n):
            return Fraction(10**6) if n == 2 else Fraction(0)

    rep = ramanujan_gate(Fake(), 10)
    assert not rep.passed and rep.violations == [2]


def test_scaling_is_renormalized():
    from sklift.eigenforms import Eigenform

    f = eigenform(18, 64)
    g = Eigenform(9, f.series.scale(Fraction(7, 3)))
    assert g.series == f.series
