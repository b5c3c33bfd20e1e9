import math
from fractions import Fraction

import pytest

from sklift.arith import SqrtExt
from sklift.eigenforms import (
    DimensionGateError,
    ParityGateError,
    cusp_space_basis,
    dim_cusp_forms,
    eigenform,
    hecke_Tp_level1,
    ramanujan_gate,
)
from sklift.qseries import QSeries, delta_ints, eisenstein_series

from echelon_reference import row_reduce
from lift_reference import power_sum
from qseries_reference import e4_cubed_minus_e6_squared, integer_coeffs, schoolbook


def test_dimensions_match_basis_construction():
    expected = {10: 0, 12: 1, 14: 0, 16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1, 28: 2, 30: 2}
    for w, d in expected.items():
        assert dim_cusp_forms(w) == d
        assert len(cusp_space_basis(w, 40)) == d


def test_basis_weight_12_is_delta():
    (f,) = cusp_space_basis(12, 24)
    assert f == QSeries(12, 24, delta_ints(24))


def test_basis_matches_qseries_products():
    # reference: Delta E_4^a E_6^b as schoolbook products, with
    # Delta = (E_4^3 - E_6^2) / 1728, then one echelon
    n0 = 60
    dlt = [c // 1728 for c in e4_cubed_minus_e6_squared(n0)]
    powers = {}
    for w0 in (4, 6):
        e = integer_coeffs(eisenstein_series(w0, n0))
        powers[w0] = [[1] + [0] * n0]
        while len(powers[w0]) <= n0 // w0:
            powers[w0].append(schoolbook(powers[w0][-1], e, n0))
    for w in range(12, 62, 2):
        shapes = [(a, (w - 12 - 4 * a) // 6) for a in range((w - 12) // 4 + 1) if (w - 12 - 4 * a) % 6 == 0]
        rows = [
            [Fraction(c) for c in schoolbook(schoolbook(dlt, powers[4][a], n0), powers[6][b], n0)]
            for a, b in shapes
        ]
        row_reduce(rows, n0 + 1)
        assert cusp_space_basis(w, n0) == [QSeries(w, n0, row) for row in rows], w


def test_basis_weight_26_takes_four_products(monkeypatch):
    # three squarings for Delta, one product by E_14
    import sklift.eigenforms as ef
    import sklift.qseries as qs

    calls = []
    real = qs.convolve_int

    def counting(a, b, n):
        calls.append(n)
        return real(a, b, n)

    monkeypatch.setattr(qs, "convolve_int", counting)
    monkeypatch.setattr(ef, "convolve_int", counting)
    (f,) = cusp_space_basis(26, 300)
    assert len(calls) == 4
    assert f.a(1) == 1 and f.a(2) == -48


def test_basis_weight_10_empty():
    assert cusp_space_basis(10, 24) == []


def test_basis_echelonized():
    b = cusp_space_basis(24, 30)
    assert b[0].a(1) == 1 and b[0].a(2) == 0
    assert b[1].a(1) == 0 and b[1].a(2) == 1


def test_hecke_T2_on_delta():
    d = QSeries(12, 40, [c // 1728 for c in e4_cubed_minus_e6_squared(40)])
    t2 = hecke_Tp_level1(d, 2)
    assert t2.coeffs == d.scale(-24).coeffs[: t2.truncation + 1]


def test_hecke_on_zero_series():
    z = QSeries(12, 20, [0] * 21)
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


@pytest.mark.parametrize("n", [2, 7, 17, 30])
def test_eigenform_rejects_corrupted_coefficient(monkeypatch, n):
    import sklift.eigenforms as E

    real = E.cusp_space_basis

    def corrupted(two_k, truncation):
        (f,) = real(two_k, truncation)
        coeffs = list(f.coeffs)
        coeffs[n] += 1
        return [QSeries(f.weight, f.truncation, coeffs)]

    monkeypatch.setattr(E, "cusp_space_basis", corrupted)
    with pytest.raises(ArithmeticError):
        eigenform(26, 3600)


def test_eigenform_needs_a_tested_hecke_eigenvalue(monkeypatch):
    import sklift.eigenforms as E

    # truncation 3 leaves no prime p with b(1..2) of T_p to compare
    with pytest.raises(ArithmeticError, match="tests no T_p eigenvalue"):
        eigenform(18, 3)
    # with a(2) = 0 and a(4) = -2^17, T_2 at truncation 4 reads b(1) = a(2) = 0
    # over a(1) = 1, which only fixes the eigenvalue, and b(2) = a(4) + 2^17 a(1)
    # = 0 over a(2) = 0, which tests nothing
    real = E.cusp_space_basis

    def zero_a2(two_k, truncation):
        (f,) = real(two_k, truncation)
        coeffs = list(f.coeffs)
        coeffs[2], coeffs[4] = 0, -(2**17)
        return [QSeries(f.weight, f.truncation, coeffs)]

    monkeypatch.setattr(E, "cusp_space_basis", zero_a2)
    with pytest.raises(ArithmeticError, match="tests no T_p eigenvalue"):
        eigenform(18, 4)


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
        s0 = power_sum(f, p, 0)
        assert s0 == 2
        s1 = power_sum(f, p, 1)
        assert s1 == SqrtExt(p, 0, Fraction(f.a(p), p**k))
        s2 = power_sum(f, p, 2)
        assert s2 == s1 * s1 - 2
        # recurrence consistency further out
        s5 = power_sum(f, p, 5)
        assert s5 == s1 * power_sum(f, p, 4) - power_sum(f, p, 3)


def test_satake_parity_structure():
    # p^(m(k-1/2)) s_m is polynomial in a(p), p; the sqrt part dies for even m
    f = eigenform(22, 64)
    for p in (2, 3):
        for m in range(0, 9):
            s = power_sum(f, p, m)
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


def test_eigenform_construction_runs_ramanujan_gate():
    # a(2) = 10^9 breaks a(2)^2 <= 4 * 2^17, so no such Eigenform exists
    from sklift.eigenforms import Eigenform

    coeffs = list(eigenform(18, 64).series.coeffs)
    coeffs[2] = 10**9
    with pytest.raises(ArithmeticError, match="Ramanujan gate failed"):
        Eigenform(9, QSeries(18, 64, coeffs))
