import pytest

from sklift.lfactor import (
    SatakeMultiset,
    SymMonomial,
    arthur_dims,
    cap_check,
    cap_induced_multiset,
    factored_rhs,
    miyawaki_check,
    satake_degree,
    standard_satake,
)

ALL_CASES = (
    [("Sp4n", n) for n in (1, 2, 3)]
    + [("SU2n+1", n) for n in (1, 2, 3)]
    + [("SU2nH", n) for n in (1, 2, 3)]
    + [("E73", 1)]
)


def test_monomial_group_structure():
    a = SymMonomial(a=1, half=3)
    b = SymMonomial(b=2, chi=1)
    assert a * a.inverse() == SymMonomial()
    assert (a * b).inverse() == a.inverse() * b.inverse()
    assert (b * b).chi == 0  # chi is an order-2 sign


@pytest.mark.parametrize("G,n", ALL_CASES)
def test_theorem2_identity(G, n):
    ms = standard_satake(G, n)
    assert len(ms) == satake_degree(G, n)
    assert ms.is_self_dual()
    assert ms.euler_factor() == factored_rhs(G, n)


def test_degree_bookkeeping():
    assert satake_degree("Sp4n", 1) == 5
    assert satake_degree("Sp4n", 2) == 9
    assert satake_degree("SU2n+1", 1) == 12
    assert satake_degree("SU2nH", 1) == 4
    assert satake_degree("E73", 1) == 56


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        standard_satake("SO10", 1)
    with pytest.raises(ValueError):
        standard_satake("Sp4n", 0)


def test_euler_factor_constant_term_and_degree():
    ms = standard_satake("Sp4n", 2)
    fac = ms.euler_factor()
    assert fac.degree == 9
    assert fac.coeffs[0].monomials() == {(0, 0, 0, 0): 1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cap_equality(n):
    rep = cap_check(n)
    assert rep.passed, rep.details


def test_cap_negative_control_wrong_shift():
    wrong = cap_induced_multiset(1, shifts_half=[3])  # n + 3/2 - j instead
    assert wrong != standard_satake("Sp4n", 1)


def test_arthur_dims():
    rep = arthur_dims()
    assert rep.passed
    assert "total 56 inside Sp_56" in rep.details[-1]


def test_miyawaki():
    rep = miyawaki_check()
    assert rep.passed, rep.details


def test_miyawaki_satake_set_is_12_and_self_dual():
    # rebuild the set independently of the check function
    entries = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            entries.append(SymMonomial(a=s1, b=s2))
    entries += [SymMonomial(), SymMonomial()]
    for i in (1, 2, 3):
        entries += [SymMonomial(half=2 * i), SymMonomial(half=-2 * i)]
    ms = SatakeMultiset(entries)
    assert len(ms) == 12 and ms.is_self_dual()


def test_report_text_format():
    rep = arthur_dims()
    text = rep.to_text()
    assert text.startswith("sklift report v1\ncheck arthur-dims-e73 : PASS")
