import math
from fractions import Fraction

import pytest

from sklift.eigenforms import eigenform
from sklift.jacobi import (
    ScopeError,
    ThetaComponent,
    dual_cosets,
    fj_component,
    reconstruct_fj,
    theorem_eisen_check,
)
from sklift.lift import lift_expand
from sklift.siegel import (
    EisensteinExpansion,
    FourierIndex,
    SiegelExpansion,
    cohen_H,
    eisenstein_expansion,
    eisenstein_normalizer,
)


def _components(F, S):
    return {xi: fj_component(F, S, xi) for xi in dual_cosets(S)}


def test_dual_cosets():
    assert dual_cosets(1) == [Fraction(0), Fraction(1, 2)]
    assert dual_cosets(2) == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for m in range(1, 21):
        cs = dual_cosets(m)
        assert len(cs) == 2 * m
        assert cs[0] == 0
    with pytest.raises(ValueError):
        dual_cosets(0)


class TestFJComponent:
    def test_eisenstein_components_are_cohen_numbers(self):
        k = 11
        E = eisenstein_expansion(k, 13)
        C = eisenstein_normalizer(k + 1)
        comp0 = fj_component(E, 1, Fraction(0))
        for N in range(0, 12):
            assert comp0.value(4 * N) == C * cohen_H(k, 4 * N)
        comp1 = fj_component(E, 1, Fraction(1, 2))
        for N in range(1, 12):
            assert comp1.value(4 * N - 1) == C * cohen_H(k, 4 * N - 1)

    def test_lift_components_supported_on_positive(self):
        f = eigenform(18, 128)
        F = lift_expand(f, 10)
        comp = fj_component(F, 1, Fraction(0))
        assert comp.value(0) == 0  # cuspidality at exponent 0
        comp1 = fj_component(F, 1, Fraction(1, 2))
        assert comp1.value(3) == F.coefficient(FourierIndex(1, 1, 1))

    def test_zero_expansion(self):
        Z = SiegelExpansion(10, 8, {})
        comp = fj_component(Z, 1, Fraction(1, 2))
        assert all(v == 0 for v in comp.coeffs.values())

    def test_serialization(self):
        f = eigenform(18, 128)
        F = lift_expand(f, 8)
        comp = fj_component(F, 1, Fraction(1, 2))
        text = comp.to_text()
        assert text.startswith("sklift fj-component v1\nS 1\nxi 1/2\noffset_denominator 4\n")
        assert f"3 : {comp.value(3)}" in text


class TestTheoremCheck:
    @pytest.mark.parametrize("k", [9, 11])
    def test_eisenstein_pattern(self, k):
        rep = theorem_eisen_check(k, 1, 25)
        assert rep.passed
        C = eisenstein_normalizer(k + 1)
        assert rep.constants[Fraction(0)] == C
        assert rep.constants[Fraction(1, 2)] == C

    def test_scope_gate(self):
        with pytest.raises(ScopeError):
            theorem_eisen_check(11, 3, 10)

    @pytest.mark.parametrize("bound, untested", [(0, [Fraction(0), Fraction(1, 2)]), (1, [Fraction(1, 2)])])
    def test_one_pattern_value_tests_nothing(self, bound, untested):
        # a coset's first nonzero H(k, .) only fixes its constant: xi = 0 needs
        # H(k, 4) (bound 1) and xi = 1/2 needs H(k, 7) (bound 2) to test it
        rep = theorem_eisen_check(11, 1, bound)
        assert not rep.passed and rep.first_mismatch is None
        assert rep.untested == untested
        assert theorem_eisen_check(11, 1, 2).passed

    def test_detects_corruption(self):
        k = 9
        E = eisenstein_expansion(k, 13)
        E.table[FourierIndex(1, 0, 5)] += 1
        rep = theorem_eisen_check(k, 1, 12, components=_components(E, 1))
        assert not rep.passed
        assert rep.first_mismatch[0] == Fraction(0) and rep.first_mismatch[1] == 5


class TestReconstruction:
    def test_eisenstein_s1(self):
        E = eisenstein_expansion(9, 16)
        rep = reconstruct_fj(E, 1, _components(E, 1))
        assert rep.passed and rep.checked > 100 and rep.skipped == 0

    def test_eisenstein_s2(self):
        E = eisenstein_expansion(9, 14)
        rep = reconstruct_fj(E, 2, _components(E, 2))
        assert rep.passed and rep.checked > 50

    def test_lift(self):
        f = eigenform(18, 128)
        F = lift_expand(f, 12)
        rep = reconstruct_fj(F, 1, _components(F, 1))
        assert rep.passed

    @pytest.mark.parametrize("S", [1, 2, 3])
    @pytest.mark.parametrize("source", ["eisenstein", "lift"])
    def test_every_index_is_checked_or_skipped(self, source, S):
        # each (S, r, N) with N <= bound - S and r^2 <= 4SN is counted once,
        # so no index is dropped silently
        F = EisensteinExpansion(9, 10) if source == "eisenstein" else lift_expand(eigenform(18, 128), 10)
        rep = reconstruct_fj(F, S, _components(F, S))
        total = sum(2 * math.isqrt(4 * S * N) + 1 for N in range(F.trace_bound - S + 1))
        assert rep.passed and rep.checked + rep.skipped == total
        assert rep.checked > rep.skipped

    def test_empty(self):
        Z = SiegelExpansion(10, 6, {})
        rep = reconstruct_fj(Z, 1, _components(Z, 1))
        assert rep.passed


def test_wider_lazy_expansion_shares_its_memo(monkeypatch):
    # the check, the components and the reconstruction read one memo, each
    # coefficient computed once, and a wider bound changes no result
    import sklift.siegel as siegel

    computed = []
    real = siegel._reduced_eisenstein_coeff

    def counting(weight, red):
        computed.append(red)
        return real(weight, red)

    monkeypatch.setattr(siegel, "_reduced_eisenstein_coeff", counting)
    k, bound = 11, 12
    wide = EisensteinExpansion(k, 3 * bound)
    comps = _components(wide, 1)
    rep = theorem_eisen_check(k, 1, bound, components=comps)
    assert reconstruct_fj(wide, 1, comps).passed
    assert len(computed) == len(set(computed)) == len(wide.table)
    assert all(T.n <= 1 for T in wide.table)  # only the index-1 slices were read

    assert rep.passed and rep.constants == theorem_eisen_check(k, 1, bound).constants
    full = eisenstein_expansion(k, 3 * bound)
    assert [c.coeffs for c in comps.values()] == [fj_component(full, 1, xi).coeffs for xi in dual_cosets(1)]
