"""Cross-module negative controls and dual-route guards.

These tests verify that the validation harnesses actually have teeth (they
detect deliberately corrupted data) and that optimized code paths agree with
their straightforward counterparts.
"""

import subprocess
import sys
from fractions import Fraction

import pytest

from sklift.eigenforms import eigenform
from sklift.lfactor import (
    EulerFactor,
    SatakeMultiset,
    SymMonomial,
    _product_of_linears,
    _key,
    standard_satake,
)
from sklift.lift import hecke_ratio, lift_expand
from sklift.siegel import FourierIndex, eisenstein_expansion, hecke_Tp_degree2


def test_hecke_ratio_detects_corruption():
    E = eisenstein_expansion(9, 12)
    img = hecke_Tp_degree2(E, 2)
    img.table[FourierIndex(1, 1, 2)] += 1
    with pytest.raises(ArithmeticError):
        hecke_ratio(E, img)


def test_hecke_ratio_detects_support_mismatch():
    f = eigenform(18, 128)
    F = lift_expand(f, 8)
    img = hecke_Tp_degree2(F, 2)
    img.table[FourierIndex(0, 0, 1)] = Fraction(5)  # cusp image must vanish there
    with pytest.raises(ArithmeticError):
        hecke_ratio(F, img)


def test_linear_product_engine_matches_generic_multiplication():
    for G, n in (("Sp4n", 1), ("SU2n+1", 1), ("SU2nH", 2)):
        ms = standard_satake(G, n)
        fast = _product_of_linears([_key(m) for m in ms])
        slow = EulerFactor.one()
        for m in ms:
            slow = slow * EulerFactor.linear(m)
        assert fast == slow


def test_poly_key_packing_roundtrip():
    from sklift.lfactor import _Poly, _unpack_key

    cases = [
        SymMonomial(a=3, b=-2, half=-17, chi=1),
        SymMonomial(a=-56, half=33),
        SymMonomial(),
        SymMonomial(b=1, chi=1),
    ]
    for m in cases:
        poly = _Poly.of(m, 7)
        ((key, coeff),) = poly.terms.items()
        assert coeff == 7
        assert _unpack_key(key) == (m.a, m.b, m.half, m.chi)
    # combination respects the group law incl. the chi sign
    a, b = cases[0], cases[3]
    prod = _Poly.of(a) * _Poly.of(b)
    ((key, _),) = prod.terms.items()
    ab = a * b
    assert _unpack_key(key) == (ab.a, ab.b, ab.half, ab.chi)


def test_multiset_not_fooled_by_multiplicity():
    base = list(standard_satake("Sp4n", 1))
    dropped = SatakeMultiset(base[:-1] + [base[0]])  # same size, wrong counts
    assert dropped != standard_satake("Sp4n", 1)


def test_console_script_smoke(tmp_path):
    out = tmp_path / "report.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "sklift.cli", "lfactor", "--group", "Sp", "--n", "1",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in out.read_text()


def test_cli_exit_code_2_on_math_failure(tmp_path, monkeypatch):
    # corrupt one coefficient that only the Hecke check reads: A(2,2,2) has
    # trace 4, beyond the written bound 3, and T(2) reads it as A(2 * (1,1,1))
    import sklift.cli as cli
    import sklift.lift as lift

    real_coeff = lift.lift_coeff

    def tampered_coeff(source, T, provenance=None):
        value = real_coeff(source, T, provenance)
        return value + 1 if T == FourierIndex(2, 2, 2) else value

    monkeypatch.setattr(lift, "lift_coeff", tampered_coeff)
    code = cli.main(["lift", "--weight", "18", "--bound", "3", "--threads", "1",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    report = (tmp_path / "x.report.txt").read_text()
    assert "check maass-relations : PASS" in report
    assert "check hecke-eigen p=2 : FAIL" in report
