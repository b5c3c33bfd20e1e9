"""Cross-module negative controls and dual-route guards.

These tests verify that the validation harnesses actually have teeth (they
detect deliberately corrupted data) and that optimized code paths agree with
their straightforward counterparts.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import sklift
from sklift.eigenforms import eigenform
from sklift.lfactor import (
    EulerFactor,
    SatakeMultiset,
    SymMonomial,
    _product_of_linears,
    factored_rhs,
    standard_satake,
)
from sklift.lift import hecke_ratio, lift_expand
from sklift.siegel import FourierIndex, SiegelExpansion, eisenstein_expansion, hecke_Tp_degree2

from lfactor_reference import euler_product


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


def test_hecke_ratio_needs_two_nonzero_comparisons():
    # one nonzero F(T) fixes the ratio and tests nothing; a second tests it
    T1, T2 = FourierIndex(1, 1, 1), FourierIndex(1, 0, 1)
    F = SiegelExpansion(10, 2, {T1: Fraction(3)})
    FP = SiegelExpansion(10, 2, {T1: Fraction(15)})
    with pytest.raises(ArithmeticError, match="fewer than two"):
        hecke_ratio(F, FP)
    F.table[T2], FP.table[T2] = Fraction(-2, 7), Fraction(-10, 7)
    assert hecke_ratio(F, FP) == (5, 2)


def _miyawaki_roots():
    a, b = SymMonomial(a=1), SymMonomial(b=1)
    roots = [x * y for x in (a, a.inverse()) for y in (b, b.inverse())]
    return roots + [SymMonomial()] * 2 + [SymMonomial(half=h) for h in (2, -2, 4, -4, 6, -6)]


def test_linear_product_engine_matches_generic_multiplication():
    # every group but E7,3 at n = 1, 2, 3 (SU2n+1 carries chi), the Miyawaki
    # multiset (beta), a chi root first, and the empty product
    cases = [list(standard_satake(G, n)) for G in ("Sp4n", "SU2n+1", "SU2nH") for n in (1, 2, 3)]
    cases += [_miyawaki_roots(), list(reversed(list(standard_satake("SU2n+1", 2)))), []]
    for roots in cases:
        fast = _product_of_linears(roots)
        assert [c.monomials() for c in fast.coeffs] == euler_product(roots), roots


def _altered(roots):
    """One root with its half exponent shifted, one with chi flipped, one dropped."""
    first = roots[0]
    return [
        [SymMonomial(first.a, first.b, first.half + 2, first.chi)] + roots[1:],
        [SymMonomial(first.a, first.b, first.half, 1 - first.chi)] + roots[1:],
        roots[1:],
    ]


def test_packed_equality_agrees_with_read_back():
    cases = [list(standard_satake(G, n)) for G in ("Sp4n", "SU2n+1", "SU2nH") for n in (1, 2)]
    cases += [list(standard_satake("E73")), _miyawaki_roots()]
    packed_compares = 0
    for roots in cases:
        reference = _product_of_linears(roots).coeffs
        for other, equal in [(list(reversed(roots)), True)] + [(x, False) for x in _altered(roots)]:
            lhs = _product_of_linears(roots)
            rhs = _product_of_linears(other)
            same_grid = lhs.grid == rhs.grid
            assert (lhs == rhs) is equal
            assert (reference == _product_of_linears(other).coeffs) is equal
            # equality compares grids and ints and reads nothing back
            assert lhs._coeffs is None
            packed_compares += same_grid
    assert packed_compares >= 2 * len(cases)


def test_altered_factors_compare_without_read_back():
    # a shifted, a chi-flipped or a dropped root: unequal on either side,
    # and neither factor reads its coefficients back
    for G, n in (("Sp4n", 2), ("SU2n+1", 1), ("SU2nH", 2), ("E73", 1)):
        roots = list(standard_satake(G, n))
        for other in _altered(roots):
            lhs, rhs = _product_of_linears(roots), _product_of_linears(other)
            assert lhs != rhs and rhs != lhs
            assert lhs._coeffs is None and rhs._coeffs is None


def test_packed_equality_compares_both_chi_parts():
    # one more count in a chi-odd cell, on the same grid, with the same chi-even ints
    ef = standard_satake("SU2n+1", 1).euler_factor()
    odd = list(ef.odd)
    odd[1] += 1
    other = EulerFactor(list(ef.even), odd, ef.grid)
    assert ef != other and other != ef
    assert [c.terms for c in ef.coeffs] != [c.terms for c in other.coeffs]


def test_packed_factor_reads_back_once():
    ef = standard_satake("SU2n+1", 2).euler_factor()
    assert ef.degree == 20 and ef._coeffs is None
    coeffs = ef.coeffs
    assert ef.coeffs is coeffs and ef.degree == 20
    assert [c.monomials() for c in coeffs] == [c.monomials() for c in factored_rhs("SU2n+1", 2).coeffs]


def test_linear_product_cells_wider_than_one_word():
    # (1 - mu t)^70: the middle coefficients C(70, j) pass 2^64
    mu = SymMonomial(a=2, half=-3, chi=1)
    got = _product_of_linears([mu] * 70)
    assert math.comb(70, 35) >= 2**64 and got.degree == 70
    for j, coeff in enumerate(got.coeffs):
        assert coeff.monomials() == {(2 * j, 0, -3 * j, j % 2): (-1) ** j * math.comb(70, j)}


@pytest.mark.parametrize(
    "mu, n, bits, width",
    [
        (SymMonomial(a=3, half=-2, chi=1), 59, 56, 7),
        (SymMonomial(a=3, half=-2, chi=1), 60, 57, 8),
        (SymMonomial(a=-1, b=2, half=5), 67, 64, 8),
    ],
    ids=["59", "60", "67"],
)
def test_linear_product_cells_at_a_byte_boundary(mu, n, bits, width):
    # (1 - mu t)^n: the middle count C(59, 29) fills all 7 bytes of its cell,
    # C(60, 30) passes them by one bit and takes an eighth byte, and
    # C(67, 33) fills all 8
    got = _product_of_linears([mu] * n)
    assert math.comb(n, n // 2).bit_length() == bits and got.grid[2] == width
    for j, coeff in enumerate(got.coeffs):
        power = (mu.a * j, mu.b * j, mu.half * j, mu.chi * j % 2)
        assert coeff.monomials() == {power: (-1) ** j * math.comb(n, j)}


def _random_multisets(rng, count):
    """Seeded multisets of up to 9 roots drawn, with repeats, from a few
    monomials with exponents of both signs on every axis, some with chi."""
    for _ in range(count):
        pool = [
            SymMonomial(rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-5, 5), rng.randint(0, 1))
            for _ in range(rng.randint(1, 5))
        ]
        yield [rng.choice(pool) for _ in range(rng.randint(1, 9))]


def test_linear_product_matches_reference_on_random_multisets():
    rng = random.Random(2013)
    seen = set()
    for roots in [[], *_random_multisets(rng, 60)]:  # the empty product first
        fast = _product_of_linears(roots)
        again = _product_of_linears(rng.sample(roots, len(roots)))
        # the median base, and so the whole layout, ignores the order of the roots
        assert (again.grid, again.even, again.odd) == (fast.grid, fast.even, fast.odd)
        base = fast.grid[0]
        assert [c.monomials() for c in fast.coeffs] == euler_product(roots), roots
        deltas = [[x - y for x, y in zip(m[:3], base)] for m in roots]
        for axis in range(3):
            if {d[axis] > 0 for d in deltas if d[axis]} == {True, False}:
                seen.add(f"mixed signs on axis {axis}")
        if len(set(roots)) < len(roots):
            seen.add("repeated root")
        if any(m.chi for m in roots):
            seen.add("chi root")
        if [0, 0, 0] in deltas:
            seen.add("root equal to the median")
    assert len(seen) == 6, seen


def test_packed_coefficients_start_at_their_lowest_cell():
    # bit 0 of each coefficient is the cell of its own lowest reachable monomial
    cases = [list(standard_satake(G, n)) for G in ("Sp4n", "SU2n+1", "SU2nH") for n in (1, 2, 3)]
    cases += [list(standard_satake("E73")), _miyawaki_roots(), *_random_multisets(random.Random(7), 30)]
    for roots in cases:
        ef = _product_of_linears(roots)
        cell = (1 << 8 * ef.grid[2]) - 1
        for e, o in zip(ef.even, ef.odd):
            assert not (e or o) or (e | o) & cell


def test_e73_box_is_median_centred():
    # the a-exponents are +-1 and +-3: from the median 1 every delta is even
    base, axes, width, off = standard_satake("E73").euler_factor().grid
    (g_a, _, n_a), (_, _, n_b), (g_h, _, n_h), n_cells = axes
    assert (g_a, n_a, n_b, g_h, n_h) == (2, 31, 1, 2, 185)
    # C(56, 28) has 53 bits, so each cell is 7 bytes wide
    assert n_cells == 31 * 185 == 5735 and width == 7 and len(off) == 57


def test_equal_ints_on_different_grids_compare_unequal():
    # Equal axes fix the sum of all root cells, and e_1 fixes the cells up to
    # one shift, so equal ints on one grid mean equal offsets.  These pairs
    # have equal ints but differ in base, gcd or axis; only the grid tells
    # them apart, and the factors must read back unequal.
    a, b, h, chi = SymMonomial(a=1), SymMonomial(b=1), SymMonomial(half=1), SymMonomial(chi=1)
    pairs = [
        ([a.inverse(), SymMonomial(), a], [(a * a).inverse(), SymMonomial(), a * a]),  # gcd 1 against 2
        ([a.inverse(), SymMonomial(), a], [b.inverse(), SymMonomial(), b]),  # the same shape on another axis
        ([SymMonomial(), h, h], [h, h * h, h * h]),  # translated by p^(1/2)
        ([a * chi, a.inverse() * chi], [b * chi, b.inverse() * chi]),  # odd ints
    ]
    for left, right in pairs:
        lhs = _product_of_linears(left)
        rhs = _product_of_linears(right)
        assert (lhs.even, lhs.odd) == (rhs.even, rhs.odd)
        assert lhs.grid != rhs.grid
        assert lhs != rhs
        assert [c.monomials() for c in lhs.coeffs] == euler_product(left)
        assert [c.monomials() for c in rhs.coeffs] == euler_product(right)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status for VmHWM")
def test_suh_17_peak_memory(tmp_path):
    # 68 roots, nine-byte cells (C(68, 34) has 65 bits): the packed ints of
    # both sides stay well below the 60 MB peak resident set
    entry = (
        "import sys\n"
        "from sklift.cli import main\n"
        "rc = main()\n"
        "sys.stderr.write(next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')))\n"
        "sys.exit(rc)\n"
    )
    src = os.path.dirname(os.path.dirname(sklift.__file__))
    res = subprocess.run(
        [sys.executable, "-c", entry, "lfactor", "--group", "SUH", "--n", "17", "--out", str(tmp_path / "r.txt")],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    (kb,) = [int(ln.split()[1]) for ln in res.stderr.splitlines() if ln.startswith("VmHWM:")]
    assert kb < 60 * 1024


def test_e73_product_at_points_mod_prime():
    # the degree-56 chain is too slow here, so both products are checked
    # at seeded points against prod (1 - mu t), evaluated mod a prime
    P = 2**61 - 1
    roots = list(standard_satake("E73"))
    products = [
        [(j, coeff.monomials().items()) for j, coeff in enumerate(ef.coeffs)]
        for ef in (standard_satake("E73").euler_factor(), factored_rhs("E73"))
    ]
    rng = random.Random(56)
    for _ in range(3):
        # x -> {e: x^e mod P} for alpha, beta, p^(1/2), chi
        al, be, s = ({e: pow(x, e, P) for e in range(-200, 201)} for x in rng.sample(range(2, P), 3))
        chi = {0: 1, 1: rng.choice((1, P - 1))}
        t = rng.randrange(2, P)
        direct = 1
        for m in roots:
            direct = direct * (1 - al[m.a] * be[m.b] * s[m.half] * chi[m.chi] * t) % P
        for terms in products:
            total = sum(
                pow(t, j, P) * sum(c * al[a] * be[b] * s[h] * chi[x] for (a, b, h, x), c in items)
                for j, items in terms
            )
            assert total % P == direct


def test_poly_terms_follow_the_group_law():
    # the t^2 coefficient of (1 - a t)(1 - b t) is the single monomial a b,
    # chi included, keyed by its (a, b, half, chi) exponents
    cases = [
        SymMonomial(a=3, b=-2, half=-17, chi=1),
        SymMonomial(a=-56, half=33),
        SymMonomial(),
        SymMonomial(b=1, chi=1),
    ]
    for a in cases:
        for b in cases:
            assert _product_of_linears([a, b]).coeffs[2].monomials() == {tuple(a * b): 1}


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
    from sklift.siegel import enumerate_reduced

    # the expansion runs lift_coeff once per (D_T, content) class; (2,2,2) is
    # alone in its class (12, 2), so the tamper reaches it (a reduced index
    # of discriminant D has n + m <= D)
    assert [T for T in enumerate_reduced(12, False) if (T.disc, T.content) == (12, 2)] == [FourierIndex(2, 2, 2)]
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
