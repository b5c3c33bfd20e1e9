"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines with measured runtimes.
"""

import math
import os
import time
from fractions import Fraction

import pytest

from sklift.arith import SqrtExt
from sklift.cli import main as cli_main
from sklift.eigenforms import eigenform, ramanujan_gate
from sklift.jacobi import theorem_eisen_check
from sklift.lfactor import (
    arthur_dims,
    cap_check,
    factored_rhs,
    miyawaki_check,
    satake_degree,
    standard_satake,
)
from sklift.lift import (
    EisensteinPoint,
    default_ladder,
    hecke_ratio,
    interpolate_local_poly,
    lift_coeff,
    lift_expand,
    local_data,
    maass_check,
)
from sklift.qseries import eisenstein_series
from sklift.siegel import (
    FourierIndex,
    cohen_H,
    eisenstein_coeff,
    eisenstein_coeff_arithmetic,
    eisenstein_expansion,
    eisenstein_normalizer,
    enumerate_reduced,
    hecke_Tp_degree2,
    phi_operator,
)

from local_solve_reference import solve_exact


def report(num, label, t0, budget):
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({label}): PASS [{dt:.2f}s < {budget}s]")
    assert dt < budget, f"criterion {num} exceeded its runtime budget: {dt:.1f}s"


def reduced_by_disc(dmax):
    out = []
    n = 1
    while 3 * n * n <= dmax:
        m = n
        while 4 * n * m - n * n <= dmax:
            for r in range(n + 1):
                if 4 * n * m - r * r <= dmax:
                    out.append(FourierIndex(n, r, m))
            m += 1
        n += 1
    return out


def test_criterion_1_eigenform_pipeline():
    t0 = time.perf_counter()
    for two_k in (18, 22, 26):
        f = eigenform(two_k, 3600)
        for m in range(1, 61):
            for n in range(m, 61):
                if math.gcd(m, n) == 1:
                    assert f.a(m * n) == f.a(m) * f.a(n), (two_k, m, n)
        gate = ramanujan_gate(f, 100)
        assert gate.passed, (two_k, gate.violations)
    report(1, "eigenform pipeline", t0, 5)


def test_criterion_2_eisenstein_validation_triangle():
    t0 = time.perf_counter()
    for k in (9, 11):
        weight = k + 1
        # (a) Phi operator inverts to the degree-1 series, n <= 30
        E30 = eisenstein_expansion(k, 30)
        assert phi_operator(E30) == eisenstein_series(weight, 30)
        # (b) FJ components at S=1 match the Cohen pattern for N <= 40
        rep = theorem_eisen_check(k, 1, 40)
        assert rep.passed, rep.first_mismatch
        assert rep.constants[Fraction(0)] == rep.constants[Fraction(1, 2)]
        # (c) Hecke eigen-ratio at p = 2, 3 over >= 20 reduced indices
        for p in (2, 3):
            E = eisenstein_expansion(k, 8 * p)
            img = hecke_Tp_degree2(E, p)
            lam, count = hecke_ratio(E, img)
            assert count >= 20
            assert lam == 1 + p ** (weight - 2) + p ** (weight - 1) + p ** (2 * weight - 3)
    report(2, "eisenstein validation triangle", t0, 60)


def _general_laurent_interpolation(T, p):
    """Interpolate in the full asymmetric basis X^m, -f <= m <= f; the data
    must force a symmetric solution (functional equation check)."""
    _, _, locs = local_data(T)
    f = locs[p].conductor_ord
    c = locs[p].content_ord
    ks = default_ladder(2 * (f + c) + 3)
    rows, rhs = [], []
    for k in ks:
        value = eisenstein_coeff_arithmetic(k, _pure_aux(T, p)) / _aux_lvalue(T, p, k)
        target = SqrtExt.half_power(p, -f * (2 * k - 1)) * value
        row_u, row_v = [], []
        for m in range(-f - c, f + c + 1):
            km = SqrtExt.half_power(p, m * (2 * k - 1))
            sq = SqrtExt(p, 0, 1) * km
            row_u.extend([km.u, sq.u])
            row_v.extend([km.v, sq.v])
        rows.append(row_u)
        rhs.append(target.u)
        rows.append(row_v)
        rhs.append(target.v)
    sol = solve_exact(rows, rhs)
    width = 2 * (f + c) + 1
    coeffs = {}
    for i in range(width):
        m = i - (f + c)
        coeffs[m] = SqrtExt(p, sol[2 * i], sol[2 * i + 1])
    return coeffs


def _pure_aux(T, p):
    from sklift.lift import _aux_index

    _, _, locs = local_data(T)
    l = locs[p]
    return _aux_index(p, l.content_ord, l.conductor_ord, l.chi)[0]


def _aux_lvalue(T, p, k):
    from sklift.arith import dirichlet_L_neg
    from sklift.lift import _aux_index

    _, _, locs = local_data(T)
    l = locs[p]
    fund = _aux_index(p, l.content_ord, l.conductor_ord, l.chi)[1]
    return dirichlet_L_neg(k, fund)


def test_criterion_3_interpolation_engine():
    t0 = time.perf_counter()
    symmetric_classes = set()
    for T in reduced_by_disc(200):
        _, _, locs = local_data(T)
        disc_primes = sorted(set(locs) | {q for q, _ in _factor_pairs(T.disc)})
        for p in disc_primes:
            a = interpolate_local_poly(T, p)
            if p in locs:
                shift = locs[p].conductor_ord + locs[p].content_ord + 2
            else:
                shift = 2
            b = interpolate_local_poly(T, p, ladder_start=shift)
            assert a == b, ("ladder disagreement", T, p)
            # symmetric by construction: only nonnegative slots exist
            assert all(m >= 0 for m in a.coeffs)
            if p in locs and (p, locs[p].content_ord, locs[p].conductor_ord, locs[p].chi) not in symmetric_classes:
                symmetric_classes.add((p, locs[p].content_ord, locs[p].conductor_ord, locs[p].chi))
                general = _general_laurent_interpolation(T, p)
                for m, cm in general.items():
                    assert cm == general[-m], ("functional equation", T, p, m)
                    expect = a.coefficient(abs(m)) if m else a.coefficient(0)
                    if m != 0:
                        assert cm == expect, ("general vs symmetric", T, p, m)
    # re-specialization at X = p^(k - 1/2)
    for k in (9, 11):
        pt = EisensteinPoint(k)
        for T in reduced_by_disc(200):
            assert lift_coeff(pt, T) == eisenstein_coeff_arithmetic(k, T)
    report(3, "interpolation engine", t0, 120)


def _factor_pairs(n):
    from sklift.arith import factorize

    return factorize(n).items()


@pytest.mark.parametrize("two_k", [18, 22])
def test_criterion_4_lift_suite(two_k):
    t0 = time.perf_counter()
    f = eigenform(two_k, 256)
    k = two_k // 2
    F = lift_expand(f, 10)
    assert not F.is_zero()
    assert all(isinstance(v, Fraction) for v in F.table.values())
    assert phi_operator(F).is_zero()
    mr = maass_check(F, k)
    assert mr.passed and mr.exponent == k, (mr.exponent, mr.failures)
    big = lift_expand(f, 30)
    for p in (2, 3):
        img = hecke_Tp_degree2(big, p)
        lam, count = hecke_ratio(big, img)
        assert count >= 20
        assert lam == f.a(p) + p**k + p ** (k - 1)
    report(4, f"lift via S_{two_k}", t0, 600)


def test_criterion_5_eisenstein_degeneration():
    t0 = time.perf_counter()
    for k in (9, 11):
        C = eisenstein_normalizer(k + 1)
        pt = EisensteinPoint(k)
        for T in reduced_by_disc(200):
            assert C * lift_coeff(pt, T) == eisenstein_coeff(k, T), (k, T)
    report(5, "eisenstein degeneration", t0, 120)


def test_criterion_6_theorem2_identities():
    t0 = time.perf_counter()
    cases = (
        [("Sp4n", n, 4 * n + 1) for n in (1, 2, 3)]
        + [("SU2n+1", n, 4 * (2 * n + 1)) for n in (1, 2)]
        + [("SU2nH", n, 4 * n) for n in (1, 2, 3)]
        + [("E73", 1, 56)]
    )
    for G, n, deg in cases:
        ms = standard_satake(G, n)
        assert len(ms) == deg == satake_degree(G, n)
        assert ms.is_self_dual()
        assert ms.euler_factor() == factored_rhs(G, n)
    report(6, "theorem-2 identities", t0, 5)


def test_criterion_7_section5_bookkeeping():
    t0 = time.perf_counter()
    rep = arthur_dims()
    assert rep.passed
    for n in (1, 2, 3):
        assert cap_check(n).passed
    assert miyawaki_check().passed
    report(7, "parameter bookkeeping", t0, 5)


def test_criterion_8_jordan_octonion_axioms():
    import random

    from sklift.jordan import JordanElement, Octonion, is_positive, jordan_det

    t0 = time.perf_counter()
    rng = random.Random(2024)

    def rnd():
        return Octonion(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)))

    for _ in range(200):
        x, y = rnd(), rnd()
        assert (x * y).norm() == x.norm() * y.norm()
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)
    assert jordan_det(JordanElement.diagonal(2, 3, 7)) == 42
    X = JordanElement(3, 1, 4, rnd(), rnd(), rnd())
    lam = Fraction(5, 3)
    assert jordan_det(X.scale(lam)) == lam**3 * jordan_det(X)
    assert is_positive(JordanElement.identity())
    assert is_positive(JordanElement.diagonal(2, Fraction(1, 9), Fraction(1, 99)))
    assert not is_positive(JordanElement.diagonal(1, 1, -1))
    assert not is_positive(JordanElement(1, 1, 1, Octonion.from_scalar(5), Octonion.zero(), Octonion.zero()))
    report(8, "jordan/octonion axioms", t0, 5)


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    blobs = []
    for tag, threads in (("t1", 1), ("t4", 4), ("tmax", os.cpu_count() or 1)):
        base = str(tmp_path / f"lift_{tag}")
        code = cli_main(
            ["lift", "--weight", "18", "--bound", "4", "--threads", str(threads), "--out", base]
        )
        assert code == 0
        with open(base + ".expansion.txt", "rb") as fh:
            exp = fh.read()
        with open(base + ".provenance.txt", "rb") as fh:
            prov = fh.read()
        with open(base + ".report.txt", "rb") as fh:
            reptxt = fh.read()
        blobs.append((exp, prov, reptxt))
    assert blobs[0] == blobs[1] == blobs[2]
    # a repeated identical run is also byte-identical
    base = str(tmp_path / "lift_t1_again")
    assert cli_main(["lift", "--weight", "18", "--bound", "4", "--threads", "1", "--out", base]) == 0
    with open(base + ".expansion.txt", "rb") as fh:
        assert fh.read() == blobs[0][0]
    report(9, "cli determinism", t0, 120)
