import math
import random
from fractions import Fraction

import pytest

from sklift.arith import (
    SqrtExt,
    bernoulli,
    dirichlet_L_neg,
    divisors,
    factorize,
    fundamental_split,
    is_fundamental_discriminant,
    kronecker,
    proportionality,
)

from arith_reference import discriminant_split
from echelon_reference import row_reduce


def bernoulli_oracle(n):
    """Independent Akiyama-Tanigawa computation (gives B_1 = +1/2)."""
    A = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
    return A[0]


def test_bernoulli_defining_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_independent_recurrence():
    for n in range(0, 30):
        expect = bernoulli_oracle(n)
        if n == 1:
            expect = -expect  # convention flip
        assert bernoulli(n) == expect


def test_bernoulli_odd_vanishing():
    for n in range(3, 52, 2):
        assert bernoulli(n) == 0


def test_kronecker_values():
    assert kronecker(1, 5) == 1
    assert all(kronecker(1, m) == 1 for m in range(1, 50))
    assert kronecker(-4, 3) == -1
    assert kronecker(-3, 3) == 0
    assert kronecker(-4, 1) == 1


def test_kronecker_rejects_non_discriminants():
    with pytest.raises(ValueError):
        kronecker(3, 5)
    with pytest.raises(ValueError):
        kronecker(-5, 3)
    with pytest.raises(ValueError):
        kronecker(-4, 0)


def test_kronecker_multiplicative():
    rng = random.Random(11)
    for D in (-3, -4, -8, -20, 5, 12, -23):
        for _ in range(60):
            a = rng.randint(1, 10**4)
            b = rng.randint(1, 10**4)
            assert kronecker(D, a * b) == kronecker(D, a) * kronecker(D, b)


def test_kronecker_periodic():
    for D in (-3, -4, -8, 13):
        for m in range(1, 80):
            assert kronecker(D, m) == kronecker(D, m + abs(D))


def test_discriminant_split_examples():
    s = discriminant_split(1, 4)
    assert (s.fundamental, s.conductor) == (-4, 1)
    s = discriminant_split(2, 4)
    assert (s.fundamental, s.conductor) == (1, 2)
    s = discriminant_split(1, 12)
    assert (s.fundamental, s.conductor) == (-3, 2)
    # d = 2, k odd: half-integral conductor
    s = discriminant_split(1, 2)
    assert (s.fundamental, s.conductor) == (-8, Fraction(1, 2))


def test_discriminant_split_roundtrip():
    for k in (0, 1):
        for d in range(1, 10**4 + 1):
            s = discriminant_split(k, d)
            assert s.fundamental * s.conductor**2 == (-1) ** k * d
            assert s.conductor > 0
            assert s.fundamental == 1 or is_fundamental_discriminant(s.fundamental)


def test_fundamental_split_matches_trial_division():
    # the sieve split against the trial-division oracle, the primes of f in increasing order
    checked = 0
    for D in range(-20000, 20001):
        if D == 0 or D % 4 not in (0, 1):
            continue
        fund, cond, ords = fundamental_split(D)
        s = discriminant_split(D < 0, abs(D))
        assert (fund, cond) == (s.fundamental, s.conductor), D
        assert list(ords.items()) == sorted(factorize(cond).items()), D
        checked += 1
    assert checked == 20000


def test_fundamental_split_examples_and_rejects():
    assert fundamental_split(1) == (1, 1, {})
    assert fundamental_split(-4) == (-4, 1, {})
    assert fundamental_split(-12) == (-3, 2, {2: 1})
    assert fundamental_split(-16) == (-4, 2, {2: 1})
    assert fundamental_split(-32) == (-8, 2, {2: 1})
    assert fundamental_split(-3 * 4 * 25 * 49) == (-3, 70, {2: 1, 5: 1, 7: 1})
    assert fundamental_split(8 * 9) == (8, 3, {3: 1})
    assert fundamental_split(49) == (1, 7, {7: 1})
    for D in (0, 2, 3, -1, -2, -5, 7):
        with pytest.raises(ValueError):
            fundamental_split(D)


def test_dirichlet_L_examples():
    assert dirichlet_L_neg(12, 1) == Fraction(691, 32760)
    assert dirichlet_L_neg(1, -4) == Fraction(1, 2)
    # parity-violating pairs vanish
    assert dirichlet_L_neg(2, -4) == 0
    assert dirichlet_L_neg(3, 5) == 0


def test_dirichlet_L_trivial_character_is_zeta():
    # k = 1 is excluded: zeta(0) = -1/2 while -B_1/1 = +1/2 in our convention
    for k in range(2, 25):
        assert dirichlet_L_neg(k, 1) == -bernoulli(k) / k


def test_dirichlet_L_generalized_bernoulli_oracle():
    # hand evaluation of the defining sum for chi_{-3}, k = 3:
    # B_{3,chi} = 9 (B_3(1/3) - B_3(2/3)) = 2/3, so L(-2) = -2/9
    assert dirichlet_L_neg(3, -3) == Fraction(-2, 9)
    # chi_{-4}, k = 3: B_{3,chi} = 16 (B_3(1/4) - B_3(3/4)) = 3/2
    assert dirichlet_L_neg(3, -4) == Fraction(-1, 2)


def reference_L_values(D, kmax):
    """L(1-k, chi_D) for k = 1..kmax by the full per-residue sum over 1 <= a <= |D|,
    reading each chi_D(a) from ``kronecker``: the direct evaluation of
    B_{k,chi} = f^{k-1} sum_a chi(a) B_k(a/f) that dirichlet_L_neg shortcuts."""
    f = abs(D)
    S = [0] * (kmax + 1)  # S_m = sum_a chi(a) a^m
    for a in range(1, f + 1):
        ca = kronecker(D, a)
        if ca == 0:
            continue
        pw = 1
        for m in range(kmax + 1):
            S[m] += ca * pw
            pw *= a
    out = {}
    for k in range(1, kmax + 1):
        B = Fraction(0)
        for j in range(k + 1):
            bj = bernoulli(j)
            if bj:
                B += math.comb(k, j) * bj * f**j * S[k - j]
        out[k] = -B / f / k
    return out


def test_dirichlet_L_matches_per_residue_sum():
    discs = [1] + [D for D in range(-500, 501) if D != 1 and is_fundamental_discriminant(D)]
    assert len(discs) > 300
    for D in discs:
        for k, expect in reference_L_values(D, 14).items():
            assert dirichlet_L_neg(k, D) == expect, (k, D)


@pytest.mark.parametrize("k, D", [(9, -1763), (11, -1679), (27, -3), (12, 1709), (8, 1697), (5, -1704)])
def test_dirichlet_L_against_sympy(k, D):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = abs(D)
    poly = sympy.Poly(sympy.bernoulli(k, x), x)
    total = sum(
        sympy.kronecker_symbol(D, a) * poly.eval(sympy.Rational(a, f)) for a in range(1, f + 1)
    )
    expect = -sympy.Integer(f) ** (k - 1) * total / k
    assert dirichlet_L_neg(k, D) == Fraction(int(expect.p), int(expect.q))


def test_dirichlet_L_parity_zero_without_summing():
    for D in (-3, -4, -1679, 5, 8, 1709):
        for k in range(1, 12):
            if (D < 0) != (k % 2 == 1):
                assert dirichlet_L_neg(k, D) == 0


def test_dirichlet_L_does_not_factor_each_residue(monkeypatch):
    from sklift import arith

    calls = {"kronecker": 0, "factorize": 0}

    def counted(name):
        inner = getattr(arith, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(arith, name, counted(name))
    value = arith.dirichlet_L_neg.__wrapped__(11, -1679)  # bypass the cache
    assert calls["kronecker"] <= 2 and calls["factorize"] <= 2, calls
    assert value == reference_L_values(-1679, 11)[11]


def test_fundamental_discriminant_predicate():
    fundamentals = [1, -3, -4, -7, -8, -11, -15, -19, -20, -23, -24, 5, 8, 12, 13]
    for D in fundamentals:
        assert is_fundamental_discriminant(D)
    for D in (-9, -12, -16, -18, -25, 9, 16, 25, 45):
        assert not is_fundamental_discriminant(D)


def reference_is_fundamental(D):
    """The mod-4 rules: D = 1, or D = 1 mod 4 square-free, or D = 4m with m = 2, 3 mod 4 square-free."""
    if D == 1:
        return True
    if D == 0 or D % 4 not in (0, 1):
        return False
    f = factorize(D)
    if D % 4 == 1:
        return all(e == 1 for e in f.values())
    m = D // 4
    if m % 4 not in (2, 3):
        return False
    fm = factorize(m)
    return all(e == 1 for p, e in fm.items() if p != 2) and fm.get(2, 0) <= 1


def test_fundamental_discriminant_predicate_matches_mod_4_rules():
    for D in range(-20000, 20001):
        assert is_fundamental_discriminant(D) == reference_is_fundamental(D), D


def test_small_helpers():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


class TestSqrtExt:
    def test_arithmetic(self):
        x = SqrtExt(2, 1, 1)
        assert x * x == SqrtExt(2, 3, 2)
        assert (x - 1) * (x + 1) == SqrtExt(2, 2, 2)  # x^2 - 1
        y = SqrtExt(2, 0, 1)
        assert y * y == 2
        assert (x * y) == SqrtExt(2, 2, 1)

    def test_half_powers(self):
        assert SqrtExt.half_power(3, 4) == 9
        assert SqrtExt.half_power(3, 3) == SqrtExt(3, 0, 3)
        assert SqrtExt.half_power(3, -1) == SqrtExt(3, 0, Fraction(1, 3))
        assert SqrtExt.half_power(3, 1) * SqrtExt.half_power(3, -1) == 1

    def test_rational_extraction(self):
        assert SqrtExt(5, Fraction(7, 3)).rational() == Fraction(7, 3)
        with pytest.raises(ValueError):
            SqrtExt(5, 1, 1).rational()

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            SqrtExt(2, 1, 1) * SqrtExt(3, 1, 1)


def test_row_reduce_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for trial in range(60):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n_cols)] for _ in range(n_rows)]
        if trial % 3 == 0 and n_rows > 1:  # force a dependent row
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1 % n_rows])]
        expect, pivots = sympy.Matrix(rows).rref()
        got = [row[:] for row in rows]
        assert row_reduce(got, n_cols) == list(pivots)
        assert got == [[Fraction(int(x.p), int(x.q)) for x in expect.row(i)] for i in range(n_rows)]


def _proportionality_by_division(triples):
    """Oracle: one Fraction division per nonzero denominator."""
    c, tested = None, 0
    for key, num, den in triples:
        if den == 0:
            if num != 0:
                return c, tested, key
            continue
        ratio = Fraction(num) / den
        if c is None:
            c = ratio
        elif ratio != c:
            return c, tested, key
        else:
            tested += 1
    return c, tested, None


def _random_rational(rng, zero_share):
    if rng.random() < zero_share:
        return rng.choice([0, Fraction(0)])
    num = rng.randint(-10**6, 10**6) or 1
    return num if rng.random() < 0.3 else Fraction(num, rng.randint(1, 10**4))


def test_proportionality_matches_fraction_division():
    rng = random.Random(16)
    outcomes = set()
    for trial in range(400):
        c = _random_rational(rng, 0.1)
        triples = []
        for key in range(rng.randint(0, 12)):
            den = _random_rational(rng, 0.25)
            num = c * den
            if Fraction(num).denominator == 1 and rng.random() < 0.5:
                num = int(num)  # ints mixed with Fractions
            triples.append((key, num, den))
        # a wrong last num is caught unless its den is the first nonzero one, which fixes c
        tampered = trial % 3 == 0 and bool(triples) and (
            triples[-1][2] == 0 or any(den != 0 for _, _, den in triples[:-1])
        )
        if tampered:
            # the last num is off by 1/7: a mismatch, or a nonzero num over a zero den
            key, num, den = triples[-1]
            triples[-1] = (key, num + Fraction(1, 7), den)
        got = proportionality(iter(triples))
        assert got == _proportionality_by_division(triples)
        assert got[0] is None or type(got[0]) is Fraction
        assert got[2] == (triples[-1][0] if tampered else None)
        outcomes.add((got[0] is None, got[1] > 0, tampered))
    # every branch was reached: no constant, untested, tested, each with and without a mismatch
    assert outcomes == {(none, tested, bad) for none in (True, False) for tested in (True, False)
                        for bad in (True, False) if not (none and tested)}


def test_proportionality_counts_only_comparisons_that_test_c():
    # the first nonzero den fixes c and tests nothing; zero pairs test nothing
    assert proportionality([]) == (None, 0, None)
    assert proportionality([(1, 0, 0), (2, Fraction(3, 2), 1), (3, 0, 0)]) == (Fraction(3, 2), 0, None)
    assert proportionality([(1, 3, 2), (2, 6, 4), (3, 0, 0), (4, -3, -2)]) == (Fraction(3, 2), 2, None)
    # a zero den needs a zero num, before c is fixed or after
    assert proportionality([(1, 5, 0)]) == (None, 0, 1)
    assert proportionality([(1, 3, 2), (2, 6, 4), (3, 1, 0)]) == (Fraction(3, 2), 1, 3)
    # reading stops at the first mismatch
    seen = []

    def triples():
        for key, num, den in [(1, 2, 1), (2, 4, 2), (3, 7, 3), (4, 8, 4)]:
            seen.append(key)
            yield key, num, den

    assert proportionality(triples()) == (Fraction(2), 1, 3)
    assert seen == [1, 2, 3]
