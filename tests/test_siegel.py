import math
import random
from fractions import Fraction

import pytest

from sklift.arith import bernoulli
from sklift.qseries import eisenstein_series
from sklift.siegel import (
    EisensteinExpansion,
    FourierIndex,
    RangeError,
    SiegelExpansion,
    cohen_H,
    cohen_divisor_sum,
    eisenstein_coeff,
    eisenstein_coeff_arithmetic,
    eisenstein_expansion,
    eisenstein_normalizer,
    enumerate_reduced,
    hecke_Tp_degree2,
    phi_operator,
    reduce_index,
)


class TestReduction:
    def test_already_reduced(self):
        T = FourierIndex(1, 1, 1)
        red, U = reduce_index(T)
        assert red == T and U == ((1, 0), (0, 1))

    def test_gauss_example(self):
        red, U = reduce_index(FourierIndex(1, 2, 2))
        assert red == FourierIndex(1, 0, 1)
        assert FourierIndex(1, 2, 2).transform(U) == red

    def test_swap(self):
        red, _ = reduce_index(FourierIndex(5, 1, 2))
        assert red == FourierIndex(2, 1, 5)

    def test_rank_one(self):
        red, _ = reduce_index(FourierIndex(3, 0, 0))
        assert red == FourierIndex(0, 0, 3)

    def test_zero(self):
        red, _ = reduce_index(FourierIndex(0, 0, 0))
        assert red == FourierIndex(0, 0, 0)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            reduce_index(FourierIndex(1, 3, 1))
        with pytest.raises(ValueError):
            reduce_index(FourierIndex(-1, 0, 2))

    def test_random_invariants(self):
        rng = random.Random(5)
        gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, -1))]
        for _ in range(200):
            T0 = FourierIndex(rng.randint(1, 9), rng.randint(0, 3), rng.randint(4, 9))
            T = T0
            # random unimodular image of a definite index
            for _ in range(rng.randint(0, 6)):
                T = T.transform(gens[rng.randrange(4)])
            red, U = reduce_index(T)
            assert red.is_reduced()
            assert red.disc == T.disc
            assert red.content == T.content
            assert T.transform(U) == red
            # one representative per orbit
            assert red == reduce_index(T0)[0]


def _reduce_by_matrices(T):
    """The reduction as it was first written: U kept as a matrix of tuples."""

    def mul(U, V):
        (a, b), (c, d) = U
        (e, f), (g, h) = V
        return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))

    n, r, m = T.n, T.r, T.m
    U = ((1, 0), (0, 1))
    while True:
        if n > m:
            n, m = m, n
            U = mul(U, ((0, 1), (1, 0)))
            continue
        if n == 0:
            break
        if not -n < r <= n:
            t = (n - r) // (2 * n)
            m = m + r * t + n * t * t
            r = r + 2 * n * t
            U = mul(U, ((1, t), (0, 1)))
            continue
        if r < 0:
            r = -r
            U = mul(U, ((1, 0), (0, -1)))
            continue
        break
    return FourierIndex(n, r, m), U


def test_reduce_index_matches_matrix_reduction_on_seeded_box():
    # semidefinite (n, r, m) with r of either sign: the same reduced index and
    # the same U as the matrix-tuple routine; indefinite input raises
    rng = random.Random(11)
    box = [FourierIndex(n, r, m) for n in range(-1, 8) for r in range(-16, 17) for m in range(-1, 8)]
    box += [FourierIndex(rng.randint(-3, 60), rng.randint(-90, 90), rng.randint(-3, 60)) for _ in range(4000)]
    semidefinite = indefinite = 0
    for T in box:
        if T.is_positive_semidefinite():
            semidefinite += 1
            red, U = reduce_index(T)
            assert T.transform(U) == red
            assert (red, U) == _reduce_by_matrices(T), T
        else:
            indefinite += 1
            with pytest.raises(ValueError):
                reduce_index(T)
    assert semidefinite > 1000 and indefinite > 1000


def test_cohen_H_frozen_values():
    # H(r, 0) = zeta(1-2r)
    for r in (2, 3, 5):
        assert cohen_H(r, 0) == -bernoulli(2 * r) / (2 * r)
    assert cohen_H(3, 3) == Fraction(-2, 9)
    assert cohen_H(3, 4) == Fraction(-1, 2)
    assert cohen_H(3, 12) == Fraction(-74, 9)
    assert cohen_H(3, 108) == Fraction(-18056, 9)
    # no representation -N = D f^2
    assert cohen_H(4, 1) == 0
    assert cohen_H(4, 2) == 0 and cohen_H(4, 5) == 0


def test_cohen_H_hecke_consistency():
    # sigma-type recursions that the Cohen numbers must satisfy (independent
    # of the Eisenstein machinery): H(3, 96) = 33 H(3, 24)
    assert cohen_H(3, 96) == 33 * cohen_H(3, 24)
    assert cohen_H(3, 108) == 244 * cohen_H(3, 12)


class TestEisensteinCoeff:
    def test_constant_term(self):
        assert eisenstein_coeff(11, FourierIndex(0, 0, 0)) == 1

    def test_rank_one_is_degree_one_series(self):
        e12 = eisenstein_series(12, 12)
        for n in range(1, 13):
            assert eisenstein_coeff(11, FourierIndex(n, 0, 0)) == e12.a(n)
        assert eisenstein_coeff(11, FourierIndex(1, 0, 0)) == Fraction(65520, 691)

    def test_classical_weight4_values(self):
        # frozen degree-2 weight-4 values (classical tables)
        assert eisenstein_normalizer(4) == -60480
        assert eisenstein_coeff(3, FourierIndex(1, 1, 1)) == 13440
        assert eisenstein_coeff(3, FourierIndex(1, 0, 1)) == 30240
        assert eisenstein_coeff(3, FourierIndex(3, 0, 3)) == 8467200

    def test_arithmetic_normalization_shape(self):
        # content 1: exactly L(1-k, chi) times the conductor divisor sum
        from sklift.arith import dirichlet_L_neg

        T = FourierIndex(1, 1, 1)
        assert eisenstein_coeff_arithmetic(11, T) == dirichlet_L_neg(11, -3)
        C = eisenstein_normalizer(12)
        assert eisenstein_coeff(11, T) == C * dirichlet_L_neg(11, -3)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            eisenstein_coeff(10, FourierIndex(1, 1, 1))  # weight 11 odd

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            eisenstein_coeff(11, FourierIndex(1, 5, 1))


def test_gl2_invariance_of_lookup():
    E = eisenstein_expansion(9, 14)
    rng = random.Random(17)
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, -1))]
    reduced = [T for T in E.reduced_indices() if T.is_positive_definite() and T.trace <= 7]
    for _ in range(100):
        T = reduced[rng.randrange(len(reduced))]
        img = T
        for _ in range(rng.randint(1, 5)):
            img = img.transform(gens[rng.randrange(4)])
        if img.trace <= E.trace_bound:
            assert E.coefficient(img) == E.coefficient(T)


def _lift_expansion_18(bound):
    from sklift.eigenforms import eigenform
    from sklift.lift import LiftExpansion

    return LiftExpansion(eigenform(18, 128), bound)


@pytest.mark.parametrize("make", [lambda: eisenstein_expansion(9, 14), lambda: _lift_expansion_18(14)],
                         ids=["eisenstein-k9", "lift-18"])
def test_every_semidefinite_read_matches_its_reduced_image(make):
    # every semidefinite (n, r, m) with n, m <= 14 and r of either sign: an
    # index that reduces within the bound reads what its reduce_index image
    # reads from a fresh expansion's table; any other raises, reduced or not
    F, fresh = make(), make()
    seen = set()  # (is reduced, reduces within the bound)
    for n in range(15):
        for m in range(15):
            rmax = math.isqrt(4 * n * m)
            for r in range(-rmax, rmax + 1):
                T = FourierIndex(n, r, m)
                red, _ = reduce_index(T)
                within = red.trace <= F.trace_bound
                seen.add((T.is_reduced(), within))
                if within:
                    assert F.coefficient(T) == fresh._lookup(red), T
                else:
                    with pytest.raises(RangeError):
                        F.coefficient(T)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert all(T.is_reduced() and T.trace <= F.trace_bound for T in F.table)
    for T in (FourierIndex(1, 3, 2), FourierIndex(-1, 0, 2), FourierIndex(0, 0, -1), FourierIndex(2, -5, 3)):
        with pytest.raises(ValueError):
            F.coefficient(T)


def test_phi_operator_on_eisenstein():
    for k, weight in ((9, 10), (11, 12)):
        E = eisenstein_expansion(k, 30)
        assert phi_operator(E) == eisenstein_series(weight, 30)


def test_phi_operator_on_empty():
    F = SiegelExpansion(10, 8, {})
    assert phi_operator(F).is_zero()


class TestHeckeDegree2:
    @pytest.mark.parametrize("k,p", [(9, 2), (9, 3), (11, 2), (11, 3)])
    def test_eisenstein_eigen_ratio(self, k, p):
        l = k + 1
        E = eisenstein_expansion(k, 8 * p)
        img = hecke_Tp_degree2(E, p)
        expected = 1 + p ** (l - 2) + p ** (l - 1) + p ** (2 * l - 3)
        count = 0
        for T in enumerate_reduced(img.trace_bound):
            c = E.coefficient(T)
            if c:
                assert img.coefficient(T) == expected * c, T
                count += 1
        assert count >= 20

    def test_zero_expansion(self):
        F = SiegelExpansion(10, 12, {})
        assert hecke_Tp_degree2(F, 2).is_zero()

    def test_insufficient_bound(self):
        E = eisenstein_expansion(9, 2)
        with pytest.raises(ValueError):
            hecke_Tp_degree2(E, 3)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("source", ["lift", "eisenstein", "random"])
    def test_integer_sum_matches_fraction_reference(self, source, p):
        # the weight-10 lift (from S_18), the weight-12 Eisenstein series and
        # a table of random fractions, each at bound 24: one common-denominator
        # sum per image index against term-by-term Fraction accumulation.  The
        # first two have nested denominators (their lcm is the largest); the
        # random table has image indices where it is not
        from sklift.eigenforms import eigenform
        from sklift.lift import LiftExpansion

        from siegel_reference import hecke_Tp_fraction

        if source == "lift":
            F = LiftExpansion(eigenform(18, 128), 24)
        elif source == "eisenstein":
            F = EisensteinExpansion(11, 24)
        else:
            rng = random.Random(23)
            F = SiegelExpansion(10, 24, {
                T: Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for T in enumerate_reduced(24)
            })
        img, ref = hecke_Tp_degree2(F, p), hecke_Tp_fraction(F, p)
        assert img.trace_bound == ref.trace_bound and img.weight == ref.weight
        assert img.table == ref.table
        assert all(type(c) is Fraction for c in img.table.values())
        assert img.to_text() == ref.to_text()
        assert sum(1 for c in img.table.values() if c.denominator > 1) >= 8


def test_expansion_serialization_roundtrip():
    # the written text determines the expansion
    E = eisenstein_expansion(9, 6)
    header, group, weight, bound, *rows = E.to_text().splitlines()
    assert (header, group) == ("sklift siegel-expansion v1", "group Sp4")
    assert (weight, bound) == (f"weight {E.weight}", f"trace_bound {E.trace_bound}")
    table = {}
    for row in rows:
        n, r, m, value = row.split()
        table[FourierIndex(int(n), int(r), int(m))] = Fraction(value)
    assert table == E.table


def test_enumerate_reduced_all_reduced_and_unique():
    idx = enumerate_reduced(12)
    assert len(idx) == len(set(idx))
    for T in idx:
        assert T.is_reduced() and T.trace <= 12
        assert T.is_positive_semidefinite()
    # every positive definite one really is definite
    for T in enumerate_reduced(12, include_singular=False):
        assert T.is_positive_definite()


class TestEisensteinExpansion:
    @pytest.mark.parametrize("k", [9, 11])
    def test_reads_match_eisenstein_coeff(self, k):
        E = EisensteinExpansion(k, 16)
        indices = enumerate_reduced(16)
        random.Random(k).shuffle(indices)
        shear = ((1, 1), (0, 1))
        for T in indices:
            assert E.coefficient(T) == eisenstein_coeff(k, T), T
            sheared = T.transform(shear)  # same orbit, trace beyond the bound once n > 0
            assert E.coefficient(sheared) == eisenstein_coeff(k, sheared), sheared
        # singular and rank-1 indices in other shapes
        for T in (FourierIndex(0, 0, 0), FourierIndex(5, 0, 0), FourierIndex(1, 2, 1), FourierIndex(4, 12, 9)):
            assert E.coefficient(T) == eisenstein_coeff(k, T), T
        assert E.table == eisenstein_expansion(k, 16).table
        assert len(E.table) == len(indices)

    def test_first_read_computes_and_stores(self):
        E = EisensteinExpansion(11, 16)
        assert E.table == {} and E.weight == 12
        E.coefficient(FourierIndex(3, 7, 5))  # trace 8; its reduced form has trace 4
        red = FourierIndex(1, 1, 3)
        assert reduce_index(FourierIndex(3, 7, 5))[0] == red
        assert list(E.table) == [red]
        E.table[red] += 1  # a stored value is what later reads of the orbit see
        assert E.coefficient(red) == eisenstein_coeff(11, red) + 1

    def test_read_beyond_bound_raises(self):
        E = EisensteinExpansion(9, 16)
        for T in (FourierIndex(1, 0, 16), FourierIndex(0, 0, 17), FourierIndex(8, 1, 9)):
            with pytest.raises(RangeError):
                E.coefficient(T)
        assert E.table == {}

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            EisensteinExpansion(10, 8)


def test_cohen_divisor_sum_against_sympy():
    # H(r, N) = L(1-r, chi_D) * sum_{d | f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d), -N = D f^2
    sympy = pytest.importorskip("sympy")
    from sklift.arith import dirichlet_L_neg

    from arith_reference import discriminant_split

    for r in (2, 5, 9, 11):
        for N in range(3, 400):
            if N % 4 in (1, 2):
                continue
            split = discriminant_split(1, N)
            D, f = split.fundamental, int(split.conductor)
            assert D * f * f == -N
            expect = sum(
                sympy.mobius(d) * sympy.kronecker_symbol(D, d) * d ** (r - 1) * sympy.divisor_sigma(f // d, 2 * r - 1)
                for d in sympy.divisors(f)
            )
            s = cohen_divisor_sum(r, D, f)
            assert isinstance(s, int) and s == expect, (r, N)
            assert dirichlet_L_neg(r, D) * s == cohen_H(r, N)


def _eisenstein(weight):
    return lambda T: eisenstein_coeff(weight - 1, T)


def test_eisenstein_ring_identity_e4_squared_is_e8():
    # dim M_8(Sp_4(Z)) = 1 (Igusa 1962), so E_4^2 = E_8 at every index; the
    # product mixes the discriminants of all splittings T = T1 + T2
    from siegel_reference import product_coeff

    indices = enumerate_reduced(6)
    assert len(indices) == 30
    for T in indices:
        assert product_coeff(_eisenstein(4), _eisenstein(4), T) == eisenstein_coeff(7, T), T


def test_eisenstein_ring_identity_negative_control_e4e6_is_not_e10():
    # E_4 E_6 - E_10 is a nonzero cusp form, a multiple of chi_10: it vanishes
    # at the singular indices and nowhere among the positive definite ones
    # of trace <= 6, with Igusa's chi_10 values 1, -2, -16, 36 at the first four
    from siegel_reference import product_coeff

    diff = {
        T: product_coeff(_eisenstein(4), _eisenstein(6), T) - eisenstein_coeff(9, T)
        for T in enumerate_reduced(6)
    }
    definite = enumerate_reduced(6, include_singular=False)
    assert len(definite) == 23 and [T for T, d in diff.items() if d] == definite
    first = [FourierIndex(1, 1, 1), FourierIndex(1, 0, 1), FourierIndex(1, 1, 2), FourierIndex(1, 0, 2)]
    assert [diff[T] / diff[first[0]] for T in first] == [1, -2, -16, 36]
