import random
from fractions import Fraction

from sklift.jordan import (
    FANO_TRIPLES,
    JordanElement,
    Octonion,
    is_positive,
    jordan_det,
)


def random_octonion(rng, denom=5, span=9):
    return Octonion(
        tuple(Fraction(rng.randint(-span, span), rng.randint(1, denom)) for _ in range(8))
    )


def test_fano_triples_cover_all_pairs():
    pairs = set()
    for a, b, c in FANO_TRIPLES:
        for x, y in ((a, b), (b, c), (c, a)):
            pairs.add(frozenset((x, y)))
    assert len(pairs) == 21


def test_unit_and_squares():
    e = Octonion.unit
    one = Octonion.one()
    for i in range(8):
        assert one * e(i) == e(i)
        assert e(i) * one == e(i)
    for i in range(1, 8):
        assert e(i) * e(i) == -one


def test_conjugation_identity():
    rng = random.Random(23)
    for _ in range(50):
        x = random_octonion(rng)
        assert x.conjugate() == Octonion.from_scalar(2 * x.real) - x
        assert (x * x.conjugate()) == Octonion.from_scalar(x.norm())


def test_composition_norm_200_pairs():
    rng = random.Random(41)
    for _ in range(200):
        x, y = random_octonion(rng), random_octonion(rng)
        assert (x * y).norm() == x.norm() * y.norm()


def test_alternativity_and_nonassociativity():
    rng = random.Random(42)
    for _ in range(200):
        x, y = random_octonion(rng), random_octonion(rng)
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)
    # an explicit associativity failure witness must exist
    e = Octonion.unit
    assert (e(1) * e(2)) * e(3) != e(1) * (e(2) * e(3))


class TestJordanDet:
    def test_diagonal(self):
        assert jordan_det(JordanElement.diagonal(2, 3, 5)) == 30
        assert jordan_det(JordanElement.identity()) == 1

    def test_all_units_offdiagonal(self):
        X = JordanElement(0, 0, 0, Octonion.one(), Octonion.one(), Octonion.one())
        assert jordan_det(X) == 2

    def test_homogeneity_degree_3(self):
        rng = random.Random(9)
        for _ in range(40):
            X = JordanElement(
                rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5),
                random_octonion(rng), random_octonion(rng), random_octonion(rng),
            )
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            assert jordan_det(X.scale(lam)) == lam**3 * jordan_det(X)

    def test_cyclic_symmetry(self):
        rng = random.Random(10)
        for _ in range(40):
            X = JordanElement(
                rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5),
                random_octonion(rng), random_octonion(rng), random_octonion(rng),
            )
            assert jordan_det(X.cyclic()) == jordan_det(X)

    def test_complex_subalgebra_matches_cofactor_expansion(self):
        # entries in the commutative subfield Q(e1): compare against a plain
        # 3x3 hermitian determinant computed with complex cofactors
        rng = random.Random(11)

        def cplx(re, im):
            return Octonion((re, im) + (0,) * 6)

        for _ in range(40):
            a, b, c = (Fraction(rng.randint(-5, 5)) for _ in range(3))
            xs = [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))) for _ in range(3)]
            X = JordanElement(a, b, c, cplx(*xs[0]), cplx(*xs[1]), cplx(*xs[2]))
            # cofactor expansion over complex numbers (re, im) pairs
            def cm(u, v):
                return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

            def conj(u):
                return (u[0], -u[1])

            x, y, z = xs
            nx = x[0] ** 2 + x[1] ** 2
            ny = y[0] ** 2 + y[1] ** 2
            nz = z[0] ** 2 + z[1] ** 2
            tri = cm(cm(x, z), conj(y))
            det = a * b * c - a * nz - b * ny - c * nx + 2 * tri[0]
            assert jordan_det(X) == det


def test_positivity():
    assert is_positive(JordanElement.identity())
    assert not is_positive(JordanElement.diagonal(1, 1, -1))
    assert is_positive(JordanElement.diagonal(1, Fraction(1, 50), Fraction(1, 900)))
    assert not is_positive(JordanElement.diagonal(-1, -1, -1))
    # indefinite with off-diagonal mass
    big = Octonion.from_scalar(10)
    assert not is_positive(JordanElement(1, 1, 1, big, Octonion.zero(), Octonion.zero()))

