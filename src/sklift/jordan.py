"""Rational octonions and the 3x3 exceptional Jordan algebra.

The multiplication table uses the cyclic Fano convention with triples
(1,2,4), (2,3,5), (3,4,6), (4,5,7), (5,6,1), (6,7,2), (7,1,3):
e_a e_b = e_c when (a,b,c) is a cyclic rotation of a triple, -e_c for the
reversed order, e_i^2 = -1, e_0 = 1.  Any consistent table would do; all
downstream checks (composition norm, alternativity, determinant symmetry)
are convention-covariant.

Jordan elements are hermitian matrices

        [ a  x  y ]
        [ x~ b  z ]          a, b, c rational, x, y, z octonions,
        [ y~ z~ c ]

with the Freudenthal cubic form

    det(X) = abc - a N(z) - b N(y) - c N(x) + 2 Re((x z) y~).

Positivity is decided by nested minors: a > 0, ab - N(x) > 0, det > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Octonion",
    "JordanElement",
    "jordan_det",
    "is_positive",
    "FANO_TRIPLES",
]

FANO_TRIPLES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def _build_table():
    table = [[None] * 8 for _ in range(8)]
    table[0][0] = (1, 0)
    for i in range(1, 8):
        table[0][i] = (1, i)
        table[i][0] = (1, i)
        table[i][i] = (-1, 0)
    for a, b, c in FANO_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[x][y] = (1, z)
            table[y][x] = (-1, z)
    return table


_MUL = _build_table()

_ZERO8 = (Fraction(0),) * 8


@dataclass(frozen=True)
class Octonion:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))
        if len(self.coords) != 8:
            raise ValueError("octonions have 8 coordinates")

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(_ZERO8)

    @classmethod
    def one(cls) -> "Octonion":
        return cls((1,) + (0,) * 7)

    @classmethod
    def unit(cls, i: int) -> "Octonion":
        return cls(tuple(1 if j == i else 0 for j in range(8)))

    @classmethod
    def from_scalar(cls, a) -> "Octonion":
        return cls((a,) + (0,) * 7)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Octonion":
        return Octonion(tuple(-a for a in self.coords))

    def scale(self, c) -> "Octonion":
        c = Fraction(c)
        return Octonion(tuple(c * a for a in self.coords))

    def __mul__(self, other: "Octonion") -> "Octonion":
        out = [Fraction(0)] * 8
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if not b:
                    continue
                sign, k = _MUL[i][j]
                out[k] += sign * a * b
        return Octonion(tuple(out))

    def conjugate(self) -> "Octonion":
        return Octonion((self.coords[0],) + tuple(-c for c in self.coords[1:]))

    @property
    def real(self) -> Fraction:
        return self.coords[0]

    def norm(self) -> Fraction:
        """N(x) = x x~ = sum of squared coordinates; multiplicative."""
        return sum(c * c for c in self.coords)

    def __repr__(self):
        terms = [str(self.coords[0])] + [
            f"{c}*e{i}" for i, c in enumerate(self.coords) if i and c
        ]
        return "Oct(" + " + ".join(terms) + ")"


@dataclass(frozen=True)
class JordanElement:
    """Hermitian 3x3 element: diagonal (a, b, c), off-diagonal x, y, z."""

    a: Fraction
    b: Fraction
    c: Fraction
    x: Octonion
    y: Octonion
    z: Octonion

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))

    @classmethod
    def diagonal(cls, a, b, c) -> "JordanElement":
        o = Octonion.zero()
        return cls(a, b, c, o, o, o)

    @classmethod
    def identity(cls) -> "JordanElement":
        return cls.diagonal(1, 1, 1)

    def scale(self, lam) -> "JordanElement":
        lam = Fraction(lam)
        return JordanElement(
            lam * self.a, lam * self.b, lam * self.c,
            self.x.scale(lam), self.y.scale(lam), self.z.scale(lam),
        )

    def cyclic(self) -> "JordanElement":
        """Simultaneous cyclic row/column permutation (a Jordan symmetry)."""
        return JordanElement(
            self.b, self.c, self.a, self.z, self.x.conjugate(), self.y.conjugate()
        )


def jordan_det(X: JordanElement) -> Fraction:
    """Freudenthal cubic determinant."""
    tri = (X.x * X.z) * X.y.conjugate()
    return (
        X.a * X.b * X.c
        - X.a * X.z.norm()
        - X.b * X.y.norm()
        - X.c * X.x.norm()
        + 2 * tri.real
    )


def is_positive(X: JordanElement) -> bool:
    """Nested-minors positivity: a > 0, ab - N(x) > 0, det(X) > 0."""
    if X.a <= 0:
        return False
    if X.a * X.b - X.x.norm() <= 0:
        return False
    return jordan_det(X) > 0

