"""Level-one elliptic eigenforms.

Cusp space bases are built from the products Delta^j E_{k-12j}, j = 1..dim,
and echelonized exactly.  Only one-dimensional cusp spaces are accepted by
``eigenform`` (after the k odd parity gate this means 2k in {18, 22, 26}),
which keeps all Hecke eigenvalue arithmetic inside Q; ``eigenform`` tests
its eigenvalues a(p), p <= 13, by ``arith.proportionality``.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import _spf_table, proportionality
from .qseries import QSeries, TruncationError, convolve_int, delta_ints, eisenstein_ints

__all__ = [
    "ParityGateError",
    "DimensionGateError",
    "dim_modular_forms",
    "dim_cusp_forms",
    "cusp_space_basis",
    "hecke_Tp_level1",
    "Eigenform",
    "eigenform",
    "ramanujan_gate",
    "RamanujanReport",
]

SUPPORTED_WEIGHTS = (18, 22, 26)


class ParityGateError(ValueError):
    """Raised for weights 2k with k even; the degree-2 lift needs k odd."""


class DimensionGateError(ValueError):
    """Raised when dim S_{2k}(SL_2(Z)) != 1."""


def dim_modular_forms(weight: int) -> int:
    if weight < 0 or weight % 2:
        return 0
    if weight % 12 == 2:
        return weight // 12
    return weight // 12 + 1


def dim_cusp_forms(weight: int) -> int:
    if weight < 4 or weight % 2:
        return 0
    return max(dim_modular_forms(weight) - 1, 0)


def cusp_space_basis(weight: int, truncation: int) -> list[QSeries]:
    """Echelonized basis of S_weight(SL_2(Z)), leading coefficients staircased.

    Row j = 1..dim is Delta^j E_{weight-12j} (E_0 = 1; weight - 12j is never
    2), which starts at q^j, so the rows span the cusp space and are already
    in echelon form.  The reduced echelon form of a row space is unique, so
    it does not depend on which spanning rows go in.  The rows stay integer
    lists: each pivot column is cleared from the rows above it without
    division, so row j is its reduced row times its own leading coefficient,
    and each coefficient becomes one ``Fraction`` over that lead at the end.
    """
    dim = dim_cusp_forms(weight)
    if dim == 0:
        return []
    if truncation < dim:
        raise ValueError("truncation too small to echelonize")
    dlt = delta_ints(truncation)
    rows = []
    power = dlt
    for j in range(1, dim + 1):
        if j > 1:
            power = convolve_int(power, dlt, truncation)
        if j == dim:
            del dlt  # the last product reads Delta^dim only
        w = weight - 12 * j
        rows.append(power if w == 0 else convolve_int(power, eisenstein_ints(w, truncation), truncation))
    del power  # the echelon reads the rows only
    for j, row in enumerate(rows, 1):
        lead = row[j]
        for i in range(j - 1):
            f = rows[i][j]
            if f:
                rows[i] = [lead * x - f * y for x, y in zip(rows[i], row)]
    return [QSeries(weight, truncation, [Fraction(x, row[j]) for x in row]) for j, row in enumerate(rows, 1)]


def hecke_Tp_level1(f: QSeries, p: int) -> QSeries:
    """Classical T_p on level one: b(n) = a(pn) + p^(w-1) a(n/p)."""
    n_out = f.truncation // p
    if n_out < 1 and not f.is_zero():
        raise TruncationError(
            f"truncation {f.truncation} insufficient for T_{p} (needs at least {p})"
        )
    pw = p ** (f.weight - 1)
    coeffs = []
    for n in range(n_out + 1):
        b = f.a(p * n)
        if n % p == 0:
            b += pw * f.a(n // p)
        coeffs.append(b)
    return QSeries(f.weight, n_out, coeffs)


class Eigenform:
    """Normalized Hecke eigenform in S_{2k}(SL_2(Z)) with rational coefficients.

    Construction normalizes a(1) = 1 and runs ``ramanujan_gate`` for
    p <= min(100, truncation), raising ``ArithmeticError`` on a violation:
    the lift substitutes the Satake parameters, which presumes the bound.
    """

    def __init__(self, k_half: int, series: QSeries):
        if series.a(1) != 1:
            series = series.scale(1 / series.a(1))
        self.k_half = k_half
        self.series = series
        self.local_factors: dict = {}  # LocalData -> (degree, value), lift_coeff's memo
        report = ramanujan_gate(self, min(100, self.truncation))
        if not report.passed:
            raise ArithmeticError(f"Ramanujan gate failed: {report!r}")

    @property
    def truncation(self) -> int:
        return self.series.truncation

    def a(self, n: int) -> Fraction:
        return self.series.a(n)

    def __repr__(self):
        return f"Eigenform(weight={2 * self.k_half}, N0={self.truncation})"


def eigenform(two_k: int, truncation: int = 128) -> Eigenform:
    """The unique normalized eigenform in S_{2k}, gated to k odd and dim 1.

    The Hecke eigenvector property is verified for p <= 13 rather than assumed
    from dim = 1: b(1..min(30, truncation // p)) of T_p f must be a(p) f, and
    some prime must compare two nonzero coefficients (truncation >= 4).
    """
    if two_k % 2:
        raise ValueError("weight must be even")
    k = two_k // 2
    if k % 2 == 0:
        raise ParityGateError(
            f"weight {two_k} rejected: the lift needs k = weight/2 odd and k={k} is even"
        )
    dim = dim_cusp_forms(two_k)
    if dim != 1:
        raise DimensionGateError(
            f"weight {two_k} rejected: dim S_{two_k} = {dim}, only dimension 1 is supported"
        )
    basis = cusp_space_basis(two_k, truncation)
    f = Eigenform(k, basis[0])
    tested = 0
    for p in (2, 3, 5, 7, 11, 13):
        # the check reads b(1..upto) of the image, which needs a(n) for n <= p upto
        upto = min(30, truncation // p)
        if upto < 2:
            break
        g = hecke_Tp_level1(f.series.truncate(p * upto), p)
        lam, count, bad = proportionality((n, g.a(n), f.a(n)) for n in range(1, upto + 1))
        if bad is not None:
            raise ArithmeticError(f"T_{p} image not proportional at n={bad}")
        if lam != f.a(p):
            raise ArithmeticError(f"T_{p} eigenvalue {lam} != a({p}) = {f.a(p)}")
        tested += count
    if not tested:
        raise ArithmeticError(f"truncation {truncation} tests no T_p eigenvalue")
    return f


class RamanujanReport:
    def __init__(self, two_k: int, bound: int, violations: list[int]):
        self.two_k = two_k
        self.prime_bound = bound
        self.violations = violations
        self.passed = not violations

    def __repr__(self):
        status = "pass" if self.passed else f"FAIL at p={self.violations}"
        return f"RamanujanReport(2k={self.two_k}, p<={self.prime_bound}: {status})"


def ramanujan_gate(form, prime_bound: int) -> RamanujanReport:
    """Check a(p)^2 <= 4 p^(2k-1) for p <= prime_bound (squared, so rational).

    ``form`` needs only ``.a(n)`` and ``.k_half``.  ``Eigenform`` runs it at
    construction, so no eigenform that fails it reaches the lift.
    """
    k = form.k_half
    spf = _spf_table(prime_bound)
    bad = [p for p in range(2, prime_bound + 1) if spf[p] == p and form.a(p) ** 2 > 4 * p ** (2 * k - 1)]
    return RamanujanReport(2 * k, prime_bound, bad)
