"""Level-one elliptic eigenforms and their Satake data.

Cusp space bases are built from monomials in E_4, E_6 and Delta and
echelonized exactly.  Only one-dimensional cusp spaces are accepted by
``eigenform`` (after the k odd parity gate this means 2k in {18, 22, 26}),
which keeps all Hecke eigenvalue arithmetic inside Q.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import SqrtExt, row_reduce
from .qseries import QSeries, convolve_int, modular_ints

__all__ = [
    "ParityGateError",
    "DimensionGateError",
    "dim_modular_forms",
    "dim_cusp_forms",
    "cusp_space_basis",
    "hecke_Tp_level1",
    "Eigenform",
    "eigenform",
    "SatakeSymbol",
    "satake_power_sum",
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
    """Echelonized basis of S_weight(SL_2(Z)), leading coefficients staircased."""
    dim = dim_cusp_forms(weight)
    if dim == 0:
        return []
    if truncation < dim:
        raise ValueError("truncation too small to echelonize")
    e4, e6, dlt = modular_ints(truncation)
    w = weight - 12
    shapes = [(a, (w - 4 * a) // 6) for a in range(w // 4 + 1) if (w - 4 * a) % 6 == 0]
    assert len(shapes) == dim, (weight, len(shapes), dim)
    rows = []
    for a, b in shapes:
        row = dlt  # Delta E_4^a E_6^b, one factor at a time
        for factor in [e4] * a + [e6] * b:
            row = convolve_int(row, factor, truncation)
        rows.append([Fraction(x) for x in row])
    row_reduce(rows, truncation + 1)
    return [QSeries(weight, truncation, row) for row in rows]


def hecke_Tp_level1(f: QSeries, p: int) -> QSeries:
    """Classical T_p on level one: b(n) = a(pn) + p^(w-1) a(n/p)."""
    from .qseries import TruncationError

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


def _eigen_ratio(f: QSeries, g: QSeries, upto: int) -> Fraction:
    """The constant g.a(n)/f.a(n); raises if the ratio wanders."""
    n0 = min(f.truncation, g.truncation, upto)
    ratio = None
    for n in range(1, n0 + 1):
        if f.a(n) == 0:
            if g.a(n) != 0:
                raise ValueError(f"not proportional at n={n}")
            continue
        r = g.a(n) / f.a(n)
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise ValueError(f"eigen-ratio not constant at n={n}: {r} != {ratio}")
    if ratio is None:
        raise ValueError("no nonzero coefficients to compare")
    return ratio


class Eigenform:
    """Normalized Hecke eigenform in S_{2k}(SL_2(Z)) with rational coefficients."""

    def __init__(self, k_half: int, series: QSeries):
        if series.a(1) != 1:
            series = series.scale(1 / series.a(1))
        self.k_half = k_half
        self.series = series
        self.ap_cache: dict[int, Fraction] = {}
        self._satake: dict[int, SatakeSymbol] = {}
        self._ramanujan_checked_to = 0
        self.local_factors: dict = {}  # lift._local_factor's memo, one value per local class

    @property
    def weight(self) -> int:
        return 2 * self.k_half

    @property
    def truncation(self) -> int:
        return self.series.truncation

    def a(self, n: int) -> Fraction:
        return self.series.a(n)

    def ap(self, p: int) -> Fraction:
        if p not in self.ap_cache:
            self.ap_cache[p] = self.series.a(p)
        return self.ap_cache[p]

    def satake(self, p: int) -> "SatakeSymbol":
        if p not in self._satake:
            self._satake[p] = SatakeSymbol(p, self.k_half, self.ap(p))
        return self._satake[p]

    def power_sum(self, p: int, m: int) -> SqrtExt:
        return self.satake(p).power_sum(m)

    def __repr__(self):
        return f"Eigenform(weight={self.weight}, N0={self.truncation})"


def eigenform(two_k: int, truncation: int = 128) -> Eigenform:
    """The unique normalized eigenform in S_{2k}, gated to k odd and dim 1.

    The Hecke eigenvector property is verified for p <= 13 by eigen-ratio
    constancy rather than assumed from dim = 1.
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
    for p in (2, 3, 5, 7, 11, 13):
        if truncation // p >= 2:
            g = hecke_Tp_level1(f.series, p)
            lam = _eigen_ratio(f.series, g, upto=min(30, truncation // p))
            if lam != f.ap(p):
                raise ValueError(f"T_{p} eigenvalue {lam} != a({p}) = {f.ap(p)}")
    return f


class SatakeSymbol:
    """Power sums s_m = alpha_p^m + alpha_p^{-m} of the Satake parameter.

    a(p) = p^(k-1/2) (alpha_p + alpha_p^{-1}), so s_1 = a(p) p^(1/2-k) lies in
    Q(sqrt p); the three-term recurrence s_{m+1} = s_1 s_m - s_{m-1} keeps
    everything exact.  Even m give rational s_m, odd m pure sqrt(p) parts.
    """

    def __init__(self, p: int, k_half: int, ap: Fraction):
        self.p = p
        self.k_half = k_half
        self.ap = Fraction(ap)
        s1 = SqrtExt(p, 0, self.ap / Fraction(p**k_half))
        self._sums = [SqrtExt(p, 2), s1]

    def power_sum(self, m: int) -> SqrtExt:
        if m < 0:
            m = -m
        while len(self._sums) <= m:
            s1 = self._sums[1]
            self._sums.append(s1 * self._sums[-1] - self._sums[-2])
        return self._sums[m]


def satake_power_sum(f: Eigenform, p: int, m: int) -> SqrtExt:
    return f.power_sum(p, m)


class RamanujanReport:
    def __init__(self, two_k: int, bound: int, violations: list[int]):
        self.two_k = two_k
        self.prime_bound = bound
        self.violations = violations
        self.passed = not violations

    def __repr__(self):
        status = "pass" if self.passed else f"FAIL at p={self.violations}"
        return f"RamanujanReport(2k={self.two_k}, p<={self.prime_bound}: {status})"


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1) if n >= 0 else bytearray()
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for j in range(p * p, n + 1, p):
                sieve[j] = 0
    return out


def ramanujan_gate(form, prime_bound: int) -> RamanujanReport:
    """Check a(p)^2 <= 4 p^(2k-1) for p <= prime_bound (squared, so rational).

    ``form`` needs only ``.a(n)`` and ``.k_half``; lift assembly refuses
    eigenforms that fail this.
    """
    k = form.k_half
    bad = []
    for p in _primes_upto(prime_bound):
        if form.a(p) ** 2 > 4 * p ** (2 * k - 1):
            bad.append(p)
    return RamanujanReport(2 * k, prime_bound, bad)
