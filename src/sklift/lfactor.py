"""Symbolic Satake multisets and standard L-factor identities.

Monomials alpha^a beta^b chi^e p^(c/2) form a commutative group; Satake
parameter sets are multisets of such monomials, and local Euler factors are
polynomials in t = p^(-s) whose coefficients are integer combinations of
monomials.  Everything is exact bookkeeping: the four tube-domain standard
L-factorizations, the degree-(4n+1) CAP comparison, the Arthur dimension
count 4 + 34 + 18 = 56 and the degree-12 Rankin-Selberg identity are all
verified as multiset / polynomial identities.  The E7,3 standard side comes
from the Arthur parameter ``_E73_ARTHUR``, which the dimension count reads too.

Every Euler factor is a product of linear factors (1 - mu t), and all of
them go through one kernel, ``_product_of_linears``, which packs the
monomials of each coefficient of t into big integers (Kronecker
substitution) so that one linear step is one shift and one add per
coefficient.  The monomials are counted from the median of the roots in
each exponent, which keeps the box of cells small, and each coefficient's
int starts at the lowest cell that coefficient can reach, so no int carries
empty low cells.  Each cell takes the whole bytes its largest count,
C(n, n // 2) for n roots, needs (7 for E7,3's 56 roots).  The factor it
returns keeps those ints: the two sides of an identity are compared by
their grids and ints alone (see ``EulerFactor``), and the coefficients are
read back into dicts keyed by the (a, b, half, chi) exponents only when a
reader asks for them.

The chi exponent (mod 2) carries the quadratic character of the imaginary
quadratic field in the SU(n,n) case symbolically, so one identity covers
split and inert primes at once.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress, islice, product
from operator import neg
from typing import NamedTuple

__all__ = [
    "SymMonomial",
    "SatakeMultiset",
    "EulerFactor",
    "GROUPS",
    "standard_satake",
    "factored_rhs",
    "satake_degree",
    "cap_induced_multiset",
    "cap_check",
    "arthur_dims",
    "miyawaki_check",
    "Report",
]

GROUPS = ("Sp4n", "SU2n+1", "SU2nH", "E73")


class SymMonomial(NamedTuple):
    """alpha^a * beta^b * chi^e * p^(half/2)."""

    a: int = 0
    b: int = 0
    half: int = 0
    chi: int = 0

    def __mul__(self, other: "SymMonomial") -> "SymMonomial":
        return SymMonomial(
            self.a + other.a,
            self.b + other.b,
            self.half + other.half,
            (self.chi + other.chi) % 2,
        )

    def inverse(self) -> "SymMonomial":
        return SymMonomial(-self.a, -self.b, -self.half, self.chi)

    def __repr__(self):
        parts = []
        if self.a:
            parts.append(f"a^{self.a}")
        if self.b:
            parts.append(f"b^{self.b}")
        if self.chi:
            parts.append("chi")
        if self.half:
            parts.append(f"p^({self.half}/2)")
        return "*".join(parts) or "1"


ONE = SymMonomial()


def alpha(e: int = 1) -> SymMonomial:
    return SymMonomial(a=e)


def beta(e: int = 1) -> SymMonomial:
    return SymMonomial(b=e)


def p_half(e: int) -> SymMonomial:
    """p^(e/2)."""
    return SymMonomial(half=e)


def chi_mark() -> SymMonomial:
    return SymMonomial(chi=1)


class SatakeMultiset:
    """Multiset of monomials; standard parameters are closed under inversion."""

    def __init__(self, entries):
        self.counts: dict[SymMonomial, int] = {}
        for m in entries:
            self.counts[m] = self.counts.get(m, 0) + 1

    def __len__(self):
        return sum(self.counts.values())

    def __iter__(self):
        for m, c in sorted(self.counts.items()):
            for _ in range(c):
                yield m

    def __eq__(self, other):
        return isinstance(other, SatakeMultiset) and self.counts == other.counts

    def is_self_dual(self) -> bool:
        inv = {}
        for m, c in self.counts.items():
            inv[m.inverse()] = inv.get(m.inverse(), 0) + c
        return inv == self.counts

    def euler_factor(self) -> "EulerFactor":
        return _product_of_linears(self)

    def __repr__(self):
        return "SatakeMultiset{" + ", ".join(repr(m) for m in self) + "}"


class _Poly:
    """Integer combination of monomials (Euler factor coefficient), keyed by (a, b, half, chi)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple, int]):
        self.terms = terms

    def __eq__(self, other):
        return isinstance(other, _Poly) and self.terms == other.terms

    def monomials(self) -> dict:
        return self.terms


class EulerFactor:
    """The coefficients of prod (1 - mu t) as packed big ints.

    ``even[j]`` and ``odd[j]`` hold the cells (chi even, chi odd) of the
    coefficient of t^j, with the sign (-1)^j left off.  Coefficient j starts
    at its own lowest reachable cell ``off[j]`` of the box (counted from the
    cell of base^j), so bit 0 of every nonzero int is in a cell that can hold
    a count.  ``grid`` is (base, axes, bytes per cell, off), which fixes the
    monomial of every cell of every int, so two factors on one grid are
    equal exactly when their ints are.  Factors on different grids differ:
    the grid is a function of the sorted root multiset, which the product
    determines (its chi = -1 image, in a Laurent polynomial ring over Z, a
    UFD, factors uniquely into 1 - mu t with mu's chi as a sign).  ``coeffs``
    reads the ints back into _Poly terms on first use, for readers of the
    terms.
    """

    __slots__ = ("even", "odd", "grid", "_coeffs")

    def __init__(self, even: list[int], odd: list[int], grid: tuple):
        self.even, self.odd, self.grid = even, odd, grid
        self._coeffs = None

    @property
    def coeffs(self) -> list[_Poly]:
        if self._coeffs is None:
            self._coeffs = self._read_back()
        return self._coeffs

    @property
    def degree(self) -> int:
        return max((j for j, (e, o) in enumerate(zip(self.even, self.odd)) if e or o), default=0)

    def __eq__(self, other):
        if not isinstance(other, EulerFactor):
            return False
        return self.grid == other.grid and self.even == other.even and self.odd == other.odd

    def _read_back(self) -> list[_Poly]:
        """The coefficients as _Poly terms, each cell read from ``width`` little-endian bytes."""
        base, axes, width, off = self.grid
        (_, lo_a, _), (_, lo_b, n_b), (_, lo_h, n_h), _ = axes
        origin = -((lo_a * n_b + lo_b) * n_h + lo_h)  # the box cell of base^j
        coeffs = []
        for j, ints in enumerate(zip(self.even, self.odd)):
            # per field, the exponent of base^j * delta along the box axis
            ranges = [range(j * c + g * lo, j * c + g * (lo + n), g) for c, (g, lo, n) in zip(base, axes)]
            terms: dict[tuple, int] = {}
            for chi, packed in enumerate(ints):
                if not packed:
                    continue
                size = -(-packed.bit_length() // (8 * width)) * width
                data = packed.to_bytes(size, "little")
                cells = [int.from_bytes(data[k : k + width], "little") for k in range(0, size, width)]
                found = compress(islice(product(*ranges, (chi,)), origin + off[j], None), cells)
                counts = compress(cells, cells)
                terms.update(zip(found, map(neg, counts) if j % 2 else counts))
            coeffs.append(_Poly(terms))
        return coeffs


def _product_of_linears(roots) -> EulerFactor:
    """prod (1 - mu t) over the root monomials, as packed big ints.

    Each root is written as base * delta, with base the median of the roots'
    exponents in each field (a, b, half), which does not depend on the order
    of the roots, so coefficient j is base^j times the j-th elementary
    symmetric sum of the deltas.  The (a, b, half) exponents of every
    partial sum of deltas, each divided by its gcd over the deltas, lie in a
    box running from the sum of the negative parts to the sum of the
    positive parts.
    Each cell of that box is one monomial, Kronecker-packed into a big int,
    so coefficient j is two big ints (chi even and chi odd) and multiplying
    all of its monomials by a delta is one shift; a chi root swaps the two.

    The roots are sorted as (a, b, half, chi) tuples, and the flat cell
    index of a delta is monotone in its (a, b, half), so their cells rise
    too.  The lowest cell coefficient j reaches is then off[j], the sum of
    the first j root cells, and its ints start there: the step
    e_j += e_(j-1) * delta_i is a left shift by cell_i - cell_(j-1) >= 0
    cells.  A cell counts j-element subsets of roots, at most
    C(n, j) <= C(n, n // 2), and is the ceil(bits(C(n, n // 2)) / 8) bytes
    that bound needs, so cells never carry.  The grid is (base, axes, bytes
    per cell, off).  The returned factor keeps the ints; the signs (-1)^j go
    on only when they are read back into _Poly terms, each cell by
    ``int.from_bytes`` over the little-endian bytes of its int.
    """
    roots = sorted(roots)
    n = len(roots)
    base = tuple(sorted(r[f] for r in roots)[n // 2] for f in range(3)) if roots else (0, 0, 0)
    axes = _grid(roots, base)
    (g_a, _, _), (g_b, _, n_b), (g_h, _, n_h), _ = axes
    cells = [
        ((a - base[0]) // g_a * n_b + (b - base[1]) // g_b) * n_h + (h - base[2]) // g_h
        for a, b, h, _ in roots
    ]
    width = -(-math.comb(n, n // 2).bit_length() // 8)
    bits = [8 * width * cell for cell in cells]

    even = [1] + [0] * n
    odd = [0] * (n + 1)
    for i, (_, _, _, chi) in enumerate(roots):
        for j in range(i + 1, 0, -1):
            e, o = (odd[j - 1], even[j - 1]) if chi else (even[j - 1], odd[j - 1])
            shift = bits[i] - bits[j - 1]
            even[j] += e << shift
            odd[j] += o << shift
    off = tuple(accumulate(cells, initial=0))
    return EulerFactor(even, odd, (base, axes, width, off))


def _grid(roots, base) -> tuple:
    """Per field (a, b, half) of the deltas root / base: (gcd, lowest, size),
    then the number of cells."""
    axes = []
    for f in range(3):
        deltas = [r[f] - base[f] for r in roots]
        g = math.gcd(*deltas) or 1
        lo = sum(d // g for d in deltas if d < 0)
        axes.append((g, lo, sum(d // g for d in deltas if d > 0) - lo + 1))
    return (*axes, math.prod(size for _, _, size in axes))


def _validate(G: str, n: int) -> None:
    if G not in GROUPS:
        raise ValueError(f"unknown group tag {G!r}; expected one of {GROUPS}")
    if n < 1:
        raise ValueError("rank parameter n must be >= 1")


# The E7,3 lift's Arthur parameter in Sp_56 [KY]: each summand Sym^m(rho_f) (x) Sym^u
# as (m, u), with weights alpha^(m-2i) p^((u-2j)/2)
_E73_ARTHUR = {"Sym3(rho_f)": (3, 0), "rho_f (x) Sym16": (1, 16), "rho_f (x) Sym8": (1, 8)}


def satake_degree(G: str, n: int) -> int:
    _validate(G, n)
    return {"Sp4n": 4 * n + 1, "SU2n+1": 4 * (2 * n + 1), "SU2nH": 4 * n, "E73": 56}[G]


def standard_satake(G: str, n: int = 1) -> SatakeMultiset:
    """Satake parameter multiset of the standard L-function of the lift."""
    _validate(G, n)
    entries: list[SymMonomial] = [ONE] if G == "Sp4n" else []  # Sp_4n: SU(2n, H) plus the root 1
    if G in ("Sp4n", "SU2nH"):
        for i in range(1, 2 * n + 1):
            c = 2 * n + 1 - 2 * i  # n + 1/2 - i in half units
            mu = alpha() * p_half(c)
            entries += [mu, mu.inverse()]
    elif G == "SU2n+1":
        for i in range(1, 2 * n + 2):
            c = 2 * (n + 1 - i)
            for extra in (ONE, chi_mark()):
                mu = alpha() * p_half(c) * extra
                entries += [mu, mu.inverse()]
    else:  # E73: the weights of each Arthur summand Sym^m(rho_f) (x) Sym^u
        for m, u in _E73_ARTHUR.values():
            entries += [alpha(m - 2 * i) * p_half(u - 2 * j) for i in range(m + 1) for j in range(u + 1)]
    ms = SatakeMultiset(entries)
    assert len(ms) == satake_degree(G, n)
    return ms


def _L_roots(shift_half: int, twist: SymMonomial = ONE) -> list[SymMonomial]:
    """Roots of the local factor of L(s + shift, f x twist):
    alpha q and alpha^-1 q with q = twist * p^(-shift)."""
    q = twist * p_half(-shift_half)
    return [alpha() * q, alpha(-1) * q]


def factored_rhs(G: str, n: int = 1) -> EulerFactor:
    """Local standard L-factor assembled from the displayed product of
    shifted L(., f) blocks (plus Sym^3 for E73)."""
    _validate(G, n)
    roots: list[SymMonomial] = [ONE] if G == "Sp4n" else []  # zeta(s) for Sp_4n
    if G in ("Sp4n", "SU2nH"):
        for i in range(1, 2 * n + 1):
            roots += _L_roots(2 * n + 1 - 2 * i)
    elif G == "SU2n+1":
        for i in range(1, 2 * n + 2):
            shift = 2 * (n + 1 - i)
            roots += _L_roots(shift) + _L_roots(shift, chi_mark())
    else:  # E73: Sym^3, then L(s,f)^2, then the shifted blocks
        roots += [alpha(3), alpha(1), alpha(-1), alpha(-3)]
        roots += _L_roots(0) + _L_roots(0)
        for i in range(1, 5):
            roots += _L_roots(2 * i) * 2 + _L_roots(-2 * i) * 2
        for i in range(5, 9):
            roots += _L_roots(2 * i) + _L_roots(-2 * i)
    return _product_of_linears(roots)


class Report:
    def __init__(self, name: str, passed: bool, details: list):
        self.name = name
        self.passed = passed
        self.details = details

    def to_text(self) -> str:
        lines = ["sklift report v1", f"check {self.name} : " + ("PASS" if self.passed else "FAIL")]
        lines += [f"  {d}" for d in self.details]
        return "\n".join(lines) + "\n"


def cap_induced_multiset(n: int, shifts_half=None) -> SatakeMultiset:
    """Standard parameters of the degree-(4n+1) representation induced from
    pi_f |det|^(n-1/2) x ... x pi_f |det|^(1/2) on the GL_2^n Levi,
    closed under inversion and completed by {1}."""
    if shifts_half is None:
        shifts_half = [2 * (n - j) + 1 for j in range(1, n + 1)]  # n+1/2-j in halves
    entries = [ONE]
    for c in shifts_half:
        for mono in (alpha() * p_half(-c), alpha(-1) * p_half(-c)):
            entries += [mono, mono.inverse()]
    return SatakeMultiset(entries)


def cap_check(n: int) -> Report:
    """Near-equivalence bookkeeping: induced parameters match standard_satake(Sp4n)."""
    induced = cap_induced_multiset(n)
    std = standard_satake("Sp4n", n)
    ok = induced == std and len(induced) == 4 * n + 1
    details = [f"degree {len(induced)} (expected {4 * n + 1})"]
    if not ok:
        got = set(induced.counts.items())
        want = set(std.counts.items())
        details.append(f"mismatch {got ^ want}")
    return Report(name=f"cap-satake n={n}", passed=ok, details=details)


def _sym_type(n: int) -> str:
    # Sym^n of SL_2: symplectic image for odd n, orthogonal for even n
    return "Sp" if n % 2 else "SO"


def _tensor_type(t1: str, t2: str) -> str:
    return "Sp" if (t1 == "Sp") != (t2 == "Sp") else "SO"


def arthur_dims() -> Report:
    """Dimension and parity bookkeeping of the E7,3 Arthur parameter ``_E73_ARTHUR``."""
    summands = [
        (name, (m + 1) * (u + 1), _tensor_type(_sym_type(m), _sym_type(u)))
        for name, (m, u) in _E73_ARTHUR.items()
    ]
    total = sum(d for _, d, _ in summands)
    ok = total == satake_degree("E73", 1) and all(t == "Sp" for _, _, t in summands)
    details = [f"{name}: dim {d}, type {t}" for name, d, t in summands]
    details.append(f"total {total} inside Sp_56")
    return Report(name="arthur-dims-e73", passed=ok, details=details)


def miyawaki_check() -> Report:
    """Degree-12 spin bookkeeping for the two-eigenform integral lift.

    The 12-element parameter set {(ba)^+-1, (b/a)^+-1, 1, 1, p^+-1, p^+-2,
    p^+-3} must reproduce the factored side L(s, h x f) zeta(s)^2
    zeta(s +- 1) zeta(s +- 2) zeta(s +- 3), and the Arthur side decomposes
    as SO_4 x SO_8 in GSO_12 with the (7,1) unipotent exponents.
    """
    entries = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            entries.append(alpha(s1) * beta(s2))
    entries += [ONE, ONE]
    for i in (1, 2, 3):
        entries += [p_half(2 * i), p_half(-2 * i)]
    ms = SatakeMultiset(entries)

    rankin = [alpha(s1) * beta(s2) for s1 in (1, -1) for s2 in (1, -1)]
    zetas = [ONE, ONE] + [p_half(-s) for i in (1, 2, 3) for s in (2 * i, -2 * i)]
    factored = _product_of_linears(rankin + zetas)

    identity_ok = ms.euler_factor() == factored and len(ms) == 12 and ms.is_self_dual()

    so4, so8 = 4, 8
    dims_ok = so4 + so8 == 12
    # (7,1) orbit of SO_8: principal SL_2 in SO_7 plus a fixed line
    unipotent_exponents = sorted([0, 0, 1, -1, 2, -2, 3, -3])
    satake_p_exponents = sorted(
        m.half // 2 for m in ms if m.a == 0 and m.b == 0
    )
    orbit_ok = unipotent_exponents == satake_p_exponents

    ok = identity_ok and dims_ok and orbit_ok
    details = [
        f"degree {len(ms)} (expected 12)",
        f"euler-factor identity: {identity_ok}",
        f"SO4 + SO8 = {so4 + so8} in GSO_12",
        f"(7,1) exponents {satake_p_exponents}",
    ]
    return Report(name="miyawaki-degree12", passed=ok, details=details)

