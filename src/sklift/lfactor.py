"""Symbolic Satake multisets and standard L-factor identities.

Monomials alpha^a beta^b chi^e p^(c/2) form a commutative group; Satake
parameter sets are multisets of such monomials, and local Euler factors are
polynomials in t = p^(-s) whose coefficients are integer combinations of
monomials.  Everything is exact bookkeeping: the four tube-domain standard
L-factorizations, the degree-(4n+1) CAP comparison, the Arthur dimension
count 4 + 34 + 18 = 56 and the degree-12 Rankin-Selberg identity are all
verified as multiset / polynomial identities.

Every Euler factor is a product of linear factors (1 - mu t), and all of
them go through one kernel, ``_product_of_linears``, which packs the
monomials of each coefficient of t into big integers (Kronecker
substitution) so that one linear step is one shift and one add per
coefficient.

The chi exponent (mod 2) carries the quadratic character of the imaginary
quadratic field in the SU(n,n) case symbolically, so one identity covers
split and inert primes at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import neg

__all__ = [
    "SymMonomial",
    "SatakeMultiset",
    "EulerFactor",
    "GROUPS",
    "standard_satake",
    "factored_rhs",
    "satake_degree",
    "lift_weight",
    "index_lattice_dim",
    "cap_induced_multiset",
    "cap_check",
    "arthur_dims",
    "miyawaki_check",
    "Report",
    "degenerate_alpha",
    "eisenstein_point_exponents",
    "inducing_exponent",
]

GROUPS = ("Sp4n", "SU2n+1", "SU2nH", "E73")


@dataclass(frozen=True)
class SymMonomial:
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
        for m, c in sorted(
            self.counts.items(), key=lambda kv: (kv[0].a, kv[0].b, kv[0].half, kv[0].chi)
        ):
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
        return _product_of_linears([_key(m) for m in self])

    def __repr__(self):
        return "SatakeMultiset{" + ", ".join(repr(m) for m in self) + "}"


# Monomials are packed into single ints inside _Poly: affine offsets per
# exponent field, chi on the low bit.  Field widths are far beyond anything
# the degree-56 products can reach.
_OFF = 1 << 12
_PACK0 = ((_OFF * (1 << 13) + _OFF) * (1 << 13) + _OFF) * 2  # identity, chi bit 0


def _pack(a: int, b: int, half: int, chi: int) -> int:
    return (((a + _OFF) * (1 << 13) + (b + _OFF)) * (1 << 13) + (half + _OFF)) * 2 + (chi & 1)


def _unpack_key(k: int):
    chi = k & 1
    k >>= 1
    half = k % (1 << 13) - _OFF
    k >>= 13
    b = k % (1 << 13) - _OFF
    a = (k >> 13) - _OFF
    return (a, b, half, chi)


def _key(m: SymMonomial) -> int:
    return _pack(m.a, m.b, m.half, m.chi)


class _Poly:
    """Integer combination of monomials (Euler factor coefficient).

    Terms are keyed by packed ints.  ``__mul__`` (and ``EulerFactor.__mul__``)
    multiply term by term; they are the reference that ``_product_of_linears``
    is tested against, not the path the identities take.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[int, int] = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def of(cls, m: SymMonomial, c: int = 1) -> "_Poly":
        return cls({_key(m): c})

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict[int, int] = {}
        get = out.get
        base = _PACK0 & ~1
        for k1, c1 in self.terms.items():
            h1 = k1 & ~1
            x1 = k1 & 1
            for k2, c2 in other.terms.items():
                k = (h1 + (k2 & ~1) - base) | (x1 ^ (k2 & 1))
                out[k] = get(k, 0) + c1 * c2
        return _Poly(out)

    def __eq__(self, other):
        return isinstance(other, _Poly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> dict:
        """Back to readable (a, b, half, chi) keys."""
        return {_unpack_key(k): c for k, c in self.terms.items()}


class EulerFactor:
    """Polynomial in t with _Poly coefficients; built as prod (1 - mu t)."""

    def __init__(self, coeffs: list[_Poly]):
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def one(cls) -> "EulerFactor":
        return cls([_Poly.of(ONE)])

    @classmethod
    def linear(cls, mu: SymMonomial) -> "EulerFactor":
        return cls([_Poly.of(ONE), _Poly.of(mu, -1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "EulerFactor") -> "EulerFactor":
        out: list[dict] = [{} for _ in range(self.degree + other.degree + 1)]
        base = _PACK0 & ~1
        for i, ci in enumerate(self.coeffs):
            if not ci.terms:
                continue
            for j, cj in enumerate(other.coeffs):
                if not cj.terms:
                    continue
                tgt = out[i + j]
                get = tgt.get
                for k1, c1 in ci.terms.items():
                    h1 = (k1 & ~1) - base
                    x1 = k1 & 1
                    for k2, c2 in cj.terms.items():
                        k = (h1 + (k2 & ~1)) | (x1 ^ (k2 & 1))
                        tgt[k] = get(k, 0) + c1 * c2
        return EulerFactor([_Poly(d) for d in out])

    def __eq__(self, other):
        return isinstance(other, EulerFactor) and self.coeffs == other.coeffs


def _product_of_linears(mukeys: list[int]) -> EulerFactor:
    """prod (1 - mu t) over packed root keys, in packed big ints.

    Each root is written as base * delta, with base = 1 or the first root,
    whichever gives the smaller grid, so coefficient j is base^j times the
    j-th elementary symmetric sum of the deltas.  The (a, b, half) exponents
    of every partial sum of deltas, each divided by its gcd over the deltas,
    lie in a box running from the sum of the negative parts to the sum of
    the positive parts.  Each cell of that box is one monomial,
    Kronecker-packed into a big int, so coefficient j is two big ints (chi
    even and chi odd) and multiplying all of its monomials by a delta is one
    shift; a chi root swaps the two.  A cell counts j-element subsets of
    roots, at most C(n, n // 2), and is wide enough for that, so cells never
    carry.  The signs (-1)^j go on as the cells are read back into _Poly
    terms.
    """
    roots = [_unpack_key(k) for k in mukeys]
    n = len(roots)
    bases = [(0, 0, 0)] + [r[:3] for r in roots[:1]]
    base, axes = min(((b, _grid(roots, b)) for b in bases), key=lambda ba: ba[1][-1])
    (g_a, lo_a, n_a), (g_b, lo_b, n_b), (g_h, lo_h, n_h), n_cells = axes
    strides = (n_b * n_h, n_h, 1)
    words = max(1, -(-math.comb(n, n // 2).bit_length() // 64))
    cell_bits = 64 * words

    origin = -(lo_a * strides[0] + lo_b * strides[1] + lo_h)
    even = [1 << origin * cell_bits] + [0] * n
    odd = [0] * (n + 1)
    for i, (a, b, h, chi) in enumerate(roots):
        cell = (a - base[0]) // g_a * strides[0] + (b - base[1]) // g_b * strides[1]
        shift = cell_bits * (cell + (h - base[2]) // g_h)
        for j in range(i + 1, 0, -1):
            e, o = (odd[j - 1], even[j - 1]) if chi else (even[j - 1], odd[j - 1])
            if shift >= 0:
                even[j] += e << shift
                odd[j] += o << shift
            else:
                even[j] += e >> -shift
                odd[j] += o >> -shift

    # cell -> packed key of the delta monomial (chi 0; chi 1 sets the low bit)
    step_a, step_b, step_h = g_a << 27, g_b << 14, g_h << 1
    first = _PACK0 + lo_a * step_a + lo_b * step_b + lo_h * step_h
    keys_even = [
        ka + kb + kh
        for ka in range(first, first + n_a * step_a, step_a)
        for kb in range(0, n_b * step_b, step_b)
        for kh in range(0, n_h * step_h, step_h)
    ]
    keys = (keys_even, [k + 1 for k in keys_even] if any(r[3] for r in roots) else None)
    base_step = (base[0] << 27) + (base[1] << 14) + (base[2] << 1)
    coeffs = []
    for j in range(n + 1):
        terms: dict[int, int] = {}
        for chi, ints in enumerate((even, odd)):
            packed, ints[j] = ints[j], 0  # drop each int once read
            if not packed:
                continue
            cells = memoryview(packed.to_bytes(n_cells * 8 * words, sys.byteorder)).cast("Q")
            if sys.byteorder == "big":
                cells = cells[::-1]  # words back to little-endian order
            if words > 1:
                cells = _join_words(cells, words)
            found = compress(keys[chi], cells)
            if base_step:
                found = map((j * base_step).__add__, found)
            counts = compress(cells, cells)
            terms.update(zip(found, map(neg, counts) if j % 2 else counts))
        coeffs.append(_Poly(terms))
    return EulerFactor(coeffs)


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


def _join_words(cells, words: int):
    """Cells of ``words`` little-endian 64-bit words each, as ints."""
    parts = [cells[w::words] for w in range(words)]
    if not any(map(any, parts[1:])):
        return parts[0]  # no cell reached its second word
    out = list(parts[0])
    for w in range(1, words):
        out = [lo | hi << 64 * w for lo, hi in zip(out, parts[w])]
    return out


def _validate(G: str, n: int) -> None:
    if G not in GROUPS:
        raise ValueError(f"unknown group tag {G!r}; expected one of {GROUPS}")
    if n < 1:
        raise ValueError("rank parameter n must be >= 1")


def lift_weight(G: str, k: int, n: int) -> int:
    """Weight of the lifted form: k+n, 2k+2n, 2k+2n-2, 2k+8."""
    _validate(G, n)
    return {
        "Sp4n": k + n,
        "SU2n+1": 2 * k + 2 * n,
        "SU2nH": 2 * k + 2 * n - 2,
        "E73": 2 * k + 8,
    }[G]


def index_lattice_dim(G: str, n: int) -> int:
    """dim(X) of the Heisenberg part: 2n-1, 4n, 4(n-1), 16."""
    _validate(G, n)
    return {"Sp4n": 2 * n - 1, "SU2n+1": 4 * n, "SU2nH": 4 * (n - 1), "E73": 16}[G]


def satake_degree(G: str, n: int) -> int:
    _validate(G, n)
    return {"Sp4n": 4 * n + 1, "SU2n+1": 4 * (2 * n + 1), "SU2nH": 4 * n, "E73": 56}[G]


def standard_satake(G: str, n: int = 1) -> SatakeMultiset:
    """Satake parameter multiset of the standard L-function of the lift."""
    _validate(G, n)
    entries: list[SymMonomial] = []
    if G == "Sp4n":
        entries.append(ONE)
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
    elif G == "SU2nH":
        for i in range(1, 2 * n + 1):
            c = 2 * n + 1 - 2 * i
            mu = alpha() * p_half(c)
            entries += [mu, mu.inverse()]
    else:  # E73, reverse-engineered from the factored right side
        entries += [alpha(3), alpha(-3), alpha(1), alpha(-1)]  # Sym^3
        entries += [alpha(1), alpha(-1)] * 2  # L(s, f)^2
        for i in range(1, 5):  # L(s +- i, f)^2
            for sgn in (1, -1):
                mu = alpha() * p_half(2 * sgn * i)
                entries += [mu, mu.inverse()] * 2
        for i in range(5, 9):  # L(s +- i, f)
            for sgn in (1, -1):
                mu = alpha() * p_half(2 * sgn * i)
                entries += [mu, mu.inverse()]
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
    roots: list[SymMonomial] = []
    if G == "Sp4n":
        roots.append(ONE)  # zeta(s)
        for i in range(1, 2 * n + 1):
            roots += _L_roots(2 * n + 1 - 2 * i)
    elif G == "SU2n+1":
        for i in range(1, 2 * n + 2):
            shift = 2 * (n + 1 - i)
            roots += _L_roots(shift) + _L_roots(shift, chi_mark())
    elif G == "SU2nH":
        for i in range(1, 2 * n + 1):
            roots += _L_roots(2 * n + 1 - 2 * i)
    else:  # E73: Sym^3, then L(s,f)^2, then the shifted blocks
        roots += [alpha(3), alpha(1), alpha(-1), alpha(-3)]
        roots += _L_roots(0) + _L_roots(0)
        for i in range(1, 5):
            roots += _L_roots(2 * i) * 2 + _L_roots(-2 * i) * 2
        for i in range(5, 9):
            roots += _L_roots(2 * i) + _L_roots(-2 * i)
    return _product_of_linears([_key(m) for m in roots])


@dataclass
class Report:
    name: str
    passed: bool
    details: list

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
    """Dimension and parity bookkeeping of Sym^3 + (2 x 17) + (2 x 9) = 56."""
    summands = [
        ("Sym3(rho_f)", 4, "Sp"),
        ("rho_f (x) Sym16", 2 * 17, _tensor_type("Sp", _sym_type(16))),
        ("rho_f (x) Sym8", 2 * 9, _tensor_type("Sp", _sym_type(8))),
    ]
    total = sum(d for _, d, _ in summands)
    ok = (
        total == 56
        and summands[0][1] == 4
        and summands[1][1] == 34
        and summands[2][1] == 18
        and all(t == "Sp" for _, _, t in summands)
    )
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
    factored = _product_of_linears([_key(m) for m in rankin + zetas])

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


# -- Eisenstein degeneration bookkeeping -------------------------------------


def degenerate_alpha(ms: SatakeMultiset) -> dict[tuple[Fraction, Fraction], int]:
    """Substitute alpha -> p^(k - 1/2) with symbolic k.

    Returns a multiset of exponents of p as linear forms const + coef*k
    (exact Fractions).  Monomials carrying beta or chi are rejected.
    """
    out: dict[tuple[Fraction, Fraction], int] = {}
    for m, c in ms.counts.items():
        if m.b or m.chi:
            raise ValueError("degeneration applies to single-eigenform parameters only")
        const = Fraction(m.half, 2) - Fraction(m.a, 2)
        coef = Fraction(m.a)
        out[(const, coef)] = out.get((const, coef), 0) + c
    return out


def eisenstein_point_exponents(G: str = "Sp4n", n: int = 1):
    """p-exponents (const + coef*k) of the degenerate principal series
    attached to the Siegel Eisenstein series, inducing parameter s = k-1/2:
    {1, p^(s+1/2), p^(s-1/2), p^(-s+1/2), p^(-s-1/2)} for Sp_4."""
    if (G, n) != ("Sp4n", 1):
        raise ValueError("only the Sp_4 shape is tabulated")
    shapes = [
        (Fraction(0), Fraction(0)),  # 1
        (Fraction(0), Fraction(1)),  # p^k        = p^(s+1/2)
        (Fraction(-1), Fraction(1)),  # p^(k-1)   = p^(s-1/2)
        (Fraction(0), Fraction(-1)),  # p^(-k)
        (Fraction(1), Fraction(-1)),  # p^(1-k)
    ]
    return {s: 1 for s in shapes}


def inducing_exponent(G: str, k_symbolic: bool = True) -> tuple[Fraction, Fraction]:
    """Exponent s with I(s) corresponding to the weight-l(k) Eisenstein series,
    as a linear form (const, coef) in k: k - 1/2 for the classical groups,
    2k - 1 for E73 (the inducing character is |nu|^(2s) there)."""
    _validate(G, 1)
    if G == "E73":
        return (Fraction(-1), Fraction(2))
    return (Fraction(-1, 2), Fraction(1))
