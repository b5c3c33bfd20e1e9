"""The lift engine.

The weight-(k'+1) Eisenstein coefficients at a fixed index T, taken across a
ladder of admissible weights k' (odd, so that k'+1 is even), are uniform
specializations of local Laurent polynomials:

    A(T) / L(1-k', chi_{D_T}) = prod_p  p^(f_p (k'-1/2)) Ftilde_p(T; X)
                                        evaluated at X = p^(k'-1/2),

with f_p = ord_p of the conductor of D_T.  This module recovers each
Ftilde_p(T; X) by exact linear algebra from finitely many weights, checks
the overdetermined sample for consistency, and then substitutes the Satake
parameter of an eigenform for X (through the power sums
s_m = alpha_p^m + alpha_p^{-m}) to assemble the lift coefficient

    A_F(T) = L(1-k, chi_{D_T}) * f_T^(k-1/2) * prod_p Ftilde_p(T; alpha_p).

Two exactness disciplines are load-bearing here:

* Ftilde_p lives in the symmetric Laurent algebra over Q(sqrt p), not over
  Q: whenever p divides the conductor but not the fundamental discriminant,
  the sample data is inconsistent with rational coefficients (the chi(p)
  cross terms carry p^(-1/2)).  Coefficients are stored as exact u + v*sqrt(p)
  pairs and the linear system is solved over Q componentwise.
* After multiplying back the p-part of f_T^(k-1/2), every local factor must
  be rational on the nose; a leftover sqrt(p) component is a hard error, not
  something to round away.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    SqrtExt,
    dirichlet_L_neg,
    discriminant_split,
    factorize,
    is_fundamental_discriminant,
    kronecker,
    row_reduce,
)
from .eigenforms import Eigenform, ParityGateError, ramanujan_gate
from .siegel import (
    FourierIndex,
    SiegelExpansion,
    cohen_H,
    eisenstein_coeff_arithmetic,
    enumerate_reduced,
)

__all__ = [
    "SymLaurent",
    "CompatibleFamilySample",
    "InterpolationError",
    "HalfPowerResidueError",
    "LiftSupportError",
    "EisensteinPoint",
    "LocalData",
    "local_data",
    "default_ladder",
    "interpolate_local_poly",
    "clear_local_cache",
    "lift_coeff",
    "lift_expand",
    "LiftExpansion",
    "maass_check",
    "MaassReport",
    "hecke_ratio",
]


class InterpolationError(ArithmeticError):
    """The overdetermined sample system has no exact solution."""


class HalfPowerResidueError(ArithmeticError):
    """A local factor failed to recombine to a rational number."""


class LiftSupportError(ValueError):
    """Lift coefficients exist only for positive definite indices."""


class SymLaurent:
    """Symmetric Laurent polynomial sum_m c_m (X^m + X^-m), m=0 counted once.

    Coefficients are exact elements of Q(sqrt p).  Symmetry under X <-> 1/X
    is structural: there is simply no slot for an asymmetric term.
    """

    def __init__(self, p: int, coeffs: dict[int, SqrtExt]):
        self.p = p
        self.coeffs = {m: c for m, c in sorted(coeffs.items()) if c}

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def is_one(self) -> bool:
        return self.coeffs == {0: SqrtExt(self.p, 1)} or (
            len(self.coeffs) == 1 and 0 in self.coeffs and self.coeffs[0] == 1
        )

    def coefficient(self, m: int) -> SqrtExt:
        return self.coeffs.get(m, SqrtExt(self.p, 0))

    def eval_half_power(self, k: int) -> SqrtExt:
        """Value at X = p^(k-1/2)."""
        total = SqrtExt(self.p, 0)
        for m, c in self.coeffs.items():
            if m == 0:
                total = total + c
            else:
                e = m * (2 * k - 1)
                total = total + c * (
                    SqrtExt.half_power(self.p, e) + SqrtExt.half_power(self.p, -e)
                )
        return total

    def eval_satake(self, source) -> SqrtExt:
        """Value at X = alpha_p via power sums s_m from ``source``."""
        total = SqrtExt(self.p, 0)
        for m, c in self.coeffs.items():
            if m == 0:
                total = total + c
            else:
                total = total + c * source.power_sum(self.p, m)
        return total

    def __eq__(self, other):
        return (
            isinstance(other, SymLaurent)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        parts = []
        for m, c in self.coeffs.items():
            series = f"(X^{m}+X^-{m})" if m else ""
            parts.append(f"({c.u}+{c.v}*sqrt{self.p}){series}")
        return f"SymLaurent[p={self.p}]: " + (" + ".join(parts) or "0")

    # cache-file form: "m:u_num/u_den:v_num/v_den" per coefficient
    def to_line(self) -> str:
        bits = []
        for m, c in self.coeffs.items():
            bits.append(f"{m}:{c.u.numerator}/{c.u.denominator}:{c.v.numerator}/{c.v.denominator}")
        return " ".join(bits) if bits else "-"

    @classmethod
    def from_line(cls, p: int, line: str) -> "SymLaurent":
        coeffs = {}
        if line.strip() != "-":
            for tok in line.split():
                ms, us, vs = tok.split(":")
                un, ud = us.split("/")
                vn, vd = vs.split("/")
                coeffs[int(ms)] = SqrtExt(
                    p, Fraction(int(un), int(ud)), Fraction(int(vn), int(vd))
                )
        return cls(p, coeffs)


@dataclass
class CompatibleFamilySample:
    """Eisenstein coefficients of one index T across several weights.

    ``weight_samples`` holds (k', coefficient) pairs where the coefficient is
    in the arithmetic normalization (L-value times local data), i.e.
    ``eisenstein_coeff_arithmetic(k', T)``.
    """

    T: FourierIndex
    weight_samples: list[tuple[int, Fraction]]

    def __post_init__(self):
        ks = [k for k, _ in self.weight_samples]
        if len(set(ks)) != len(ks):
            raise ValueError("duplicate weights in sample")


@dataclass(frozen=True)
class LocalData:
    """Everything the local factor at p depends on."""

    p: int
    content_ord: int  # ord_p of content(T)
    conductor_ord: int  # ord_p of the conductor f_T
    chi: int  # chi_{fundamental}(p) in {-1, 0, 1}


def local_data(T: FourierIndex) -> tuple[int, int, dict[int, LocalData]]:
    """(fundamental discriminant, conductor, per-prime local data) of T."""
    if not T.is_positive_definite():
        raise LiftSupportError(f"{T} is not positive definite")
    split = discriminant_split(1, T.disc)
    fund = split.fundamental
    cond = split.conductor
    assert cond.denominator == 1  # D_T = 0, 3 mod 4 for semi-integral T
    cond = int(cond)
    content = T.content
    locals_ = {}
    for p, f_p in sorted(factorize(cond).items()):
        locals_[p] = LocalData(
            p=p,
            content_ord=_ord(content, p),
            conductor_ord=f_p,
            chi=kronecker(fund, p),
        )
    return fund, cond, locals_


def _ord(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def default_ladder(count: int, start: int = 0) -> list[int]:
    """Odd weights k' = 9, 11, 13, ... (smallest block first).

    k'+1 >= 10 keeps every sampled Eisenstein series comfortably inside the
    absolutely convergent range.
    """
    return [9 + 2 * (start + i) for i in range(count)]


def _aux_fundamental(p: int, chi: int) -> int:
    """Smallest |D| fundamental discriminant D < 0 with chi_D(p) = chi."""
    d = 3
    while True:
        D = -d
        if is_fundamental_discriminant(D) and kronecker(D, p) == chi:
            return D
        d += 1


def _aux_index(p: int, c: int, f: int, chi: int) -> tuple[FourierIndex, int]:
    """An index whose conductor is the pure power p^f, content p^c, chi at p as given."""
    fund = _aux_fundamental(p, chi)
    d0 = -fund * p ** (2 * (f - c))
    r0 = d0 % 2
    prim = FourierIndex(1, r0, (d0 + r0 * r0) // 4)
    assert prim.disc == d0 and prim.content == 1
    return prim.scale(p**c), fund


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over Q; overdetermined rows must be consistent."""
    n_cols = len(rows[0]) if rows else 0
    M = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = row_reduce(M, n_cols)
    if any(row[n_cols] != 0 for row in M[len(pivots):]):
        raise InterpolationError(
            "inconsistent interpolation system (residual in overdetermined rows)"
        )
    # free columns (if any) would make the local factor non-unique
    if len(pivots) < n_cols:
        free = [c for c in range(n_cols) if c not in pivots]
        raise InterpolationError(f"underdetermined interpolation system, free columns {free}")
    return [row[n_cols] for row in M[:n_cols]]


_LOCAL_CACHE: dict[tuple[int, int, int, int], SymLaurent] = {}


def clear_local_cache() -> None:
    _LOCAL_CACHE.clear()


def _cache_path() -> str | None:
    root = os.environ.get("SKLIFT_CACHE_DIR")
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, "local-polys-v1.txt")


def _load_disk_cache() -> None:
    """Read the disk cache into _LOCAL_CACHE; a file that does not parse is ignored."""
    path = _cache_path()
    if not path or not os.path.exists(path):
        return
    loaded = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                keypart, _, val = line.partition("=")
                p, c, f, chi = (int(x) for x in keypart.split(","))
                loaded[(p, c, f, chi)] = SymLaurent.from_line(p, val)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"warning: ignoring unreadable cache {path}: {exc}", file=sys.stderr)
        return
    for key, poly in loaded.items():
        _LOCAL_CACHE.setdefault(key, poly)


def _store_disk_cache() -> None:
    """Write _LOCAL_CACHE to a temporary file, then move it over the cache.

    Each process writes its own temporary file and the rename is atomic, so
    a concurrent reader (another sklift process) sees either the old file or
    the new one, never a partly written one.
    """
    path = _cache_path()
    if not path:
        return
    lines = ["# sklift local polynomial cache v1"]
    for (p, c, f, chi), poly in sorted(_LOCAL_CACHE.items()):
        lines.append(f"{p},{c},{f},{chi}={poly.to_line()}")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _interpolate_class(
    p: int, c: int, f: int, chi: int, ladder_start: int = 0, use_cache: bool = True
) -> SymLaurent:
    """Interpolate Ftilde_p for the local class (ord_p content, ord_p cond, chi)."""
    key = (p, c, f, chi)
    if use_cache and ladder_start == 0:
        if not _LOCAL_CACHE:
            _load_disk_cache()
        if key in _LOCAL_CACHE:
            return _LOCAL_CACHE[key]
    if f == 0:
        poly = SymLaurent(p, {0: SqrtExt(p, 1)})
        if use_cache and ladder_start == 0:
            _LOCAL_CACHE[key] = poly
        return poly

    n_samples = f + c + 2  # one more weight than unknown slots
    weights = default_ladder(n_samples, start=ladder_start)
    aux, fund = _aux_index(p, c, f, chi)
    samples = []
    for k in weights:
        value = eisenstein_coeff_arithmetic(k, aux) / dirichlet_L_neg(k, fund)
        samples.append((k, value))
    poly = _solve_samples(p, f, samples)
    if use_cache and ladder_start == 0:
        _LOCAL_CACHE[key] = poly
        _store_disk_cache()
    return poly


def _solve_samples(p: int, f: int, samples: list[tuple[int, Fraction]]) -> SymLaurent:
    """Solve for c_m in sum_m c_m (X^m + X^-m) = value * p^(-f(k-1/2)) at X = p^(k-1/2).

    Unknowns are (u_m, v_m) with c_m = u_m + v_m sqrt(p); every sampled
    weight contributes two rational equations (the 1 and sqrt(p) components).
    """
    n_slots = len(samples) - 1  # slots m = 0 .. n_slots-1, one overdetermined row pair
    rows = []
    rhs = []
    for k, value in samples:
        basis = []
        for m in range(n_slots):
            if m == 0:
                km = SqrtExt(p, 1)
            else:
                e = m * (2 * k - 1)
                km = SqrtExt.half_power(p, e) + SqrtExt.half_power(p, -e)
            basis.append(km)
        target = SqrtExt.half_power(p, -f * (2 * k - 1)) * value
        row_u = []
        row_v = []
        for km in basis:
            # u_m contributes km, v_m contributes sqrt(p)*km
            sq = SqrtExt(p, 0, 1) * km
            row_u.extend([km.u, sq.u])
            row_v.extend([km.v, sq.v])
        rows.append(row_u)
        rhs.append(target.u)
        rows.append(row_v)
        rhs.append(target.v)
    sol = _solve_exact(rows, rhs)
    coeffs = {}
    for m in range(n_slots):
        u, v = sol[2 * m], sol[2 * m + 1]
        if u or v:
            coeffs[m] = SqrtExt(p, u, v)
    poly = SymLaurent(p, coeffs)
    if poly.degree > f:
        raise InterpolationError(
            f"local factor degree {poly.degree} exceeds conductor valuation {f}"
        )
    return poly


def interpolate_local_poly(
    T: FourierIndex,
    p: int,
    samples: CompatibleFamilySample | None = None,
    ladder_start: int = 0,
) -> SymLaurent:
    """Local Laurent factor Ftilde_p(T; X), interpolated across weights.

    Without explicit ``samples`` the engine samples an auxiliary index whose
    conductor is a pure power of p in the same local class as T (this needs
    no division by other primes).  With explicit samples for T itself, the
    p-parts of the other conductor primes are divided out using their own
    interpolated factors before solving.
    """
    fund, cond, locals_ = local_data(T)
    if p not in locals_:
        return SymLaurent(p, {0: SqrtExt(p, 1)})
    ld = locals_[p]
    if samples is None:
        return _interpolate_class(
            p, ld.content_ord, ld.conductor_ord, ld.chi, ladder_start=ladder_start
        )
    if (samples.T.n, samples.T.r, samples.T.m) != (T.n, T.r, T.m):
        raise ValueError("samples belong to a different index")
    if len(samples.weight_samples) < ld.conductor_ord + ld.content_ord + 2:
        raise ValueError("not enough weight samples for this conductor valuation")
    # strip the L-value and every other prime's interpolated local value
    others = [q for q in locals_ if q != p]
    stripped = []
    for k, coeff in samples.weight_samples:
        value = coeff / dirichlet_L_neg(k, fund)
        for q in others:
            lq = locals_[q]
            qpoly = _interpolate_class(q, lq.content_ord, lq.conductor_ord, lq.chi)
            qval = SqrtExt.half_power(q, lq.conductor_ord * (2 * k - 1)) * qpoly.eval_half_power(k)
            value /= qval.rational()
        stripped.append((k, value))
    return _solve_samples(p, ld.conductor_ord, stripped)


class EisensteinPoint:
    """Degenerate Satake source alpha_p = p^(k-1/2) for every p.

    Substituting it into the lift formula must reproduce the Eisenstein
    coefficients (in the arithmetic normalization).
    """

    def __init__(self, k_half: int):
        if k_half % 2 == 0:
            raise ParityGateError(f"k={k_half} must be odd")
        self.k_half = k_half
        self.local_factors: dict = {}  # see _local_factor

    def power_sum(self, p: int, m: int) -> SqrtExt:
        e = m * (2 * self.k_half - 1)
        return SqrtExt.half_power(p, e) + SqrtExt.half_power(p, -e)


def _check_lift_source(source) -> None:
    if source.k_half % 2 == 0:
        raise ParityGateError(f"k={source.k_half} must be odd for the degree-2 lift")
    if isinstance(source, Eigenform):
        bound = min(100, source.truncation)
        if source._ramanujan_checked_to < bound:
            report = ramanujan_gate(source, bound)
            if not report.passed:
                raise ArithmeticError(f"Ramanujan gate failed: {report!r}")
            source._ramanujan_checked_to = bound


def lift_coeff(source, T: FourierIndex, provenance: list | None = None) -> Fraction:
    """Lift coefficient L(1-k, chi_{D_T}) f_T^(k-1/2) prod_p Ftilde_p(T; alpha_p).

    ``source`` is an Eigenform (the lift proper) or an EisensteinPoint (the
    degeneration).  Each local factor recombines with the p-part of
    f_T^(k-1/2) to a rational number; a sqrt(p) residue raises.  Given a
    ``provenance`` list, appends (p, degree of Ftilde_p) for each prime p of
    the conductor, in increasing order.
    """
    _check_lift_source(source)
    if not T.is_positive_definite():
        raise LiftSupportError(f"{T} not in the positive definite support")
    k = source.k_half
    fund, cond, locals_ = local_data(T)
    value = dirichlet_L_neg(k, fund)
    for p, ld in locals_.items():
        poly = _interpolate_class(p, ld.content_ord, ld.conductor_ord, ld.chi)
        if provenance is not None:
            provenance.append((p, poly.degree))
        value *= _local_factor(source, ld, poly, T)
    return value


def _local_factor(source, ld: LocalData, poly: SymLaurent, T: FourierIndex) -> Fraction:
    """p^(f (k-1/2)) Ftilde_p(alpha_p) for the local class ``ld``, rational.

    Kept in ``source.local_factors`` with the polynomial it was evaluated
    from, so each class is evaluated once per source for as long as its
    interpolated polynomial stays the same object.
    """
    memo = source.local_factors
    if ld in memo and memo[ld][0] is poly:
        return memo[ld][1]
    p = ld.p
    factor = SqrtExt.half_power(p, ld.conductor_ord * (2 * source.k_half - 1)) * poly.eval_satake(source)
    if not factor.is_rational:
        raise HalfPowerResidueError(f"sqrt({p}) residue at {T}: {factor!r}")
    memo[ld] = (poly, factor.rational())
    return memo[ld][1]


class LiftExpansion(SiegelExpansion):
    """Siegel expansion of a lift, computed on demand, with provenance per index.

    The first read of a reduced positive definite index within the trace
    bound runs ``lift_coeff`` and keeps its value and its interpolation
    provenance; later reads of any index in the same GL_2(Z) orbit reuse
    them.  Singular indices read 0 and indices beyond the bound raise.
    ``table`` holds the indices computed so far.
    """

    def __init__(self, source, trace_bound: int):
        _check_lift_source(source)
        super().__init__(source.k_half + 1, trace_bound, {})
        self.source = source
        self.provenance = {}  # FourierIndex -> tuple of (p, degree)

    def _lookup(self, red: FourierIndex) -> Fraction:
        if red not in self.table:
            if not red.is_positive_definite():
                return Fraction(0)
            prov = []
            self.table[red] = lift_coeff(self.source, red, prov)
            self.provenance[red] = tuple(prov)
        return self.table[red]

    def provenance_text(self) -> str:
        lines = ["sklift lift-provenance v1"]
        for T in sorted(self.provenance):
            entries = ",".join(f"{p}:{deg}" for p, deg in self.provenance[T]) or "-"
            lines.append(f"{T.n} {T.r} {T.m} {entries}")
        return "\n".join(lines) + "\n"


def lift_expand(source, trace_bound: int) -> LiftExpansion:
    """Expansion of the lift over all reduced positive definite T with
    n + m <= trace_bound.  Weight is k + 1.

    ``source`` is an Eigenform or EisensteinPoint, or a LiftExpansion with a
    bound of at least ``trace_bound`` whose coefficients are read (computing
    the missing ones into it).
    """
    if not isinstance(source, LiftExpansion):
        source = LiftExpansion(source, trace_bound)
    indices = enumerate_reduced(trace_bound, include_singular=False)
    if not indices:
        raise LiftSupportError(
            f"trace bound {trace_bound} yields an empty expansion (needs >= 2)"
        )
    F = LiftExpansion(source.source, trace_bound)
    for T in indices:
        F.table[T] = source.coefficient(T)
        F.provenance[T] = source.provenance[T]
    if not any(F.table.values()):
        raise ArithmeticError("lift vanished identically at this truncation")
    return F


@dataclass
class MaassReport:
    exponent: int | None
    checked: int
    failures: list[FourierIndex]

    @property
    def passed(self) -> bool:
        return self.exponent is not None and self.checked > 0


def maass_check(F: SiegelExpansion, k: int) -> MaassReport:
    """Verify A(n,r,m) = sum_{d | gcd(n,r,m)} d^k A(nm/d^2, r/d, 1).

    The exponent is k, as for a Maass lift of weight k+1; ``failures`` lists
    every index where the relation breaks.  Only indices whose right-hand
    side stays inside the trace bound are checked.
    """
    from .arith import divisors as _divs

    rows = []
    for T in F.reduced_indices():
        if not T.is_positive_definite():
            continue
        if T.n * T.m + 1 > F.trace_bound:
            continue
        rows.append(T)
    failures = []
    for T in rows:
        rhs = Fraction(0)
        for d in _divs(T.content):
            rhs += d**k * F.coefficient(FourierIndex((T.n * T.m) // (d * d), T.r // d, 1))
        if rhs != F.coefficient(T):
            failures.append(T)
    return MaassReport(exponent=None if failures else k, checked=len(rows), failures=failures)


def hecke_ratio(F: SiegelExpansion, FP: SiegelExpansion) -> tuple[Fraction, int]:
    """The constant FP(T)/F(T) over nonzero coefficients; raises if not constant."""
    ratio = None
    count = 0
    for T in enumerate_reduced(FP.trace_bound):
        c = F.coefficient(T)
        if c == 0:
            if FP.coefficient(T) != 0:
                raise ArithmeticError(f"image not proportional at {T}")
            continue
        r = FP.coefficient(T) / c
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise ArithmeticError(f"eigen-ratio breaks at {T}: {r} != {ratio}")
        count += 1
    if ratio is None:
        raise ArithmeticError("no nonzero coefficients to compare")
    return ratio, count
