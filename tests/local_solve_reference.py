"""Test-only reference for the local-factor solve: a doubled Gauss-Jordan system.

Each unknown c_m = u_m + v_m sqrt(p) of Q(sqrt p) becomes two rational
unknowns, and each sample two rational equations (its 1 and sqrt(p)
components), solved by ``echelon_reference.row_reduce``.  It shares nothing
with the Newton solve of ``lift._solve_samples`` but the problem statement.
"""

from fractions import Fraction

from sklift.arith import SqrtExt
from sklift.lift import InterpolationError, SymLaurent

from echelon_reference import row_reduce


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over Q; overdetermined rows must be consistent."""
    n_cols = len(rows[0]) if rows else 0
    M = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = row_reduce(M, n_cols)
    if any(row[n_cols] != 0 for row in M[len(pivots):]):
        raise InterpolationError("inconsistent interpolation system (residual in overdetermined rows)")
    if len(pivots) < n_cols:
        free = [c for c in range(n_cols) if c not in pivots]
        raise InterpolationError(f"underdetermined interpolation system, free columns {free}")
    return [row[n_cols] for row in M[:n_cols]]


def solve_samples(p: int, f: int, samples: list[tuple[int, Fraction]]) -> SymLaurent:
    """sum_m c_m (X^m + X^-m) = value * p^(-f(k-1/2)) at X = p^(k-1/2), for m below len(samples) - 1."""
    n_slots = len(samples) - 1
    rows, rhs = [], []
    for k, value in samples:
        target = SqrtExt.half_power(p, -f * (2 * k - 1)) * value
        row_u, row_v = [], []
        for m in range(n_slots):
            e = m * (2 * k - 1)
            km = SqrtExt(p, 1) if m == 0 else SqrtExt.half_power(p, e) + SqrtExt.half_power(p, -e)
            sq = SqrtExt(p, 0, 1) * km  # u_m contributes km, v_m contributes sqrt(p) km
            row_u.extend([km.u, sq.u])
            row_v.extend([km.v, sq.v])
        rows += [row_u, row_v]
        rhs += [target.u, target.v]
    sol = solve_exact(rows, rhs)
    poly = SymLaurent(p, {m: SqrtExt(p, sol[2 * m], sol[2 * m + 1]) for m in range(n_slots)})
    if poly.degree > f:
        raise InterpolationError(f"local factor degree {poly.degree} exceeds conductor valuation {f}")
    return poly
