"""Test-only references for the lift's local data and local factors.

* ``local_data`` is the trial-division route: ``arith_reference.discriminant_split``
  splits -D_T into a fundamental discriminant and a conductor, and
  ``arith.factorize`` factors the conductor.  It shares nothing with the
  sieve route of ``lift.local_data`` (``arith.fundamental_split``) but the
  answer.
* ``interpolate_from_samples`` solves for Ftilde_p(T; X) from Eisenstein
  coefficients of T itself across weights (a ``CompatibleFamilySample``),
  dividing out the L-value and every other conductor prime's interpolated
  factor; the production route samples an auxiliary index per local class
  instead, so the two are independent oracles for each other.
* ``eval_satake`` is the Q(sqrt p) route to a local value: the power sums
  s_m = alpha_p^m + alpha_p^-m of ``power_sum`` (the three-term recurrence
  of ``SatakeSymbol`` for an eigenform) summed against the coefficients of a
  ``SymLaurent``.  ``lift._local_factor`` reads the same value in Q, as a
  polynomial at y = a(p)/p^k, so this route shares no arithmetic with it.
* ``closed_form`` is Kohnen's closed form of a lift coefficient over
  L(1-k, chi_{D_0}) (Math. Ann. 271 (1985)): a divisor sum of the source's
  a(n), with no local factor and no interpolation.
"""

from dataclasses import dataclass
from fractions import Fraction

from sklift.arith import SqrtExt, dirichlet_L_neg, divisors, factorize, kronecker
from sklift.lift import (
    EisensteinPoint,
    LiftSupportError,
    LocalData,
    SymLaurent,
    _interpolate_class,
    _ord,
    _solve_samples,
)
from sklift.siegel import FourierIndex

from arith_reference import discriminant_split


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


def interpolate_from_samples(T: FourierIndex, p: int, samples: CompatibleFamilySample) -> SymLaurent:
    """Ftilde_p(T; X) from explicit samples of T itself.

    The p-parts of the other conductor primes are divided out using their
    own interpolated factors before solving.
    """
    fund, cond, locals_ = local_data(T)
    if p not in locals_:
        return SymLaurent(p, {0: SqrtExt(p, 1)})
    ld = locals_[p]
    if (samples.T.n, samples.T.r, samples.T.m) != (T.n, T.r, T.m):
        raise ValueError("samples belong to a different index")
    if len(samples.weight_samples) < ld.conductor_ord + ld.content_ord + 2:
        raise ValueError("not enough weight samples for this conductor valuation")
    # strip the L-value and every other prime's interpolated local value
    others = [
        (lq, _interpolate_class(q, lq.content_ord, lq.conductor_ord, lq.chi))
        for q, lq in locals_.items()
        if q != p
    ]
    stripped = []
    for k, coeff in samples.weight_samples:
        value = coeff / dirichlet_L_neg(k, fund)
        point = EisensteinPoint(k)
        for lq, qpoly in others:
            value /= eval_satake(qpoly, point, lq.conductor_ord)
        stripped.append((k, value))
    return _solve_samples(p, ld.conductor_ord, stripped)


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


def power_sum(source, p: int, m: int) -> SqrtExt:
    """s_m at p for an ``EisensteinPoint`` (alpha_p = p^(k-1/2)) or an eigenform."""
    if isinstance(source, EisensteinPoint):
        e = m * (2 * source.k_half - 1)
        return SqrtExt.half_power(p, e) + SqrtExt.half_power(p, -e)
    return SatakeSymbol(p, source.k_half, source.a(p)).power_sum(m)


def eval_satake(poly: SymLaurent, source, f: int) -> Fraction:
    """p^(f(k-1/2)) poly(alpha_p) in Q(sqrt p), by power sums; a sqrt(p) residue raises."""
    p = poly.p
    total = SqrtExt(p, 0)
    for m, c in poly.coeffs.items():
        total = total + (c if m == 0 else c * power_sum(source, p, m))
    return (SqrtExt.half_power(p, f * (2 * source.k_half - 1)) * total).rational()


def _mobius(n: int) -> int:
    fac = factorize(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


def closed_form(source, T: FourierIndex, e_power: int | None = None) -> Fraction:
    """sum_{d | content T} d^k K(f_T/d), K(n) = sum_{e | n} mu(e) chi_{D_0}(e) e^(k-1) a(n/e).

    The exponent of e is k - 1 unless ``e_power`` says otherwise (a control).
    """
    fund, cond, _ = local_data(T)
    k = source.k_half
    e_power = k - 1 if e_power is None else e_power

    def K(n):
        return sum(_mobius(e) * kronecker(fund, e) * e**e_power * source.a(n // e) for e in divisors(n))

    return sum(d**k * K(cond // d) for d in divisors(T.content))
