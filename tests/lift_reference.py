"""Test-only references for the lift's local data and local factors.

* ``local_data`` is the trial-division route: ``arith.discriminant_split``
  splits -D_T into a fundamental discriminant and a conductor, and
  ``arith.factorize`` factors the conductor.  It shares nothing with the
  sieve route of ``lift.local_data`` but the answer.
* ``interpolate_from_samples`` solves for Ftilde_p(T; X) from Eisenstein
  coefficients of T itself across weights (a ``CompatibleFamilySample``),
  dividing out the L-value and every other conductor prime's interpolated
  factor; the production route samples an auxiliary index per local class
  instead, so the two are independent oracles for each other.
"""

from dataclasses import dataclass
from fractions import Fraction

from sklift.arith import SqrtExt, dirichlet_L_neg, discriminant_split, factorize, kronecker
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
            qval = SqrtExt.half_power(lq.p, lq.conductor_ord * (2 * k - 1)) * qpoly.eval_satake(point)
            value /= qval.rational()
        stripped.append((k, value))
    return _solve_samples(p, ld.conductor_ord, stripped)
