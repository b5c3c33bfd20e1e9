"""Index-m Jacobi layer: dual cosets and Fourier-Jacobi components.

For a scalar index S = m the relevant lattice is Z with quadratic form
sigma(x, y) = m x y; the support condition "off-diagonal entry in (1/2)Z"
admits the 2m cosets xi = j/(2m).  A Fourier-Jacobi component of a degree-2
expansion F collects the coefficients A((m, 2m xi, N)) at exponents
N - m xi^2, stored as integer multiples of 1/(4m).

Two consistency harnesses live here:

* ``theorem_eisen_check`` -- for S = 1 the two components of the weight-l
  Eisenstein expansion must be exact scalar multiples of the Cohen number
  patterns {H(l-1, 4N)} and {H(l-1, 4N-1)} (the weight l - 1/2 pattern).
* ``reconstruct_fj`` -- reading each coefficient of F with first diagonal
  entry S back from the component of its coset (r mod 2S, at exponent
  4SN - r^2 over 4S) must reproduce it; this nails the translation
  bookkeeping between cosets.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import proportionality
from .siegel import EisensteinExpansion, FourierIndex, SiegelExpansion, cohen_H

__all__ = [
    "dual_cosets",
    "ThetaComponent",
    "fj_component",
    "theorem_eisen_check",
    "EisenComponentReport",
    "reconstruct_fj",
    "ReconstructionReport",
    "ScopeError",
]


class ScopeError(ValueError):
    """Raised for index values outside the supported S = 1 comparison."""


def dual_cosets(S: int) -> list[Fraction]:
    """Coset representatives {j/(2m) : 0 <= j < 2m} of the index-m support."""
    if S < 1:
        raise ValueError("index must be a positive integer")
    return [Fraction(j, 2 * S) for j in range(2 * S)]


class ThetaComponent:
    """A q^(1/(4S))-indexed series attached to the coset xi.

    ``coeffs`` maps the integer exponent numerator over 4S to the value.
    """

    def __init__(self, S: int, xi: Fraction, coeffs: dict[int, Fraction]):
        self.S = S
        self.xi = xi
        self.j = int(2 * S * xi)  # the coset's residue r mod 2S
        self.coeffs = coeffs

    @property
    def offset_denominator(self) -> int:
        return 4 * self.S

    def value(self, exp_num: int) -> Fraction:
        return self.coeffs.get(exp_num, Fraction(0))

    def to_text(self) -> str:
        lines = [
            "sklift fj-component v1",
            f"S {self.S}",
            f"xi {self.xi.numerator}/{self.xi.denominator}",
            f"offset_denominator {self.offset_denominator}",
        ]
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            lines.append(f"{e} : {c.numerator}/{c.denominator}")
        return "\n".join(lines) + "\n"


def fj_component(F: SiegelExpansion, S: int, xi: Fraction) -> ThetaComponent:
    """(S, xi)-component of F: coefficient A((S, 2S xi, N)) at exponent N - S xi^2."""
    xi = Fraction(xi)
    j = int(2 * S * xi)
    if Fraction(j, 2 * S) != xi:
        raise ValueError(f"{xi} not in the coset lattice for S={S}")
    n_max = F.trace_bound - S
    coeffs = {}
    N0 = -((-j * j) // (4 * S))  # ceil(j^2 / 4S)
    for N in range(N0, n_max + 1):
        exp_num = 4 * S * N - j * j
        coeffs[exp_num] = F.coefficient(FourierIndex(S, j, N))
    return ThetaComponent(S=S, xi=xi, coeffs=coeffs)


class EisenComponentReport:
    def __init__(self):
        self.constants: dict[Fraction, Fraction] = {}
        self.first_mismatch: tuple | None = None
        self.untested: list[Fraction] = []  # cosets read at fewer than two nonzero pattern values

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None and not self.untested


def theorem_eisen_check(k: int, S: int, bound: int, components=None) -> EisenComponentReport:
    """Match the (S, xi)-components of the weight k+1 Eisenstein expansion
    against the Cohen number pattern of weight k + 1/2.

    Component at xi = 0 must be proportional to {H(k, 4N)}_N, at xi = 1/2 to
    {H(k, 4N-1)}_N, each with one exact scalar, tested (``proportionality``)
    only from bound 2 on.  ``components`` maps each coset xi to its
    component, read to N = bound; without it they are built from the
    expansion of trace bound ``bound + S``.  Only S = 1 is supported (larger
    indices have a nontrivial theta multiplier system).
    """
    if S != 1:
        raise ScopeError(f"S={S} unsupported: only index 1 has a trivial multiplier here")
    if components is None:
        F = EisensteinExpansion(k, bound + S)
        components = {xi: fj_component(F, S, xi) for xi in dual_cosets(S)}
    report = EisenComponentReport()
    for xi, pattern in ((Fraction(0), lambda N: 4 * N), (Fraction(1, 2), lambda N: 4 * N - 1)):
        comp = components[xi]
        j = comp.j
        const, tested, bad = proportionality(
            (N, comp.value(4 * N - j * j), cohen_H(k, pattern(N))) for N in range(0 if xi == 0 else 1, bound + 1)
        )
        if bad is not None:
            rhs = cohen_H(k, pattern(bad))
            report.first_mismatch = (xi, bad, comp.value(4 * bad - j * j), rhs if const is None else const * rhs)
            return report
        report.constants[xi] = const
        if not tested:
            report.untested.append(xi)
    return report


class ReconstructionReport:
    def __init__(self, checked: int, skipped: int, first_mismatch: tuple | None = None):
        self.checked = checked
        self.skipped = skipped
        self.first_mismatch = first_mismatch

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None


def reconstruct_fj(F: SiegelExpansion, S: int, components) -> ReconstructionReport:
    """Read every coefficient A_F((S, r, N)) back from the components of F.

    ``components`` maps each coset xi of ``dual_cosets(S)`` to
    ``fj_component(F, S, xi)``.  The index (S, r, N) lies in the coset
    j = r mod 2S, whose component holds it at exponent (4SN - r^2)/(4S).
    Indices whose slot falls beyond the component truncation are skipped
    (and counted).
    """
    checked = 0
    skipped = 0
    n_max = F.trace_bound - S
    by_residue = [components[xi] for xi in dual_cosets(S)]  # the coset of r is r mod 2S
    for N in range(0, n_max + 1):
        rmax = math.isqrt(4 * S * N)
        for r in range(-rmax, rmax + 1):
            T = FourierIndex(S, r, N)  # 4SN - r^2 >= 0 by the bound on |r|
            expected = F.coefficient(T)
            comp = by_residue[r % (2 * S)]
            j = comp.j
            exp_num = 4 * S * N - r * r
            if exp_num > 4 * S * n_max - j * j:
                skipped += 1  # coset slot beyond the component truncation
                continue
            got = comp.value(exp_num)
            checked += 1
            if got != expected:
                return ReconstructionReport(checked, skipped, first_mismatch=(T, got, expected))
    return ReconstructionReport(checked, skipped)
