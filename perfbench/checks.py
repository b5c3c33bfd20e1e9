"""Output checks for the benchmark, computed apart from sklift.

Every reference value here comes from theory or from an independent
computation (integer q-products, sympy's Bernoulli polynomials and Kronecker
symbol, a direct product over the Arthur parameters); none is a stored copy
of an earlier output.  Each ``check_*`` function takes the files one command
wrote (a dict of file name to text) and returns a list of problems, empty
when the output is right.  ``CHECKS`` maps each command to its named checks,
so that the self-tests can show each one rejecting an altered output.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

K_LIFT = 9  # sklift lift --weight 18: f in S_18, k = 9, lift of weight k + 1
LIFT_BOUND = 14
FJ_K = 11  # sklift fj --weight 12: Eisenstein weight 12 = k + 1
FJ_BOUND = 40
EF_WEIGHT = 26
EF_PREC = 3600
EF_PRIME = 657931  # divides the numerator of B_26, so f_26 = E_26 mod 657931


# -- small integer helpers ----------------------------------------------------


def factor(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def gauss_reduce(n: int, r: int, m: int) -> tuple[int, int, int]:
    """Reduced representative 0 <= r <= n <= m of the form n x^2 + r x y + m y^2."""
    while True:
        if n > m:
            n, m = m, n
        elif n == 0:
            return 0, abs(r), m
        elif not -n < r <= n:
            t = (n - r) // (2 * n)
            n, r, m = n, r + 2 * n * t, m + r * t + n * t * t
        else:
            return n, abs(r), m


def fundamental_and_conductor(disc: int) -> tuple[int, int]:
    """-disc = fund * f^2 with fund a negative fundamental discriminant."""
    sf, f = -1, 1
    for p, e in factor(disc).items():
        sf *= p ** (e % 2)
        f *= p ** (e // 2)
    if sf % 4 != 1:
        sf *= 4
        f //= 2
    return sf, f


def delta_times(series: list[int], prec: int) -> list[int]:
    """q * prod (1 - q^n)^24 times ``series``, coefficients 0..prec."""
    d = [0] * (prec + 1)
    d[1] = 1
    for n in range(1, prec + 1):
        for _ in range(24):
            for i in range(prec, n - 1, -1):
                d[i] -= d[i - n]
    return [sum(d[j] * series[i - j] for j in range(i + 1)) for i in range(prec + 1)]


def eisenstein_int(weight: int, scale: int, prec: int) -> list[int]:
    """E_4 (scale 240) or E_6 (scale -504): 1 + scale * sum sigma_{w-1}(n) q^n."""
    out = [1] + [0] * prec
    for d in range(1, prec + 1):
        for j in range(d, prec + 1, d):
            out[j] += scale * d ** (weight - 1)
    return out


def mul_series(a: list[int], b: list[int]) -> list[int]:
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(len(a))]


@lru_cache(maxsize=None)
def f18_ap(p: int) -> int:
    """a(p) of the weight-18 eigenform Delta * E_6, from integer q-products."""
    return delta_times(eisenstein_int(6, -504, p), p)[p]


@lru_cache(maxsize=None)
def f26_head(prec: int) -> tuple[int, ...]:
    """Leading coefficients of the weight-26 eigenform Delta * E_4^2 * E_6."""
    e4 = eisenstein_int(4, 240, prec)
    return tuple(delta_times(mul_series(mul_series(e4, e4), eisenstein_int(6, -504, prec)), prec))


# -- parsing ------------------------------------------------------------------


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def parse_expansion(text: str) -> dict[tuple[int, int, int], Fraction]:
    lines = text.splitlines()
    if lines[:2] != ["sklift siegel-expansion v1", "group Sp4"]:
        raise ValueError("bad expansion header")
    table = {}
    for ln in lines[4:]:
        n, r, m, val = ln.split()
        table[int(n), int(r), int(m)] = _frac(val)
    return table


def parse_component(text: str) -> dict[int, Fraction]:
    lines = text.splitlines()
    if lines[0] != "sklift fj-component v1":
        raise ValueError("bad component header")
    return {int(e): _frac(v) for e, _, v in (ln.split() for ln in lines[4:])}


def parse_qseries(text: str) -> dict[int, Fraction]:
    lines = text.splitlines()
    if lines[:2] != ["sklift qseries v1", f"weight {EF_WEIGHT}"]:
        raise ValueError("bad qseries header")
    return {int(n): _frac(v) for n, v in (ln.split(":") for ln in lines[3:])}


# -- lift --weight 18 --bound 14 ----------------------------------------------


def _lift_table(files):
    return parse_expansion(files["out.expansion.txt"])


def check_lift_support(files) -> list[str]:
    """The table holds exactly the reduced positive definite T with n + m <= 14, all nonzero."""
    table = _lift_table(files)
    want = {
        (n, r, m)
        for n in range(1, LIFT_BOUND + 1)
        for m in range(n, LIFT_BOUND - n + 1)
        for r in range(n + 1)
    }
    bad = []
    if set(table) != want:
        bad.append(f"index set differs from the {len(want)} reduced indices")
    bad += [f"zero coefficient at {T}" for T, c in table.items() if c == 0]
    return bad


def check_lift_maass(files) -> list[str]:
    """A(n,r,m) = sum_{d | (n,r,m)} d^k A(nm/d^2, r/d, 1) with k = 9, wherever in range."""
    table = _lift_table(files)
    bad = []
    checked = 0
    for (n, r, m), value in table.items():
        rhs = Fraction(0)
        g = math.gcd(n, r, m)
        for d in (d for d in range(1, g + 1) if g % d == 0):
            key = gauss_reduce(n * m // (d * d), r // d, 1)
            if key[0] + key[2] > LIFT_BOUND:
                break
            rhs += d**K_LIFT * table[key]
        else:
            checked += 1
            if rhs != value:
                bad.append(f"Maass relation fails at {(n, r, m)}")
    if not checked:
        bad.append("no index has its Maass right-hand side in range")
    return bad


def check_lift_discriminant(files) -> list[str]:
    """Coefficients of content 1 depend only on D_T."""
    seen: dict[int, tuple] = {}
    bad = []
    for (n, r, m), value in _lift_table(files).items():
        if math.gcd(n, r, m) != 1:
            continue
        D = 4 * n * m - r * r
        first = seen.setdefault(D, ((n, r, m), value))
        if first[1] != value:
            bad.append(f"A{(n, r, m)} != A{first[0]} although both have D = {D}")
    return bad


def check_lift_kohnen(files) -> list[str]:
    """c(p^2 N) + (-N/p) p^(k-1) c(N) + p^(2k-1) c(N/p^2) = a(p) c(N), c(4m - r^2) = A(1,r,m)."""
    from sympy import kronecker_symbol

    table = _lift_table(files)
    c = {4 * m - r * r: v for (n, r, m), v in table.items() if n == 1}
    bad = []
    for p in (2, 3):
        ap = f18_ap(p)
        for N in sorted(c):
            if p * p * N not in c:
                continue
            chi = int(kronecker_symbol(-N, p))
            lhs = c[p * p * N] + chi * p ** (K_LIFT - 1) * c[N]
            if N % (p * p) == 0:
                lhs += p ** (2 * K_LIFT - 1) * c.get(N // (p * p), 0)
            if lhs != ap * c[N]:
                bad.append(f"Kohnen T(p^2) relation fails at p={p}, N={N}")
    return bad


def check_lift_provenance(files) -> list[str]:
    """Each index lists the primes of its conductor, each with degree ord_p(conductor)."""
    lines = files["out.provenance.txt"].splitlines()
    bad = [] if lines[0] == "sklift lift-provenance v1" else ["bad provenance header"]
    got = {}
    for ln in lines[1:]:
        n, r, m, entries = ln.split()
        got[int(n), int(r), int(m)] = entries
    if set(got) != set(_lift_table(files)):
        bad.append("provenance indices differ from the expansion")
    for (n, r, m), entries in got.items():
        _, f = fundamental_and_conductor(4 * n * m - r * r)
        want = ",".join(f"{p}:{e}" for p, e in sorted(factor(f).items())) or "-"
        if entries != want:
            bad.append(f"provenance {entries} at {(n, r, m)}, expected {want}")
    return bad


def check_lift_report(files) -> list[str]:
    """Every check passes, Maass at exponent k, Hecke ratio a(p) + p^k + p^(k-1)."""
    report = files["out.report.txt"]
    bad = [f"report line fails: {ln}" for ln in report.splitlines() if "FAIL" in ln]
    if "exponent 9," not in report:
        bad.append("Maass relation not reported at exponent 9")
    for p in (2, 3):
        want = f18_ap(p) + p**K_LIFT + p ** (K_LIFT - 1)
        if not re.search(rf"check hecke-eigen p={p} : PASS \(ratio {want} over \d+ indices\)", report):
            bad.append(f"Hecke ratio at p={p} is not {want}")
    return bad


# -- fj --weight 12 --S 1 --bound 40 ------------------------------------------


@lru_cache(maxsize=None)
def cohen_numbers(r: int, bound: int) -> dict[int, Fraction]:
    """H(r, e) for 0 <= e <= bound from sympy's generalized Bernoulli numbers."""
    from sympy import Poly, Rational, bernoulli, divisor_sigma, divisors, kronecker_symbol, mobius
    from sympy.abc import x

    Br = Poly(bernoulli(r, x), x)
    out = {0: Fraction(str(-bernoulli(2 * r) / (2 * r)))}
    for e in range(1, bound + 1):
        if e % 4 in (1, 2):
            out[e] = Fraction(0)
            continue
        D, f = fundamental_and_conductor(e)
        size = -D
        gen_b = size ** (r - 1) * sum(
            int(kronecker_symbol(D, a)) * Br.eval(Rational(a, size)) for a in range(1, size + 1)
        )
        L = -gen_b / r
        corr = sum(
            int(mobius(d)) * int(kronecker_symbol(D, d)) * d ** (r - 1) * divisor_sigma(f // d, 2 * r - 1)
            for d in divisors(f)
        )
        out[e] = Fraction(str(L * corr))
    return out


def fj_constant() -> Fraction:
    """2 / (zeta(-11) zeta(-21)): the constant-term-1 Eisenstein normalization at weight 12."""
    from sympy import bernoulli

    z1 = Fraction(str(-bernoulli(12) / 12))
    z2 = Fraction(str(-bernoulli(22) / 22))
    return 2 / (z1 * z2)


def check_fj_components(files) -> list[str]:
    """Both components equal one shared constant times H(11, e)."""
    H = cohen_numbers(FJ_K, 4 * FJ_BOUND)
    const = fj_constant()
    bad = []
    for name, j in (("out.xi0.txt", 0), ("out.xi1.txt", 1)):
        comp = parse_component(files[name])
        want = {4 * N - j: const * H[4 * N - j] for N in range(j, FJ_BOUND + 1)}
        if set(comp) != set(want):
            bad.append(f"{name}: exponents differ from 4N - {j}, N <= {FJ_BOUND}")
        bad += [f"{name}: value at e={e} is not C*H(11,e)" for e in want if comp.get(e) != want[e]]
    return bad


def check_fj_report(files) -> list[str]:
    report = files["out.report.txt"]
    bad = [f"report line fails: {ln}" for ln in report.splitlines() if "FAIL" in ln]
    const = fj_constant()
    want = f"constants [('0', '{const}'), ('1/2', '{const}')]"
    if "check fj-reconstruction S=1 : PASS" not in report or want not in report:
        bad.append("report lacks the reconstruction pass or the shared constant")
    return bad


# -- eigenform --weight 26 --prec 3600 -----------------------------------------


def _eigen_coeffs(files) -> list[int]:
    q = parse_qseries(files["out.txt"])
    if sorted(q) != list(range(EF_PREC + 1)):
        raise ValueError("coefficient indices are not 0..3600")
    if any(v.denominator != 1 for v in q.values()):
        raise ValueError("non-integral coefficient")
    return [int(q[n]) for n in range(EF_PREC + 1)]


def _prime_powers(n: int) -> list[int]:
    return [p**e for p, e in factor(n).items()]


def check_ef_normalized(files) -> list[str]:
    """a(0) = 0, a(1) = 1, and the first coefficients equal those of Delta E_4^2 E_6."""
    a = _eigen_coeffs(files)
    head = f26_head(30)
    bad = [] if a[0] == 0 and a[1] == 1 else ["a(0) != 0 or a(1) != 1"]
    return bad + [f"a({n}) differs from Delta E_4^2 E_6" for n in range(31) if a[n] != head[n]]


def check_ef_congruence(files) -> list[str]:
    """a(n) = sigma_25(n) mod 657931 for every n <= 3600."""
    a = _eigen_coeffs(files)
    sig = [0] * (EF_PREC + 1)
    for d in range(1, EF_PREC + 1):
        dp = pow(d, EF_WEIGHT - 1, EF_PRIME)
        for j in range(d, EF_PREC + 1, d):
            sig[j] += dp
    return [f"a({n}) != sigma_25({n}) mod {EF_PRIME}" for n in range(1, EF_PREC + 1) if (a[n] - sig[n]) % EF_PRIME]


def check_ef_multiplicative(files) -> list[str]:
    """a(n) is the product of a(p^e) over the prime powers exactly dividing n."""
    a = _eigen_coeffs(files)
    return [
        f"a({n}) is not multiplicative"
        for n in range(2, EF_PREC + 1)
        if len(pp := _prime_powers(n)) > 1 and a[n] != math.prod(a[q] for q in pp)
    ]


def check_ef_recurrence(files) -> list[str]:
    """a(p^(e+1)) = a(p) a(p^e) - p^25 a(p^(e-1))."""
    a = _eigen_coeffs(files)
    bad = []
    for p in range(2, math.isqrt(EF_PREC) + 1):
        if factor(p) != {p: 1}:
            continue
        q = p
        while q * p <= EF_PREC:
            if a[q * p] != a[p] * a[q] - p ** (EF_WEIGHT - 1) * a[q // p]:
                bad.append(f"Hecke recurrence fails at {q * p}")
            q *= p
    return bad


def check_ef_ramanujan(files) -> list[str]:
    """|a(p)|^2 <= 4 p^25 for every prime p <= 3600."""
    a = _eigen_coeffs(files)
    return [
        f"Ramanujan bound fails at p={p}"
        for p in range(2, EF_PREC + 1)
        if factor(p) == {p: 1} and a[p] ** 2 > 4 * p ** (EF_WEIGHT - 1)
    ]


# -- lfactor --group E73 -------------------------------------------------------


def check_lfactor_report(files) -> list[str]:
    """PASS, degree 56, and the Arthur dimensions 4 + 34 + 18 = 56."""
    report = files["out.txt"]
    want = [
        "check standard-lfactor E73 n=1 : PASS",
        "  degree 56",
        "  self-dual True",
        "  Sym3(rho_f): dim 4, type Sp",
        "  rho_f (x) Sym16: dim 34, type Sp",
        "  rho_f (x) Sym8: dim 18, type Sp",
        "  total 56 inside Sp_56",
    ]
    lines = report.splitlines()
    return [f"report lacks {w.strip()!r}" for w in want if w not in lines]


def e73_roots() -> list[tuple[int, int]]:
    """(alpha exponent, p exponent) of the 56 Satake parameters of E7,3.

    Sym^3(rho_f) + rho_f x Sym^16 + rho_f x Sym^8: alpha^{+-3}, alpha^{+-1}
    and alpha^{+-1} p^j for |j| <= 8 and again for |j| <= 4.
    """
    roots = [(3, 0), (1, 0), (-1, 0), (-3, 0)]
    for span in (8, 4):
        roots += [(s, j) for s in (1, -1) for j in range(-span, span + 1)]
    return roots


def e73_point(rng) -> dict[str, Fraction]:
    """A random rational point: alpha, beta, s = p^(1/2), chi = +-1 and t."""
    def rat():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    return {"alpha": rat(), "beta": rat(), "s": rat(), "chi": Fraction(rng.choice((-1, 1))), "t": rat()}


def e73_direct(point: dict[str, Fraction]) -> Fraction:
    """prod (1 - mu t) over the Arthur parameters, evaluated with Fraction."""
    al, s, t = point["alpha"], point["s"], point["t"]
    return math.prod((1 - al**a * s ** (2 * j) * t for a, j in e73_roots()), start=Fraction(1))


def specialise(coeffs: list[dict[tuple[int, int, int, int], int]], point) -> Fraction:
    """Value of sum_i t^i sum c alpha^a beta^b s^half chi^chi at ``point``."""
    al, be, s, chi, t = (point[k] for k in ("alpha", "beta", "s", "chi", "t"))
    return sum(
        (t**i * sum(c * al**a * be**b * s**h * chi**x for (a, b, h, x), c in terms.items())
         for i, terms in enumerate(coeffs)),
        Fraction(0),
    )


CHECKS = {
    "lift": [
        check_lift_support,
        check_lift_maass,
        check_lift_discriminant,
        check_lift_kohnen,
        check_lift_provenance,
        check_lift_report,
    ],
    "fj": [check_fj_components, check_fj_report],
    "eigenform": [
        check_ef_normalized,
        check_ef_congruence,
        check_ef_multiplicative,
        check_ef_recurrence,
        check_ef_ramanujan,
    ],
    "lfactor": [check_lfactor_report],
}


def prepare(command: str) -> None:
    """Compute the reference values the checks of ``command`` need, ahead of time."""
    if command == "lift":
        import sympy  # noqa: F401  (its import takes longer than the check itself)

        f18_ap(2), f18_ap(3)
    elif command == "fj":
        cohen_numbers(FJ_K, 4 * FJ_BOUND), fj_constant()
    elif command == "eigenform":
        f26_head(30)


def check_output(command: str, files: dict[str, str]) -> list[str]:
    """All problems the checks of ``command`` find in its output files."""
    bad = []
    for check in CHECKS[command]:
        try:
            bad += check(files)
        except (KeyError, ValueError, IndexError) as exc:
            bad.append(f"{check.__name__}: unreadable output ({exc!r})")
    return bad
