"""File-emitting command line front end.

Commands:

    sklift eigenform --weight 18 --prec 100 --out f18.txt
    sklift lift      --weight 18 --bound 10 --out lift18 [--threads N] [--primes 2,3]
    sklift lfactor   --group Sp --n 2 --out report.txt
    sklift fj        --weight 12 --S 1 --bound 40 --out fj12 [--source eisenstein]

Exit codes: 0 all checks pass, 1 usage / gate error, an output that cannot
be written (one line naming ``--out`` and the path) or memory exhaustion
(one line naming the command's size option), 2 mathematical check
failure; a run that exits 1 removes the files it had written.  Argparse
checks every option where it is parsed: an out-of-range value exits 1 with
a message naming the flag, as does one too small to test a claim
(``eigenform --prec`` < 4; ``fj --source eisenstein --bound`` < 2 and
``fj --source lift --bound`` < 1, checked in ``cmd_fj``).  All numeric
output is exact (integer / rational strings); repeated runs with identical
configuration are byte-identical.  ``--threads`` is accepted for
compatibility but has no effect: the lift is computed serially, once per
(D_T, content) class.

Each handler imports the layers it runs, so importing this module loads no
layer module and a fresh process compiles only what its command needs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import __version__

USAGE_ERROR = 1
CHECK_FAILURE = 2

_GROUP_ALIASES = {
    "Sp": "Sp4n",
    "Sp4n": "Sp4n",
    "SU": "SU2n+1",
    "SU2n+1": "SU2n+1",
    "SUH": "SU2nH",
    "SU2nH": "SU2nH",
    "E73": "E73",
}


def _at_least(least: int):
    """An argparse ``type`` reading an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


def _primes(text: str) -> tuple:
    """An argparse ``type`` reading a non-empty comma-separated list of distinct primes."""
    try:
        primes = tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        primes = ()
    if not primes or any(p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)) for p in primes):
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of primes, got {text!r}")
    if len(set(primes)) < len(primes):
        raise argparse.ArgumentTypeError(f"expected distinct primes, got {text!r}")
    return primes


def _write(path: str, text: str, written: list) -> None:
    """Write ``text`` to ``path``, noting the path in ``written`` once the file is opened."""
    d = os.path.dirname(path)
    try:
        if d:
            os.makedirs(d, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            written.append(path)
            fh.write(text)
    except OSError as exc:  # for example a parent that is a file, or a target that is a directory
        raise ValueError(f"cannot write --out {path}: {exc}") from exc


def cmd_eigenform(args: argparse.Namespace) -> int:
    from .eigenforms import eigenform

    f = eigenform(args.weight, args.prec)
    _write(args.out, f.series.to_text(), args.written)
    print(f"wrote {args.out} (weight {args.weight}, {args.prec} coefficients)")
    return 0


class _Report:
    """The ``check NAME : PASS|FAIL (detail)`` lines of ``lift`` and ``fj``, and their exit code."""

    def __init__(self, *header: str):
        self.lines = ["sklift report v1", *header]
        self.ok = True

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        line = f"check {name} : {'PASS' if passed else 'FAIL'}"
        self.lines.append(f"{line} ({detail})" if detail else line)
        self.ok &= passed

    def finish(self, out: str, written: list) -> int:
        _write(out + ".report.txt", "\n".join(self.lines) + "\n", written)
        print("\n".join(self.lines[1:]))
        return 0 if self.ok else CHECK_FAILURE


def cmd_lift(args: argparse.Namespace) -> int:
    from .eigenforms import eigenform
    from .lift import hecke_ratio, lift_expand, maass_check
    from .siegel import hecke_Tp_degree2, phi_operator

    # every index read has trace <= W = bound * max(primes), so each a(p) read, at a
    # conductor prime (<= W/sqrt(3)) or a Hecke prime (<= W/2), has p <= W
    f = eigenform(args.weight, max(128, 6 * args.bound, args.bound * max(args.primes)))
    F = lift_expand(f, args.bound)
    _write(args.out + ".expansion.txt", F.to_text(), args.written)
    _write(args.out + ".provenance.txt", F.provenance_text(), args.written)

    report = _Report(f"lift weight {F.weight} from S_{args.weight}, bound {args.bound}")
    nz = sum(1 for v in F.table.values() if v)
    report.check("nonzero", nz > 0, f"{nz} nonzero coefficients")
    report.check("phi-annihilated", phi_operator(F).is_zero())
    mr = maass_check(F, f.k_half)
    report.check("maass-relations", mr.passed, f"exponent {mr.exponent}, {mr.checked} indices")
    # the Hecke check reads the same expansion further out, into the same memo
    F.trace_bound = args.bound * max(args.primes)
    for p in args.primes:
        img = hecke_Tp_degree2(F, p)
        try:
            lam, count = hecke_ratio(F, img)
        except ArithmeticError as exc:
            report.check(f"hecke-eigen p={p}", False, str(exc))
            continue
        expected = f.a(p) + p**f.k_half + p ** (f.k_half - 1)
        report.check(f"hecke-eigen p={p}", lam == expected, f"ratio {lam} over {count} indices")
    return report.finish(args.out, args.written)


def cmd_lfactor(args: argparse.Namespace) -> int:
    from .lfactor import (
        Report,
        arthur_dims,
        cap_check,
        factored_rhs,
        miyawaki_check,
        satake_degree,
        standard_satake,
    )

    if args.group in ("E73", "Miyawaki") and args.n != 1:
        raise ValueError(f"group {args.group} has no rank parameter; --n must be 1")
    if args.group == "Miyawaki":
        rep = miyawaki_check()
    elif args.group == "CAP":
        rep = cap_check(args.n)
    else:
        tag = _GROUP_ALIASES[args.group]
        ms = standard_satake(tag, args.n)
        lhs = ms.euler_factor()
        rhs = factored_rhs(tag, args.n)
        passed = lhs == rhs and ms.is_self_dual() and lhs.degree == satake_degree(tag, args.n)
        details = [f"degree {lhs.degree}", f"self-dual {ms.is_self_dual()}"]
        rep = Report(name=f"standard-lfactor {tag} n={args.n}", passed=passed, details=details)
        if tag == "E73":
            dims = arthur_dims()
            rep.details += dims.details
            rep.passed &= dims.passed
    _write(args.out, rep.to_text(), args.written)
    print(rep.to_text().rstrip())
    return 0 if rep.passed else CHECK_FAILURE


def cmd_fj(args: argparse.Namespace) -> int:
    from .jacobi import ScopeError, dual_cosets, fj_component, reconstruct_fj, theorem_eisen_check

    if args.source == "eisenstein":
        from .siegel import EisensteinExpansion

        if args.weight % 2 or args.weight < 4:
            raise ValueError(f"eisenstein weight must be even >= 4, got {args.weight}")
        if args.S != 1:
            raise ScopeError(
                f"S={args.S} unsupported: only index 1 has a trivial multiplier here"
            )
        if args.bound < 2:  # H(k, 7), nonzero for odd k, is the xi = 1/2 coset's second value
            raise ValueError(f"argument --bound: must be at least 2 with --source eisenstein, got {args.bound}")
        k = args.weight - 1
        F = EisensteinExpansion(k, args.bound + args.S)
    else:
        from .eigenforms import eigenform
        from .lift import LiftExpansion

        if args.bound < 1:  # every positive definite index (S, r, N) has N >= 1
            raise ValueError(f"argument --bound: must be at least 1 with --source lift, got {args.bound}")
        # every index read has trace <= W = bound + S, so each a(p) read, at a
        # conductor prime (<= W/sqrt(3)), has p <= W
        f = eigenform(args.weight, max(128, 6 * args.bound, args.bound + args.S))
        k = f.k_half
        F = LiftExpansion(f, args.bound + args.S)

    report = _Report()
    # Each component is built once and serves the files, the reconstruction
    # and the pattern check.  The reconstruction reads every index the
    # components hold, so the lift is checked for vanishing before a file is
    # written.
    components = {xi: fj_component(F, args.S, xi) for xi in dual_cosets(args.S)}
    rec = reconstruct_fj(F, args.S, components)
    if args.source == "lift" and F.is_zero():
        raise ArithmeticError("lift vanished identically at this truncation")
    if args.S == 1:
        for idx, comp in enumerate(components.values()):
            _write(f"{args.out}.xi{idx}.txt", comp.to_text(), args.written)
    report.check(f"fj-reconstruction S={args.S}", rec.passed, f"{rec.checked} checked")
    if args.source == "eisenstein":
        rep = theorem_eisen_check(k, args.S, args.bound, components=components)
        constants = sorted((str(x), str(c)) for x, c in rep.constants.items())
        report.check("fj-eisenstein-pattern", rep.passed, f"constants {constants}")
    return report.finish(args.out, args.written)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sklift", description=__doc__)
    ap.add_argument("--version", action="version", version=f"sklift {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    count, positive = _at_least(0), _at_least(1)

    p = sub.add_parser("eigenform", help="emit a normalized eigenform q-expansion")
    p.set_defaults(handler=cmd_eigenform, size="--prec")
    p.add_argument("--weight", type=int, required=True, help="2k, one of 18, 22, 26")
    p.add_argument("--prec", type=_at_least(4), default=100, help="truncation of the q-expansion, at least 4")
    p.add_argument("--out", default="eigenform.txt")

    p = sub.add_parser("lift", help="expand the lift and run its check suite")
    p.set_defaults(handler=cmd_lift, size="--bound or --primes")
    p.add_argument("--weight", type=int, required=True, help="2k of the input eigenform")
    p.add_argument("--bound", type=_at_least(2), required=True, help="trace bound of the expansion, at least 2")
    p.add_argument("--threads", type=count, default=0, help="accepted for compatibility; no effect (serial)")
    p.add_argument("--primes", type=_primes, default=(2, 3), help="Hecke primes for the eigen check")
    p.add_argument("--out", default="lift")

    p = sub.add_parser("lfactor", help="standard L-factor identity reports")
    p.set_defaults(handler=cmd_lfactor, size="--n")
    p.add_argument("--group", required=True, choices=sorted(set(_GROUP_ALIASES) | {"Miyawaki", "CAP"}))
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--out", default="lfactor-report.txt")

    p = sub.add_parser("fj", help="Fourier-Jacobi components and theta-pattern checks")
    p.set_defaults(handler=cmd_fj, size="--bound or --S")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--S", type=positive, default=1)
    p.add_argument("--bound", type=count, required=True)
    p.add_argument("--source", choices=("eisenstein", "lift"), default="eisenstein")
    p.add_argument("--threads", type=count, default=1, help="accepted for compatibility; no effect (serial)")
    p.add_argument("--out", default="fj")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage problems; remap to our usage code
        return USAGE_ERROR if exc.code else 0
    args.written = []
    try:
        return args.handler(args)
    except ValueError as exc:  # ParityGateError, DimensionGateError and ScopeError among them
        message = f"error: {exc}"
    except ArithmeticError as exc:
        print(f"mathematical check failure: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except MemoryError:  # a resource limit, not a mathematical failure
        message = f"error: out of memory; try a smaller {args.size}"
    for path in args.written:  # a run that ends in a usage error leaves none of its files
        with contextlib.suppress(OSError):
            os.remove(path)
    print(message, file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
