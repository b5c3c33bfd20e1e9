"""Traced run of one sklift command, in-process.

    python3 perfbench/traced.py SPANS.json SEED|- sklift-arguments...

Wraps the public functions of each sklift layer, replacing their names in
every sklift module that holds them, then calls ``sklift.cli.main`` with the
given arguments.  Each wrapped call records a span (name, start, end, parent
span) in memory; hot helpers are only counted.  The spans and counts are
written to SPANS.json when the command has finished, with ``post_s``, the
time spent after the command on this bookkeeping.  Given a SEED, an E7,3
command also checks its Euler factor at a random point drawn from SEED.
``summarize`` turns the file into the per-layer metrics.

Nothing here changes what sklift computes: the wrappers call the original
functions with the original arguments and return their results.
"""

from __future__ import annotations

import json
import random
import sys
from time import perf_counter

# (module, attribute) of each function wrapped in a span
SPANNED = [
    ("arith", "dirichlet_L_neg"),
    ("siegel", "cohen_H"),
    ("siegel", "eisenstein_coeff_arithmetic"),
    ("siegel", "reduce_index"),
    ("siegel", "hecke_Tp_degree2"),
    ("lift", "lift_coeff"),
    ("lift", "maass_check"),
    ("lift", "hecke_ratio"),
    ("jacobi", "fj_component"),
    ("jacobi", "reconstruct_fj"),
    ("jacobi", "theorem_eisen_check"),
    ("eigenforms", "eigenform"),
    ("qseries", "convolve_int"),
    ("lfactor", "factored_rhs"),
]
# functions called too often for a span each: counted only
COUNTED = [("arith", "kronecker"), ("arith", "factorize")]
MODULES = ("arith", "cli", "eigenforms", "jacobi", "lfactor", "lift", "qseries", "siegel")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack = [-1]
        self.counts = {"coeff_reads": 0, "convolve_bytes": 0}
        self.lift_reads: set[tuple[int, int, int]] = set()
        self.factors = []  # Euler factors returned by SatakeMultiset.euler_factor

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _replace(modules, original, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _nbytes(values) -> int:
    return sum((abs(x).bit_length() + 7) // 8 for x in values)


def install(tracer: Tracer):
    """Wrap the layer functions in every sklift module; return the modules."""
    import importlib

    mods = {name: importlib.import_module(f"sklift.{name}") for name in MODULES}
    everything = list(mods.values())
    originals = {}
    for mod, attr in COUNTED:
        fn = getattr(mods[mod], attr)
        _replace(everything, fn, tracer.count(f"{mod}.{attr}", fn))
    for mod, attr in SPANNED:
        fn = originals[attr] = getattr(mods[mod], attr)
        wrapped = tracer.span(f"{mod}.{attr}", fn)
        if attr == "convolve_int":
            wrapped = _convolve_bytes(tracer, wrapped)
        _replace(everything, fn, wrapped)

    expansion = mods["siegel"].SiegelExpansion
    lift_expansion = mods["lift"].LiftExpansion
    coefficient = expansion.coefficient
    counts, reads = tracer.counts, tracer.lift_reads

    def read(self, T):
        counts["coeff_reads"] += 1
        if type(self) is lift_expansion:
            reads.add((T.n, T.r, T.m))
        return coefficient(self, T)

    expansion.coefficient = read

    multiset = mods["lfactor"].SatakeMultiset
    euler_factor = tracer.span("lfactor.euler_factor", multiset.euler_factor)

    def factor(self):
        ef = euler_factor(self)
        tracer.factors.append(ef)
        return ef

    multiset.euler_factor = factor
    return mods, originals


def _convolve_bytes(tracer: Tracer, spanned):
    counts = tracer.counts

    def wrapper(a, b, n_out):
        out = spanned(a, b, n_out)
        counts["convolve_bytes"] += _nbytes(a[: n_out + 1]) + _nbytes(b[: n_out + 1]) + _nbytes(out)
        return out

    return wrapper


def main(argv: list[str]) -> int:
    out_path, seed, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    mods, originals = install(tracer)
    rc = mods["cli"].main(cli_args)
    done = perf_counter()

    reduce_index = originals["reduce_index"]
    FourierIndex = mods["siegel"].FourierIndex
    distinct = {reduce_index(FourierIndex(*t))[0] for t in tracer.lift_reads}
    result = {
        "rc": rc,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "lvalue_misses": originals["dirichlet_L_neg"].cache_info().misses,
        "lift_distinct_reads": sum(1 for T in distinct if T.is_positive_definite()),
        "product_terms": sum(len(c.terms) for ef in tracer.factors for c in ef.coeffs),
        "e73_point_ok": _e73_point_check(tracer.factors, int(seed)) if "E73" in cli_args and seed != "-" else None,
    }
    text = json.dumps(result)
    with open(out_path, "w") as fh:
        fh.write(text[:-1] + f', "post_s": {perf_counter() - done!r}}}')
    return rc


def _e73_point_check(factors, seed: int) -> bool:
    """The E7,3 Euler factor, specialised at a seeded random point, equals the direct product."""
    import checks

    point = checks.e73_point(random.Random(seed))
    got = checks.specialise([c.monomials() for c in factors[0].coeffs], point)
    return len(factors) == 1 and got == checks.e73_direct(point)


def summarize(data: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command; "self" is a span minus its child spans."""
    spans = data["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    counts = data["counts"]

    def own(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    return {
        "arith.lvalue_s": own("arith.dirichlet_L_neg"),
        "arith.lvalue_count": data["lvalue_misses"],
        "arith.kronecker_calls": counts["arith.kronecker"],
        "arith.factorize_calls": counts["arith.factorize"],
        "siegel.cohen_H_s": own("siegel.cohen_H"),
        "siegel.eisenstein_coeff_count": calls.get("siegel.eisenstein_coeff_arithmetic", 0),
        "siegel.coeff_reads": counts["coeff_reads"],
        "siegel.reduce_s": own("siegel.reduce_index"),
        "siegel.hecke_s": own("siegel.hecke_Tp_degree2"),
        "lift.coeff_self_s": own("lift.lift_coeff"),
        "lift.coeff_count": calls.get("lift.lift_coeff", 0),
        "lift.distinct_reads": data["lift_distinct_reads"],
        "lift.check_s": own("lift.maass_check", "lift.hecke_ratio"),
        "jacobi.fj_s": own("jacobi.fj_component", "jacobi.reconstruct_fj", "jacobi.theorem_eisen_check"),
        "eigenforms.eigenform_s": own("eigenforms.eigenform"),
        "qseries.convolve_s": total_s.get("qseries.convolve_int", 0.0),
        "qseries.convolve_count": calls.get("qseries.convolve_int", 0),
        "qseries.convolve_mb": counts["convolve_bytes"] / 1e6,
        "lfactor.product_s": total_s.get("lfactor.euler_factor", 0.0) + total_s.get("lfactor.factored_rhs", 0.0),
        "lfactor.product_terms": data["product_terms"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
