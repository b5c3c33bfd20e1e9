"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each sklift command of the benchmark once, shows that its output passes
every check, then alters one coefficient (or one reported number) at a time
and shows that the check aimed at it rejects the altered output.  Takes
about fifteen seconds.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

import checks
import run

OUT = run.WORK / "selftest"


def produce() -> dict[str, dict[str, str]]:
    """Output files of each benchmark command, keyed by command name."""
    shutil.rmtree(OUT, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    env.pop("SKLIFT_CACHE_DIR", None)
    outputs = {}
    for cmd in (c for cmds in run.WORKLOADS.values() for c in cmds):
        d = OUT / cmd[0]
        d.mkdir(parents=True)
        argv = [*cmd, "--out", "out" if cmd[0] in run.THREADED else "out.txt"]
        subprocess.run([sys.executable, "-m", "sklift.cli", *argv], cwd=d, env=env, check=True, capture_output=True)
        outputs[cmd[0]] = {p.name: p.read_text() for p in d.iterdir()}
    return outputs


def bump(text: str, prefix: str, delta=1) -> str:
    """Add ``delta`` to the fraction on the line that starts with ``prefix``."""
    lines = text.splitlines()
    (i,) = [i for i, ln in enumerate(lines) if ln.startswith(prefix)]
    value = checks._frac(lines[i][len(prefix):]) + delta
    lines[i] = f"{prefix}{value.numerator}/{value.denominator}"
    return "\n".join(lines) + "\n"


def swap(text: str, old: str, new: str) -> str:
    assert text.count(old) == 1, old
    return text.replace(old, new)


# command -> check -> (file, alteration); each alteration changes one value
MUTATIONS = {
    "lift": {
        checks.check_lift_support: ("out.expansion.txt", lambda t: bump(t, "1 0 1 ", Fraction(-1385, 2))),
        checks.check_lift_maass: ("out.expansion.txt", lambda t: bump(t, "2 0 2 ")),
        checks.check_lift_discriminant: ("out.expansion.txt", lambda t: bump(t, "2 2 3 ")),
        checks.check_lift_kohnen: ("out.expansion.txt", lambda t: bump(t, "1 0 3 ")),
        checks.check_lift_provenance: ("out.provenance.txt", lambda t: swap(t, "\n1 0 12 2:2\n", "\n1 0 12 2:1\n")),
        checks.check_lift_report: ("out.report.txt", lambda t: swap(t, "(ratio 240 ", "(ratio 241 ")),
    },
    "fj": {
        checks.check_fj_components: ("out.xi1.txt", lambda t: bump(t, "11 : ")),
        checks.check_fj_report: ("out.report.txt", lambda t: swap(t, "'1/2', '-", "'1/2', '")),
    },
    "eigenform": {
        checks.check_ef_normalized: ("out.txt", lambda t: bump(t, "7:")),
        checks.check_ef_congruence: ("out.txt", lambda t: bump(t, "3598:")),
        checks.check_ef_multiplicative: ("out.txt", lambda t: bump(t, "3599:", checks.EF_PRIME)),
        checks.check_ef_recurrence: ("out.txt", lambda t: bump(t, "3481:", checks.EF_PRIME)),
        checks.check_ef_ramanujan: ("out.txt", lambda t: bump(t, "3593:", checks.EF_PRIME * 10**50)),
    },
    "lfactor": {
        checks.check_lfactor_report: ("out.txt", lambda t: swap(t, "  degree 56\n", "  degree 57\n")),
    },
}


class ChecksRejectAlteredOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outputs = produce()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(OUT, ignore_errors=True)

    def test_outputs_pass(self):
        for command, files in self.outputs.items():
            self.assertEqual(checks.check_output(command, files), [], command)

    def test_every_check_has_a_mutation(self):
        for command, mutations in MUTATIONS.items():
            self.assertEqual(set(mutations), set(checks.CHECKS[command]), command)

    def test_each_check_rejects_its_mutation(self):
        for command, mutations in MUTATIONS.items():
            for check, (name, alter) in mutations.items():
                with self.subTest(check=check.__name__):
                    files = dict(self.outputs[command])
                    files[name] = alter(files[name])
                    self.assertNotEqual(files[name], self.outputs[command][name])
                    self.assertTrue(check(files), f"{check.__name__} accepted an altered {name}")

    def test_byte_identity_rejects_a_changed_output(self):
        bench = run.Bench("lift-hecke", 0, OUT / "bench")
        d = OUT / "copy"
        for text, ok in ((self.outputs["lfactor"]["out.txt"], True), ("altered\n", False)):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            (d / "out.txt").write_text(text)
            self.assertEqual(bench.verify("lfactor", d), ok)

    def test_e73_point_check(self):
        sys.path.insert(0, str(run.SRC))
        from sklift.lfactor import standard_satake

        point = checks.e73_point(random.Random(7))
        coeffs = [c.monomials() for c in standard_satake("E73").euler_factor().coeffs]
        self.assertEqual(checks.specialise(coeffs, point), checks.e73_direct(point))
        key = next(iter(coeffs[3]))
        coeffs[3][key] += 1
        self.assertNotEqual(checks.specialise(coeffs, point), checks.e73_direct(point))


if __name__ == "__main__":
    unittest.main()
