"""perfbench's hooks into sklift must keep working.

``perfbench/traced.py`` looks each (module, attribute) up by name; a renamed
function would leave its per-layer metric silently at zero.  It also reads
the E7,3 Euler factor's coefficients after the command has finished.
``perfbench/run.py`` passes its workload commands, with ``--out`` and
``--threads``, to the sklift command line, which must accept them.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest


def _perfbench(monkeypatch, name):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing there
    return importlib.import_module(name)


def test_benchmark_commands_parse(monkeypatch):
    # every operation of a workload fails if sklift rejects one of its flags
    from sklift.cli import build_parser

    run = _perfbench(monkeypatch, "run")
    for commands in run.WORKLOADS.values():
        for cmd in commands:
            argv = [*cmd, "--out", "x"] + (["--threads", "2"] if cmd[0] in run.THREADED else [])
            assert callable(build_parser().parse_args(argv).handler), argv


def test_traced_hooks_name_sklift_callables(monkeypatch):
    traced = _perfbench(monkeypatch, "traced")
    hooks = traced.SPANNED + traced.COUNTED
    assert hooks
    for mod, attr in hooks:
        assert mod in traced.MODULES, (mod, attr)
        assert callable(getattr(importlib.import_module(f"sklift.{mod}"), attr, None)), (mod, attr)


def test_traced_reads_of_packed_euler_factor(monkeypatch):
    # traced.py reads .coeffs -> .terms and .monomials() after the command
    pytest.importorskip("sympy")
    from sklift.lfactor import standard_satake

    traced = _perfbench(monkeypatch, "traced")
    ef = standard_satake("E73").euler_factor()
    assert sum(len(c.terms) for c in ef.coeffs) == 120191  # lfactor.product_terms
    assert all(isinstance(c.monomials(), dict) for c in ef.coeffs)
    for seed in (1, 2, 3):
        assert traced._e73_point_check([ef], seed)


def _lift_reads_in_process(tmp_path, monkeypatch, args):
    """The reduced positive definite indices the command's lift expansions
    read, recorded in process by ``LiftExpansion._lookup``."""
    import sklift.lift as lift
    from sklift.cli import main

    read = set()
    real = lift.LiftExpansion._lookup

    def recording(self, red):
        if red.is_positive_definite():
            read.add(red)
        return real(self, red)

    with monkeypatch.context() as m:
        m.setattr(lift.LiftExpansion, "_lookup", recording)
        assert main([*args, "--out", str(tmp_path / "in-process")]) == 0
    return read


@pytest.mark.parametrize("args, span", [
    (["lift", "--weight", "18", "--bound", "6"], "lift.lift_coeff"),
    (["eigenform", "--weight", "18", "--prec", "50"], "eigenforms.eigenform"),
    (["lfactor", "--group", "Sp"], "lfactor.factored_rhs"),
])
def test_traced_command_records_its_layer(tmp_path, monkeypatch, args, span):
    # the CLI imports its layers inside each command, after traced.py has wrapped
    # them, so the command must still run through the wrapped functions
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "traced.py"), str(spans), "-", *args, "--out", "out"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    data = json.loads(spans.read_text())
    names = [name for name, *_ in data["spans"]]
    assert span in names
    # lift_coeff runs once per (D_T, content) class of the positive definite reads
    read = _lift_reads_in_process(tmp_path, monkeypatch, args)
    assert data["lift_distinct_reads"] == len(read)
    assert names.count("lift.lift_coeff") == len({(T.disc, T.content) for T in read})
