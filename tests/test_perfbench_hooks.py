"""The perfbench tracer's hooks into sklift must keep working.

``perfbench/traced.py`` looks each (module, attribute) up by name; a renamed
function would leave its per-layer metric silently at zero.  It also reads
the E7,3 Euler factor's coefficients after the command has finished.
"""

import importlib
import os

import pytest


def _traced(monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    return importlib.import_module("traced")


def test_traced_hooks_name_sklift_callables(monkeypatch):
    traced = _traced(monkeypatch)
    hooks = traced.SPANNED + traced.COUNTED
    assert hooks
    for mod, attr in hooks:
        assert mod in traced.MODULES, (mod, attr)
        assert callable(getattr(importlib.import_module(f"sklift.{mod}"), attr, None)), (mod, attr)


def test_traced_reads_of_packed_euler_factor(monkeypatch):
    # traced.py reads .coeffs -> .terms and .monomials() after the command
    pytest.importorskip("sympy")
    from sklift.lfactor import standard_satake

    traced = _traced(monkeypatch)
    ef = standard_satake("E73").euler_factor()
    assert sum(len(c.terms) for c in ef.coeffs) == 120191  # lfactor.product_terms
    assert all(isinstance(c.monomials(), dict) for c in ef.coeffs)
    for seed in (1, 2, 3):
        assert traced._e73_point_check([ef], seed)
