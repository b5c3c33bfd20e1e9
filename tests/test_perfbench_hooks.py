"""The functions the perfbench tracer wraps must exist under the names it uses.

``perfbench/traced.py`` looks each (module, attribute) up by name; a renamed
function would leave its per-layer metric silently at zero.
"""

import importlib
import os


def test_traced_hooks_name_sklift_callables(monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    traced = importlib.import_module("traced")
    hooks = traced.SPANNED + traced.COUNTED
    assert hooks
    for mod, attr in hooks:
        assert mod in traced.MODULES, (mod, attr)
        assert callable(getattr(importlib.import_module(f"sklift.{mod}"), attr, None)), (mod, attr)
