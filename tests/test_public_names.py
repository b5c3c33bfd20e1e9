"""Every public name of each sklift module is used.

A name in a module's ``__all__`` must appear in ``src/`` beyond its own
definition, in the acceptance suite, or in perfbench's traced hooks.  In
``src/`` and the acceptance suite only code counts, not the ``__all__``
strings, docstrings or comments; ``perfbench/traced.py`` names its hooks in
strings, so it is read as plain text.  A public function that nothing runs
is dead code that every fresh process still compiles.
"""

import ast
import glob
import importlib
import os
import pkgutil
import re
import tokenize
from collections import Counter

import sklift

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _code_names(path) -> Counter:
    with open(path, "rb") as fh:
        return Counter(tok.string for tok in tokenize.tokenize(fh.readline) if tok.type == tokenize.NAME)


def test_every_public_name_is_used():
    src = Counter()
    for path in glob.glob(os.path.join(sklift.__path__[0], "*.py")):
        src.update(_code_names(path))
    acceptance = _code_names(os.path.join(ROOT, "tests", "test_acceptance.py"))
    with open(os.path.join(ROOT, "perfbench", "traced.py")) as fh:
        traced = fh.read()
    unused = []
    for info in pkgutil.iter_modules(sklift.__path__):
        module = importlib.import_module(f"sklift.{info.name}")
        for name in getattr(module, "__all__", ()):
            # one code occurrence in src/ is the definition itself
            if src[name] < 2 and not acceptance[name] and not re.search(rf"\b{name}\b", traced):
                unused.append(f"{info.name}.{name}")
    assert not unused, f"public names that nothing uses: {unused}"


def _functions(tree, prefix=""):
    """(qualified name, first line, last line) of every function in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node.lineno, node.end_lineno
            yield from _functions(node, name + ".")


def test_lookup_is_called_only_by_coefficient():
    # SiegelExpansion.coefficient is the one read path of an expansion: it
    # reduces the index and checks the trace bound before ``_lookup`` sees it
    callers = []
    for path in sorted(glob.glob(os.path.join(sklift.__path__[0], "*.py"))):
        with open(path, "rb") as fh:
            toks = [tok for tok in tokenize.tokenize(fh.readline) if tok.type in (tokenize.NAME, tokenize.OP)]
            fh.seek(0)
            functions = list(_functions(ast.parse(fh.read())))
        for dot, name, paren in zip(toks, toks[1:], toks[2:]):
            if (dot.string, name.string, paren.string) == (".", "_lookup", "("):
                line = name.start[0]
                inner = max((f for f in functions if f[1] <= line <= f[2]), key=lambda f: f[1], default=None)
                callers.append((os.path.basename(path), inner and inner[0]))
    assert callers == [("siegel.py", "SiegelExpansion.coefficient")]
