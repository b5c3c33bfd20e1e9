"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``: every absolute import in
``src/sklift/`` must name a standard-library module or ``sklift`` itself.
Relative imports stay inside the package.
"""

import ast
import glob
import os
import sys

import sklift


def _absolute_imports(tree):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_src_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"sklift"}
    paths = sorted(glob.glob(os.path.join(sklift.__path__[0], "*.py")))
    assert len(paths) > 1
    outside = []
    for path in paths:
        with open(path, "rb") as fh:
            tree = ast.parse(fh.read(), path)
        name = os.path.basename(path)
        outside += [f"{name}:{line} {module}" for line, module in _absolute_imports(tree) if module not in allowed]
    assert not outside, f"imports outside the standard library: {outside}"
