"""Source lints over ``src/qcb``.

The package depends on nothing beyond the standard library: every absolute
import must name a standard-library module or ``qcb`` itself, and relative
imports stay inside the package.  It holds no ``assert`` statement, since
``python -O`` strips them: invariant checks raise ``InvariantViolation``.
"""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qcb")


def _sources():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "cli.py" in files
    for name in files:
        path = os.path.join(SRC, name)
        with open(path) as fh:
            yield name, ast.parse(fh.read(), filename=path)


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"qcb"}
    bad = [
        f"{name}:{lineno}: {module}"
        for name, tree in _sources()
        for lineno, module in _absolute_imports(tree)
        if module.split(".")[0] not in allowed
    ]
    assert not bad, bad


def test_package_has_no_assert_statements():
    bad = [
        f"{name}:{node.lineno}"
        for name, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not bad, bad
