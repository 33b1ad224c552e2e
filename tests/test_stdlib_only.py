"""The package depends on nothing beyond the standard library.

Every absolute import in ``src/qcb`` must name a standard-library module or
``qcb`` itself; relative imports stay inside the package.
"""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qcb")


def _absolute_imports(path):
    tree = ast.parse(open(path).read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"qcb"}
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "cli.py" in files
    bad = [
        f"{name}:{lineno}: {module}"
        for name in files
        for lineno, module in _absolute_imports(os.path.join(SRC, name))
        if module.split(".")[0] not in allowed
    ]
    assert not bad, bad
