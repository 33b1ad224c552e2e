"""Source lints over ``src/qcb``.

The package depends on nothing beyond the standard library: every absolute
import must name a standard-library module or ``qcb`` itself, and relative
imports stay inside the package.  It holds no ``assert`` statement, since
``python -O`` strips them: invariant checks raise ``InvariantViolation``.
Every ``lru_cache`` keyed by a ``Shape`` keeps at most 8 shapes.
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


def _lru_maxsize(decorator):
    """The maxsize of an ``lru_cache`` or ``cache`` decorator as an AST node,
    with the default filled in (128, or None for ``cache``); None for any
    other decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return ast.Constant(None)
    if name != "lru_cache":
        return None
    if call is None:
        return ast.Constant(128)
    given = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return given[0] if given else ast.Constant(128)


def shape_caches():
    """Each ``lru_cache`` or ``cache`` whose first parameter is annotated ``Shape``,
    as (file name, function node, maxsize node)."""
    for name, tree in _sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or not node.args.args:
                continue
            first = node.args.args[0].annotation
            if not (isinstance(first, ast.Name) and first.id == "Shape"):
                continue
            for dec in node.decorator_list:
                size = _lru_maxsize(dec)
                if size is not None:
                    yield name, node, size


def test_per_shape_caches_are_bounded():
    """A cache keyed by a shape holds that shape's tables, so it keeps at most 8 shapes."""
    bad = [
        f"{name}:{node.lineno}: {node.name}"
        for name, node, size in shape_caches()
        if not (isinstance(size, ast.Constant) and type(size.value) is int and size.value <= 8)
    ]
    assert not bad, bad
