"""Source lints over ``src/qcb``.

The package depends on nothing beyond the standard library: every absolute
import must name a standard-library module or ``qcb`` itself, and relative
imports stay inside the package.  It holds no ``assert`` statement, since
``python -O`` strips them: invariant checks raise ``InvariantViolation``.
One ``lru_cache`` is keyed by a ``Shape``: ``shapes.shape_tables``, the
one owner of a shape's tables, and it keeps at most 8 shapes.  Every
module-level function and class is named somewhere else in the package,
``__init__``'s re-exports aside, so a helper that no caller uses does not
stay; and every name a module imports
is used in it (``__init__`` excepted: its imports are its exports).
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
    """The only cache keyed by a shape is the owner of its tables, and it keeps at most 8 shapes."""
    caches = [(name, node.name, size) for name, node, size in shape_caches()]
    assert [(name, fn) for name, fn, _size in caches] == [("shapes.py", "shape_tables")], caches
    size = caches[0][2]
    assert isinstance(size, ast.Constant) and type(size.value) is int and size.value <= 8, ast.dump(size)


def _references(tree):
    """Each name the module refers to, with the top-level definition it sits in (None outside one):
    a plain name, the attribute of an attribute access, or an imported name."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name, owner


def test_every_module_level_definition_has_a_caller():
    """A module-level function or class that only its own body names is dead code, tests or not;
    ``__init__``'s re-export is not a caller, so a helper that only its export keeps alive is dead too."""
    trees = dict(_sources())
    callers: dict[str, set] = {}
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for ref, owner in _references(tree):
            callers.setdefault(ref, set()).add((name, owner))
    dead = [
        f"{name}:{stmt.lineno}: {stmt.name}"
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not callers.get(stmt.name, set()) - {(name, stmt.name)}
    ]
    assert not dead, dead


def test_every_imported_name_is_used():
    """A name a module imports but never uses is left over from code that went."""
    unused = []
    for name, tree in _sources():
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno}: {bound}")
    assert not unused, unused
