"""Every top-level function and class of the package is exported from
``pebblex/__init__.py`` or used by package code: a helper that only tests
call is dead weight and gets deleted, with its tests moved to what it
stood for.  Likewise every import is read by the module or function that
holds it, and every field of a private NamedTuple is read by package
code."""

import ast
import collections
import pathlib

import pebblex

SRC = pathlib.Path(pebblex.__file__).parent

# (module, name) pairs kept although only tests call them, each with its reason
TEST_ONLY = {
    # tests/test_oracles.py checks the bridge half of graphs._cuts_and_bridges
    # against networkx through it, and has_k_isthmus rests on that half
    ("graphs", "bridges"),
}


def _referenced(node):
    """Every name that node's code refers to, counted: bare names, attribute
    names and imported names."""
    refs = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rsplit(".", 1)[-1]] += 1
    return refs


def _unused():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    everywhere = sum((_referenced(t) for t in trees.values()), collections.Counter())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a recursive call does not count as a use
                elsewhere = everywhere[node.name] - _referenced(node)[node.name]
                if elsewhere == 0 and (module, node.name) not in TEST_ONLY:
                    out.append(f"{module}.{node.name}")
    return out


def _own_imports(scope):
    """The import statements of a module or function body, leaving out
    those of the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _unused_imports_in(stem, tree):
    """Names bound by an import that the module or function holding the
    import never reads, as module.name or module.function.name."""
    scopes = [(stem, tree)] + [
        (f"{stem}.{node.name}", node) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    out = []
    for where, scope in scopes:
        read = {sub.id for sub in ast.walk(scope) if isinstance(sub, ast.Name)}
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append(f"{where}.{name}")
    return sorted(out)


def _unused_imports():
    """Unused imports of every module but ``__init__.py``, which imports to
    re-export."""
    return sorted(
        name for path in SRC.glob("*.py") if path.name != "__init__.py"
        for name in _unused_imports_in(path.stem, ast.parse(path.read_text()))
    )


def _unread_fields():
    """Fields of the package's private NamedTuples that no package code
    reads.  A read is an attribute load of the field's name, or the name in
    a tuple-unpacking target, which reads a field by its position."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    read = set()
    for sub in (sub for tree in trees.values() for sub in ast.walk(tree)):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read.add(sub.attr)
        elif isinstance(sub, (ast.Tuple, ast.List)) and isinstance(sub.ctx, ast.Store):
            for target in sub.elts:
                target = target.value if isinstance(target, ast.Starred) else target
                if isinstance(target, ast.Name):
                    read.add(target.id)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.ClassDef) and node.name.startswith("_")
                    and any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)):
                out += [f"{module}.{node.name}.{stmt.target.id}" for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]
    return sorted(out)


def test_every_module_level_import_is_used():
    assert _unused_imports() == []
    # an import inside a function counts as used only where that function
    # reads it, and a module-level import only where its module does
    tree = ast.parse(
        "import re\n"
        "def f():\n    import os\n    return g\n"
        "def g(os):\n    return os\n"
    )
    assert _unused_imports_in("m", tree) == ["m.f.os", "m.re"]


def test_every_top_level_helper_is_exported_or_used():
    assert _unused() == []


def test_test_only_list_names_live_helpers():
    for module, name in TEST_ONLY:
        assert hasattr(getattr(pebblex, module), name)


def test_every_private_named_tuple_field_is_read():
    assert _unread_fields() == []
