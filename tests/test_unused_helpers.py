"""Every top-level function and class of the package is exported from
``pebblex/__init__.py`` or used by package code: a helper that only tests
call is dead weight and gets deleted, with its tests moved to what it
stood for.  Likewise every import is read by the module or function that
holds it, every field of a private NamedTuple is read by package code,
every method and property of a package class is referred to by package
code outside its own body, every defaulted parameter of a private
module-level function is passed by some package call, and every private
name that a package module assigns at module level is read by package
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


def _package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _unused():
    trees = _package_trees()
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
    trees = _package_trees()
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


def _unreferenced_methods(trees):
    """Methods and properties of top-level classes, other than __dunder__
    names, that no code outside the method's own body refers to."""
    everywhere = sum((_referenced(t) for t in trees.values()), collections.Counter())
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not (node.name.startswith("__") and node.name.endswith("__"))
                        and everywhere[node.name] == _referenced(node)[node.name]):
                    out.append(f"{module}.{cls.name}.{node.name}")
    return sorted(out)


def _passes(call, position, name):
    """Does call pass the parameter ``name``, at ``position`` (None when
    keyword-only)?  A *args or **kwargs counts as passing what it could."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def _unset_defaults(trees):
    """Parameters with a default, of private module-level functions, that
    no call by the function's name passes, by position or by keyword."""
    calls = [sub for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Call)]
    out = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(None, arg.arg) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            mine = [c for c in calls
                    if getattr(c.func, "id", getattr(c.func, "attr", None)) == fn.name]
            out += [f"{module}.{fn.name}.{name}" for i, name in defaulted
                    if not any(_passes(c, i, name) for c in mine)]
    return sorted(out)


def _private_assignments(tree):
    """The private names, one leading underscore and no dunder, that a
    module's top-level assignments bind."""
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for sub in (sub for target in targets for sub in ast.walk(target)):
            if (isinstance(sub, ast.Name) and sub.id.startswith("_")
                    and not sub.id.startswith("__")):
                yield sub.id


def _unread_private_names(trees):
    """Private module-level names that no package code reads.  A read is a
    load of the bare name, an attribute load of it, or an import of it."""
    read = set()
    for sub in (sub for tree in trees.values() for sub in ast.walk(tree)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read.add(sub.attr)
        elif isinstance(sub, ast.alias):
            read.add(sub.name.rsplit(".", 1)[-1])
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _private_assignments(tree) if name not in read)


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


def test_every_method_is_referred_to_outside_itself():
    assert _unreferenced_methods(_package_trees()) == []
    # a recursive call is no use, a call from another module is one, and
    # dunder methods are left alone
    trees = {
        "a": ast.parse(
            "class C:\n"
            "    def __len__(self):\n        return 0\n"
            "    def walk(self):\n        return self.walk()\n"
            "    def used(self):\n        return 1\n"
            "    @property\n    def size(self):\n        return 2\n"
        ),
        "b": ast.parse("def f(c):\n    return c.used()\n"),
    }
    assert _unreferenced_methods(trees) == ["a.C.size", "a.C.walk"]


def test_every_default_of_a_private_function_is_passed_somewhere():
    assert _unset_defaults(_package_trees()) == []
    tree = ast.parse(
        "def _f(a, b=1, c=2, *, d=3):\n    return a\n"
        "def _g(a, b=1):\n    return a\n"
        "def public(a, b=1):\n    return a\n"
        "def h():\n    return _f(0, 1) + _f(0, d=4) + _g(*[0, 1])\n"
    )
    assert _unset_defaults({"m": tree}) == ["m._f.c"]


def test_every_private_module_level_name_is_read_by_package_code():
    trees = _package_trees()
    assert _unread_private_names(trees) == []
    assert sum(len(list(_private_assignments(t))) for t in trees.values()) > 0
    # a store is no read, a load from another module is one, and public
    # and dunder names are left alone
    trees = {
        "a": ast.parse("_A = 1\n_B, _C = 2, 3\n_D: int = 4\n__all__ = []\n"
                       "PUBLIC = 5\n_A = _A + 1\n"),
        "b": ast.parse("from .a import _C\nimport a\n\ndef f():\n    return a._D\n"),
    }
    assert _unread_private_names(trees) == ["a._B"]
