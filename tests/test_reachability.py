"""Every module-level function and class of the package, and every method
and property of its classes, has a caller.

A definition that no module of the package names is code no verb reaches.
The package's modules are read with ast.  __init__.py is left out on both
sides: its re-exports make a name public, not reached.  A name used only
inside its own definition, as by recursion, does not count as reached.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chargraph"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
           if path.name != "__init__.py"}


def definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def references(tree: ast.Module) -> set[str]:
    """The names tree uses by Name, Attribute or import, each outside the
    top-level definition of the same name."""
    out = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                out.add(name)
    return out


def test_every_definition_is_referenced():
    used = set().union(*(references(tree) for tree in MODULES.values()))
    unreached = [f"{module}:{name}" for module, tree in MODULES.items()
                 for name in definitions(tree) if name not in used]
    assert unreached == []


def methods(tree: ast.Module) -> list[ast.FunctionDef]:
    """The non-dunder methods and properties of tree's top-level classes."""
    return [node for top in tree.body if isinstance(top, ast.ClassDef) for node in top.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")]


def attributes(node: ast.AST) -> Counter:
    """How often each name follows a dot inside node.  Only ast.Attribute
    counts: a method is called or read as obj.name, and a local variable of
    the same name must not hide an unused method."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_method_is_referenced():
    used = sum((attributes(tree) for tree in MODULES.values()), Counter())
    unreached = [f"{module}:{method.name}" for module, tree in MODULES.items()
                 for method in methods(tree)
                 if used[method.name] == attributes(method)[method.name]]
    assert unreached == []


def test_the_guard_sees_the_package():
    assert {"graphs.py", "classify.py", "cli.py"} <= set(MODULES)
    assert "is_kn_free" in definitions(MODULES["graphs.py"])
    assert {"to_dot", "from_json", "edge_count"} <= {m.name for m in methods(MODULES["graphs.py"])}
