"""Dead-code guards.

Every top-level name a package module imports is used in that module; the
package ``__init__`` is exempt, since its imports are the public API it
re-exports. Every private (``_``-prefixed) function, class or constant a
package module defines at top level is referenced somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

import meanlab

PACKAGE = Path(meanlab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    # Bound name -> line, for the imports at module level.
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    # Private name -> line, for the functions, classes and constants defined
    # at module level.
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _references(tree: ast.Module) -> set[str]:
    # Names read, as a bare name or as an attribute, anywhere in the module.
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_definition_is_referenced(name):
    used = set().union(*(_references(tree) for tree in TREES.values()))
    dead = {n: line for n, line in _private_definitions(TREES[name]).items() if n not in used}
    assert not dead, f"{name} defines private names nothing in the package references: {dead}"
