"""The package's surface, read from its source with ``ast``: every name a
module exports in ``__all__`` is used somewhere in the package outside its
own definition, and every name a module imports is used in the scope that
imports it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crcodes"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return [elt.value for elt in node.value.elts]
    return []


def _definition(tree, name):
    """The top-level statement that binds name, or None."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def _read_names(node, skip=None):
    """Names read under node, as variables or attributes, outside skip."""
    found, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def _imports_by_scope(tree):
    """(scope node, bound name) for every import; the scope is the
    innermost enclosing function, or the module."""
    out, stack = [], [(tree, tree)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append((scope, alias.asname or alias.name.split(".")[0]))
        inner = node if isinstance(node, _SCOPES) else scope
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("module", sorted(TREES))
def test_exported_names_are_used_in_the_package(module):
    tree = TREES[module]
    unused = []
    for name in _exported(tree):
        definition = _definition(tree, name)
        assert definition is not None, f"{module}.__all__ names {name}, which it does not define"
        used = any(name in _read_names(other, definition if other is tree else None)
                   for other in TREES.values())
        if not used:
            unused.append(name)
    assert not unused, f"{module} exports names nothing in the package uses: {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_imported_names_are_used(module):
    unused = [name for scope, name in _imports_by_scope(TREES[module])
              if name not in _read_names(scope)]
    assert not unused, f"{module} imports names it does not use: {unused}"
