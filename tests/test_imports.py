"""Every name a package module imports is used in that module, and every
module-level private name is used somewhere in the package.

Parsed with ``ast`` from the standard library, so no lint tool is needed.
An import counts as used when it appears as an identifier anywhere in the
module or is re-exported through ``__all__``.  A private name (a ``def _x``,
a ``class _X`` or an ``_X = ...`` assignment at module level) counts as used
when some package module reads it outside the statement that defines it.
"""

import ast
import pathlib
from typing import Iterator

import pytest

import bscbounds

SOURCES = sorted(pathlib.Path(bscbounds.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert unused == []


def _private_definitions(tree: ast.Module) -> Iterator[tuple]:
    """(name, defining statement) of every module-level private name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for target in targets for sub in ast.walk(target)
                     if isinstance(sub, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST) -> set:
    """Names a statement reads: identifiers, attributes and imported names."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.alias):
            refs.add(sub.name)
    return refs


def unreferenced_private_names(sources) -> list:
    """(module, line, name) of every module-level private name that no
    module reads outside the statement defining it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    statements = [(node, _references(node)) for tree in trees.values() for node in tree.body]
    return sorted((stem, node.lineno, name)
                  for stem, tree in trees.items()
                  for name, node in _private_definitions(tree)
                  if not any(name in refs for other, refs in statements if other is not node))


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(SOURCES) == []


def test_unreferenced_private_name_is_caught(tmp_path):
    # a helper whose only caller is itself, and a constant nobody reads
    (tmp_path / "mod.py").write_text(
        "_USED = 1\n_LEFT = 2\n\n"
        "def _walk(x):\n    return _walk(x - 1) if x else _USED\n\n"
        "def public():\n    return _USED\n", encoding="utf-8")
    (tmp_path / "other.py").write_text("from .mod import public\n", encoding="utf-8")
    assert unreferenced_private_names(sorted(tmp_path.glob("*.py"))) == [
        ("mod", 2, "_LEFT"), ("mod", 4, "_walk")]
