"""Public names: every module's ``__all__`` resolves, and the package
``__all__`` lists exactly the names ``bscbounds/__init__.py`` imports.

Tools that walk ``__all__`` (tracers, docs, star imports) break on a stale
entry, so removing a public name must remove it everywhere.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import bscbounds

MODULES = sorted(m.name for m in pkgutil.iter_modules(bscbounds.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"bscbounds.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_package_all_matches_init_imports():
    tree = ast.parse(pathlib.Path(bscbounds.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.level == 1
                for alias in node.names}
    assert sorted(bscbounds.__all__) == sorted(imported)
    for attr in bscbounds.__all__:
        assert hasattr(bscbounds, attr), attr
