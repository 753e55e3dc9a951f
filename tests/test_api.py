"""Public names: every module's ``__all__`` resolves, and the package
``__all__`` lists exactly the names ``bscbounds/__init__.py`` imports.

Tools that walk ``__all__`` (tracers, docs, star imports) break on a stale
entry, so removing a public name must remove it everywhere.
"""

import ast
import functools
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


def test_f_cache_holds_the_largest_curve_grid():
    # a grid of more rates than the cache holds would evict F at its first
    # rates before combined reads them, and compute F twice per rate
    from bscbounds import optimizer

    params = optimizer._f_minimize_cached.cache_parameters()
    assert params["maxsize"] >= optimizer._MAX_POINTS


def test_f_cache_is_an_lru_cache(capsys):
    # the benchmark's tracer finds caches as functools.lru_cache objects and
    # reads this one's hits and misses
    from bscbounds import optimizer
    from bscbounds.cli import main

    cache = optimizer._f_minimize_cached
    assert isinstance(cache, functools._lru_cache_wrapper)
    assert callable(cache.__wrapped__)
    # a CSV curve computes F once per rate: combined reads what F_bound did
    for p in ("0.1", "0.005"):
        cache.cache_clear()
        assert main(["curve", "--p", p, "--rmin", "0.01", "--rmax", "0.5",
                     "--step", "0.07"]) == 0
        rates = {line.split(",")[0]
                 for line in capsys.readouterr().out.splitlines()[1:]}
        info = cache.cache_info()
        assert info.misses == len(rates) == 8
        assert info.hits >= 1
