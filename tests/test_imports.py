"""Every name a package module imports is used in that module, every
module-level private name is used somewhere in the package, each module
imports from third parties only what the declared map allows, and scipy
stays off the cold path: no module imports it at module level, and no CLI
command of the benchmark loads it (nor numpy.ma, numpy.polynomial or
numpy.random).

Parsed with ``ast`` from the standard library, so no lint tool is needed.
An import counts as used when it appears as an identifier anywhere in the
module or is re-exported through ``__all__``.  A private name (a ``def _x``,
a ``class _X`` or an ``_X = ...`` assignment at module level) counts as used
when some package module reads it outside the statement that defines it.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap
from typing import Iterator

import pytest

import bscbounds

SOURCES = sorted(pathlib.Path(bscbounds.__file__).parent.glob("*.py"))
# Third-party names each module may import; numpy is allowed everywhere,
# and no module imports anything else: scipy is the tests' alone.
THIRD_PARTY: dict = {}


def _imported(tree: ast.Module) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            # a star import binds the names of the module's own __all__
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # a computed __all__ reads its names as identifiers, counted above
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
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


def test_cli_imports_public_names_only():
    # the front end reaches the package through its public names alone
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    private = sorted((node.lineno, alias.name) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and (node.level or (node.module or "").startswith("bscbounds"))
                     for alias in node.names if alias.name.startswith("_"))
    assert private == []


def third_party_imports(tree: ast.Module) -> set:
    """Dotted names a module imports from outside the standard library and
    the package, numpy excepted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
    own = sys.stdlib_module_names | {"numpy", "bscbounds"}
    return {name for name in names if name.split(".")[0] not in own}


def test_third_party_imports_match_declared_map():
    found = {path.stem: third_party_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert {stem: names for stem, names in found.items() if names} == THIRD_PARTY


def module_level_imports(tree: ast.Module) -> Iterator[tuple]:
    """(line, dotted name) of every import that runs when the module is
    imported: anywhere but inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module
        stack.extend(ast.iter_child_nodes(node))


def test_module_level_import_is_caught():
    tree = ast.parse("import scipy\nif True:\n    from scipy import optimize\n"
                     "def solve():\n    from scipy.optimize import milp\n")
    assert sorted(module_level_imports(tree)) == [(1, "scipy"), (3, "scipy")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_module_level_scipy_import(path):
    # scipy costs most of the CLI's start-up; it is imported inside the
    # function that needs it, on first use
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in module_level_imports(tree)
            if name.split(".")[0] == "scipy"] == []


def test_benchmark_commands_do_not_load_scipy(tmp_path):
    # a fresh interpreter, as a CLI user starts one: none of the commands
    # perfbench runs, nor oracle on a code of any length, may load scipy,
    # numpy.ma, numpy.polynomial or numpy.random (oracle --generator random
    # draws its code with numpy.random and is left out).  verify runs last,
    # once on every usable CPU, which loads no process pool, and once with
    # every suite in this process, so its imports show here
    code_file = tmp_path / "code.txt"
    code_file.write_text("".join(format(w, "012b") + "\n"
                                 for w in range(5, 4096, 97)), encoding="ascii")
    script = textwrap.dedent(f"""
        import contextlib, io, os, sys
        from bscbounds.cli import main

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            for name in ("scipy", "numpy.ma", "numpy.polynomial", "numpy.random",
                         "multiprocessing", "concurrent.futures"):
                assert name not in sys.modules, (argv, name)

        for argv in (["curve", "--p", "0.1"], ["constants", "--p", "0.1"],
                     ["oracle", "--code-file", {str(code_file)!r}, "--p", "0.1"],
                     ["oracle", "--generator", "hamming74", "--p", "0.4"],
                     ["oracle", "--generator", "parity", "--n", "8",
                      "--p", "0.45"],
                     ["verify", "--suite", "all"]):
            run(argv)
        os.sched_getaffinity = lambda pid: {{0}}
        run(["verify", "--suite", "all"])
        """)
    src = str(pathlib.Path(bscbounds.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
