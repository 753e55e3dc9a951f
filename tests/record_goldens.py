"""Re-record the golden files in tests/data.

Each golden is the standard output of the command line on the argv that
tests/test_cli.py pins it with (``GOLDEN_ARGV``).  Every field that moves is
printed as ``file path: old -> new``: JSON fields by their path in the
document, CSV fields as ``line:column``, SVG files by line.

    PYTHONPATH=src python tests/record_goldens.py FILE ...
    PYTHONPATH=src python tests/record_goldens.py --check [FILE ...]

The first form re-records the named files, and records a golden that
has no file yet.  ``--check`` writes nothing: it
prints the moves of the named files (by default every golden) and exits 1
if any would change.  The default-grid CSVs are kept as first recorded
(tests/test_cli.py holds the output to them within 1e-9): the default set
reads the exact copy beside each (``FIRST_RECORDED``) in their place, so
only name them when that record should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

from bscbounds.cli import main

from test_cli import DATA, FIRST_RECORDED, GOLDEN_ARGV


def _json_moves(old, new, path=""):
    """(path, old, new) for every leaf that differs; a missing side is None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from _json_moves(old.get(key), new.get(key), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from _json_moves(a, b, f"{path}[{k}]")
    elif old != new or type(old) is not type(new):
        yield path.lstrip("."), old, new


def _text_moves(name, old, new):
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        yield "lines", len(old_lines), len(new_lines)
        return
    header = old_lines[0].split(",") if name.endswith(".csv") else None
    for k, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a == b:
            continue
        if header is None:
            yield f"line {k}", a, b
            continue
        for col, x, y in zip(header, a.split(","), b.split(",")):
            if x != y:
                yield f"{k}:{col}", x, y


def moves(name: str, old: str, new: str):
    if name.endswith(".json"):
        return _json_moves(json.loads(old), json.loads(new))
    return _text_moves(name, old, new)


def record(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(GOLDEN_ARGV[name]) != 0:
            raise SystemExit(f"{name}: the command failed")
    return out.getvalue()


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="goldens to re-record, or to compare with --check "
                             "(default every golden but the first-recorded "
                             f"CSVs): {', '.join(GOLDEN_ARGV)}")
    parser.add_argument("--check", action="store_true",
                        help="print the moves, write nothing")
    args = parser.parse_args(argv)
    if not (args.files or args.check):
        parser.error("name the goldens to re-record, or pass --check")
    unknown = [f for f in args.files if f not in GOLDEN_ARGV]
    if unknown:
        parser.error(f"no golden named {', '.join(unknown)}")
    changed = 0
    for name in args.files or [g for g in GOLDEN_ARGV if g not in FIRST_RECORDED]:
        target = DATA / name
        new = record(name)
        if not target.exists():
            print(f"{name}: new")
            changed += 1
            if not args.check:
                target.write_bytes(new.encode("ascii"))
            continue
        old = target.read_text(encoding="ascii")
        found = list(moves(name, old, new))
        for path, a, b in found:
            print(f"{name} {path}: {a!r} -> {b!r}")
        print(f"{name}: {len(found)} moved" if old != new else f"{name}: unchanged")
        if old != new:
            changed += 1
            if not args.check:
                target.write_bytes(new.encode("ascii"))
    return 1 if args.check and changed else 0


if __name__ == "__main__":
    sys.exit(run())
