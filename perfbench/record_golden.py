"""Record the seed-0 golden outputs of the curve and oracle workloads.

Run from the root of a checkout: ``python3 perfbench/record_golden.py``.
The goldens pin what the CLI prints at the commit they were recorded on;
re-record them only when the workload inputs change, never to absorb a
change in the program's numbers.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import Runner  # noqa: E402


def main() -> int:
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    for name, suffix in (("curve", "csv"), ("oracle", "json")):
        wl = workloads.WORKLOADS[name](0, False)
        rec, _ = Runner(os.getcwd(), wl, False).spawn(
            {"mode": "run", "trace": False, "calls": wl.calls})
        if rec is None or any(c["exit"] != 0 for c in rec["calls"]):
            print(f"record_golden: {name} failed", file=sys.stderr)
            return 1
        for i, call in enumerate(rec["calls"]):
            path = os.path.join(workloads.GOLDEN_DIR, f"{name}_{i}.{suffix}")
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(call["stdout"])
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
