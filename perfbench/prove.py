"""Repeat the benchmark over seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/prove.py [--runs 10] [--workloads curve,oracle]
                               [--traced] [--out perfbench/baseline.json]

Each workload runs ``--runs`` times untraced, seed 1, 2, ...; the spread of
an end-to-end metric is the distance between the first and third quartile of
its run values (``statistics.quantiles(values, n=4)``) over their median, and
is compared with a third of the metric's bound.  ``--traced`` adds one traced
run per workload (seed 0) for the per-layer baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec: dict, workload: str, seed: int,
             trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def spread(values: list) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            result, detail = run_once(spec, wl, seed, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(wl, runs[-1], flush=True)
            steady = steady and result["correct"]
        summary = {}
        for name, bound in bounds.items():
            q1, med, q3, rel = spread([r[name] for r in runs])
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": rel, "bound": bound}
            ok = name == "setup_s" or rel < bound / 3.0
            steady = steady and ok
            print(f"{wl:7s} {name:12s} median {med:.5g} q1 {q1:.5g} "
                  f"q3 {q3:.5g} spread {rel:.4f} bound/3 {bound / 3:.4f}"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
        entry = {"summary": summary, "runs": runs,
                 "environment": detail["environment"]}
        if args.traced:
            result, detail = run_once(spec, wl, 0, 1)
            entry["per_layer_seed0"] = {
                k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer_detail"] = detail["detail"]
            steady = steady and result["correct"]
        report["workloads"][wl] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
