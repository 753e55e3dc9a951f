"""bscbounds benchmark: cold-process CLI workloads, checked against references.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {curve,oracle,verify} --seed N \
        --seconds S --trace {0,1} [--quick]

One load generator: this process starts one fresh interpreter at a time
(``worker.py``), which imports ``bscbounds.cli`` from ``src/`` of the
checkout and runs the workload's ``main(argv)`` calls with every lru_cache
cold, as a CLI user's process does.  Invocations repeat until ``--seconds``
would be exceeded (at least one).  ``--quick`` runs one invocation at the
smallest input size, for the benchmark's own test.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``     median time from spawning the interpreter until
                  ``bscbounds.cli`` is imported;
* ``wall_s``      median time of the workload's ``main`` calls in one process;
* ``peak_rss_mb`` median peak resident memory of one process;
* ``pass_frac``   calls that passed, over calls attempted (1 - fail_frac).

Both times are scaled to the host's fast state by the probe durations the
worker samples while it runs (see ``calibrate.py``); the unscaled samples are
on the ``perfbench:`` line as ``raw_setup_s`` and ``raw_wall_s``.

With ``--trace 1`` untraced and traced invocations alternate, and the last
line reports the per-layer metrics (see README.md).  A call fails if it
exits non-zero, prints a traceback, or its output is outside tolerance of
the reference; the run is not correct if any call fails, any lru_cache
starts non-empty, or tracing changes a byte of CLI output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
INVOCATION_TIMEOUT_S = 150
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}

# traced name -> the fields reported for it; a field other than calls and
# self_s is the spans' summed extra count (kernel elements, F1 iterations)
LAYER_FIELDS = {
    "core.binary_entropy_inv": ("calls", "self_s"),
    "core.channel_constants": ("calls", "self_s"),
    "spectrum.log_kernel": ("calls", "self_s", "elements"),
    "spectrum.MuSlice.build": ("calls", "self_s"),
    "spectrum.MuSlice.mu": ("calls", "self_s"),
    "spectrum.spectrum_exponent_half": ("calls",),
    "spectrum.spectrum_exponent": ("calls", "self_s"),
    "quadrature.integrate": ("calls", "self_s"),
    "optimizer.F1_maximize": ("calls", "self_s", "iterations"),
    "optimizer.F_minimize": ("calls", "self_s"),
    "hahn.min_root": ("calls", "self_s"),
    "hahn.hahn_eval": ("calls", "self_s"),
    "hahn.delsarte_margins": ("calls", "self_s"),
    "oracle.exhaustive_max_constant_weight": ("calls", "self_s"),
    "oracle.restricted_cover_max": ("calls", "self_s"),
    "oracle.cover_report": ("calls", "self_s"),
    "oracle.lower_bound_21": ("calls", "self_s"),
    "oracle.exact_pe_ml": ("calls", "self_s"),
    "verify.suite_prop1": ("self_s",),
    "verify.suite_identity16": ("self_s",),
    "verify.suite_claims": ("self_s",),
    "verify.suite_hahn": ("self_s",),
    "verify.suite_oracle": ("self_s",),
    "cli.main": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "elements": "count",
               "iterations": "count"}
MICRO_UNITS = {"binary_entropy_inv_us": "us", "MuSlice_build_us": "us",
               "MuSlice_mu_us": "us", "F1_maximize_ms": "ms",
               "F_minimize_ms": "ms"}


def per_layer_units() -> dict:
    units = {f"{layer}.{field}": FIELD_UNITS[field]
             for layer, fields in LAYER_FIELDS.items() for field in fields}
    units["optimizer.F_minimize.cache_hit_ratio"] = "ratio"
    units["oracle.outputs_enumerated"] = "count"
    units["oracle.pair_distances"] = "count"
    units["trace.overhead_frac"] = "ratio"
    units.update({f"micro.{k}": u for k, u in MICRO_UNITS.items()})
    return units


class Runner:
    def __init__(self, root: str, workload, quick: bool) -> None:
        self.root = root
        self.workload = workload
        self.quick = quick
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        **{k: "1" for k in PINNED_THREADS})
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.versions: dict = {}

    def spawn(self, spec: dict):
        """Run one worker; returns (record or None, spawn time)."""
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(spec)], cwd=self.root,
                env=self.env, capture_output=True, text=True,
                timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"worker exceeded {INVOCATION_TIMEOUT_S} s")
            return None, t_spawn
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"worker exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            return None, t_spawn
        rec = json.loads(lines[-1])
        if "Traceback" in proc.stderr:
            rec["traceback"] = proc.stderr.strip()[-500:]
        return rec, t_spawn

    def invoke(self, trace: bool):
        """One cold process running every call of the workload."""
        rec, t_spawn = self.spawn({"mode": "run", "trace": trace,
                                   "calls": self.workload.calls})
        self.attempted += len(self.workload.calls)
        if rec is None:
            self.failed += len(self.workload.calls)
            return None
        if not rec["cold"]:
            self.problems.append(f"lru_cache not empty at entry: "
                                 f"{rec['caches_entry']}")
        if "traceback" in rec:
            self.problems.append(f"traceback: {rec['traceback']}")
        for i, call in enumerate(rec["calls"]):
            errors = self.workload.check(i, call["exit"], call["stdout"])
            if "traceback" in rec:
                errors.append("traceback on stderr")
            if errors:
                self.failed += 1
                self.problems.extend(errors[:5])
        self.versions = rec["versions"]
        # scaled to the host's fast state by the sampled probe durations
        rec["raw_setup_s"] = rec["imported_at"] - t_spawn
        rec["raw_wall_s"] = sum(c["wall_s"] for c in rec["calls"])
        rec["setup_s"] = rec["raw_setup_s"] / rec["setup_slowdown"]
        rec["wall_s"] = rec["raw_wall_s"] / rec["wall_slowdown"]
        return rec

    def repeat(self, seconds: float, body) -> list:
        """Call body() until the next call would pass the deadline."""
        deadline = time.monotonic() + seconds
        out, durations = [], []
        while True:
            t0 = time.monotonic()
            out.append(body())
            durations.append(time.monotonic() - t0)
            if self.quick or (time.monotonic() + statistics.median(durations)
                              > deadline):
                return out

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def quartiles(values: list) -> dict:
    vals = sorted(values)
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"median": statistics.median(vals), "q1": q[0], "q3": q[2],
            "n": len(vals), "samples": vals}


def end_to_end(runner: Runner, seconds: float):
    recs = [r for r in runner.repeat(seconds, lambda: runner.invoke(False))
            if r is not None]
    if not recs:
        return {}, {}
    dist = {k: quartiles([r[k] for r in recs])
            for k in ("setup_s", "wall_s", "raw_setup_s", "raw_wall_s")}
    dist["peak_rss_mb"] = quartiles([r["maxrss_kb"] / 1024.0 for r in recs])
    dist["setup_slowdown"] = quartiles([r["setup_slowdown"] for r in recs])
    dist["wall_slowdown"] = quartiles([r["wall_slowdown"] for r in recs])
    values = {k: dist[k]["median"] for k in END_TO_END_UNITS if k in dist}
    values["pass_frac"] = 1.0 - runner.failed / runner.attempted
    return values, dist


def _layer_values(rec: dict) -> dict:
    summary = rec["trace"]
    values = {}
    for layer, fields in LAYER_FIELDS.items():
        s = summary.get(layer, {"calls": 0, "self_s": 0.0, "extra": 0})
        for field in fields:
            key = field if field in ("calls", "self_s") else "extra"
            values[f"{layer}.{field}"] = s[key]
    info = rec["caches_exit"]["optimizer._f_minimize_cached"]
    lookups = info["hits"] + info["misses"]
    values["optimizer.F_minimize.cache_hit_ratio"] = (
        info["hits"] / lookups if lookups else 0.0)
    values["oracle.outputs_enumerated"] = summary["oracle.enumeration"]["outputs"]
    values["oracle.pair_distances"] = summary["oracle.enumeration"]["distances"]
    return values


def per_layer(runner: Runner, seconds: float):
    def pair():
        plain = runner.invoke(False)
        traced = runner.invoke(True)
        if plain is not None and traced is not None:
            for a, b in zip(plain["calls"], traced["calls"]):
                if a["stdout"] != b["stdout"] or a["exit"] != b["exit"]:
                    runner.problems.append(
                        f"tracing changed the output of {a['argv']}")
        return plain, traced

    pairs = [p for p in runner.repeat(seconds, pair) if None not in p]
    micro, _ = runner.spawn({"mode": "micro"})
    if not pairs or micro is None:
        return {}, {}
    layer = [_layer_values(t) for _, t in pairs]
    values = {k: statistics.median(v[k] for v in layer) for k in layer[0]}
    plain_wall = statistics.median(p["wall_s"] for p, _ in pairs)
    traced_wall = statistics.median(t["wall_s"] for _, t in pairs)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    values.update({f"micro.{k}": v
                   for k, v in micro["micro"]["scaled"].items()})
    detail = {"pairs": len(pairs), "untraced_wall_s": plain_wall,
              "traced_wall_s": traced_wall, "micro_raw": micro["micro"]["raw"],
              "F_minimize_cache_exit": pairs[0][1]["caches_exit"].get(
                  "optimizer._f_minimize_cached")}
    return values, detail


def environment(root: str, versions: dict) -> dict:
    try:
        # a checkout that is not a repository must not report its parent's
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, **versions,
            "bscbounds": os.path.relpath(versions["bscbounds"], root),
            "threads": {k: "1" for k in PINNED_THREADS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="one invocation at the smallest input size")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bscbounds", "cli.py")):
        print("perfbench: no src/bscbounds/cli.py under the current "
              "directory; run from the root of a bscbounds checkout",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    runner = Runner(root, workload, args.quick)
    if args.trace:
        values, detail = per_layer(runner, args.seconds)
        units = per_layer_units()
    else:
        values, detail = end_to_end(runner, args.seconds)
        units = END_TO_END_UNITS
    if not values:
        print(f"perfbench: no invocation completed: {runner.problems[:3]}",
              file=sys.stderr)
        return 1
    if not runner.versions["bscbounds"].startswith(os.path.join(root, "src")):
        print(f"perfbench: imported bscbounds from "
              f"{runner.versions['bscbounds']}, not from this checkout",
              file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "calls": workload.calls, "detail": detail,
              "problems": runner.problems[:20],
              "environment": environment(root, runner.versions)}
    print("perfbench:", json.dumps(record))
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
