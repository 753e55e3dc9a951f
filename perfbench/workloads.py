"""Workload inputs (made from the seed) and the checks on their CLI outputs.

Each workload is a fixed list of ``bscbounds.cli.main`` argument vectors that
one cold interpreter runs in order.  ``check`` returns a list of error strings
per call; an empty list means the call's output is correct.

Reference rules:

* seed 0 at full size is compared with the golden outputs in ``golden/``,
  recorded with ``record_golden.py`` at the commit that introduced the
  benchmark (curve: every field within 1e-9; oracle: integers equal, floats
  within 1e-15 relative; verify: ``"passed": true`` and exit 0);
* every seed is checked against invariants of the mathematics:
  ``0 <= combined <= E_sp``, ``combined`` non-increasing in R, ``combined``
  on the exact segment ``1 - log2(1 + 2 sqrt(pq)) - R`` over [R1, R_crit],
  and the oracle's ``dominance_ok``;
* every full-size oracle seed is also compared with the seed-0 golden: its
  codes are Hamming isometries of the same base codes, so every value the
  oracle reports is the same (floats within 1e-12 relative, for the
  summation order).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
# generated inputs (code files) live in the build directory of the checkout
INPUT_DIR = os.path.join(".bench_build", "perfbench")

# curve: p = 0.1 lies above p1 and has the exact segment, so `combined`
# reuses the cached F; p = 0.005 lies below p1, so every rate runs
# theorem1_bound.  The rate count sets the work of one invocation.
CURVE_CHANNELS = (0.1, 0.005)
CURVE_POINTS = 8
CURVE_POINTS_QUICK = 2
CURVE_OFFSET_MAX = 1e-3       # the seed shifts rmin by up to this much
CURVE_TOL = 1e-9              # golden comparison, per CSV field
SEGMENT_TOL = 1e-12           # segment identity, before CSV rounding
MONOTONE_TOL = 1e-9

# oracle: a long-block small code (2^n enumeration width dominates) and a
# short-block large code (the per-reference-word loop dominates).  The seed
# picks a random Hamming isometry (coordinate permutation, translation, word
# order) of a fixed random base code: the words change with the seed, the
# distance profile, and with it the enumeration work, does not.
ORACLE_SHAPES = ((16, 32), (12, 128))
ORACLE_SHAPES_QUICK = ((8, 8), (6, 16))
ORACLE_BASE_SEED = 2006
ORACLE_P = 0.1
ORACLE_GOLDEN_RTOL = 1e-15
# an isometric image sums the exact error probability in another order
ORACLE_ISOMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    calls: list            # argv lists for bscbounds.cli.main
    check: Callable        # (index, exit_code, stdout) -> list[str]


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name), encoding="ascii") as fh:
        return fh.read()


# -- curve ------------------------------------------------------------------

def curve_argvs(seed: int, quick: bool) -> list:
    offset = random.Random(seed).uniform(0.0, CURVE_OFFSET_MAX)
    points = CURVE_POINTS_QUICK if quick else CURVE_POINTS
    argvs = []
    for p in CURVE_CHANNELS:
        rmin = 0.01 + offset
        rmax = 1.0 - _h2(p) - 0.001
        step = (rmax - rmin) / (points - 1)
        argvs.append(["curve", "--p", repr(p), "--rmin", repr(rmin),
                      "--rmax", repr(rmax), "--step", repr(step)])
    return argvs


def _segment(p: float) -> tuple[float, float, float]:
    """(R1, R_crit, segment intercept), from the closed forms of the paper."""
    q = 1.0 - p
    pair = 4.0 * p * q
    tau1 = (1.0 - pair ** 0.25) ** 2 / (2.0 * (1.0 + math.sqrt(pair)))
    sp, sq = math.sqrt(p), math.sqrt(q)
    r_crit = 1.0 - _h2(sp / (sp + sq))
    return _h2(tau1), r_crit, 1.0 - math.log2(1.0 + 2.0 * math.sqrt(p * q))


def _print_slack(v: float) -> float:
    """Half a unit in the 10th significant digit, the CSV's rounding."""
    if v == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 9)


def check_curve_csv(text: str, argv: list, points: int) -> list:
    errors = []
    p = float(argv[argv.index("--p") + 1])
    lines = text.splitlines()
    if not lines or lines[0] != "R,p,E_sp,F,combined,regime":
        return [f"p={p}: bad CSV header {lines[:1]!r}"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != points or any(len(r) != 6 for r in rows):
        return [f"p={p}: expected {points} rows of 6 fields"]
    # the exact rates, as the program forms them; the CSV rounds them
    rmin, step = (float(argv[argv.index(k) + 1]) for k in ("--rmin", "--step"))
    rates = [rmin + k * step for k in range(points)]
    if [r[0] for r in rows] != [f"{r:.10g}" for r in rates]:
        errors.append(f"p={p}: rate column differs from the requested grid")
    e_sp = [float(r[2]) for r in rows]
    comb = [float(r[4]) for r in rows]
    for r, e, c in zip(rates, e_sp, comb):
        if not 0.0 <= c <= e + MONOTONE_TOL:
            errors.append(f"p={p} R={r}: combined {c} outside [0, E_sp={e}]")
    for k in range(1, len(comb)):
        if comb[k] > comb[k - 1] + MONOTONE_TOL:
            errors.append(f"p={p}: combined rises from R={rates[k - 1]} "
                          f"to R={rates[k]}")
    r1, r_crit, intercept = _segment(p)
    if r1 < r_crit:
        for r, c in zip(rates, comb):
            if r1 <= r <= r_crit:
                want = intercept - r
                if abs(c - want) > SEGMENT_TOL + _print_slack(want):
                    errors.append(f"p={p} R={r}: combined {c} off the "
                                  f"segment value {want!r}")
    return errors


def compare_csv(text: str, golden: str, tol: float) -> list:
    got, want = text.splitlines(), golden.splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        return ["CSV shape differs from golden"]
    errors = []
    for g_line, w_line in zip(got[1:], want[1:]):
        g, w = g_line.split(","), w_line.split(",")
        if len(g) != len(w) or g[-1] != w[-1]:
            errors.append(f"row {g_line!r} differs from golden {w_line!r}")
            continue
        if any(abs(float(a) - float(b)) > tol for a, b in zip(g[:-1], w[:-1])):
            errors.append(f"row {g_line!r} off golden {w_line!r} by > {tol}")
    return errors


def curve_workload(seed: int, quick: bool) -> Workload:
    argvs = curve_argvs(seed, quick)
    points = CURVE_POINTS_QUICK if quick else CURVE_POINTS
    use_golden = seed == 0 and not quick

    def check(i: int, code, out: str) -> list:
        if code != 0:
            return [f"curve exit code {code!r}"]
        errors = check_curve_csv(out, argvs[i], points)
        if use_golden:
            errors += compare_csv(out, _golden(f"curve_{i}.csv"), CURVE_TOL)
        return errors

    return Workload(argvs, check)


# -- oracle -----------------------------------------------------------------

def base_code(n: int, m: int) -> list:
    rng = np.random.default_rng([ORACLE_BASE_SEED, n, m])
    words = rng.choice(1 << n, size=m, replace=False)
    return [int(w) for w in words]


def isometric_image(words: list, n: int, seed: int) -> list:
    """Permute coordinates, translate by a random word, shuffle the order."""
    rng = np.random.default_rng([seed, n, len(words)])
    perm = rng.permutation(n)
    shift = int(rng.integers(0, 1 << n))
    out = []
    for w in words:
        v = 0
        for src, dst in enumerate(perm):
            v |= ((w >> src) & 1) << int(dst)
        out.append(v ^ shift)
    return [out[k] for k in rng.permutation(len(out))]


def oracle_files(seed: int, quick: bool) -> list:
    """Write the seed's code files; the paths do not depend on the seed."""
    os.makedirs(INPUT_DIR, exist_ok=True)
    paths = []
    for n, m in ORACLE_SHAPES_QUICK if quick else ORACLE_SHAPES:
        words = isometric_image(base_code(n, m), n, seed)
        path = os.path.join(INPUT_DIR, f"code_n{n}_m{m}.txt")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("".join(format(w, f"0{n}b") + "\n" for w in words))
        paths.append(path)
    return paths


def compare_json(got, want, rtol: float, where: str = "") -> list:
    """Integers, strings, booleans and nulls equal; floats within rtol."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [e for k in want
                for e in compare_json(got[k], want[k], rtol, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [e for k, (g, w) in enumerate(zip(got, want))
                for e in compare_json(g, w, rtol, f"{where}[{k}]")]
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= rtol * abs(want):
            return []
        return [f"{where}: {got!r} vs golden {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} vs golden {want!r}"]
    return []


def oracle_workload(seed: int, quick: bool) -> Workload:
    paths = oracle_files(seed, quick)
    argvs = [["oracle", "--code-file", path, "--p", repr(ORACLE_P)]
             for path in paths]
    rtol = ORACLE_GOLDEN_RTOL if seed == 0 else ORACLE_ISOMETRY_RTOL

    def check(i: int, code, out: str) -> list:
        if code != 0:
            return [f"oracle exit code {code!r}"]
        try:
            rec = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"oracle output is not JSON: {exc}"]
        errors = []
        if rec.get("value", {}).get("dominance_ok") is not True:
            errors.append("oracle dominance_ok is not true")
        if not quick:
            want = json.loads(_golden(f"oracle_{i}.json"))
            errors += compare_json(rec, want, rtol, "oracle")
        return errors

    return Workload(argvs, check)


# -- verify -----------------------------------------------------------------

def verify_workload(seed: int, quick: bool) -> Workload:
    # `verify --suite all` takes no seeded input: its grids are fixed
    def check(i: int, code, out: str) -> list:
        if code != 0:
            return [f"verify exit code {code!r}"]
        try:
            passed = json.loads(out).get("passed")
        except json.JSONDecodeError as exc:
            return [f"verify output is not JSON: {exc}"]
        return [] if passed is True else ["verify report has passed != true"]

    return Workload([["verify", "--suite", "all"]], check)


WORKLOADS = {
    "curve": curve_workload,
    "oracle": oracle_workload,
    "verify": verify_workload,
}
