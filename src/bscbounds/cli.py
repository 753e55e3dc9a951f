"""Command-line front end: constants, bound curves, invariant suites, oracles.

Every output is deterministic for a fixed invocation: CSV uses dot decimals,
LF line endings, and fixed float formats, so identical runs produce
byte-identical files.  JSON results follow the record shape
``{"operation": ..., "inputs": ..., "value": ...}``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .core import (ChannelParam, DomainError, capacity, channel_constants,
                   sphere_packing_exponent, zero_rate_exponent)
from .optimizer import CurveKind, curve, rate_regime, segment_window
from .oracle import (BinaryCode, CodeFormatError, SizeBudgetError,
                     _check_census_work, cover_report, distance_distribution,
                     dominates, exact_pe_ml, hamming74, johnson_upper, load_code,
                     lower_bound_21, parity_code, proposition3_terms,
                     proposition4_check, random_code, repetition_code,
                     sphere_packing_rhs_23)
from .quadrature import QuadratureError
from .svg import SeamMark, render_chart
from .verify import SUITE_NAMES, run_suite

__all__ = ["build_parser", "main"]

_GENERATORS = ("repetition", "parity", "hamming74", "random")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bscbounds",
        description="Reliability-function bounds for the binary symmetric "
                    "channel: constants, bound curves, invariant suites, and "
                    "exact small-code oracles.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="solved threshold constants for one channel")
    c.add_argument("--p", type=float, required=True, help="crossover probability in (0, 1/2)")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--out", help="write here instead of stdout")

    cv = sub.add_parser("curve", help="sample the bound curves on a rate grid")
    cv.add_argument("--p", type=float, required=True)
    cv.add_argument("--rmin", type=float, default=0.01,
                    help="grid start (default 0.01)")
    cv.add_argument("--rmax", type=float, default=None,
                    help="grid end (default C(p) - 0.001)")
    cv.add_argument("--step", type=float, default=None,
                    help="grid step (default spans 200 points)")
    cv.add_argument("--bounds", default="sphere_packing,F_bound,combined",
                    help="comma list of curve kinds for the SVG plot "
                         "(CSV/JSON columns are fixed)")
    cv.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    cv.add_argument("--out", help="write here instead of stdout")

    vf = sub.add_parser("verify", help="run an invariant suite")
    vf.add_argument("--suite", choices=SUITE_NAMES, required=True)
    vf.add_argument("--p-grid", dest="p_grid", default=None,
                    help="comma list of p values (claims suite only)")
    vf.add_argument("--out", help="write the JSON report here as well")

    orc = sub.add_parser("oracle", help="exact error probability and lower bounds for one code")
    group = orc.add_mutually_exclusive_group(required=True)
    group.add_argument("--generator", choices=_GENERATORS)
    group.add_argument("--code-file", dest="code_file",
                       help="text file, one 0/1 word per line")
    orc.add_argument("--p", type=float, required=True)
    orc.add_argument("--n", type=int, help="block length (repetition/parity/random)")
    orc.add_argument("--m", type=int, help="code size (random generator)")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--budget", type=int, default=24,
                     help="largest block length enumerated exhaustively")
    orc.add_argument("--out", help="write here instead of stdout")
    return ap


def _curve_kinds(text: str) -> tuple[str, ...]:
    """--bounds: a comma list naming at least one curve kind."""
    kinds = tuple(s.strip() for s in text.split(",") if s.strip())
    if not kinds:
        raise DomainError(f"--bounds must name at least one curve kind, got {text!r}")
    for k in kinds:
        if k not in CurveKind.__members__:
            raise DomainError(
                f"unknown curve kind {k!r}; choose from "
                f"{sorted(CurveKind.__members__)}")
    return kinds


def _p_grid(text: str | None) -> tuple[float, ...] | None:
    """--p-grid: a comma list naming at least one p value; None when absent."""
    if text is None:
        return None
    try:
        ps = tuple(float(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise DomainError(
            f"--p-grid must be a comma list of numbers, got {text!r}") from None
    if not ps:
        raise DomainError(f"--p-grid must name at least one p value, got {text!r}")
    return ps


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {out!r}: {exc}") from exc


def _g7(v: float) -> str:
    return f"{v:.7g}"


def cmd_constants(ns: argparse.Namespace) -> int:
    ch = ChannelParam(ns.p)
    cc = channel_constants(ch)
    fields = [
        ("tau0", cc.tau0), ("R0", cc.r0), ("p1", cc.p1),
        ("tau1", cc.tau1), ("R1", cc.r1), ("omega1", cc.omega1),
        ("tau_crit", cc.tau_crit), ("R_crit", cc.r_crit),
        ("C", cc.capacity), ("omega_m", cc.omega_m),
        ("E_sp_zero", sphere_packing_exponent(0.0, ch)),
        ("E_zero", zero_rate_exponent(ch)),
    ]
    if ns.format == "json":
        rec = {"operation": "constants", "inputs": {"p": ch.p},
               "value": {k: v for k, v in fields}}
        _emit(json.dumps(rec, indent=2) + "\n", ns.out)
    else:
        _emit("".join(f"{k} = {_g7(v)}\n" for k, v in fields), ns.out)
    return 0


def cmd_curve(ns: argparse.Namespace) -> int:
    kinds = _curve_kinds(ns.bounds)
    ch = ChannelParam(ns.p)
    cc = channel_constants(ch)
    rmin = ns.rmin
    rmax = ns.rmax if ns.rmax is not None else capacity(ch) - 0.001
    step = ns.step if ns.step is not None else (rmax - rmin) / 199.0
    if ns.format in ("csv", "json"):
        esp = curve(CurveKind.sphere_packing, ch, rmin, rmax, step).points
        fb = curve(CurveKind.F_bound, ch, rmin, rmax, step).points
        comb = curve(CurveKind.combined, ch, rmin, rmax, step).points
        rows = [(r, ch.p, e, f, c, rate_regime(r, ch)[0])
                for (r, e), (_, f), (_, c) in zip(esp, fb, comb)]
        if ns.format == "csv":
            lines = ["R,p,E_sp,F,combined,regime"]
            lines += [f"{r:.10g},{p:.10g},{e:.10g},{f:.10g},{c:.10g},{reg}"
                      for r, p, e, f, c, reg in rows]
            _emit("\n".join(lines) + "\n", ns.out)
        else:
            rec = {"operation": "curve",
                   "inputs": {"p": ch.p, "rmin": rmin, "rmax": rmax,
                              "step": step},
                   "value": [{"R": r, "p": p, "E_sp": e, "F": f,
                              "combined": c, "regime": reg}
                             for r, p, e, f, c, reg in rows]}
            _emit(json.dumps(rec, indent=2) + "\n", ns.out)
        return 0

    series = []
    for kind in kinds:
        lo, hi = rmin, rmax
        if kind in ("corollary1", "straight_line"):
            w_lo, w_hi = segment_window(kind, ch)
            lo, hi = max(lo, w_lo), min(hi, w_hi)
        if lo >= hi:
            raise DomainError(
                f"curve kind {kind!r} has empty domain on [{rmin}, {rmax}]")
        series.append((kind, curve(CurveKind(kind), ch, lo, hi, step).points))
    seams = [SeamMark("R1", cc.r1), SeamMark("Rcrit", cc.r_crit)]
    _emit(render_chart(series, seams, title=f"p = {ch.p:g}"), ns.out)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    report = run_suite(ns.suite, p_values=_p_grid(ns.p_grid))
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if ns.out is not None:
        _emit(text, ns.out)
    return 0 if report["passed"] else 1


def _check_budget(n: int, budget: int) -> None:
    if n > budget:
        raise SizeBudgetError(
            f"code length {n} exceeds the exhaustive budget {budget}")


def _build_code(ns: argparse.Namespace) -> BinaryCode:
    if ns.code_file is not None:
        return load_code(ns.code_file)
    if ns.generator == "hamming74":
        return hamming74()
    if ns.n is None:
        raise CodeFormatError(f"generator {ns.generator!r} needs --n")
    if ns.generator == "random" and ns.m is None:
        raise CodeFormatError("random generator needs --m")
    _check_budget(ns.n, ns.budget)      # before any n-bit word is drawn
    if ns.generator == "repetition":
        return repetition_code(ns.n)
    # a census over budget is refused before its 2^(n-1) or m words are built
    words = ns.m if ns.generator == "random" else 1 << max(ns.n - 1, 0)
    _check_census_work(ns.n, words)
    if ns.generator == "parity":
        return parity_code(ns.n)
    return random_code(ns.n, ns.m, ns.seed)


def cmd_oracle(ns: argparse.Namespace) -> int:
    ch = ChannelParam(ns.p)
    code = _build_code(ns)
    _check_budget(code.n, ns.budget)
    pe = exact_pe_ml(code, ch)      # refuses an over-budget census first
    dd = distance_distribution(code)
    lb21 = lower_bound_21(code, ch)
    sp23 = sphere_packing_rhs_23(code, ch)
    best = {"t": None, "omega_dist": None, "value": 0.0}
    dominance_ok = dominates(pe, lb21) and dominates(pe, sp23)
    for t, om_d, term in proposition3_terms(code, ch):
        dominance_ok = dominance_ok and dominates(pe, term)
        if term > best["value"]:
            best = {"t": t, "omega_dist": om_d, "value": term}
    covers = []
    for t in range(code.n + 1):
        rep = cover_report(code, t)
        covers.append({"t": t, "x_max": rep.x_max,
                       "singly_covered": rep.y_t_size})
    prop4 = [{"omega": om, "ok": proposition4_check(code.n, om, ch)}
             for om in (0.1, 0.2, 0.3, 0.4, 0.5)]
    d_min = next((i for i in range(1, code.n + 1) if dd[i] > 0.0), None)
    johnson = []
    if d_min is not None:
        for w in range(1, code.n // 2 + 1):
            j = johnson_upper(code.n, d_min, w)
            johnson.append({"w": w,
                            "bound": None if math.isinf(j) else j})
    rec = {
        "operation": "oracle",
        "inputs": {"p": ch.p, "n": code.n, "M": code.M,
                   "generator": ns.generator, "code_file": ns.code_file,
                   "seed": ns.seed if ns.generator == "random" else None},
        "value": {
            "distance_distribution": dd,
            "exact_pe_ml": pe,
            "lower_bound_21": lb21,
            "sphere_packing_rhs_23": sp23,
            "proposition3_best": best,
            "dominance_ok": dominance_ok,
            "cover": covers,
            "proposition4": prop4,
            "johnson_min_distance": johnson,
        },
    }
    _emit(json.dumps(rec, indent=2) + "\n", ns.out)
    return 0 if dominance_ok else 1


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "constants":
            return cmd_constants(ns)
        if ns.command == "curve":
            return cmd_curve(ns)
        if ns.command == "verify":
            return cmd_verify(ns)
        return cmd_oracle(ns)
    except (DomainError, QuadratureError, SizeBudgetError, CodeFormatError,
            OSError) as exc:
        print(f"bscbounds: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
