"""Invariant suites: monotonicity, identities, claims, roots, oracles.

Each ``suite_*`` function measures its invariants and returns a JSON-ready
report ``{"suite": name, "passed": bool, "checks": [...]}`` where every
check carries the quantities actually measured (margins, extrema, counts),
never just a verdict.  ``run_suite`` dispatches by name; ``"all"`` chains
every suite and conjoins the verdicts.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (ChannelParam, binary_entropy, binary_entropy_inv,
                   channel_constants, omega_cap)
from .hahn import HahnContext, delsarte_margins, hahn_eval, hahn_ratios, min_root, q0_exponent
from .optimizer import F1_maximize, claims_stats, verify_claims
from .oracle import (BinaryCode, cover_report, distance_distribution,
                     exact_pe_ml, hamming74, lower_bound_21, parity_code,
                     proposition3_rhs, proposition4_check, random_code,
                     repetition_code, sphere_packing_rhs_23, z_pair_count)
from .spectrum import SpectrumPoint, spectrum_exponent, spectrum_exponent_half

__all__ = [
    "SUITE_NAMES",
    "builtin_roster",
    "suite_prop1",
    "suite_identity16",
    "suite_claims",
    "suite_hahn",
    "suite_oracle",
    "run_suite",
]

SUITE_NAMES = ("prop1", "identity16", "claims", "hahn", "oracle", "all")

_RANDOM_SHAPES = ((8, 4), (10, 6), (12, 8), (9, 12), (11, 16))


def builtin_roster() -> list:
    """The fixed code roster shared by the oracle and Delsarte suites."""
    codes = [
        ("repetition3", repetition_code(3)),
        ("repetition5", repetition_code(5)),
        ("repetition7", repetition_code(7)),
        ("parity4", parity_code(4)),
        ("hamming74", hamming74()),
    ]
    for seed in range(20):
        n, m = _RANDOM_SHAPES[seed % len(_RANDOM_SHAPES)]
        codes.append((f"random_n{n}_m{m}_s{seed}", random_code(n, m, seed)))
    return codes


def _mu(rate: float, alpha: float, omega: float) -> float:
    return spectrum_exponent(SpectrumPoint.make(rate, alpha, omega))


def suite_prop1(p_values=(0.01, 0.05, 0.1, 0.2)) -> dict:
    """Monotonicity in alpha, convexity in omega, and the cap-attainment rule.

    The alpha-monotonicity rows sit in the wide-window regime (rate >= 0.7,
    alpha spanning the whole constraint interval), where the slope is
    positive throughout.  Toward lower rates the constraint interval closes
    onto the symmetric point and the slope changes sign on part of the
    band; that region is measured by the characterization tests and kept
    out of this invariant deliberately.
    """
    checks = []

    h = 1e-5
    min_slope = math.inf
    slope_viol = 0
    for rate in (0.70, 0.78, 0.86):
        a0 = binary_entropy_inv(1.0 - rate)
        for alpha in np.linspace(a0 + 0.02 * (0.5 - a0), 0.495, 10):
            alpha = float(alpha)
            tau_a = binary_entropy_inv(binary_entropy(alpha) - 1.0 + rate)
            tau_b = binary_entropy_inv(binary_entropy(alpha + h) - 1.0 + rate)
            cap = min(omega_cap(alpha, tau_a), omega_cap(alpha + h, tau_b))
            for frac in (0.25, 0.5, 0.75, 0.95):
                om = frac * cap
                diff = _mu(rate, alpha + h, om) - _mu(rate, alpha, om)
                min_slope = min(min_slope, diff / h)
                if diff <= 0.0:
                    slope_viol += 1
    checks.append({"name": "mu_increasing_in_alpha", "passed": slope_viol == 0,
                   "violations": slope_viol, "min_slope": min_slope})

    min_curv = math.inf
    curv_viol = 0
    for rate in (0.3, 0.5, 0.7):
        a0 = binary_entropy_inv(1.0 - rate)
        for alpha in (a0 + 0.3 * (0.5 - a0), 0.5):
            alpha = float(alpha)
            tau = binary_entropy_inv(binary_entropy(alpha) - 1.0 + rate)
            cap = omega_cap(alpha, tau)
            oms = np.linspace(0.05 * cap, 0.95 * cap, 9)
            vals = [_mu(rate, alpha, float(om)) for om in oms]
            step = float(oms[1] - oms[0])
            for k in range(1, len(vals) - 1):
                second = (vals[k + 1] - 2.0 * vals[k] + vals[k - 1]) / step ** 2
                min_curv = min(min_curv, second)
                if second <= 0.0:
                    curv_viol += 1
    checks.append({"name": "mu_convex_in_omega", "passed": curv_viol == 0,
                   "violations": curv_viol, "min_curvature": min_curv})

    mismatches = 0
    tested = 0
    for p in p_values:
        ch = ChannelParam(p)
        tau1 = channel_constants(ch).tau1
        taus = sorted({round(tau1 * s, 9) for s in
                       (0.3, 0.6, 0.85, 1.2, 1.6, 3.0, 6.0)} | {0.05, 0.1, 0.2})
        for tau in taus:
            if not 1e-4 < tau < 0.49 or abs(tau - tau1) < 1e-3:
                continue
            rate = binary_entropy(tau)
            res = F1_maximize(rate, 0.5, ch)
            expect = tau <= tau1
            tested += 1
            if res.attained_at_boundary["omega"] != expect:
                mismatches += 1
    # the same criterion governs generic alpha: attained at the cap iff
    # the band reaches omega_1 = sqrt(4pq)/(1 + sqrt(4pq))
    for p in p_values:
        ch = ChannelParam(p)
        om1 = channel_constants(ch).omega1
        for rate in (0.1, 0.3, 0.5, 0.7):
            a0 = binary_entropy_inv(1.0 - rate)
            for s in (0.25, 0.55, 0.85):
                alpha = float(a0 + s * (0.5 - a0))
                tau = binary_entropy_inv(binary_entropy(alpha) - 1.0 + rate)
                cap = omega_cap(alpha, tau)
                if abs(cap - om1) < 1e-4:
                    continue
                res = F1_maximize(rate, alpha, ch)
                tested += 1
                if res.attained_at_boundary["omega"] != (cap >= om1):
                    mismatches += 1
    checks.append({"name": "cap_attainment_iff_band_reaches_omega1",
                   "passed": mismatches == 0,
                   "mismatches": mismatches, "tested": tested})

    return {"suite": "prop1", "passed": all(c["passed"] for c in checks),
            "checks": checks}


def suite_identity16(taus=(0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.45)) -> dict:
    """mu at the symmetric cap collapses to h2(tau) + h2(G) - 1, both routes."""
    worst_closed = 0.0
    worst_quad = 0.0
    for tau in taus:
        rate = binary_entropy(tau)
        cap = omega_cap(0.5, tau)
        target = binary_entropy(tau) + binary_entropy(cap) - 1.0
        worst_closed = max(worst_closed,
                           abs(spectrum_exponent_half(rate, cap) - target))
        worst_quad = max(worst_quad, abs(_mu(rate, 0.5, cap) - target))
    checks = [
        {"name": "closed_form_residual", "passed": worst_closed < 1e-8,
         "max_residual": worst_closed},
        {"name": "quadrature_residual", "passed": worst_quad < 1e-8,
         "max_residual": worst_quad},
    ]
    return {"suite": "identity16", "passed": all(c["passed"] for c in checks),
            "checks": checks, "tau_count": len(taus)}


def suite_claims(p_values=None) -> dict:
    """Cleaning-gap claims plus the measured curvature reference at p = 0.003."""
    grid = None if p_values is None else [ChannelParam(p) for p in p_values]
    report = verify_claims(grid)
    ref = claims_stats(ChannelParam(0.003))
    curv_check = {
        "name": "curvature_reference_p003",
        "passed": abs(ref["curvature_min"] - 0.009) <= 2e-3,
        "measured": ref["curvature_min"],
        "target": 0.009,
    }
    report["checks"] = [curv_check]
    report["passed"] = bool(report["passed"] and curv_check["passed"])
    return report


def suite_hahn() -> dict:
    """Root asymptotics, interlacing, the ratio growth window, Lemma 4, Delsarte."""
    checks = []

    pairs = ((0.5, 0.1), (0.3, 0.1), (0.4, 0.2))
    rows = []
    asym_ok = True
    for al, ta in pairs:
        gaps = {}
        for n in (500, 2000):
            w, j = round(al * n), round(ta * n)
            gaps[n] = abs(2.0 * min_root(HahnContext(n, w, j)) / n
                          - omega_cap(w / n, j / n))
        ok = gaps[2000] < 0.01 and gaps[2000] < gaps[500]
        asym_ok = asym_ok and ok
        rows.append({"alpha": al, "tau": ta, "gap_500": gaps[500],
                     "gap_2000": gaps[2000], "ok": ok})
    checks.append({"name": "min_root_asymptotics", "passed": asym_ok,
                   "pairs": rows})

    inter_viol = 0
    for n in (50, 101, 200):
        for w in (n // 3, n // 2):
            roots = [min_root(HahnContext(n, w, j)) for j in range(1, w)]
            inter_viol += sum(1 for lo, hi in zip(roots[1:], roots)
                              if not lo < hi)
    checks.append({"name": "min_root_interlacing", "passed": inter_viol == 0,
                   "violations": inter_viol})

    # growth window of consecutive ratios below the first root:
    # 1 < rho_{k-1}/rho_k < 1 + e*j/(x1-k)^2 whenever (x1-k)^2 >= j+2
    win_viol = 0
    win_tested = 0
    for n, w, j in ((200, 80, 12), (400, 150, 30), (1000, 400, 60)):
        ctx = HahnContext(n, w, j)
        x1 = min_root(ctx)
        ratios = hahn_ratios(ctx, min(w, n - w) - 1)
        for k in range(1, len(ratios)):
            if ratios[k] <= 0.0 or (x1 - k) ** 2 < j + 2:
                continue
            quot = ratios[k - 1] / ratios[k]
            win_tested += 1
            if not 1.0 < quot < 1.0 + math.e * j / (x1 - k) ** 2:
                win_viol += 1
    checks.append({"name": "ratio_growth_window", "passed": win_viol == 0,
                   "violations": win_viol, "tested": win_tested})

    lemma_rows = []
    lemma_ok = True
    n = 1000
    for al, ta, frac in ((0.5, 0.1, 0.5), (0.5, 0.1, 0.8),
                         (0.3, 0.1, 0.5), (0.4, 0.2, 0.6)):
        w, j = round(al * n), round(ta * n)
        alpha, tau = w / n, j / n
        x1 = min_root(HahnContext(n, w, j))
        thr = ((alpha * (1 - alpha) - tau * (1 - tau))
               / (1.0 + 2.0 * math.sqrt(tau * (1 - tau))))
        i = int(frac * thr * n)
        lhs = hahn_eval(HahnContext(n, w, j), i).log_abs / n
        rhs = (q0_exponent(alpha, tau, i / n)
               + 2.0 * math.sqrt(n) / ((alpha - tau) * (1 - alpha - tau) * (x1 - i)))
        lemma_ok = lemma_ok and lhs <= rhs
        lemma_rows.append({"alpha": al, "tau": ta, "i": i,
                           "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
    checks.append({"name": "lemma4_upper_bound", "passed": lemma_ok,
                   "cases": lemma_rows})

    worst_margin = math.inf
    sections = 0
    for name, code in builtin_roster():
        for margin in _section_delsarte_margins(code):
            sections += 1
            worst_margin = min(worst_margin, margin)
    checks.append({"name": "delsarte_nonnegativity", "passed": worst_margin >= -1e-9,
                   "min_margin": worst_margin, "sections": sections})

    return {"suite": "hahn", "passed": all(c["passed"] for c in checks),
            "checks": checks}


def _section_delsarte_margins(code: BinaryCode):
    """Delsarte sums of every constant-weight section of a code.

    Sections heavier than n/2 are complemented (a distance isometry) so the
    polynomial parameters stay in their domain; singleton and empty
    sections are skipped.
    """
    n = code.n
    words = np.asarray(code.words, dtype=np.uint32)
    weights = np.bitwise_count(words)
    for w in np.unique(weights):
        sect = words[weights == w]
        w = int(w)
        if w > n - w:
            sect = sect ^ np.uint32((1 << n) - 1)
            w = n - w
        if w == 0 or sect.size < 2:
            continue
        dists = np.bitwise_count(sect[:, None] ^ sect[None, :])
        b2i = [float((dists == 2 * i).sum()) / sect.size for i in range(w + 1)]
        for margin in delsarte_margins(n, w, b2i):
            yield margin


def suite_oracle() -> dict:
    """Dominance of exact ML error over every analytic lower bound, exact
    pair counting, union-cover, double counting, and the Johnson regime."""
    checks = []
    roster = builtin_roster()
    ps = (0.01, 0.05, 0.1, 0.25, 0.4)

    dom_viol = 0
    min_slack = math.inf
    compared = 0
    for name, code in roster:
        for p in ps:
            ch = ChannelParam(p)
            pe = exact_pe_ml(code, ch)
            bounds = [lower_bound_21(code, ch), sphere_packing_rhs_23(code, ch)]
            spectrum = distance_distribution(code)
            for om_d in range(1, code.n + 1):
                if spectrum[om_d] == 0.0:
                    continue
                for t in range(code.n + 1):
                    if z_pair_count(code.n, om_d, t) == 0:
                        continue
                    bounds.append(proposition3_rhs(code, ch, t, om_d))
            for b in bounds:
                compared += 1
                min_slack = min(min_slack, pe - b)
                if b > pe + 1e-12:
                    dom_viol += 1
    checks.append({"name": "lower_bound_dominance", "passed": dom_viol == 0,
                   "violations": dom_viol, "compared": compared,
                   "min_slack": min_slack})

    z_viol = 0
    for n in (6, 10, 14):
        outputs = np.arange(1 << n, dtype=np.uint32)
        wt = np.bitwise_count(outputs)
        for d in range(0, n + 1):
            y = np.uint32((1 << d) - 1)
            wy = np.bitwise_count(outputs ^ y)
            for t in range(0, n + 1):
                direct = int(((wt == t) & (wy == t)).sum())
                if direct != z_pair_count(n, d, t):
                    z_viol += 1
    checks.append({"name": "pair_count_vs_enumeration", "passed": z_viol == 0,
                   "violations": z_viol})

    uc_viol = 0
    uc_tested = 0
    for name, code in roster[:5]:
        uc_tested += 1
        uc_viol += _union_cover_violations(code)
    checks.append({"name": "union_cover_inequality", "passed": uc_viol == 0,
                   "violations": uc_viol, "codes": uc_tested})

    dc_viol = 0
    for name, code in roster[:5]:
        for t in range(code.n + 1):
            rep = cover_report(code, t)
            if rep.double_count() != code.M * math.comb(code.n, t):
                dc_viol += 1
    checks.append({"name": "cover_double_counting", "passed": dc_viol == 0,
                   "violations": dc_viol})

    j_viol = 0
    j_tested = 0
    for n in (50, 100, 500):
        for p in (0.01, 0.1, 0.25):
            ch = ChannelParam(p)
            for om in np.linspace(0.5 / 50, 0.5, 50):
                j_tested += 1
                if not proposition4_check(n, float(om), ch):
                    j_viol += 1
    for n in (8, 10):
        for om in (0.2, 0.35, 0.5):
            j_tested += 1
            if not proposition4_check(n, om, ChannelParam(0.1)):
                j_viol += 1
    checks.append({"name": "johnson_below_n_squared", "passed": j_viol == 0,
                   "violations": j_viol, "tested": j_tested})

    return {"suite": "oracle", "passed": all(c["passed"] for c in checks),
            "checks": checks}


def _union_cover_violations(code: BinaryCode) -> int:
    """|union of equidistant sets| >= (sum of sizes)/X_max, by enumeration."""
    n = code.n
    words = np.asarray(code.words, dtype=np.uint32)
    pair_d = np.bitwise_count(words[:, None] ^ words[None, :])
    outputs = np.arange(1 << n, dtype=np.uint32)
    dist = np.bitwise_count(outputs[:, None] ^ words[None, :])
    viol = 0
    for om_d in np.unique(pair_d[pair_d > 0]):
        for t in range(n + 1):
            xmax = 0
            for i in range(code.M):
                cols = np.flatnonzero(pair_d[i] == om_d)
                if cols.size == 0:
                    continue
                at_t = dist[:, cols] == t
                counts = at_t.sum(axis=1)
                xmax = max(xmax, int(counts.max()))
            if xmax == 0:
                continue
            for i in range(code.M):
                cols = np.flatnonzero(pair_d[i] == om_d)
                if cols.size == 0:
                    continue
                counts = (dist[:, cols] == t).sum(axis=1)
                on_sphere = dist[:, i] == t
                union = int(((counts >= 1) & on_sphere).sum())
                total = int(counts[on_sphere].sum())
                if union * xmax < total:
                    viol += 1
    return viol


def run_suite(name: str, *, p_values=None) -> dict:
    """Dispatch a named suite; ``all`` chains everything."""
    if name == "prop1":
        return suite_prop1()
    if name == "identity16":
        return suite_identity16()
    if name == "claims":
        return suite_claims(p_values)
    if name == "hahn":
        return suite_hahn()
    if name == "oracle":
        return suite_oracle()
    if name == "all":
        parts = [suite_prop1(), suite_identity16(), suite_claims(p_values),
                 suite_hahn(), suite_oracle()]
        return {"suite": "all",
                "passed": all(p["passed"] for p in parts),
                "suites": parts}
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
