"""End-to-end gates: pinned reference values with explicit tolerances and
wall-clock budgets for every headline quantity the package computes.

Each test pins numbers that were cross-checked against independent routes
(high-precision root re-solves, exact rational recurrences, full output
enumerations, published constant-weight tables) before being frozen here.
Budgets are asserted after correctness, so a slow-but-right run still
fails visibly rather than silently degrading.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from bscbounds.core import (
    ChannelParam,
    binary_entropy,
    capacity,
    channel_constants,
    omega_cap,
    solve_p1,
    solve_tau0,
    sphere_packing_exponent,
)
from bscbounds.optimizer import CurveKind, W_value, curve
from bscbounds.oracle import proposition4_check
from bscbounds.spectrum import (
    SpectrumPoint,
    spectrum_exponent,
    spectrum_exponent_half,
)
from bscbounds.verify import (
    builtin_roster,
    claims_stats,
    suite_claims,
    suite_hahn,
    suite_identity16,
    suite_oracle,
    suite_prop1,
)


def _timed(suite) -> tuple:
    start = time.monotonic()
    report = suite()
    return report, time.monotonic() - start


# each suite runs once per module; its report and wall time are shared
@pytest.fixture(scope="module")
def oracle_run() -> tuple:
    return _timed(suite_oracle)


@pytest.fixture(scope="module")
def hahn_run() -> tuple:
    return _timed(suite_hahn)


def _check(report: dict, name: str) -> dict:
    match = [c for c in report["checks"] if c["name"] == name]
    assert len(match) == 1, f"missing check {name!r}"
    return match[0]


def test_critical_constants_pinned():
    start = time.monotonic()
    tau0, r0 = solve_tau0()
    p1 = solve_p1()
    cc1 = channel_constants(ChannelParam(p1))
    omega0 = omega_cap(0.5, tau0)
    elapsed = time.monotonic() - start

    assert abs(tau0 - 0.054507) <= 5e-6
    assert abs(r0 - 0.30524) <= 5e-5
    assert abs(p1 - 0.0078176) <= 5e-7
    assert abs(cc1.omega1 - 0.149762) <= 5e-6
    assert abs(cc1.tau1 - 0.1431616) <= 5e-7
    assert abs(omega0 - 0.27298) <= 5e-5
    assert elapsed < 1.0


def test_segment_band_width_maximum():
    start = time.monotonic()

    def neg_gap(p: float) -> float:
        cc = channel_constants(ChannelParam(p))
        return cc.r1 - cc.r_crit

    res = minimize_scalar(neg_gap, bounds=(0.02, 0.3), method="bounded",
                          options={"xatol": 1e-10})
    gap = -float(res.fun)
    p_star = float(res.x)
    at_nominal = channel_constants(ChannelParam(0.0922))
    elapsed = time.monotonic() - start

    assert abs(gap - 0.07131) <= 2e-4
    # the maximum is extremely flat in p; the measured argmax 0.091915
    # sits inside the stated window around the nominal point
    assert abs(p_star - 0.0922) <= 1e-3
    assert abs(at_nominal.r_crit - 0.20219) <= 2e-4
    assert abs(capacity(ChannelParam(0.0922)) - 0.5562) <= 2e-4
    assert elapsed < 5.0


def test_low_noise_high_rate_degeneracy_point():
    # the rate h2(0.4) channel-0.001 configuration: the slice objective is
    # negative at the cap, so the one-slice bound carries no information
    ch = ChannelParam(0.001)
    rate = binary_entropy(0.4)
    cap = omega_cap(0.5, 0.4)
    assert abs(rate - 0.971) <= 1e-3
    assert abs(capacity(ch) - 0.989) <= 1e-3
    assert abs(W_value(cap, 0.5, rate, ch) - (-0.0122)) <= 5e-4


def test_symmetric_cap_identity_both_routes():
    report = suite_identity16()
    assert report["tau_count"] == 7
    assert _check(report, "closed_form_residual")["max_residual"] < 1e-8
    assert _check(report, "quadrature_residual")["max_residual"] < 1e-8
    assert report["passed"]


def test_closed_form_matches_quadrature_on_symmetric_grid():
    start = time.monotonic()
    worst = 0.0
    count = 0
    for tau in np.linspace(0.02, 0.42, 32):
        rate = binary_entropy(float(tau))
        cap = omega_cap(0.5, float(tau))
        for frac in np.linspace(0.05, 1.0, 32):
            omega = float(frac) * cap
            quad = spectrum_exponent(SpectrumPoint.make(rate, 0.5, omega))
            closed = spectrum_exponent_half(rate, omega)
            worst = max(worst, abs(quad - closed))
            count += 1
    elapsed = time.monotonic() - start

    assert count >= 1000
    assert worst < 1e-6
    assert elapsed < 30.0


def test_slice_monotonicity_convexity_and_attainment():
    report = suite_prop1()
    slope = _check(report, "mu_increasing_in_alpha")
    assert slope["violations"] == 0
    assert slope["min_slope"] > 0.0
    curv = _check(report, "mu_convex_in_omega")
    assert curv["violations"] == 0
    assert curv["min_curvature"] > 0.0
    attain = _check(report, "cap_attainment_iff_band_reaches_omega1")
    assert attain["mismatches"] == 0
    assert attain["tested"] > 0
    assert report["passed"]


def test_gap_claims_across_channel_grid():
    start = time.monotonic()
    report = suite_claims()
    ref = claims_stats(ChannelParam(0.003))
    elapsed = time.monotonic() - start

    assert len(report["per_p"]) == 44
    for row in report["per_p"]:
        assert row["corner_value"] < -0.0008, row["p"]
        assert row["curvature_min"] > 0.0, row["p"]
        assert row["linear_decay_constant"] > 0.013, row["p"]
    assert abs(ref["curvature_min"] - 0.009) <= 2e-3
    assert abs(report["band_width_max"]["width"] - 0.1076) <= 2e-3
    assert report["passed"]
    assert elapsed < 60.0


@pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.2])
def test_combined_curve_matches_segment_formula(p):
    ch = ChannelParam(p)
    cc = channel_constants(ch)
    slope_free = 1.0 - math.log2(1.0 + 2.0 * math.sqrt(p * (1.0 - p)))
    step = (cc.r_crit - cc.r1) / 20.0
    seg = curve(CurveKind.combined, ch, cc.r1, cc.r_crit, step)
    assert len(seg.points) == 21
    for rate, value in seg.points:
        assert abs(value - (slope_free - rate)) <= 1e-6, (p, rate)
    hi = min(capacity(ch) - 1e-3, cc.r_crit + 0.15)
    tail = curve(CurveKind.combined, ch, cc.r_crit, hi, (hi - cc.r_crit) / 10.0)
    for rate, value in tail.points:
        assert abs(value - sphere_packing_exponent(rate, ch)) <= 1e-9, (p, rate)


def test_root_asymptotics_interlacing_and_tail_bound(hahn_run):
    report, elapsed = hahn_run

    asym = _check(report, "min_root_asymptotics")
    assert len(asym["pairs"]) == 3
    for row in asym["pairs"]:
        assert row["gap_2000"] < 0.01, row
        assert row["gap_2000"] < row["gap_500"], row
    inter = _check(report, "min_root_interlacing")
    assert inter["violations"] == 0
    lemma = _check(report, "lemma4_upper_bound")
    for case in lemma["cases"]:
        assert case["margin"] > 0.0, case
    assert report["passed"]
    assert elapsed < 60.0


def test_exact_error_dominates_every_lower_bound(oracle_run):
    roster = builtin_roster()
    assert len(roster) == 25
    assert all(code.n <= 12 for _, code in roster[5:])

    report, elapsed = oracle_run

    dom = _check(report, "lower_bound_dominance")
    assert dom["violations"] == 0
    assert dom["compared"] >= 25 * 5 * 2
    assert dom["min_slack"] >= -1e-12
    assert report["passed"]
    assert elapsed < 120.0


def test_johnson_bound_below_quadratic_everywhere(oracle_run):
    # arithmetic regime: the 450-point grid lives inside the oracle suite
    report, _ = oracle_run
    johnson = _check(report, "johnson_below_n_squared")
    assert johnson["violations"] == 0
    assert johnson["tested"] == 456
    # enumerative regime: every block length up to the search cap, with
    # the true layer maximum confirming the bound (dense layers included)
    for n in range(4, 11):
        for omega in (0.1, 0.2, 0.3, 0.35, 0.4, 0.5):
            for p in (0.01, 0.1, 0.25):
                assert proposition4_check(n, omega, ChannelParam(p)), (n, omega, p)


def test_delsarte_sums_nonnegative_on_code_sections(hahn_run):
    report, _ = hahn_run
    delsarte = _check(report, "delsarte_nonnegativity")
    assert delsarte["sections"] > 0
    assert delsarte["min_margin"] >= -1e-9
