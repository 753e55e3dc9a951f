"""Two-level bound optimization, the exact-exponent segment, and the
combined curve.

Several tests pin *characterizations*: measured facts about where the
two-level bound is exact, where its inner argmin leaves the symmetric
slice, and where it degenerates at high rate.  Those document behaviour
the module's piecewise dispatch relies on; see also the verification
suites.
"""

import math

import numpy as np
import pytest

from bscbounds.core import (
    ChannelParam,
    DomainError,
    binary_entropy_inv,
    channel_constants,
    omega_cap,
    sphere_packing_exponent,
)
from bscbounds.optimizer import (
    CurveKind,
    F1_maximize,
    F_minimize,
    W_value,
    claims_stats,
    corollary1_exponent,
    curve,
    default_claims_grid,
    max_band_width,
    straight_line,
    theorem1_bound,
    verify_claims,
)
from bscbounds.optimizer import _f1_batch, _log_quarter, _segment_anchors
from bscbounds.spectrum import MuSlice, spectrum_exponent_at

CH = ChannelParam(0.1)
CC = channel_constants(CH)
SEG_SLOPE_FREE = 1.0 - math.log2(1.0 + 2.0 * math.sqrt(0.1 * 0.9))  # 1 - log2(1.6)


def test_w_value_literal():
    assert W_value(0.15, 0.5, 0.469, CH) == pytest.approx(
        0.5 * 0.15 * math.log2(1 / 0.36) - 0.12338047764416393, abs=1e-10)


def test_f1_literals():
    assert F1_maximize(0.2, 0.5, CH).value == pytest.approx(
        0.1303271292051886, abs=1e-9)
    assert F1_maximize(0.2, 0.35, CH).value == pytest.approx(
        0.12940327965383389, abs=1e-9)


def test_f1_alpha_domain():
    a0 = binary_entropy_inv(0.8)
    with pytest.raises(DomainError):
        F1_maximize(0.2, a0 - 1e-3, CH)


def test_f1_collapsed_band_is_zero():
    # at rate 1 the induced tau equals alpha and the band [0, G] collapses
    res = F1_maximize(1.0, 0.3, CH)
    assert (res.value, res.arg_omega, res.iterations) == (0.0, 0.0, 0)
    assert res.attained_at_boundary["omega"] is True


def test_f1_batch_mixes_collapsed_and_open_bands():
    # just below rate 1 the lightest slice's band collapses while the others
    # stay open; each batch entry must equal the slice's own inner maximum
    rate = 1.0 - 1e-9
    alphas = np.linspace(binary_entropy_inv(1e-9), 0.5, 5)
    batch = _f1_batch(rate, alphas, _log_quarter(CH), 1e-10)
    assert batch.iterations[0] == 0 and batch.iterations[1:].min() > 0
    for k, alpha in enumerate(alphas):
        one = F1_maximize(rate, float(alpha), CH)
        assert batch.value[k] == pytest.approx(one.value, abs=1e-15)
        assert batch.arg_omega[k] == pytest.approx(one.arg_omega, abs=1e-10)
        assert bool(batch.at_cap[k]) is one.attained_at_boundary["omega"]


def test_f1_at_constraint_edge_is_sphere_packing():
    # on the lightest admissible slice the inner maximum collapses onto the
    # sphere-packing exponent exactly
    for R in (0.2, 0.35, 0.5):
        a0 = binary_entropy_inv(1.0 - R)
        assert F1_maximize(R, a0, CH).value == pytest.approx(
            sphere_packing_exponent(R, CH), abs=1e-10)


def test_f1_cap_attainment_flag_tracks_tau1():
    # symmetric slice: the maximum sits at the cap iff tau <= tau1(p)
    low = F1_maximize(0.10, 0.5, CH)   # tau = 0.0130 < tau1 = 0.0159
    assert low.attained_at_boundary["omega"] is True
    assert low.arg_omega == pytest.approx(
        omega_cap(0.5, binary_entropy_inv(0.10)), abs=1e-9)
    high = F1_maximize(0.14, 0.5, CH)  # tau = 0.0197 > tau1
    assert high.attained_at_boundary["omega"] is False
    assert high.arg_omega < omega_cap(0.5, binary_entropy_inv(0.14)) - 1e-5


def test_f_minimize_literal():
    res = F_minimize(0.2, CH)
    assert res.value == pytest.approx(0.12230708508088517, abs=1e-9)
    assert res.arg_alpha == pytest.approx(0.2430038538089539, abs=1e-4)
    # at this rate (above R_crit) the scan reproduces sphere packing
    assert res.value == pytest.approx(sphere_packing_exponent(0.2, CH), abs=1e-9)


def test_f_minimize_symmetric_at_small_p_low_rate():
    # for p = 0.01 the argmin stays on the symmetric slice through R = 0.3
    ch = ChannelParam(0.01)
    for R in (0.15, 0.30):
        res = F_minimize(R, ch)
        assert res.arg_alpha == 0.5
        assert res.value == pytest.approx(
            F1_maximize(R, 0.5, ch).value, abs=1e-8)


def test_f_minimize_departs_at_moderate_p():
    # characterization: for p = 0.1 the argmin leaves alpha = 1/2 already at
    # R = 0.15 (above the anchor rate R1) and strictly improves the bound
    res = F_minimize(0.15, CH)
    assert res.arg_alpha < 0.5 - 0.01
    assert res.value < F1_maximize(0.15, 0.5, CH).value - 1e-4


def test_scan_equals_segment_on_segment_range():
    # the two-level bound lands exactly on the straight segment between R1
    # and R_crit — independent confirmation that the segment is attained
    for R in (CC.r1, 0.13, 0.15, 0.17):
        assert F_minimize(R, CH).value == pytest.approx(
            SEG_SLOPE_FREE - R, abs=1e-9)


def test_high_rate_scan_undershoots_sphere_packing():
    # characterization: at p = 0.01 the scan drops strictly below sphere
    # packing above R_crit, so it cannot serve as the bound there
    ch = ChannelParam(0.01)
    val = F_minimize(0.787, ch).value
    assert val == pytest.approx(0.012977105347887943, abs=1e-8)
    assert val < sphere_packing_exponent(0.787, ch) - 0.01


def test_bound_degenerates_at_remark_channel():
    # p = 0.001 near capacity: W < 0 across the whole admissible band, so
    # the inner maximum clamps to zero and the scan bound carries no
    # information at this rate
    ch = ChannelParam(0.001)
    R = 0.9709505944546686
    cap = omega_cap(0.5, binary_entropy_inv(R))
    assert cap == pytest.approx(0.01010205144336439, abs=1e-10)
    assert W_value(cap, 0.5, R, ch) == pytest.approx(
        -0.012176837418086707, abs=1e-9)
    assert F1_maximize(R, 0.5, ch).value == 0.0
    assert F_minimize(R, ch).value <= 1e-12


def test_negative_slice_derivative_low_rate():
    # characterization: d mu / d alpha < 0 at a generic low-rate interior
    # point — the reason the slice-monotonicity suite restricts itself to
    # high rates
    h = 1e-5
    w = 0.5 * MuSlice(0.2, 0.35).cap
    d = (spectrum_exponent_at(0.2, 0.35 + h, w)
         - spectrum_exponent_at(0.2, 0.35 - h, w)) / (2 * h)
    assert d < -1e-3


def test_theorem1_is_pointwise_min():
    for R in (0.1, 0.3, 0.45):
        assert theorem1_bound(R, CH) == pytest.approx(
            min(F_minimize(R, CH).value, sphere_packing_exponent(R, CH)),
            abs=1e-12)
    with pytest.raises(DomainError):
        theorem1_bound(0.6, CH)


def test_straight_line_interpolation():
    assert straight_line(0.2, (0.1, 1.0), (0.3, 0.0)) == pytest.approx(0.5)
    assert straight_line(0.1, (0.1, 1.0), (0.3, 0.0)) == 1.0
    with pytest.raises(DomainError):
        straight_line(0.05, (0.1, 1.0), (0.3, 0.0))
    with pytest.raises(DomainError):
        straight_line(0.2, (0.3, 1.0), (0.1, 0.0))


def test_straight_line_through_anchors_is_the_segment():
    # the chord between (R1, F(R1)) and (R_crit, E_sp(R_crit)) reproduces
    # the closed-form segment: both anchors sit on it and both are linear
    low, high = _segment_anchors(CH)
    assert low[0] == pytest.approx(CC.r1, abs=1e-12)
    assert high[1] == pytest.approx(
        sphere_packing_exponent(CC.r_crit, CH), abs=1e-12)
    for R in (0.125, 0.16, 0.185):
        assert straight_line(R, low, high) == pytest.approx(
            corollary1_exponent(R, CH), abs=1e-9)


def test_segment_anchor_continuity():
    # F meets the segment at its lower anchor to machine precision
    assert F_minimize(CC.r1, CH).value == pytest.approx(
        corollary1_exponent(CC.r1, CH), abs=1e-9)


def test_corollary1_meets_sphere_packing_at_critical_rate():
    assert corollary1_exponent(CC.r_crit, CH) == pytest.approx(
        sphere_packing_exponent(CC.r_crit, CH), abs=1e-12)
    # above R_crit the segment hands over to sphere packing
    assert corollary1_exponent(0.3, CH) == pytest.approx(
        sphere_packing_exponent(0.3, CH), abs=1e-15)


def test_corollary1_domain():
    with pytest.raises(DomainError):
        corollary1_exponent(0.2, ChannelParam(0.005))   # below the crossover
    with pytest.raises(DomainError):
        corollary1_exponent(CC.r1 - 1e-3, CH)           # below the anchor


def test_combined_curve_piecewise():
    # segment range: combined equals the closed segment, not the min form
    cv = curve(CurveKind.combined, CH, 0.125, 0.185, 0.02)
    for r, e in cv.points:
        assert e == pytest.approx(SEG_SLOPE_FREE - r, abs=1e-9)
    # above R_crit: combined equals sphere packing even where the scan
    # undershoots it
    ch = ChannelParam(0.01)
    (r, e), = curve(CurveKind.combined, ch, 0.787, 0.7871, 0.01).points
    assert e == pytest.approx(sphere_packing_exponent(0.787, ch), abs=1e-10)
    # below R1: combined equals the pointwise-min bound
    (r, e), = curve(CurveKind.combined, CH, 0.05, 0.051, 0.01).points
    assert e == pytest.approx(theorem1_bound(0.05, CH), abs=1e-12)


def test_curve_grid_semantics():
    cv = curve(CurveKind.sphere_packing, CH, 0.1, 0.3, 0.05)
    assert [r for r, _ in cv.points] == pytest.approx(
        [0.1, 0.15, 0.2, 0.25, 0.3], abs=1e-12)
    assert cv.kind is CurveKind.sphere_packing
    for r, e in cv.points:
        assert e == pytest.approx(sphere_packing_exponent(r, CH), abs=1e-12)
    # non-commensurate endpoint: grid stops at the last step that fits
    cv = curve(CurveKind.sphere_packing, CH, 0.1, 0.22, 0.05)
    assert [r for r, _ in cv.points] == pytest.approx(
        [0.1, 0.15, 0.2], abs=1e-12)


def test_curve_keeps_commensurate_endpoint_with_small_step():
    # r_max - r_min rounds to 0.99999999947 steps: still two rates
    ch = ChannelParam(0.01)
    r1 = channel_constants(ch).r1
    cv = curve(CurveKind.sphere_packing, ch, r1 - 1e-7, r1, 1e-7)
    assert len(cv.points) == 2
    assert cv.points[-1][0] == pytest.approx(r1, abs=1e-15)


def test_curve_accepts_kind_names():
    cv = curve("combined", CH, 0.1, 0.2, 0.1)
    assert cv.kind is CurveKind.combined


def test_curve_clamps_negative_values():
    ch = ChannelParam(0.001)
    cv = curve(CurveKind.F_bound, ch, 0.96, 0.98, 0.01)
    assert all(e >= 0.0 for _, e in cv.points)
    assert cv.points[-1][1] <= 1e-12


def test_curve_domain_errors():
    with pytest.raises(DomainError):
        curve(CurveKind.sphere_packing, CH, 0.3, 0.1, 0.05)
    with pytest.raises(DomainError):
        curve(CurveKind.sphere_packing, CH, 0.1, 0.3, 0.0)
    with pytest.raises(DomainError):
        curve(CurveKind.sphere_packing, CH, 0.1, 0.3, 1e-9)  # 2e8 rates
    with pytest.raises(DomainError):
        curve(CurveKind.sphere_packing, CH, 0.1, 0.6, 0.05)  # beyond capacity
    with pytest.raises(DomainError):
        curve(CurveKind.corollary1, ChannelParam(0.005), 0.1, 0.2, 0.05)
    with pytest.raises(ValueError):
        curve("no_such_bound", CH, 0.1, 0.2, 0.05)


# --- claims report ------------------------------------------------------


def test_claims_stats_p01():
    st = claims_stats(CH)
    assert st["corner_value"] == pytest.approx(-0.0957431423, abs=1e-8)
    assert st["curvature_min"] == pytest.approx(1.987663367, abs=1e-5)
    assert st["linear_decay_constant"] == pytest.approx(0.979272514, abs=1e-5)
    assert st["omega_m"] == pytest.approx(CC.omega_m, abs=1e-12)
    assert st["omega_1"] == pytest.approx(CC.omega1, abs=1e-12)


def test_default_claims_grid():
    grid = default_claims_grid()
    assert len(grid) == 44
    ps = [ch.p for ch in grid]
    assert all(0.003 < p < 0.22 for p in ps)
    assert ps == sorted(ps)


def test_max_band_width_literal():
    p_star, width = max_band_width()
    assert p_star == pytest.approx(0.0466798420, abs=1e-5)
    assert width == pytest.approx(0.1076043045, abs=1e-6)


def test_verify_claims_small_grid():
    grid = [ChannelParam(p) for p in (0.01, 0.05, 0.15)]
    report = verify_claims(grid)
    assert report["passed"] is True
    assert len(report["per_p"]) == 3
    assert all(st["ok"] for st in report["per_p"])


def test_verify_claims_rejects_endpoint_channels():
    with pytest.raises(DomainError):
        verify_claims([ChannelParam(0.003)])
