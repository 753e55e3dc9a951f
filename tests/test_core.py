"""Scalar layer: entropies, constants, exponents, cleaning-gap closed forms.

The solved constants are checked against an independent high-precision
re-derivation (mpmath on the defining equations), not against the module's
own solver.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bscbounds.core import (
    ChannelParam,
    DomainError,
    _h2_arr,
    _h2_inv_arr,
    binary_entropy,
    binary_entropy_inv,
    capacity,
    channel_constants,
    cleaning_gap,
    cleaning_gap_case1,
    cleaning_gap_generic,
    equidistant_exponent,
    equidistant_radius,
    kl_divergence,
    omega_cap,
    solve_p1,
    solve_tau0,
    sphere_packing_exponent,
    zero_rate_exponent,
)

CH = ChannelParam(0.1)


def test_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(0.4999159582, abs=1e-9)


def test_entropy_symmetry():
    for x in (0.03, 0.2, 0.41):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-15)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_inverse_roundtrip(y):
    x = binary_entropy_inv(y)
    assert 0.0 <= x <= 0.5
    assert binary_entropy(x) == pytest.approx(y, abs=1e-11)


def test_entropy_inverse_endpoints_exact():
    assert binary_entropy_inv(0.0) == 0.0
    assert binary_entropy_inv(1.0) == 0.5


def test_vectorised_entropy_inverse_matches_scalar_reference():
    ys = np.linspace(0.0, 1.0, 1000)
    got = _h2_inv_arr(ys)
    ref = np.array([binary_entropy_inv(float(y)) for y in ys])
    assert np.abs(got - ref).max() <= 1e-15
    assert got[0] == 0.0 and got[-1] == 0.5


def test_vectorised_entropy_inverse_residual_is_round_off():
    # near y = 1 the flat top of h2 makes the preimage ill-conditioned, so
    # two correct inverses may differ there by more than 1e-15; the residual
    # h2(x) - y cannot, at either end of the range
    ys = np.concatenate([np.geomspace(1e-300, 0.5, 300),
                         1.0 - np.geomspace(1e-16, 0.5, 300)])
    x = _h2_inv_arr(ys)
    assert np.all((0.0 <= x) & (x < 0.5))
    assert np.abs(_h2_arr(x) - ys).max() <= 4.5e-16


def test_kl_basics():
    assert kl_divergence(0.1, 0.1) == 0.0
    assert kl_divergence(0.0, 0.1) == pytest.approx(-math.log2(0.9), abs=1e-15)
    assert kl_divergence(1.0, 0.1) == pytest.approx(-math.log2(0.1), abs=1e-15)
    # hand value: 0.25 log2(2.5) + 0.75 log2(0.75/0.9)
    assert kl_divergence(0.25, 0.1) == pytest.approx(
        0.25 * math.log2(2.5) + 0.75 * math.log2(0.75 / 0.9), abs=1e-15)
    with pytest.raises(DomainError):
        kl_divergence(0.5, 0.0)


def test_capacity_value():
    assert capacity(CH) == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-15)
    assert capacity(ChannelParam(0.499)) < 1e-5


def test_channel_param_domain():
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(DomainError):
            ChannelParam(bad)


# --- weight cap ---------------------------------------------------------


def test_omega_cap_symmetric_closed_form():
    for tau in (0.02, 0.1, 0.25, 0.4):
        expect = 0.5 - math.sqrt(tau * (1.0 - tau))
        assert omega_cap(0.5, tau) == pytest.approx(expect, abs=1e-15)


def omega_cap_alt(alpha, tau):
    """Algebraic rearrangement of omega_cap: the reference it is checked against."""
    root = math.sqrt(tau * (1.0 - tau))
    return 0.5 - root - (1.0 - 2.0 * alpha) ** 2 / (2.0 * (1.0 + 2.0 * root))


def test_omega_cap_alt_agrees():
    for alpha, tau in ((0.5, 0.1), (0.3, 0.05), (0.21, 0.2), (0.45, 0.0)):
        if tau > alpha:
            continue
        assert omega_cap(alpha, tau) == pytest.approx(
            omega_cap_alt(alpha, tau), abs=1e-14)


def test_omega_cap_vanishes_on_diagonal():
    assert omega_cap(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)


def test_omega_cap_domain():
    with pytest.raises(DomainError):
        omega_cap(0.3, 0.4)
    with pytest.raises(DomainError):
        omega_cap(0.6, 0.1)


# --- solved constants ---------------------------------------------------


def test_tau0_against_mpmath():
    # independent re-derivation of the defining root at 50 digits
    mpmath.mp.dps = 50

    def f(t):
        return ((1 - 2 * t) * (1 + 1 / (2 * mpmath.sqrt(t * (1 - t))))
                - mpmath.log((1 - t) / t))

    ref = mpmath.findroot(f, (mpmath.mpf("0.04"), mpmath.mpf("0.07")),
                          solver="anderson")
    tau0, r0 = solve_tau0()
    assert tau0 == pytest.approx(float(ref), abs=1e-13)
    assert r0 == pytest.approx(binary_entropy(tau0), abs=1e-15)


def test_p1_against_mpmath():
    mpmath.mp.dps = 50

    def h2(x):
        return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)

    def tau1(p):
        pair = 4 * p * (1 - p)
        return (1 - pair ** mpmath.mpf("0.25")) ** 2 / (2 * (1 + mpmath.sqrt(pair)))

    def rcrit(p):
        sp, sq = mpmath.sqrt(p), mpmath.sqrt(1 - p)
        return 1 - h2(sp / (sp + sq))

    ref = mpmath.findroot(lambda p: h2(tau1(p)) - rcrit(p),
                          (mpmath.mpf("0.005"), mpmath.mpf("0.01")),
                          solver="anderson")
    assert solve_p1() == pytest.approx(float(ref), abs=1e-12)


def test_constants_block_p01():
    cc = channel_constants(CH)
    assert cc.omega1 == pytest.approx(0.375, abs=1e-12)          # 0.6/1.6 exactly
    assert cc.tau1 == pytest.approx(0.0158770817, abs=1e-9)
    assert cc.r1 == pytest.approx(0.1176188738, abs=1e-9)
    assert cc.r_crit == pytest.approx(0.1887218755, abs=1e-9)
    assert cc.capacity == pytest.approx(0.5310044064, abs=1e-9)
    assert cc.omega_m == pytest.approx(0.2772303385, abs=1e-9)
    # tau parametrization is consistent: h2(tau_x) recovers the rate
    assert binary_entropy(cc.tau1) == pytest.approx(cc.r1, abs=1e-12)
    assert binary_entropy(cc.tau_crit) == pytest.approx(cc.r_crit, abs=1e-12)
    assert binary_entropy(cc.tau0) == pytest.approx(cc.r0, abs=1e-12)


def test_constants_ordering_against_capacity():
    for p in (0.01, 0.05, 0.1, 0.2, 0.3):
        cc = channel_constants(ChannelParam(p))
        assert 0.0 < cc.r_crit < cc.capacity
        assert 0.0 < cc.omega_m < cc.omega1 < 0.5


def test_segment_exists_above_p1():
    cc = channel_constants(CH)
    assert CH.p > cc.p1
    assert cc.r1 < cc.r_crit
    below = channel_constants(ChannelParam(0.005))
    assert below.r1 > below.r_crit  # no segment on this side


# --- exponents ----------------------------------------------------------


def test_sphere_packing_zero_rate_is_twice_zero_rate_exponent():
    for p in (0.01, 0.1, 0.25, 0.4):
        ch = ChannelParam(p)
        assert sphere_packing_exponent(0.0, ch) == pytest.approx(
            2.0 * zero_rate_exponent(ch), abs=1e-12)


def test_sphere_packing_vanishes_at_capacity():
    assert sphere_packing_exponent(capacity(CH), CH) == pytest.approx(0.0, abs=1e-12)


def test_sphere_packing_decreasing():
    vals = [sphere_packing_exponent(r, CH) for r in
            (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sphere_packing_known_value():
    # D(h2^{-1}(0.5) || 0.1): h2^{-1}(0.5) = 0.1100278644
    x = binary_entropy_inv(0.5)
    assert sphere_packing_exponent(0.5, CH) == pytest.approx(
        kl_divergence(x, CH.p), abs=1e-15)


def test_sphere_packing_domain():
    with pytest.raises(DomainError):
        sphere_packing_exponent(0.9, CH)


# --- equidistant radius and count exponent ------------------------------


def test_equidistant_radius_branches():
    # at omega = 1/2 the linear branch wins: 0.25 + 0.05 = 0.30
    assert equidistant_radius(0.5, CH) == pytest.approx(0.30, abs=1e-15)
    # branches meet exactly at omega1 with value (p + sqrt(pq))/(1 + 2 sqrt(pq))
    cc = channel_constants(CH)
    spq = math.sqrt(CH.p * CH.q)
    meet = (CH.p + spq) / (1.0 + 2.0 * spq)
    assert equidistant_radius(cc.omega1, CH) == pytest.approx(meet, abs=1e-12)
    lin = 0.5 * cc.omega1 + (1 - cc.omega1) * CH.p
    curv = 0.5 * (1 - math.sqrt(1 - 2 * cc.omega1))
    assert lin == pytest.approx(curv, abs=1e-12)


def test_equidistant_radius_monotone():
    oms = [k / 40 for k in range(21)]
    vals = [equidistant_radius(om, CH) for om in oms]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_equidistant_exponent_anchors():
    # t = omega/2 counts a single point per pair: exponent omega
    assert equidistant_exponent(0.1, 0.2) == pytest.approx(0.2, abs=1e-12)
    # t = 1/2 covers everything: exponent 1
    assert equidistant_exponent(0.5, 0.2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        equidistant_exponent(0.05, 0.2)


# --- cleaning gap -------------------------------------------------------


def test_cleaning_gap_zero_on_diagonal():
    for s in (0.05, 0.2, 0.375, 0.45):
        assert cleaning_gap(s, s, CH) == pytest.approx(0.0, abs=1e-12)


def test_cleaning_gap_corner_value_p01():
    cc = channel_constants(CH)
    assert cleaning_gap(cc.omega_m, cc.omega1, CH) == pytest.approx(
        -0.0957431423, abs=1e-8)


def test_cleaning_gap_negative_off_diagonal():
    cc = channel_constants(CH)
    for lam, s in ((cc.omega_m, 0.30), (0.28, 0.35), (0.30, cc.omega1)):
        assert cleaning_gap(lam, s, CH) < 0.0


def test_cleaning_gap_case2_matches_generic():
    # above omega1 the closed form and the plain composition coincide
    cc = channel_constants(CH)
    for lam, s in ((cc.omega1 + 0.01, 0.42), (0.40, 0.48), (0.45, 0.5)):
        assert cleaning_gap(lam, s, CH) == pytest.approx(
            cleaning_gap_generic(lam, s, CH), abs=1e-10)


def test_cleaning_gap_case1_differs_from_generic_composition():
    # below omega1 the certified closed form is deliberately NOT the
    # ratio-exponent composition; the difference is well clear of noise
    cc = channel_constants(CH)
    lam, s = cc.omega_m, cc.omega1
    assert abs(float(cleaning_gap_case1(lam, s, CH))
               - cleaning_gap_generic(lam, s, CH)) > 1e-3


def test_cleaning_gap_case3_continuity_at_omega1():
    cc = channel_constants(CH)
    lam = 0.30
    below = cleaning_gap(lam, cc.omega1 - 1e-9, CH)
    above = cleaning_gap(lam, cc.omega1 + 1e-9, CH)
    assert below == pytest.approx(above, abs=1e-6)


def test_cleaning_gap_domain():
    with pytest.raises(DomainError):
        cleaning_gap(0.4, 0.3, CH)
    with pytest.raises(DomainError):
        cleaning_gap(0.1, 0.6, CH)
