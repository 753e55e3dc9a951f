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

from bscbounds import core
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


_MP_DIGITS = 50


def _h2_mp(x):
    # 1 - x in 50 digits still rounds to 1 for x near 1e-300: log1p keeps it
    return (-x * mpmath.log(x) - (1 - x) * mpmath.log1p(-x)) / mpmath.log(2)


def _h2_inv_mp(y, x):
    # Newton in 50 digits from a double-precision preimage x
    y, x = mpmath.mpf(y), mpmath.mpf(x)
    for _ in range(8):
        x += (y - _h2_mp(x)) / mpmath.log((1 - x) / x, 2)
    return x


_ENTROPY_XS = np.concatenate([np.geomspace(1e-300, 0.5, 400),
                              np.linspace(0.002, 0.5, 250),
                              0.5 * np.random.default_rng(21).random(150)])
# 10^-11.625 is h2 of the degree at rate 2.37e-12 on the slice alpha = 1/2,
# where h2 with 1 - x rounded put both inverses 1e-5 off and the scalar and
# array caps 3.1e-12 apart
_ENTROPY_YS = np.concatenate([np.geomspace(1e-299, 0.99, 400),
                              np.linspace(0.002, 0.99, 250),
                              0.99 * np.random.default_rng(22).random(150),
                              [10.0 ** -11.625]])


def _condition(y, x):
    """Relative condition number y / (x h2'(x)) >= 1 of h2^{-1} at y = h2(x):
    the relative change of the preimage per relative change of y."""
    return y / (x * np.log2((1.0 - x) / x))


def test_entropy_against_mpmath():
    # both forms, within 4e-16 relative of 50-digit mpmath on [1e-300, 1/2]
    with mpmath.workdps(_MP_DIGITS):
        ref = np.array([float(_h2_mp(mpmath.mpf(float(x)))) for x in _ENTROPY_XS])
    scalar = np.array([binary_entropy(float(x)) for x in _ENTROPY_XS])
    for got in (scalar, _h2_arr(_ENTROPY_XS)):
        assert np.abs(got / ref - 1.0).max() <= 4e-16


def test_entropy_inverse_against_mpmath():
    # both forms, within 4e-16 relative of 50-digit mpmath, times the
    # inverse's condition number: 1 to 1.6 for y <= 1/2, 6.5 at y = 0.99,
    # where an ulp of h2 moves the preimage by several ulps
    scalar = np.array([binary_entropy_inv(float(y)) for y in _ENTROPY_YS])
    with mpmath.workdps(_MP_DIGITS):
        ref = np.array([float(_h2_inv_mp(float(y), float(x)))
                        for y, x in zip(_ENTROPY_YS, scalar)])
    bound = 4e-16 * _condition(_ENTROPY_YS, ref)
    assert bound[_ENTROPY_YS <= 0.5].max() <= 6.5e-16
    for got in (scalar, _h2_inv_arr(_ENTROPY_YS)):
        assert np.all(np.abs(got / ref - 1.0) <= bound)


def test_vectorised_entropy_inverse_matches_scalar_reference():
    # one formula and one Newton in two forms.  numpy's vectorised log2 and
    # log1p may differ from the math module's by an ulp (they do at a few
    # percent of arguments on AVX-512 builds), so h2 agrees within 2 ulp,
    # and the inverses within what those ulps move a preimage by
    for xs in (_ENTROPY_XS, np.linspace(0.0, 1.0, 1001)):
        scalar = np.array([binary_entropy(float(x)) for x in xs])
        assert np.all(np.abs(_h2_arr(xs) - scalar) <= 2 * np.spacing(scalar))
    ys = np.concatenate([_ENTROPY_YS, np.linspace(0.0, 1.0, 1001)])
    scalar = np.array([binary_entropy_inv(float(y)) for y in ys])
    got = _h2_inv_arr(ys)
    inner = (ys > 1e-300) & (ys < 1.0)
    assert np.all(got[~inner] == scalar[~inner])
    bound = 8e-16 * _condition(ys[inner], scalar[inner]) * scalar[inner]
    assert np.all(np.abs(got[inner] - scalar[inner]) <= bound)
    assert got[ys == 0.0][0] == 0.0 and got[ys == 1.0][0] == 0.5


def test_vectorised_entropy_inverse_residual_is_round_off():
    # near y = 1 the flat top of h2 makes the preimage ill-conditioned, so
    # two correct inverses may differ there by more than 1e-15; the residual
    # h2(x) - y cannot, at either end of the range; above the cut-off
    # y <= 1e-300 (which gives 0) both forms stay within 3 ulp of y up to
    # 1 - 1e-16
    ys = np.concatenate([np.geomspace(1e-300, 0.5, 300),
                         1.0 - np.geomspace(1e-16, 0.5, 300)])
    x = _h2_inv_arr(ys)
    assert np.all((0.0 <= x) & (x < 0.5))
    assert np.abs(_h2_arr(x) - ys).max() <= 4.5e-16
    ys = ys[1:]
    assert np.all(np.abs(_h2_arr(x[1:]) - ys) <= 3 * np.spacing(ys))
    for y in ys:
        x = binary_entropy_inv(float(y))
        assert 0.0 <= x < 0.5
        assert abs(binary_entropy(x) - y) <= 3 * np.spacing(y)


def test_kl_basics():
    assert kl_divergence(0.1, 0.1) == 0.0
    assert kl_divergence(0.0, 0.1) == pytest.approx(-math.log2(0.9), abs=1e-15)
    assert kl_divergence(1.0, 0.1) == pytest.approx(-math.log2(0.1), abs=1e-15)
    # hand value: 0.25 log2(2.5) + 0.75 log2(0.75/0.9)
    assert kl_divergence(0.25, 0.1) == pytest.approx(
        0.25 * math.log2(2.5) + 0.75 * math.log2(0.75 / 0.9), abs=1e-15)
    with pytest.raises(DomainError):
        kl_divergence(0.5, 0.0)


def _kl_mp(x, y):
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    total = mpmath.mpf(0)
    if x > 0:
        total += x * mpmath.log(x / y)
    if x < 1:
        total += (1 - x) * mpmath.log((1 - x) / (1 - y))
    return total / mpmath.log(2)


def test_kl_against_mpmath():
    # within 1e-14 relative of 50-digit mpmath at the same double x: E_sp
    # one step below capacity (x a hair above p), a seeded grid with x
    # within 1e-12 to 1 relative of y, and a uniform grid with the ends
    rng = np.random.default_rng(23)
    pairs = [(binary_entropy_inv(1.0 - (capacity(ChannelParam(p)) - 0.001)), p)
             for p in (0.05, 0.1, 0.15)]
    ys = rng.uniform(1e-3, 0.999, 600)
    xs = ys * (1.0 + rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(-12, 0, 600))
    pairs += [(x, y) for x, y in zip(xs, ys) if 0.0 <= x <= 1.0]
    pairs += list(zip(rng.random(300), rng.uniform(1e-6, 1.0 - 1e-6, 300)))
    pairs += [(0.0, 0.3), (1.0, 0.3), (0.0, 1e-9), (1.0, 1.0 - 1e-9)]
    with mpmath.workdps(_MP_DIGITS):
        for x, y in pairs:
            ref = _kl_mp(float(x), float(y))
            assert abs(kl_divergence(float(x), float(y)) - ref) <= 1e-14 * ref, (x, y)


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


# (alpha, tau) on and near the domain's edges: tau = 0, tau = alpha, alpha = 1/2,
# tau near the smallest floats, and both within _TOL past their bounds
_CAP_GRID = [(alpha, tau)
             for alpha in (1e-300, 1e-3, 0.1, 0.25, 1 / 3, 0.4999, 0.5, 0.5 + 5e-13)
             for tau in (0.0, 5e-324, 1e-300, 1e-17, 1e-3 * alpha, 0.3 * alpha,
                         0.75 * alpha, alpha - 1e-13, alpha, alpha + 5e-13)
             if 0.0 <= tau <= alpha + core._TOL]


def test_omega_cap_scalar_form_is_bit_equal_to_array_form():
    alphas, taus = map(np.array, zip(*_CAP_GRID))
    batch = omega_cap(alphas, taus)
    for (alpha, tau), vec in zip(_CAP_GRID, batch):
        scalar = omega_cap(alpha, tau)
        assert type(scalar) is float
        assert scalar.hex() == float(vec).hex() == omega_cap(np.array(alpha), np.array(tau)).hex()


@pytest.mark.parametrize("alpha, tau", [
    (0.3, 0.3 + 2 * core._TOL), (0.5 + 2 * core._TOL, 0.1), (0.3, -1e-300),
    (math.nan, 0.1), (0.3, math.nan), (math.nan, math.nan)])
def test_omega_cap_both_forms_refuse_outside_domain(alpha, tau):
    with pytest.raises(DomainError):
        omega_cap(alpha, tau)
    with pytest.raises(DomainError):
        omega_cap(np.array([0.25, alpha]), np.array([0.1, tau]))


# --- solved constants ---------------------------------------------------


def test_universal_constants_pinned_bit_for_bit():
    # the roots every reported number was computed with; the mpmath
    # re-derivations below bound their distance from the true roots
    tau0, r0 = solve_tau0()
    assert tau0.hex() == "0x1.be85611fdfe1fp-5"
    assert r0 == binary_entropy(tau0)
    assert solve_p1().hex() == "0x1.002a5d248bea1p-7"


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


def _mp_gap_closed_form(lam, s, p, omega1):
    """The cleaning gap for s above omega1, in closed form at 50 digits.

    Above omega1 the radius is t = omega/2 + (1 - omega) p, so with both
    distances there g(lam, s) = (1 - lam)[h2(1/2 - (1-2p)(1-s)/(2(1-lam)))
    - h2(p)] - (1/2 - p)(s - lam) log2(q/p).  A pair straddling omega1 takes
    the same form from omega1 to s, plus the convex form at (lam, omega1).
    """
    with mpmath.workdps(_MP_DIGITS):
        lam, s, p, o1 = (mpmath.mpf(v) for v in (lam, s, p, omega1))
        ratio = mpmath.log((1 - p) / p, 2)

        def upper(w):
            return (1 - lam) * _h2_mp(0.5 - (1 - 2 * p) * (1 - w) / (2 * (1 - lam)))

        if lam >= o1:
            return upper(s) - (1 - lam) * _h2_mp(p) - (0.5 - p) * (s - lam) * ratio
        r1, rl = mpmath.sqrt(1 - 2 * o1), mpmath.sqrt(1 - 2 * lam)
        convex = ((1 - lam) * (_h2_mp(0.5 - r1 / (2 * (1 - o1)))
                               - _h2_mp(0.5 - rl / (2 * (1 - lam))))
                  + 0.5 * (r1 - rl) * ratio)
        return upper(s) - upper(o1) - (0.5 - p) * (s - o1) * ratio + convex


def test_cleaning_gap_above_omega1_against_high_precision():
    # above omega1 and across it the gap is composed from the generic form;
    # the closed forms it replaces, at 50 digits, pin it to rounding
    for p in (0.02, 0.1, 0.2):
        ch = ChannelParam(p)
        o1 = channel_constants(ch).omega1
        top = 0.5 - o1
        pairs = [(o1 + 0.2 * top, o1 + 0.7 * top), (o1 + 0.5 * top, 0.5),
                 (0.3 * o1, o1 + 0.4 * top), (0.9 * o1, 0.5)]
        for lam, s in pairs:
            ref = _mp_gap_closed_form(lam, s, p, o1)
            assert abs(cleaning_gap(lam, s, ch) - float(ref)) <= 1e-14, (p, lam, s)


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
