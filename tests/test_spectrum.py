"""Distance-spectrum exponent mu(R, alpha, omega).

The closed form on the symmetric slice, the adaptive-quadrature route and
the fixed-mesh panel evaluator (MuSlice) are three independent computations of
the same surface; the tests play them against each other, and MuSlice
against 30-digit mpmath.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bscbounds.core import (DomainError, binary_entropy, binary_entropy_inv,
                            omega_cap)
from bscbounds import spectrum
from bscbounds.spectrum import (
    MuSlice,
    SpectrumPoint,
    _S_BOUNDS,
    _s_rule,
    log_kernel,
    spectrum_exponent,
    spectrum_exponent_at,
    spectrum_exponent_half,
)


def test_point_tau_literal():
    pt = SpectrumPoint.make(0.3, 0.3, 0.2)
    assert pt.tau == pytest.approx(0.0274214388, abs=1e-9)
    # tau is defined through h2(alpha) - 1 + rate
    assert binary_entropy(pt.tau) == pytest.approx(
        binary_entropy(0.3) - 1.0 + 0.3, abs=1e-11)


def test_point_full_rate_pins_tau_to_alpha():
    # at rate 1 the induced tau equals alpha, so the weight band is empty
    pt = SpectrumPoint.make(1.0, 0.3, 0.0)
    assert pt.tau == pytest.approx(0.3, abs=1e-11)
    assert omega_cap(pt.alpha, pt.tau) == pytest.approx(0.0, abs=1e-11)


def test_point_domain_errors():
    with pytest.raises(DomainError):
        SpectrumPoint.make(0.3, 0.05, 0.0)      # slice too light for the rate
    with pytest.raises(DomainError):
        SpectrumPoint.make(0.3, 0.3, 0.35)      # distance beyond the cap
    with pytest.raises(DomainError):
        SpectrumPoint.make(-0.1, 0.3, 0.1)
    with pytest.raises(DomainError):
        SpectrumPoint.make(0.3, 0.0, 0.0)


def test_log_kernel_discriminant_guard():
    # u past G/2 turns the discriminant negative beyond the clamp window
    with pytest.raises(DomainError):
        log_kernel(np.array([0.15]), 0.5, 0.1)


def test_mu_zero_at_zero_distance():
    assert spectrum_exponent_half(0.469, 0.0) == 0.0
    assert spectrum_exponent(SpectrumPoint.make(0.3, 0.3, 0.0)) == 0.0
    assert MuSlice(0.5, 0.4).mu(0.0) == 0.0


def test_half_zero_rate_degenerates():
    assert spectrum_exponent_half(0.0, 0.3) == 0.0


def test_mu_literals():
    # 30-digit mpmath values, tau and the cap solved in mpmath as well
    assert spectrum_exponent_at(0.469, 0.5, 0.15) == pytest.approx(
        0.12338047764416426, abs=1e-15)
    assert spectrum_exponent_at(0.3, 0.3, 0.2) == pytest.approx(
        0.08762964241840682, abs=1e-15)


def test_half_closed_form_vs_quadrature():
    for rate in (0.2, 0.469, 0.7):
        cap = MuSlice(rate, 0.5).cap
        for frac in (0.25, 0.6, 0.9):
            omega = frac * cap
            closed = spectrum_exponent_half(rate, omega)
            quad = spectrum_exponent(SpectrumPoint.make(rate, 0.5, omega))
            assert closed == pytest.approx(quad, abs=1e-11)
        # at the cap the radical vanishes; both routes still agree
        assert spectrum_exponent_half(rate, cap) == pytest.approx(
            spectrum_exponent(SpectrumPoint.make(rate, 0.5, cap)), abs=1e-11)


@settings(max_examples=300, deadline=None)
@given(st.floats(-12.0, 0.0), st.floats(0.0, 1.0))
def test_half_closed_form_stable_at_small_rates(log10_rate, frac):
    # as tau -> 0 (and tau -> 1/2, omega -> the cap) the closed form must
    # neither go negative nor drift from the panel route; 1e-14 allows one
    # ulp of its ~20-bit log terms.  The routes take tau from the scalar and
    # the array form of the h2 inverse, whose caps may differ by ulps, so
    # omega ranges over the cap both admit.
    rate = 10.0 ** log10_rate
    sl = MuSlice(rate, 0.5)
    omega = frac * min(sl.cap, SpectrumPoint.make(rate, 0.5, 0.0).cap)
    closed = spectrum_exponent_half(rate, omega)
    assert closed >= -1e-14
    assert closed == pytest.approx(sl.mu(omega), abs=1e-12)


def test_mu_slice_vs_adaptive():
    for rate, alpha in ((0.3, 0.3), (0.3, 0.42), (0.5, 0.3), (0.5, 0.42)):
        sl = MuSlice(rate, alpha)
        for frac in (0.2, 0.5, 0.8, 0.97):
            omega = frac * sl.cap
            assert sl.mu(omega) == pytest.approx(
                spectrum_exponent(SpectrumPoint.make(rate, alpha, omega)),
                abs=1e-11)


def test_mu_slice_matches_closed_form_on_symmetric_slice():
    sl = MuSlice(0.469, 0.5)
    for frac in (0.1, 0.45, 0.75, 1.0):
        omega = frac * sl.cap
        assert sl.mu(omega) == pytest.approx(
            spectrum_exponent_half(0.469, omega), abs=1e-11)


def _alpha_batch(rate, fracs):
    a0 = binary_entropy_inv(1.0 - rate)
    return a0 + (0.5 - a0) * np.asarray(fracs)


def test_batched_slice_vs_adaptive():
    # the batched evaluator against the untouched adaptive-quadrature route
    for rate in (0.2, 0.469, 0.7):
        alphas = _alpha_batch(rate, (0.05, 0.3, 0.55, 0.8, 0.97))
        sl = MuSlice(rate, alphas)
        for frac in (0.1, 0.3, 0.5, 0.8, 0.97):
            omegas = frac * sl.cap
            got = sl.mu(omegas)
            for alpha, omega, value in zip(alphas, omegas, got):
                ref = spectrum_exponent(
                    SpectrumPoint.make(rate, float(alpha), float(omega)))
                assert value == pytest.approx(ref, abs=1e-11)


def test_batched_slice_vs_closed_form_on_symmetric_slice():
    for rate in (0.05, 0.2, 0.469, 0.7, 0.9):
        sl = MuSlice(rate, np.array([_alpha_batch(rate, 0.5), 0.5]))
        for frac in (0.1, 0.3, 0.5, 0.8, 1.0):
            value = sl.mu(frac * sl.cap)[1]
            assert value == pytest.approx(
                spectrum_exponent_half(rate, frac * sl.cap[1]), abs=1e-11)


def test_batched_slice_equals_scalar_slices():
    # 20 slices span three panel blocks; each row must be its scalar slice
    rate = 0.3
    alphas = _alpha_batch(rate, np.linspace(0.0, 1.0, 20))
    sl = MuSlice(rate, alphas)
    omegas = np.linspace(0.0, 1.0, 20) * sl.cap
    got = sl.mu(omegas)
    for k, alpha in enumerate(alphas):
        one = MuSlice(rate, float(alpha))
        assert sl.cap[k] == pytest.approx(one.cap, abs=1e-15)
        assert sl.tau[k] == pytest.approx(one.tau, abs=1e-15)
        assert got[k] == pytest.approx(one.mu(float(omegas[k])), abs=1e-15)
    with pytest.raises(DomainError):
        sl.mu(sl.cap + 1e-6)


def test_slice_rate_per_row_equals_one_rate_slices():
    # a rate per slice: each rate's rows are bit-for-bit its own batch,
    # whatever rate shares the batch and in whatever order; a BLAS sum of
    # the Gauss rules would round a row by its place in the call, which
    # showed on about one draw in 25
    rng = np.random.default_rng(7)
    for _ in range(60):
        batches = {float(r): _alpha_batch(r, np.linspace(0.0, 1.0, n))
                   for r, n in zip(rng.uniform(0.01, 0.95, 2),
                                   rng.integers(1, 9, 2))}
        fracs = rng.uniform(0.0, 1.0, sum(a.size for a in batches.values()))
        for order in (list(batches), list(batches)[::-1]):
            rate = np.repeat(order, [batches[r].size for r in order])
            sl = MuSlice(rate, np.concatenate([batches[r] for r in order]))
            omegas = fracs * sl.cap
            got, start = sl.mu(omegas), 0
            for r in order:
                one = MuSlice(r, batches[r])
                rows = slice(start, start + one.cap.size)
                start = rows.stop
                assert np.array_equal(sl.tau[rows], one.tau)
                assert np.array_equal(sl.cap[rows], one.cap)
                assert np.array_equal(got[rows], one.mu(omegas[rows]))
    with pytest.raises(DomainError, match="rate must lie"):
        MuSlice(np.array([0.3, 1.5]), np.array([0.4, 0.45]))
    with pytest.raises(DomainError, match="too light"):
        MuSlice(np.array([0.9, 0.1]), np.array([0.4, 0.2]))


def test_interleaved_rates_equal_one_rate_slices():
    # rates alternating slice by slice: each slice has the bits of its
    # one-rate slice, though its place in the batch differs
    rng = np.random.default_rng(11)
    for _ in range(30):
        r1, r2 = rng.uniform(0.01, 0.95, 2)
        size = int(rng.integers(2, 9))
        a1 = _alpha_batch(r1, rng.uniform(0.0, 1.0, size))
        a2 = _alpha_batch(r2, rng.uniform(0.0, 1.0, size))
        sl = MuSlice(np.tile([r1, r2], size), np.column_stack([a1, a2]).ravel())
        omegas = rng.uniform(0.0, 1.0, 2 * size) * sl.cap
        got = sl.mu(omegas)
        for col, (r, a) in enumerate(((r1, a1), (r2, a2))):
            one = MuSlice(r, a)
            assert np.array_equal(sl.cap[col::2], one.cap)
            assert np.array_equal(got[col::2], one.mu(omegas[col::2]))


def _eager_integral(sl, x):
    """Integrals of the kernel and of its alpha- and tau-derivatives over
    [0, x] from every panel of every slice, built in full up front,
    whatever x: MuSlice integrates only the panels below each read."""
    h = np.maximum(0.5 * sl.cap, 0.0)
    cum = np.zeros((h.size, _S_BOUNDS.size, 3))
    live = h > 0.0
    cum[live, 1:] = np.cumsum(_s_rule(
        _S_BOUNDS[1:], _S_BOUNDS[:-1], h[live, None], sl.alpha[live, None],
        sl.tau[live, None]), axis=1)
    ratio = np.divide(x, h, out=np.zeros_like(x), where=h > 0.0)
    s_x = np.sqrt(np.clip(1.0 - ratio, 0.0, 1.0))
    k = (_S_BOUNDS >= s_x[:, None]).sum(axis=1) - 1
    out = cum[np.arange(k.size), k]
    part = s_x < _S_BOUNDS[k]
    out[part] += _s_rule(s_x[part], _S_BOUNDS[k][part], h[part],
                         sl.alpha[part], sl.tau[part])
    return out


def _seeded_slices(rng, size):
    rate = rng.uniform(1e-6, 0.999, size)
    alpha = np.array([_alpha_batch(r, rng.uniform(0.0, 1.0)) for r in rate])
    alpha[rng.uniform(size=size) < 0.1] = 0.5
    return rate, alpha


def _reads(rng, cap):
    """x = omega/2 per slice: at the cap, inside a panel, on a panel bound
    (s on the mesh, s = 1 included) or at 0."""
    kind = rng.integers(0, 4, cap.size)
    s = _S_BOUNDS[rng.integers(0, _S_BOUNDS.size, cap.size)]
    omega = np.select([kind == 0, kind == 1, kind == 2],
                      [cap, cap * rng.uniform(0.0, 1.0, cap.size),
                       cap * (1.0 - s * s)], 0.0)
    return 0.5 * omega


def test_integral_equals_eager_build():
    # reads in any order, repeated or deeper, give the bits of a slice
    # whose panels were all integrated at construction
    rng = np.random.default_rng(29)
    for _ in range(40):
        rate, alpha = _seeded_slices(rng, int(rng.integers(1, 300)))
        sl = MuSlice(rate, alpha)
        for _ in range(3):
            x = _reads(rng, sl.cap)
            assert np.array_equal(sl._integral(x), _eager_integral(sl, x))


def test_each_read_integrates_the_panels_below_it(monkeypatch):
    # count the (slice, panel) rows the whole-panel Gauss rules receive:
    # construction and a read at 0 integrate none, every read (a repeated
    # one too) integrates each whole panel below its x once, and a read at
    # the cap all 9 panels of each slice
    calls = []

    def counting(lo, hi, half_cap, alpha, tau):
        whole = np.isin(lo, _S_BOUNDS)      # a partial panel starts inside one
        panel = np.searchsorted(-_S_BOUNDS, -hi[whole])
        calls.extend(zip(alpha[whole].tolist(), panel.tolist()))
        return _s_rule(lo, hi, half_cap, alpha, tau)

    def panels_below(k):
        return sorted((a, j) for a, top in zip(alpha.tolist(), k.tolist())
                      for j in range(top))

    monkeypatch.setattr(spectrum, "_s_rule", counting)
    rng = np.random.default_rng(31)
    # one rate, distinct alphas: a slice is named by its alpha
    alpha = np.unique(np.append(_alpha_batch(0.3, rng.uniform(0.0, 1.0, 200)), 0.5))
    sl = MuSlice(0.3, alpha)
    assert not calls
    sl.mu(np.zeros(alpha.size))
    assert not calls
    for _ in range(4):
        x = _reads(rng, sl.cap)
        s_x = np.sqrt(np.clip(1.0 - x / (0.5 * sl.cap), 0.0, 1.0))
        k = (_S_BOUNDS >= s_x[:, None]).sum(axis=1) - 1
        for _ in range(2):
            calls.clear()
            sl._integral(x)
            assert len(calls) == k.sum()
            assert sorted(calls) == panels_below(k)
    calls.clear()
    sl.mu(sl.cap)
    assert sorted(calls) == panels_below(np.full(alpha.size, _S_BOUNDS.size - 1))


def _kernel_integral_mp(alpha, tau, half_cap, x):
    """30-digit integral of the kernel over [0, x], taken in s as MuSlice
    takes it (u = half_cap (1 - s^2)), with breakpoints at the decades above
    s_x so the rule resolves the near-kink that the discriminant's second
    root leaves near s = 0 as tau -> 0."""
    with mpmath.workdps(30):
        a, t, h = mpmath.mpf(alpha), mpmath.mpf(tau), mpmath.mpf(half_cap)
        base, c2 = a * (1 - a) - t * (1 - t), 4 * t * (1 - t)

        def f(s):
            u = h * (1 - s * s)
            disc = (base - u) ** 2 - c2 * u * u
            return mpmath.log(base - u + 2 * u * u + mpmath.sqrt(max(disc, 0)), 2) * 2 * h * s

        s_x = mpmath.sqrt(max(1 - mpmath.mpf(x) / h, 0))
        decades = [mpmath.mpf(10) ** -k for k in range(16, 0, -1)]
        return mpmath.quad(f, [s_x] + [d for d in decades if d > s_x] + [1])


def test_mu_slice_integral_against_mpmath():
    # a seeded grid of 40 slices: rates from 1e-12 to 1 - 1e-6, alpha at 1/2,
    # within 1e-8 of it or anywhere on the slice range, and x at the cap,
    # 1e-9 and 1e-4 (relative) below it, or inside; a uniform 8-panel s-mesh
    # misses by 5.5e-13 at rate 8.5e-11, alpha = 1/2, x at the cap
    rng = np.random.default_rng(17)
    rates = [1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.9, 0.999, 1.0 - 1e-6]
    rates += list(10.0 ** rng.uniform(-12.0, 0.0, 2))
    rate, alpha, drop = [], [], []
    for r in rates:
        a0 = binary_entropy_inv(1.0 - r)
        for d in (0.0, 1e-9, 1e-4, rng.uniform(0.05, 0.95)):
            a = (0.5, 0.5 - 1e-8 * rng.uniform(0.1, 1.0),
                 0.5 - (0.5 - a0) * rng.uniform(0.0, 1.0))[len(rate) % 3]
            rate.append(r)
            alpha.append(max(a, a0 + 1e-15))
            drop.append(d)
    sl = MuSlice(np.array(rate), np.array(alpha))
    half_cap = 0.5 * sl.cap
    x = half_cap * (1.0 - np.array(drop))
    got = sl._integral(x)[:, 0]
    for k in range(x.size):
        ref = _kernel_integral_mp(alpha[k], sl.tau[k], half_cap[k], x[k])
        assert abs(mpmath.mpf(got[k]) - ref) < 1e-15, (rate[k], alpha[k], drop[k])


def _mu_mp(alpha, tau, cap, omega):
    """30-digit mu on the slice, from the kernel integral above."""
    with mpmath.workdps(30):
        a, w = mpmath.mpf(alpha), mpmath.mpf(omega)

        def h2(p):
            return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)

        return (-h2(a) - 2 * (1 - w) * mpmath.log(1 - w, 2) - 2 * w / mpmath.log(2)
                + (1 - w) * h2((a - w / 2) / (1 - w))
                - 2 * _kernel_integral_mp(alpha, tau, 0.5 * cap, 0.5 * omega))


def test_mu_finite_at_the_ends_of_the_s_range():
    # omega = cap is s = 0 and omega -> 0 is s = 1; both stay finite (the
    # RuntimeWarning filter turns a NaN from sqrt into an error).  The
    # adaptive route is checked at the cap in test_adaptive_route_against_mpmath
    for rate, alpha in ((0.3, 0.3), (0.469, 0.5), (0.05, 0.45), (0.9, 0.49)):
        sl = MuSlice(rate, alpha)
        for omega in (sl.cap, sl.cap * (1.0 - 2.0 ** -52), 1e-300):
            value = sl.mu(omega)
            assert np.isfinite(value)
            assert abs(mpmath.mpf(value) - _mu_mp(alpha, sl.tau, sl.cap, omega)) < 1e-15
        assert sl.mu(1e-300) == pytest.approx(
            spectrum_exponent(SpectrumPoint.make(rate, alpha, 1e-300)), abs=1e-11)


def test_adaptive_route_against_mpmath():
    # the quadrature route integrates up to omega/2 itself, cap included:
    # within 1e-13 of 30-digit mpmath on a seeded grid of rates down to
    # 1e-12, alpha at 1/2 or inside the slice range, omega at or below the cap
    rng = np.random.default_rng(23)
    for rate in (1e-12, 1e-6, 0.05, 0.3, 0.469, 0.9):
        a0 = binary_entropy_inv(1.0 - rate)
        for alpha in (0.5, a0 + (0.5 - a0) * rng.uniform(0.2, 0.9)):
            pt = SpectrumPoint.make(rate, alpha, 0.0)
            for omega in (pt.cap, pt.cap * rng.uniform(0.1, 0.9)):
                got = spectrum_exponent(SpectrumPoint.make(rate, alpha, omega))
                ref = _mu_mp(alpha, pt.tau, pt.cap, omega)
                assert abs(mpmath.mpf(got) - ref) < 1e-13, (rate, alpha, omega)


def test_mu_slice_domain():
    sl = MuSlice(0.5, 0.4)
    with pytest.raises(DomainError):
        sl.mu(sl.cap + 1e-6)
    with pytest.raises(DomainError):
        sl.mu(-1e-6)


def spectrum_exponent_curve(rate, alpha, samples):
    """Uniform sampling of omega -> mu over [0, G(alpha, tau)], one scalar
    MuSlice.mu call per sample: (samples, 2) rows of (omega, mu); a single
    sample degenerates to the origin."""
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples!r}")
    if samples == 1:
        SpectrumPoint.make(rate, alpha, 0.0)
        return np.array([[0.0, 0.0]])
    sl = MuSlice(rate, alpha)
    omegas = np.linspace(0.0, sl.cap, samples)
    values = [sl.mu(float(w)) for w in omegas]
    return np.column_stack([omegas, values])


def test_curve_shape_and_convexity():
    cv = spectrum_exponent_curve(0.469, 0.5, 41)
    assert cv.shape == (41, 2)
    assert cv[0, 0] == 0.0 and cv[0, 1] == 0.0
    assert cv[-1, 0] == pytest.approx(0.1999981466, abs=1e-9)
    # mu is convex in omega along the slice
    assert np.diff(cv[:, 1], 2).min() > -1e-9
    # grid is uniform
    assert np.ptp(np.diff(cv[:, 0])) < 1e-12


def test_curve_degenerate_sampling():
    assert np.array_equal(spectrum_exponent_curve(0.3, 0.3, 1),
                          np.array([[0.0, 0.0]]))
    with pytest.raises(DomainError):
        spectrum_exponent_curve(0.3, 0.3, 0)


def test_half_domain_errors():
    with pytest.raises(DomainError):
        spectrum_exponent_half(1.2, 0.1)
    with pytest.raises(DomainError):
        spectrum_exponent_half(0.469, 0.21)    # beyond the cap
