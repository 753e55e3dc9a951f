"""Distance-spectrum exponent mu(R, alpha, omega).

The closed form on the symmetric slice, the adaptive-quadrature route and
the cached panel evaluator (MuSlice) are three independent computations of
the same surface; the tests play them against each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bscbounds.core import (DomainError, binary_entropy, binary_entropy_inv,
                            omega_cap)
from bscbounds.spectrum import (
    MuSlice,
    SpectrumPoint,
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
    assert spectrum_exponent_at(0.469, 0.5, 0.15) == pytest.approx(
        0.12338047764416393, abs=1e-11)
    assert spectrum_exponent_at(0.3, 0.3, 0.2) == pytest.approx(
        0.08762964230320264, abs=1e-11)


def test_half_closed_form_vs_quadrature():
    for rate in (0.2, 0.469, 0.7):
        cap = MuSlice(rate, 0.5).cap
        for frac in (0.25, 0.6, 0.9):
            omega = frac * cap
            closed = spectrum_exponent_half(rate, omega)
            quad = spectrum_exponent(SpectrumPoint.make(rate, 0.5, omega))
            assert closed == pytest.approx(quad, abs=2e-9)
        # at the cap the radical vanishes; both routes still agree
        assert spectrum_exponent_half(rate, cap) == pytest.approx(
            spectrum_exponent(SpectrumPoint.make(rate, 0.5, cap)), abs=1e-8)


@settings(max_examples=300, deadline=None)
@given(st.floats(-12.0, 0.0), st.floats(0.0, 1.0))
def test_half_closed_form_stable_at_small_rates(log10_rate, frac):
    # as tau -> 0 (and tau -> 1/2, omega -> the cap) the closed form must
    # neither go negative nor drift from the panel route; 1e-14 allows one
    # ulp of its ~20-bit log terms.  The routes take tau from different h2
    # inverses, whose caps differ by ~3e-12 at rates near 1e-12, so omega
    # ranges over the cap both admit.
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
                abs=3e-9)


def test_mu_slice_matches_closed_form_on_symmetric_slice():
    sl = MuSlice(0.469, 0.5)
    for frac in (0.1, 0.45, 0.75, 1.0):
        omega = frac * sl.cap
        assert sl.mu(omega) == pytest.approx(
            spectrum_exponent_half(0.469, omega), abs=3e-9)


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
                assert value == pytest.approx(ref, abs=1e-9)


def test_batched_slice_vs_closed_form_on_symmetric_slice():
    for rate in (0.05, 0.2, 0.469, 0.7, 0.9):
        sl = MuSlice(rate, np.array([_alpha_batch(rate, 0.5), 0.5]))
        for frac in (0.1, 0.3, 0.5, 0.8, 1.0):
            value = sl.mu(frac * sl.cap)[1]
            assert value == pytest.approx(
                spectrum_exponent_half(rate, frac * sl.cap[1]), abs=1e-9)


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
