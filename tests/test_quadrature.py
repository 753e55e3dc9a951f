"""Adaptive Gauss-Legendre integrator: exactness, endpoints, failure modes."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from bscbounds import quadrature
from bscbounds.quadrature import QuadratureError, integrate


def test_gauss_rule_literals_are_leggauss_bits():
    # the stored rule is numpy's leggauss(12) bit for bit, mirrored halves
    # included, so both integrators keep their values without importing
    # numpy.polynomial
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert quadrature._GL_NODES.tobytes() == nodes.tobytes()
    assert quadrature._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_each_panel_is_estimated_once():
    # sqrt(1 - x) bisects its last panel 30 times: the integrand is called
    # once per level, on the 4 initial panels and their halves first, then
    # on the halves of the one kept panel only, and no panel's nodes are
    # evaluated twice
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.sqrt(1.0 - x)

    assert integrate(f, 0, 1, tol=1e-9) == pytest.approx(2 / 3, abs=1e-9)
    assert [c.size // 12 for c in calls] == [12] + [4] * 29
    panels = [tuple(row) for c in calls for row in c.reshape(-1, 12)]
    assert len(set(panels)) == len(panels) == 128


def reference_integrate(f, a, b, *, tol=1e-9, refine_end=False):
    """The integrator with one integrand call per panel list: the coarse
    panels, their left and their right halves on the first level, the
    halves alone on every later one.  The reference ``integrate`` must
    equal exactly, errors included."""
    def estimates(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * quadrature._GL_NODES[None, :]
        y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        return half * (y @ quadrature._GL_WEIGHTS)

    if b <= a:
        return 0.0
    width = b - a
    if refine_end:
        edges = sorted(set([a, b] + [b - width * 0.5 ** k for k in range(32, -1, -1)]))
    else:
        edges = list(np.linspace(a, b, 5))
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    depth = np.zeros(lo.size, dtype=int)
    total = 0.0
    panels_seen = lo.size
    coarse = estimates(lo, hi)
    while lo.size:
        mid = 0.5 * (lo + hi)
        left = estimates(lo, mid)
        right = estimates(mid, hi)
        fine = left + right
        err = np.abs(fine - coarse)
        done = err <= tol * (hi - lo) / width
        total += float(fine[done].sum())
        keep = ~done
        if not keep.any():
            break
        if (depth[keep] >= quadrature._MAX_DEPTH).any():
            raise QuadratureError(
                f"refinement depth {quadrature._MAX_DEPTH} exceeded; "
                f"residual error estimate {float(err[keep].max()):.3e}")
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
        panels_seen += lo.size
        if panels_seen > quadrature._MAX_PANELS:
            raise QuadratureError(f"panel budget {quadrature._MAX_PANELS} exceeded")
    return total


def outcome(integrator, f, a, b, tol, refine_end, max_panels):
    """The integral, or the message of the QuadratureError raised, with the
    panel budget set to ``max_panels``."""
    with mock.patch.object(quadrature, "_MAX_PANELS", max_panels):
        try:
            return integrator(f, a, b, tol=tol, refine_end=refine_end)
        except QuadratureError as err:
            return str(err)


# integrand families, each drawn with two parameters c in [-1, 1], d in [0, 60]
FAMILIES = {
    "sqrt_branch": lambda c, d: lambda x: np.sqrt(np.maximum(c - x, 0.0)),
    "inverse_sqrt": lambda c, d: lambda x: 1.0 / np.sqrt(np.maximum(np.abs(x - c), 1e-300)),
    "oscillating": lambda c, d: lambda x: np.exp(c * x) * np.cos(d * x),
    "log_peak": lambda c, d: lambda x: np.log2(1.0 + d * np.exp(-d * (x - c) ** 2)),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(-1.0, 1.0), st.floats(0.0, 60.0),
       st.floats(-1.0, 1.0), st.floats(1e-6, 2.0), st.sampled_from((1e-6, 1e-9, 1e-12)),
       st.booleans(), st.sampled_from((64, 4096, quadrature._MAX_PANELS)))
@example("sqrt_branch", 1.0, 0.0, 0.0, 1.0, 1e-9, False, quadrature._MAX_PANELS)
@example("sqrt_branch", 1.0, 0.0, 0.0, 1.0, 1e-9, True, quadrature._MAX_PANELS)
def test_one_call_per_level_equals_three_call_reference(
        family, c, d, a, width, tol, refine_end, max_panels):
    f = FAMILIES[family](c, d)
    got = outcome(integrate, f, a, a + width, tol, refine_end, max_panels)
    assert got == outcome(reference_integrate, f, a, a + width, tol, refine_end, max_panels)


@pytest.mark.parametrize("family, c, d, a, b, tol, max_panels, message", [
    ("inverse_sqrt", 0.0, 0.0, 0.0, 1.0, 1e-9, quadrature._MAX_PANELS, "refinement depth 60"),
    ("oscillating", 0.0, 60.0, 0.0, 10.0, 1e-13, 64, "panel budget 64"),
])
@pytest.mark.parametrize("refine_end", [False, True])
def test_errors_raise_as_in_reference(family, c, d, a, b, tol, max_panels, message,
                                      refine_end):
    f = FAMILIES[family](c, d)
    got = outcome(integrate, f, a, b, tol, refine_end, max_panels)
    assert got.startswith(message)
    assert got == outcome(reference_integrate, f, a, b, tol, refine_end, max_panels)


def test_polynomial_exact_in_one_pass():
    # 12-point panels integrate degree <= 23 exactly up to rounding
    assert integrate(lambda x: 3 * x**2 + 2 * x + 1, 0, 1) == pytest.approx(
        3.0, abs=1e-14)
    assert integrate(lambda x: x**11, 0, 1) == pytest.approx(1 / 12, abs=1e-14)
    assert integrate(lambda x: x**23, -1, 1) == pytest.approx(0.0, abs=1e-14)


def test_smooth_known_integrals():
    assert integrate(np.sin, 0, math.pi, tol=1e-12) == pytest.approx(
        2.0, abs=1e-11)
    assert integrate(np.exp, 0, 1, tol=1e-12) == pytest.approx(
        math.e - 1.0, abs=1e-11)
    assert integrate(lambda x: 1 / (1 + x**2), 0, 1) == pytest.approx(
        math.pi / 4, abs=1e-9)


def test_against_scipy_quad():
    def f(x):
        return np.exp(-50 * (x - 0.3) ** 2) * np.cos(7 * x)

    ref, _ = scipy.integrate.quad(f, 0.0, 1.0, epsabs=1e-12)
    assert integrate(f, 0, 1, tol=1e-10) == pytest.approx(ref, abs=1e-9)


def test_sqrt_branch_at_right_endpoint():
    for refine in (False, True):
        got = integrate(lambda x: np.sqrt(1.0 - x), 0, 1,
                        tol=1e-9, refine_end=refine)
        assert got == pytest.approx(2 / 3, abs=1e-9)


def test_log_singularity_near_tolerance():
    # integrable log endpoint: converges close to (not exactly at) tol
    got = integrate(lambda x: np.log1p(-np.minimum(x, np.nextafter(1.0, 0.0))), 0, 1,
                    tol=1e-9, refine_end=True)
    assert got == pytest.approx(-1.0, abs=1e-7)


def test_empty_and_reversed_interval():
    assert integrate(np.exp, 1.0, 1.0) == 0.0
    assert integrate(np.exp, 2.0, 1.0) == 0.0


def test_depth_exhaustion_raises():
    # 1/sqrt(x): panel error ~ sqrt(width) always beats the proportional budget
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 0, 1)


def test_panel_budget_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    with pytest.raises(QuadratureError, match="panel budget 64"):
        integrate(lambda x: np.sin(200 * x), 0, 10, tol=1e-13)


def test_deterministic():
    def f(x):
        return np.sqrt(np.abs(x - 0.37)) * np.exp(x)

    a = integrate(f, 0, 1, tol=1e-10)
    b = integrate(f, 0, 1, tol=1e-10)
    assert a == b
