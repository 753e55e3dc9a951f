"""Adaptive Gauss-Legendre integrator: exactness, endpoints, failure modes."""

import math

import numpy as np
import pytest
import scipy.integrate

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
    # sqrt(1 - x) bisects its last panel 30 times: the first level takes the
    # 4 initial panels and their halves (3 calls), every later level only
    # the halves of the one kept panel (2 calls), and no panel's nodes are
    # evaluated twice
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.sqrt(1.0 - x)

    assert integrate(f, 0, 1, tol=1e-9) == pytest.approx(2 / 3, abs=1e-9)
    assert [c.size // 12 for c in calls] == [4, 4, 4] + [2] * 58
    panels = [tuple(row) for c in calls for row in c.reshape(-1, 12)]
    assert len(set(panels)) == len(panels) == 128


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
