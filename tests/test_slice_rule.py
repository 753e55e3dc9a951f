"""One slice rule behind every route to mu.

The spectrum bound ranges over one admissible region: 0 <= R <= 1,
0 < alpha <= 1/2, h2(alpha) >= 1 - R and 0 <= omega <= G(alpha, tau).
``SpectrumPoint.make`` states it for scalars and ``MuSlice`` for arrays.
Every route must admit the points they admit and refuse the others, for
the same reason.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bscbounds.core import (ChannelParam, DomainError, binary_entropy,
                            binary_entropy_inv, omega_cap)
from bscbounds.optimizer import F1_maximize, W_value
from bscbounds.spectrum import (MuSlice, SpectrumPoint, spectrum_exponent_at,
                                spectrum_exponent_half)

CH = ChannelParam(0.1)
_MARGIN = 1e-9      # distance from the boundary beyond which routes must agree
_REASONS = ("rate must lie", "slice weight", "slice too light",
            "normalised distance")


def _verdict(call) -> str:
    """'admitted', or the rule a DomainError names (its whole text if none)."""
    try:
        call()
    except DomainError as exc:
        return next((r for r in _REASONS if str(exc).startswith(r)), str(exc))
    return "admitted"


def _verdicts(rate, alpha, omega) -> dict:
    routes = {
        "SpectrumPoint.make": lambda: SpectrumPoint.make(rate, alpha, omega),
        "spectrum_exponent_at": lambda: spectrum_exponent_at(rate, alpha, omega),
        "W_value": lambda: W_value(omega, alpha, rate, CH),
        "MuSlice.mu": lambda: MuSlice(rate, alpha).mu(omega),
    }
    if alpha == 0.5:
        routes["spectrum_exponent_half"] = lambda: spectrum_exponent_half(rate, omega)
    return {name: _verdict(call) for name, call in routes.items()}


def _assert_one_rule(rate, alpha, omega):
    verdicts = _verdicts(rate, alpha, omega)
    assert set(verdicts.values()) == {verdicts["SpectrumPoint.make"]}, verdicts
    # F1 takes no omega: it admits exactly the slices that admit omega = 0
    assert (_verdict(lambda: F1_maximize(rate, alpha, CH))
            == _verdict(lambda: SpectrumPoint.make(rate, alpha, 0.0)))


@pytest.mark.parametrize("rate, alpha, omega", [
    (0.0, 0.5, 0.7),            # above the zero-rate cap G = 1/2
    (1.0 + 1e-13, 0.5, 0.1),    # rate within _TOL of 1: tau = 1/2, G = 0
])
def test_routes_agree_at_edge_cases(rate, alpha, omega):
    _assert_one_rule(rate, alpha, omega)


def _clear_of_boundary(rate, alpha, omega) -> bool:
    """Every constraint of the rule holds, or fails, by more than _MARGIN."""
    if min(abs(rate), abs(rate - 1.0), abs(alpha)) <= _MARGIN:
        return False
    if alpha != 0.5 and abs(alpha - 0.5) <= _MARGIN:
        return False
    if not (0.0 < rate < 1.0 and 0.0 < alpha <= 0.5):
        return True
    deficit = binary_entropy(alpha) - 1.0 + rate
    if abs(deficit) <= _MARGIN:
        return False
    if deficit < 0.0:
        return True
    cap = omega_cap(alpha, binary_entropy_inv(deficit))
    return min(abs(omega), abs(omega - cap)) > _MARGIN


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.05, max_value=1.05),
       st.one_of(st.just(0.5), st.floats(min_value=-0.05, max_value=0.55)),
       st.one_of(st.floats(min_value=-0.05, max_value=0.6),
                 st.floats(min_value=0.0, max_value=0.05)))
def test_routes_agree_off_the_boundary(rate, alpha, omega):
    assume(_clear_of_boundary(rate, alpha, omega))
    _assert_one_rule(rate, alpha, omega)


@pytest.mark.parametrize("alpha, slices", [(0.5, 60), (0.5 - 1e-7, 60), (0.49, 4)])
def test_scalar_rule_admits_the_array_cap_at_tiny_rates(alpha, slices):
    # the scalar rule admits MuSlice's cap down to rate 1e-12, where
    # tau ~ 5e-14: a relative error of 2e-5 in tau once moved the cap by
    # 3e-12 > _TOL there.  On these slices the scalar and array forms of h2
    # and its inverse give the cap to the bit (the 0.49 slice is too light
    # below rate 2.9e-4)
    admitted = 0
    for rate in np.geomspace(1e-12, 1e-3, 60):
        rate = float(rate)
        if _verdict(lambda: MuSlice(rate, alpha)) != "admitted":
            refused = _verdict(lambda: SpectrumPoint.make(rate, alpha, 0.0))
            assert refused == "slice too light"
            continue
        cap = MuSlice(rate, alpha).cap
        assert SpectrumPoint.make(rate, alpha, cap).cap == cap, rate
        admitted += 1
    assert admitted == slices
