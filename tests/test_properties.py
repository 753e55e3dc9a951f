"""Properties of the combined bound over random channels and rates.

The combined curve is the package's headline output: it must stay between
0 and sphere packing, never increase with the rate, and join its two pieces
continuously at the anchor rate R1.
"""

from hypothesis import assume, given, settings, strategies as st

from bscbounds.core import (ChannelParam, capacity, channel_constants,
                            solve_p1, sphere_packing_exponent)
from bscbounds.optimizer import CurveKind, curve

PROPERTY = settings(max_examples=50, deadline=None)
channels = st.floats(min_value=0.001, max_value=0.49)
fractions = st.floats(min_value=0.0, max_value=1.0)


def _combined_at(ch, r):
    """combined at rate r, as the only point of a one-step curve."""
    r_max = min(r + 1e-3, capacity(ch) + 1e-12)
    (rate, value), = curve(CurveKind.combined, ch, r, r_max, 1.0).points
    assert rate == r
    return value


@PROPERTY
@given(channels, fractions)
def test_combined_between_zero_and_sphere_packing(p, u):
    ch = ChannelParam(p)
    r = u * capacity(ch)
    assert 0.0 <= _combined_at(ch, r) <= sphere_packing_exponent(r, ch) + 1e-12


@PROPERTY
@given(channels, fractions, fractions)
def test_combined_non_increasing_in_rate(p, u, v):
    ch = ChannelParam(p)
    c = capacity(ch)
    assume(abs(u - v) > 1e-3)
    lo, hi = sorted((u * c, v * c))
    assert _combined_at(ch, hi) <= _combined_at(ch, lo) + 1e-9


@PROPERTY
@given(st.floats(min_value=0.0, max_value=1.0))
def test_combined_continuous_at_anchor_seam(s):
    # above p1 the bound switches from min(F, E_sp) to the exact segment at
    # R1; the segment has slope -1 and F's slope next to R1 is of the same
    # order, so a gap much larger than the step is a jump at the seam
    p = solve_p1() + 1e-4 + s * (0.49 - solve_p1() - 1e-4)
    ch = ChannelParam(p)
    r1 = channel_constants(ch).r1
    delta = min(1e-7, 0.5 * r1)
    assert abs(_combined_at(ch, r1 - delta) - _combined_at(ch, r1)) <= 5.0 * delta + 1e-9

