"""Two-level bound optimization, the exact-exponent segment, and the
combined curve.

Several tests pin *characterizations*: measured facts about where the
two-level bound is exact, where its inner argmin leaves the symmetric
slice, and where it degenerates at high rate.  Those document behaviour
the module's piecewise dispatch relies on; see also the verification
suites.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bscbounds.core import (
    ChannelParam,
    DomainError,
    binary_entropy_inv,
    capacity,
    channel_constants,
    cleaning_gap_case1,
    omega_cap,
    sphere_packing_exponent,
)
from bscbounds.optimizer import (
    CurveKind,
    F1_maximize,
    F_minimize,
    W_value,
    corollary1_exponent,
    curve,
    rate_regime,
    segment_window,
    straight_line,
    theorem1_bound,
)
from bscbounds import optimizer, spectrum
from bscbounds.cli import main
from bscbounds.optimizer import _f1_batch, _segment_anchors, _w_slope
from bscbounds.spectrum import MuSlice, spectrum_exponent_at
from bscbounds.verify import (
    _decay_min,
    _minimize_bounded,
    claims_stats,
    default_claims_grid,
    max_band_width,
    run_suite,
    suite_claims,
)

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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10, 0.5])
def test_f1_tol_domain(tol):
    # each is refused by name, not answered with 0.0 (the maximum is
    # 0.0620) or a bare arithmetic error
    with pytest.raises(DomainError, match="tol"):
        F1_maximize(0.3, 0.4, CH, tol=tol)
    assert F1_maximize(0.3, 0.4, CH).value == pytest.approx(0.0620, abs=1e-4)


@pytest.mark.parametrize("tol", [0.49, 0.3, 0.125])
def test_f1_coarse_tol_keeps_the_band_open(tol):
    # the band [0, G] is 0.28 wide: a coarse search tolerance narrows the
    # bracket less, but must not collapse the band to 0.0
    want = F1_maximize(0.3, 0.4, CH).value
    res = F1_maximize(0.3, 0.4, CH, tol=tol)
    assert res.iterations > 0
    assert abs(res.value - want) <= 1e-3


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
    batch = _f1_batch(np.full(alphas.size, rate), alphas, CH.log_pair, 1e-10)
    assert batch.iterations[0] == 0 and batch.iterations[1:].min() > 0
    for k, alpha in enumerate(alphas):
        one = F1_maximize(rate, float(alpha), CH)
        assert batch.value[k] == one.value
        assert batch.arg_omega[k] == one.arg_omega
        assert bool(batch.at_cap[k]) is one.attained_at_boundary["omega"]
        assert batch.iterations[k] == one.iterations


def _eight_cell_search(rate, alphas, L, tol):
    """The inner maximum by a sign search that keeps one of 8 cells a pass
    for ceil(log_8(1/(2 tol))) passes, the cap and omega = 0 compared
    explicitly: (value, arg_omega) per slice."""
    sl = MuSlice(rate, alphas)
    cap = sl.cap
    at_cap = _w_slope(cap * (1.0 - 1e-12), sl.alpha, sl.tau, L)[0] >= 0.0
    alpha, tau = sl.alpha[:, None], sl.tau[:, None]
    lo, width = np.zeros_like(cap), cap
    for _ in range(math.ceil(math.log(0.5 / tol, 8))):
        cell = width / 8
        probes = lo[:, None] + cell[:, None] * np.arange(1, 8)
        lo = lo + cell * (_w_slope(probes, alpha, tau, L)[0] > 0.0).sum(axis=1)
        width = cell
    x = np.where(at_cap, cap, lo + 0.5 * width)
    w_x, w_cap = 0.5 * x * L - sl.mu(x), 0.5 * cap * L - sl.mu(cap)
    take_cap = at_cap | (w_cap >= w_x)
    value, arg = np.where(take_cap, w_cap, w_x), np.where(take_cap, cap, x)
    clamp = ~at_cap & (value < 0.0)
    return np.where(clamp, 0.0, value), np.where(clamp, 0.0, arg)


def _search_grid(p, rng):
    """(rate, alpha) rows over the whole slice range, and rows whose
    maximum is ever closer to leaving the cap or reaching omega = 0."""
    L = ChannelParam(p).log_pair
    rates = np.concatenate([[1e-12, 1.0 - 1e-9], 10.0 ** rng.uniform(-12, 0, 10),
                            1.0 - 10.0 ** rng.uniform(-9, 0, 6)])
    rows = []
    for r in rates:
        a0 = binary_entropy_inv(1.0 - r)
        rows += [(r, a) for a in np.concatenate([np.linspace(a0, 0.5, 17),
                                                 a0 + (0.5 - a0) * rng.random(8)])]

    def where_max(r, f):
        # 0: at the cap, 1: interior, 2: at omega = 0
        a0 = binary_entropy_inv(1.0 - r)
        sl = MuSlice(r, a0 + f * (0.5 - a0))
        if _w_slope(sl.cap * (1.0 - 1e-12), sl.alpha, sl.tau, L)[0] >= 0.0:
            return 0
        return 1 if _w_slope(0.0, sl.alpha, sl.tau, L)[0] > 0.0 else 2

    # bisect the rate, at a fixed place f in the slice range, wherever the
    # maximum changes place between neighbouring rates
    for f in rng.random(4):
        grid = np.linspace(1e-6, 1.0 - 1e-6, 41)
        places = [where_max(r, f) for r in grid]
        for lo, hi, place, other in zip(grid, grid[1:], places, places[1:]):
            if place == other:
                continue
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                a0 = binary_entropy_inv(1.0 - mid)
                rows.append((mid, a0 + f * (0.5 - a0)))
                lo, hi = (mid, hi) if where_max(mid, f) == place else (lo, mid)
    rate, alphas = map(np.array, zip(*rows))
    return rate, alphas, L


@pytest.mark.parametrize("p", [0.005, 0.1, 0.3])
def test_f1_search_matches_fine_eight_cell_search(p):
    # against the eight-cell sign search run to 1e-13, on a seeded grid that
    # has interior maxima within 1e-6 of the cap and of 0: every value within
    # 1e-15, and every argmax within tol where the value stands above the
    # round-off of W's O(1) terms (below it the clamp at omega = 0 may go
    # either way).  At the cap the slope is read once; in between, no slice
    # reads it more than 12 times (the ends and 10 passes), against the 11
    # passes of the eight-cell search at 1e-10.
    tol = 1e-10
    rate, alphas, L = _search_grid(p, np.random.default_rng(19))
    open_band = MuSlice(rate, alphas).cap > tol
    rate, alphas = rate[open_band], alphas[open_band]
    got = _f1_batch(rate, alphas, L, tol)
    value, arg = _eight_cell_search(rate, alphas, L, 1e-13)
    cap = MuSlice(rate, alphas).cap
    interior = (0.0 < arg) & (arg < cap) & (value > 1e-14)
    assert ((cap - arg)[interior] < 1e-6).any() and (arg[interior] < 1e-6).any()
    assert np.abs(got.value - value).max() <= 1e-15
    assert np.abs(got.arg_omega - arg)[value > 1e-14].max() <= tol
    assert (got.iterations[got.at_cap] == 1).all()
    assert got.iterations.max() <= 12


def test_f1_search_stops_on_a_round_off_slope():
    # a slice of the p = 0.3 grid above: the slope reads 1.5e-11, then
    # -2.2e-16, at the round-off of its O(1) terms, with the bracket still
    # 3.7e-11 wide.  The search stops there: 2 reads at the ends and 9
    # passes, where halving the far end took 3 more
    L = ChannelParam(0.3).log_pair
    batch = _f1_batch(np.array([0.09912809328607426]),
                      np.array([0.4084019554839038]), L, 1e-10)
    assert batch.iterations[0] - 2 <= 9
    assert batch.arg_omega[0] == pytest.approx(0.18009518258741078, abs=1e-10)


def test_f1_alpha_slope_matches_central_differences():
    # dF1/dalpha by the envelope theorem against a four-point central
    # difference of F1 (step 1e-3 of the distance to the nearer end) on a
    # seeded (p, R, alpha) grid, within 1e-6 relative; at alpha = 1/2 the
    # slope is exactly 0
    rng = np.random.default_rng(7)
    kinds = set()
    for p in (0.005, 0.05, 0.1, 0.2, 0.3, 0.4):
        L = ChannelParam(p).log_pair
        for r in 10.0 ** rng.uniform(-3, -0.05, 6):
            a0 = binary_entropy_inv(1.0 - r)
            alphas = np.append(a0 + rng.uniform(0.05, 0.95, 4) * (0.5 - a0), 0.5)
            batch = _f1_batch(np.full(5, r), alphas, L, 1e-10)
            assert batch.slope[-1] == 0.0
            for a, d, at_cap in zip(alphas[:-1], batch.slope, batch.at_cap):
                h = 1e-3 * min(a - a0, 0.5 - a)
                v = _f1_batch(np.full(4, r), a + h * np.array([-2.0, -1.0, 1.0, 2.0]),
                              L, 1e-10).value
                central = (8.0 * (v[2] - v[1]) - (v[3] - v[0])) / (12.0 * h)
                assert abs(central - d) <= 1e-6 * abs(d), (p, r, a)
                kinds.add(bool(at_cap))
    assert kinds == {True, False}


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


def test_f_minimize_at_rate_one_is_zero():
    # at R = 1 every band collapses; the lightest end alpha = 0 is no slice,
    # so the search stands on alpha = 1/2 alone, as at R = 0
    for p in (0.005, 0.1):
        res = F_minimize(1.0, ChannelParam(p))
        assert (res.value, res.arg_omega, res.arg_alpha) == (0.0, 0.0, 0.5)
        assert res.iterations == 0
        assert F_minimize(0.99, ChannelParam(p)).value == 0.0


def _fields(res):
    return (res.value, res.arg_alpha, res.arg_omega,
            res.attained_at_boundary["omega"],
            res.attained_at_boundary["alpha"], res.iterations)


def _edge_rates(ch):
    cc = channel_constants(ch)
    inner = np.linspace(0.0, cc.capacity, 6)[1:-1]
    return [0.0, cc.r1, cc.r_crit, cc.capacity, *map(float, inner)]


@pytest.mark.parametrize("p", [0.005, 0.1, 0.2])
def test_f_grid_equals_one_rate_calls(p):
    # every slice takes the same passes whatever shares its batch, so a
    # rate's result is bit-for-bit the one-rate result
    ch = ChannelParam(p)
    rates = _edge_rates(ch)
    optimizer._f_minimize_cached.cache_clear()
    grid = optimizer._f_grid(rates, ch)
    optimizer._f_minimize_cached.cache_clear()
    for r, res in zip(rates, grid):
        assert _fields(res) == _fields(F_minimize(r, ch)), r
    # the same grid in the other order, computed afresh
    optimizer._f_minimize_cached.cache_clear()
    back = optimizer._f_grid(rates[::-1], ch)[::-1]
    assert [_fields(a) for a in back] == [_fields(a) for a in grid]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_rows_equal_one_slice_calls(data):
    # 1-3 rates, their alphas shuffled together and split into batches:
    # every _f1_batch row is the one-alpha F1_maximize in every field, its
    # alpha-slope that of a one-slice batch, and every MuSlice row is the
    # one-slice mu, whatever shares the batch
    ch = ChannelParam(data.draw(st.floats(0.001, 0.49)))
    unit = st.floats(0.0, 1.0)
    rates = data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3,
                               unique=True))
    rows = [(r, binary_entropy_inv(1.0 - r), f)
            for r in rates for f in data.draw(st.lists(unit, min_size=1, max_size=8))]
    rows = data.draw(st.permutations(rows))
    cuts = data.draw(st.sets(st.integers(1, max(len(rows) - 1, 1)), max_size=3))
    for part in np.split(np.array(rows), sorted(c for c in cuts if c < len(rows))):
        rate, alphas = part[:, 0], part[:, 1] + (0.5 - part[:, 1]) * part[:, 2]
        batch = _f1_batch(rate, alphas, ch.log_pair, 1e-10)
        sl = MuSlice(rate, alphas)
        omegas = np.array([data.draw(unit) for _ in alphas]) * sl.cap
        mu = sl.mu(omegas)
        for k, (r, a) in enumerate(zip(rate, alphas)):
            one = F1_maximize(float(r), float(a), ch)
            assert (batch.value[k], batch.arg_omega[k], bool(batch.at_cap[k]),
                    batch.iterations[k]) == (
                one.value, one.arg_omega, one.attained_at_boundary["omega"],
                one.iterations)
            alone = _f1_batch(np.array([r]), np.array([a]), ch.log_pair, 1e-10)
            assert np.array_equal(batch.slope[k], alone.slope[0])
            assert mu[k] == MuSlice(float(r), float(a)).mu(float(omegas[k]))


def test_f1_batch_rate_array_freezes_each_rate():
    # two rates share one batch, every maximum interior; each row equals
    # its rate's own batch exactly
    L = ChannelParam(0.01).log_pair
    alphas = {0.6: np.linspace(binary_entropy_inv(0.4), 0.5, 5),
              0.8: np.linspace(binary_entropy_inv(0.2), 0.5, 4)}
    alone = {r: _f1_batch(np.full(a.size, r), a, L, 1e-10)
             for r, a in alphas.items()}
    rate = np.repeat(list(alphas), [a.size for a in alphas.values()])
    both = _f1_batch(rate, np.concatenate(list(alphas.values())), L, 1e-10)
    for field, got in zip(both._fields, both):
        want = np.concatenate([getattr(b, field) for b in alone.values()])
        assert np.array_equal(got, want), field


def test_f_pass_size_boundaries(monkeypatch, capsys):
    # one search per pass, three or four global grids in a pass with the
    # later steps of earlier rates, the bound itself (31 grids), and every
    # rate of the default grid in one pass: the CSV bytes stay put
    assert optimizer._PASS_SLICES == 1032
    assert optimizer._PASS_SLICES // optimizer._F_GRID == 31
    optimizer._f_minimize_cached.cache_clear()
    assert main(["curve", "--p", "0.1"]) == 0
    whole = capsys.readouterr().out
    for slices in (1, 3 * optimizer._F_GRID, 4 * optimizer._F_GRID,
                   optimizer._PASS_SLICES, 10 ** 6):
        monkeypatch.setattr(optimizer, "_PASS_SLICES", slices)
        optimizer._f_minimize_cached.cache_clear()
        assert main(["curve", "--p", "0.1"]) == 0
        assert capsys.readouterr().out == whole, slices


def test_f_passes_and_slices_of_the_default_curve(monkeypatch, capsys):
    # the default curve at p = 0.1: its 200 rates share 10 passes, and the
    # searches send 6928 slices, 6600 of them in the 33-point grids
    seen = []

    def counting(rate, alphas, L, tol):
        seen.append(alphas.size)
        return _f1_batch(rate, alphas, L, tol)

    monkeypatch.setattr(optimizer, "_f1_batch", counting)
    optimizer._f_minimize_cached.cache_clear()
    assert main(["curve", "--p", "0.1"]) == 0
    capsys.readouterr()
    assert (len(seen), sum(seen)) == (10, 6928)
    assert max(seen) <= optimizer._PASS_SLICES


def test_f_pass_builds_one_slice(monkeypatch, capsys):
    # each of the default curve's 10 passes builds one MuSlice: its values
    # and alpha-slopes come from the same slices, and each slice is read
    # once, so the Gauss rules see 29380 (slice, panel) rows (352560 nodes)
    built, rows = [], []

    class Counting(MuSlice):
        def __init__(self, rate, alpha):
            built.append(np.size(alpha))
            super().__init__(rate, alpha)

    def counting(lo, hi, half_cap, alpha, tau):
        rows.append(lo.size)
        return s_rule(lo, hi, half_cap, alpha, tau)

    s_rule = spectrum._s_rule
    monkeypatch.setattr(optimizer, "MuSlice", Counting)
    monkeypatch.setattr(spectrum, "_s_rule", counting)
    optimizer._f_minimize_cached.cache_clear()
    assert main(["curve", "--p", "0.1"]) == 0
    capsys.readouterr()
    assert (len(built), sum(built)) == (10, 6928)
    assert sum(rows) == 29380


def test_f_pass_memory_stays_bounded(monkeypatch):
    # 2000 rates in 31-grid passes: over the first 24 passes (searches
    # leave and join, and every pass is full: no room for one more grid)
    # the traced peak above what is kept stays near one pass's arrays, its
    # slopes included (about 2.1 MB), where one pass of every global grid
    # takes 48 MB.  The rest of the grid only repeats such passes, so the
    # call is stopped there
    import tracemalloc

    class Enough(Exception):
        pass

    passes = []

    def counting(rate, alphas, L, tol):
        passes.append(alphas.size)
        if len(passes) > 24:
            raise Enough
        return _f1_batch(rate, alphas, L, tol)

    monkeypatch.setattr(optimizer, "_f1_batch", counting)
    ch = ChannelParam(0.1)
    rates = np.linspace(0.001, capacity(ch) - 0.001, 2000).tolist()
    optimizer._f_minimize_cached.cache_clear()
    tracemalloc.start()
    try:
        try:
            optimizer._f_grid(rates, ch)
        except Enough:
            pass
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        optimizer._f_minimize_cached.cache_clear()
    assert min(passes) > optimizer._PASS_SLICES - optimizer._F_GRID
    assert max(passes) <= optimizer._PASS_SLICES
    assert peak - kept < 2.5e6


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


# --- one rate-window policy ---------------------------------------------


@pytest.mark.parametrize("p", [0.005, 0.1, 0.2])
def test_theorem1_bound_is_the_one_rate_theorem1_curve(p):
    # on the CLI's default grid; test_f_grid_equals_one_rate_calls shows
    # the batched F equal to the one-rate F that the cache then serves
    ch = ChannelParam(p)
    rmax = capacity(ch) - 0.001
    got = curve(CurveKind.theorem1_min, ch, 0.01, rmax, (rmax - 0.01) / 199.0).points
    assert len(got) == 200
    for r, v in got:
        assert theorem1_bound(r, ch) == v, r


def test_rate_windows_split_at_r1_and_r_crit_within_tol():
    tol = 1e-12
    at = {R: rate_regime(R, CH) for R in (
        CC.r1 - 2 * tol, CC.r1 - tol / 2, CC.r_crit + tol / 2, CC.r_crit + 2 * tol)}
    assert list(at.values()) == [
        ("low_rate", CurveKind.theorem1_min),
        ("corollary1_segment", CurveKind.corollary1),
        ("corollary1_segment", CurveKind.corollary1),
        ("sphere_packing", CurveKind.sphere_packing)]
    # below the crossover there is no segment window
    ch = ChannelParam(0.005)
    cc = channel_constants(ch)
    assert [rate_regime(R, ch)[0] for R in (cc.r_crit, cc.r_crit + 2 * tol)] == [
        "low_rate", "sphere_packing"]
    assert segment_window(CurveKind.straight_line, CH) == (CC.r1, CC.r_crit)
    assert segment_window(CurveKind.corollary1, CH) == (CC.r1, CC.capacity)


@pytest.mark.parametrize("p", [0.005, 0.1])
@pytest.mark.parametrize("kind", [k for k in CurveKind
                                  if k not in (CurveKind.corollary1, CurveKind.straight_line)])
def test_segment_window_refuses_kinds_without_one(kind, p):
    # only the two segment kinds have a window, on any channel
    with pytest.raises(DomainError) as exc:
        segment_window(kind, ChannelParam(p))
    assert str(exc.value) == f"curve kind {kind.value!r} has no segment window"


@pytest.mark.parametrize("p", [0.005, 0.1, 0.2])
def test_regime_label_picks_the_combined_piece(p, capsys):
    # the rows of the default-grid curve JSON: R, E_sp, F, combined, regime
    assert main(["curve", "--p", str(p), "--format", "json"]) == 0
    ch = ChannelParam(p)
    seen = set()
    for row in json.loads(capsys.readouterr().out)["value"]:
        r, regime = row["R"], row["regime"]
        assert rate_regime(r, ch)[0] == regime
        seen.add(regime)
        if regime == "corollary1_segment":
            assert row["combined"] == corollary1_exponent(r, ch), r
        elif regime == "low_rate":
            assert row["combined"] == min(row["F"], row["E_sp"]), r
        elif p > CC.p1:
            assert row["combined"] == row["E_sp"], r
    want = {"low_rate", "sphere_packing"}
    assert seen == (want | {"corollary1_segment"} if p > CC.p1 else want)


@pytest.mark.parametrize("kind", ["corollary1", "straight_line"])
def test_segment_kinds_refuse_p_below_p1_with_one_message(kind, capsys):
    ch = ChannelParam(0.005)
    assert main(["curve", "--p", "0.005", "--format", "svg",
                 "--bounds", kind]) == 2
    err = capsys.readouterr().err
    assert err == (f"bscbounds: curve kind {kind!r} needs a segment channel "
                   f"(p > {CC.p1:.7f})\n")
    raised = []
    for call in (lambda: curve(CurveKind(kind), ch, 0.1, 0.2, 0.05),
                 lambda: segment_window(kind, ch)):
        with pytest.raises(DomainError) as exc:
            call()
        raised.append(str(exc.value))
    if kind == "corollary1":
        with pytest.raises(DomainError) as exc:
            corollary1_exponent(0.7, ch)
        raised.append(str(exc.value))
    assert raised == [err[len("bscbounds: "):-1]] * len(raised)


# --- claims report ------------------------------------------------------


def test_claims_stats_p01():
    st = claims_stats(CH)
    assert st["corner_value"] == pytest.approx(-0.0957431423, abs=1e-8)
    assert st["curvature_min"] == pytest.approx(1.987663367, abs=1e-5)
    assert st["linear_decay_constant"] == pytest.approx(0.979272514, abs=1e-5)
    assert st["omega_m"] == pytest.approx(CC.omega_m, abs=1e-12)
    assert st["omega_1"] == pytest.approx(CC.omega1, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_decay_min_equals_dense_formulation(seed):
    # the decay minimum over the pairs alone has the bits of the dense
    # 200 x 200 formulation on random channels, the claim range's ends
    # included, and on the same grid reversed
    rng = np.random.default_rng(seed)
    for p in (0.003 * (1 + 1e-9), 0.22 * (1 - 1e-9), *rng.uniform(0.003, 0.22, 8)):
        ch = ChannelParam(float(p))
        cc = channel_constants(ch)
        lam = np.linspace(cc.omega_m, cc.omega1, 200)
        L, S = lam[:, None], lam[None, :]
        G = cleaning_gap_case1(L, S, ch)
        dense = float(np.where(S > L + 1e-12,
                               -G / np.maximum(S - L, 1e-300), np.inf).min())
        assert claims_stats(ch)["linear_decay_constant"] == dense, p
        assert _decay_min(lam[::-1].copy(), ch) == dense, p
    assert _decay_min(np.full(5, 0.3), CH) == math.inf


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


def _band_objective(p: float) -> float:
    cc = channel_constants(ChannelParam(p))
    return cc.omega_m - cc.omega1


@pytest.mark.parametrize("func, bounds, known, xtol", [
    (_band_objective, (0.003, 0.22), "scipy", 1e-8),   # max_band_width's
    (lambda x: x, (0.0, 1.0), 0.0, 2e-10),             # left end
    (lambda x: math.exp(-x), (-2.0, 3.0), 3.0, 2e-10),  # right end
    (lambda x: 0.25, (0.1, 0.9), None, None),          # constant: any x
    (lambda x: abs(x - 0.3), (0.0, 1.0), 0.3, 2e-10),   # kink
    (lambda x: math.cos(x) + 0.1 * x, (1.0, 5.0),      # smooth interior
     math.pi - math.asin(0.1), 1e-8),
], ids=["band", "left", "right", "constant", "kink", "interior"])
def test_minimize_bounded_lands_on_the_minimum(func, bounds, known, xtol):
    # golden section to xatol 1e-10: at an end or a kink x lands within
    # 2e-10 of the minimiser.  At a smooth interior minimum f is flat to
    # rounding over ~sqrt(eps) in x, which no comparison of values resolves,
    # so x lands within 1e-8 of it (band: of scipy's bounded Brent).  f is
    # never above scipy's by more than 1e-15, in at most 60 evaluations
    from scipy.optimize import minimize_scalar

    calls = []

    def counted(x):
        calls.append(x)
        return func(x)

    res = minimize_scalar(func, bounds=bounds, method="bounded",
                          options={"xatol": 1e-10})
    x, f = _minimize_bounded(counted, *bounds, xatol=1e-10)
    assert bounds[0] <= x <= bounds[1] and f == func(x)
    assert f <= res.fun + 1e-15
    assert len(calls) <= 60
    if known is not None:
        assert abs(x - (res.x if known == "scipy" else known)) <= xtol


def test_verify_claims_small_grid():
    report = suite_claims([0.01, 0.05, 0.15])
    assert report["passed"] is True
    assert len(report["per_p"]) == 3
    assert all(st["ok"] for st in report["per_p"])


def test_verify_claims_rejects_endpoint_channels():
    with pytest.raises(DomainError):
        suite_claims([0.003])


def test_suite_claims_rejects_empty_grid():
    # a certificate that checked no channel must not report success
    for empty in ([], ()):
        with pytest.raises(DomainError, match="at least one"):
            suite_claims(empty)
    with pytest.raises(DomainError, match="at least one"):
        run_suite("claims", p_values=[])
