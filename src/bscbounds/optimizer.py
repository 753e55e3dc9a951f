"""Upper-bound assembly: the two-level optimization over spectrum components.

The inner objective ``W(omega, alpha, R, p) = (omega/2) log2(1/(4pq)) -
mu(R, alpha, omega)`` weighs the error exponent of a codeword pair at
normalised distance ``omega`` against the guaranteed size of that spectrum
component.  ``F1`` maximizes W over the feasible ``omega`` band, ``F``
minimizes F1 over the constraint curve in ``alpha``, and the final upper
bound on the reliability function takes the pointwise min of F with the
sphere-packing exponent at low rates, handing over to the exact-exponent
segment (and its sphere-packing continuation) from the anchor rate up.

The claims report at the bottom certifies the numerical facts the low-rate
argument rests on: convexity and linear decay of the cleaning gap on the
band [omega_m, omega_1], and the width of that band across channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from .core import (
    ChannelParam,
    DomainError,
    binary_entropy_inv,
    capacity,
    channel_constants,
    cleaning_gap,
    cleaning_gap_case1,
    sphere_packing_exponent,
)
from .spectrum import MuSlice, SpectrumPoint, log_kernel, spectrum_exponent_at

__all__ = [
    "OptResult",
    "BoundCurve",
    "CurveKind",
    "W_value",
    "F1_maximize",
    "F_minimize",
    "theorem1_bound",
    "straight_line",
    "corollary1_exponent",
    "rate_regime",
    "segment_window",
    "curve",
    "verify_claims",
    "default_claims_grid",
    "claims_stats",
    "max_band_width",
]

_TOL = 1e-12
_MAX_POINTS = 100_000   # largest rate grid curve() samples
_F_GRID = 129           # alphas in the global pass of F_minimize
_POLISH = 33            # alphas per polishing level of F_minimize
_F1_TOL = 1e-10         # bracket width of the inner sign search
_SECTIONS = 8           # cells the inner sign search splits its bracket into
_PASS_SLICES = 4 * _F_GRID  # slices in one pass of the batched F searches


@dataclass(frozen=True)
class OptResult:
    """Result of a scalar bound optimization.

    ``attained_at_boundary`` maps coordinate name to a flag; for ``omega``
    the flag refers to the upper end of the band (the cap G), which is the
    end the boundary-attainment criterion speaks about.  An argmax at
    ``omega = 0`` is visible through ``arg_omega`` instead.
    """

    value: float
    arg_omega: float
    arg_alpha: float
    attained_at_boundary: Mapping[str, bool]
    iterations: int


class CurveKind(str, Enum):
    sphere_packing = "sphere_packing"
    F_bound = "F_bound"
    theorem1_min = "theorem1_min"
    corollary1 = "corollary1"
    straight_line = "straight_line"
    combined = "combined"


@dataclass(frozen=True)
class BoundCurve:
    channel: ChannelParam
    kind: CurveKind
    points: tuple[tuple[float, float], ...]


def W_value(omega: float, alpha: float, rate: float, ch: ChannelParam) -> float:
    """W(omega, alpha, R, p): pair exponent minus spectrum exponent, in bits."""
    pt = SpectrumPoint.make(rate, alpha, omega)
    return 0.5 * pt.omega * ch.log_pair - spectrum_exponent_at(rate, alpha, pt.omega)


def _w_slope(omega: np.ndarray, alpha: np.ndarray, tau: np.ndarray,
             L: float) -> np.ndarray:
    """d/d omega of W at fixed rate: L/2 - mu'(omega), broadcast over arrays.

    mu' splits into an elementary part and one kernel sample at omega/2,
    so the slope of a whole alpha batch costs a few array passes and the
    concave inner maximization reduces to a sign search.  On the band
    nu = (alpha - omega/2)/(1 - omega) stays inside (0, 1).
    """
    rest = 1.0 - omega
    nu = (alpha - 0.5 * omega) / rest
    log_nu, log_co = np.log2(nu), np.log2(1.0 - nu)
    a_prime = (2.0 * np.log2(rest) + nu * log_nu + (1.0 - nu) * log_co
               + (log_co - log_nu) * (alpha - 0.5) / rest)
    return 0.5 * L - a_prime + log_kernel(0.5 * omega, alpha, tau)


class _F1Batch(NamedTuple):
    """Inner maxima of a batch of slices, one entry per alpha."""
    value: np.ndarray
    arg_omega: np.ndarray
    at_cap: np.ndarray
    iterations: np.ndarray


def _f1_batch(rate: np.ndarray, alphas: np.ndarray, L: float, tol: float) -> _F1Batch:
    """max over omega in [0, G(alpha, tau)] of W for every alpha in the batch.

    ``rate`` holds one rate per alpha.  W is concave in omega, so its
    analytic slope changes sign once: a slope that is still non-negative
    at the cap puts the maximum there.
    Otherwise each array pass samples the slope at _SECTIONS - 1 inner
    points of every bracket and keeps the cell where its sign changes.
    Every band is at most 1/2 wide (G <= 1/2), so ceil(log_8(1/(2 tol)))
    passes, 11 at the default tol, narrow every bracket to at most tol,
    where bisection needs about 32; with numpy's per-call overhead 7
    samples cost about what 1 does.  The count depends on tol alone, so a
    slice's result does not depend on the other slices in the batch.
    The value error is quadratic in the bracket width.  The cap endpoint is
    compared explicitly and an interior maximum below 0 (the value at
    omega = 0) is clamped.  Slices with G <= tol get 0.
    """
    sl = MuSlice(rate, alphas)
    cap = sl.cap
    live = cap > tol
    if not live.all():
        out = _F1Batch(np.zeros(cap.size), np.zeros(cap.size),
                       np.ones(cap.size, bool), np.zeros(cap.size, int))
        if live.any():
            for field, sub in zip(out, _f1_batch(rate[live], alphas[live], L, tol)):
                field[live] = sub
        return out
    at_cap = _w_slope(cap * (1.0 - 1e-12), sl.alpha, sl.tau, L) >= 0.0
    passes = math.ceil(math.log(0.5 / tol, _SECTIONS))
    alpha, tau = sl.alpha[:, None], sl.tau[:, None]
    inner = np.arange(1, _SECTIONS)
    lo, width = np.zeros_like(cap), cap
    for _ in range(passes):
        cell = width / _SECTIONS
        # the slope falls with omega, so its positive samples are a prefix
        probes = lo[:, None] + cell[:, None] * inner
        count = (_w_slope(probes, alpha, tau, L) > 0.0).sum(axis=1)
        lo, width = lo + cell * count, cell
    x = np.where(at_cap, cap, lo + 0.5 * width)
    w_x = 0.5 * x * L - sl.mu(x)
    w_cap = 0.5 * cap * L - sl.mu(cap)
    take_cap = at_cap | (w_cap >= w_x)
    value = np.where(take_cap, w_cap, w_x)
    arg = np.where(take_cap, cap, x)
    clamp = ~at_cap & (value < 0.0)
    return _F1Batch(np.where(clamp, 0.0, value), np.where(clamp, 0.0, arg),
                    take_cap & ~clamp, np.where(at_cap, 1, passes + 2))


def F1_maximize(rate: float, alpha: float, ch: ChannelParam,
                *, tol: float = _F1_TOL) -> OptResult:
    """max over omega in [0, G(alpha, tau)] of W(omega, alpha, R, p).

    mu is convex in omega, so W is concave on the band and the maximum is
    found by a sign search on its analytic omega-slope (see
    ``_f1_batch``).  The cap flag records a non-negative slope of W at the
    cap, or the cap value winning against the interior: the form of
    boundary attainment the band criterion G >= omega_1(p) describes.
    The argmax bracket is narrowed to ``tol`` in (0, 1/2); the result is
    bit-for-bit the slice's entry in any batch of ``_f1_batch``.
    """
    if not 0.0 < tol < 0.5:
        raise DomainError(f"tol must be finite and lie in (0, 1/2), got {tol!r}")
    alpha0 = binary_entropy_inv(1.0 - rate)
    if alpha < alpha0 - 1e-9:
        raise DomainError(
            f"alpha must be >= h2_inv(1-R) = {alpha0:.6f}, got {alpha!r}")
    res = _f1_batch(np.array([rate], float), np.array([alpha], float), ch.log_pair, tol)
    return OptResult(float(res.value[0]), float(res.arg_omega[0]), alpha,
                     {"omega": bool(res.at_cap[0]), "alpha": False},
                     int(res.iterations[0]))


def _f_search(rate: float):
    """min over alpha of F1 at one rate, as a coroutine.

    Yields each alpha grid it needs evaluated, receives the grid's
    _F1Batch, and returns the OptResult, so that _f_rates can evaluate the
    grids of many rates in shared _f1_batch passes.
    """
    alpha0 = binary_entropy_inv(1.0 - rate)
    # R = 0 collapses the constraint interval onto 1/2, defined by
    # continuity; at R = 1 every band collapses (F1 = 0 on the whole
    # interval) and its end alpha = 0 is no slice: both take 1/2 alone
    alphas = (np.linspace(alpha0, 0.5, _F_GRID) if 0.0 < alpha0 < 0.5 - 1e-12
              else np.array([0.5]))
    # one batched pass over the grid does the global work
    res = yield alphas
    it = int(res.iterations.sum())
    i, last = int(np.argmin(res.value)), alphas.size - 1
    lo, hi = float(alphas[max(i - 1, 0)]), float(alphas[min(i + 1, last)])
    # polish: each level shrinks the bracket to the two cells around its
    # best point, a factor (_POLISH - 1)/2 per level
    level, a, j = res, alphas, i
    while hi - lo > 1e-9:
        a = np.linspace(lo, hi, _POLISH)
        level = yield a
        it += int(level.iterations.sum())
        j = int(np.argmin(level.value))
        lo, hi = float(a[max(j - 1, 0)]), float(a[min(j + 1, _POLISH - 1)])

    def pick(batch: _F1Batch, a: np.ndarray, k: int) -> tuple:
        return (float(batch.value[k]), float(a[k]), float(batch.arg_omega[k]),
                bool(batch.at_cap[k]))

    # the grid ends stay candidates when the best cell touches them
    candidates = [pick(level, a, j)] + [pick(res, alphas, k) for k in (last, 0)
                                        if abs(k - i) <= 1]
    best = min(candidates, key=lambda c: c[0])
    # prefer the exact half-point on ties: the refinement may sit a hair off
    # the endpoint with an indistinguishable value
    for c in candidates:
        if c[1] == 0.5 and c[0] <= best[0] + 1e-12:
            best = c
    value, best_alpha, arg_omega, at_cap = best
    at_alpha_edge = best_alpha >= 0.5 - 1e-9 or best_alpha <= alpha0 + 1e-9
    return OptResult(value, arg_omega, best_alpha,
                     {"omega": at_cap, "alpha": at_alpha_edge}, it)


def _f_rates(rates: list[float], p: float) -> list[OptResult]:
    """F at distinct rates, their searches batched into shared passes.

    Each pass is one _f1_batch call over the alpha grids that every search
    in flight asks for next.  A search joins while the pass has room for
    its global grid within _PASS_SLICES slices (one search always runs),
    and leaves as soon as its bracket is narrow enough, so the bound on
    the slices of a pass bounds the panels it holds.  Batch entries do not
    depend on their batch, so neither does a rate's F.
    """
    L = ChannelParam(p).log_pair
    results: list = [None] * len(rates)
    waiting = iter(range(len(rates)))
    flight: dict = {}       # rate index -> (search, alpha grid it asks for)
    while True:
        room = _PASS_SLICES - sum(g.size for _, g in flight.values())
        while room >= _F_GRID or not flight:
            k = next(waiting, None)
            if k is None:
                break
            search = _f_search(rates[k])
            flight[k] = search, next(search)
            room -= flight[k][1].size
        if not flight:
            return results
        grids = [g for _, g in flight.values()]
        sizes = [g.size for g in grids]
        batch = _f1_batch(np.repeat([rates[k] for k in flight], sizes),
                          np.concatenate(grids), L, _F1_TOL)
        parts = zip(*(np.split(field, np.cumsum(sizes)[:-1]) for field in batch))
        replies = {}
        for (k, (search, _)), part in zip(flight.items(), parts):
            try:
                replies[k] = search, search.send(_F1Batch(*part))
            except StopIteration as stop:
                results[k] = stop.value
        flight = replies


@lru_cache(maxsize=_MAX_POINTS)
def _f_minimize_cached(rate: float, p: float) -> list:
    """The cache entry of F at (rate, p): a list that _f_grid fills once.
    It holds a whole curve grid, so no rate is evicted before combined
    reads it."""
    return []


def _f_grid(rates, ch: ChannelParam) -> list[OptResult]:
    """F at every rate of a grid; the rates not yet cached go together."""
    entries = [_f_minimize_cached(float(r), ch.p) for r in rates]
    todo = list(dict.fromkeys(float(r) for r, e in zip(rates, entries) if not e))
    found = dict(zip(todo, _f_rates(todo, ch.p)))
    for r, e in zip(rates, entries):
        if not e:
            e.append(found[float(r)])
    return [e[0] for e in entries]


def F_minimize(rate: float, ch: ChannelParam) -> OptResult:
    """min over alpha in [h2_inv(1-R), 1/2] of F1(R, alpha, p).

    One batched inner maximization over a fixed grid of _F_GRID alphas,
    then batched bracket levels of _POLISH points around the best cell
    until the bracket is 1e-9 wide; there is no convexity guarantee in
    alpha, so the grid does the global work and the levels only polish.
    This is a one-rate call of the grid routine behind ``curve``, which
    runs the levels of many rates in shared passes; a rate's result is
    the same whichever other rates share them, and it is cached per
    (rate, p).  At R = 1 every band collapses and F is 0, reported at
    alpha = 1/2.
    """
    if not 0.0 <= rate <= 1.0:
        raise DomainError(f"rate must lie in [0, 1], got {rate!r}")
    return _f_grid([rate], ch)[0]


def theorem1_bound(R: float, ch: ChannelParam) -> float:
    """Pointwise min of F and E_sp: the one-rate ``theorem1_min`` curve."""
    cap = capacity(ch)
    if not -_TOL <= R <= cap + _TOL:
        raise DomainError(f"rate must lie in [0, C={cap:.6f}], got {R!r}")
    return _curve_values(CurveKind.theorem1_min, ch, [min(max(R, 0.0), cap)])[0]


def straight_line(R: float, anchor_low: tuple[float, float],
                  anchor_high: tuple[float, float]) -> float:
    """Linear interpolation of two (rate, exponent) anchors at rate R."""
    (r0, e0), (r1, e1) = anchor_low, anchor_high
    if not r0 < r1:
        raise DomainError(f"anchor rates must increase, got {r0!r} >= {r1!r}")
    if not r0 - _TOL <= R <= r1 + _TOL:
        raise DomainError(f"rate {R!r} outside anchor interval [{r0}, {r1}]")
    R = min(max(R, r0), r1)
    return e0 + (e1 - e0) * (R - r0) / (r1 - r0)


def rate_regime(R: float, ch: ChannelParam) -> tuple[str, CurveKind]:
    """The rate window of R and the kind ``combined`` takes there.  Split at
    R1 and R_crit within _TOL: ``low_rate``, ``corollary1_segment`` on
    [R1, R_crit] (only channels above p1 have it), ``sphere_packing``."""
    cc = channel_constants(ch)
    if R > cc.r_crit + _TOL:
        # below p1 this is min(F, E_sp) < E_sp, which ROADMAP item 1 mends:
        # see the FOUND: line on combined above R_crit in CHANGES.md
        return "sphere_packing", (CurveKind.sphere_packing if ch.p > cc.p1
                                  else CurveKind.theorem1_min)
    if ch.p > cc.p1 and R >= cc.r1 - _TOL:
        return "corollary1_segment", CurveKind.corollary1
    return "low_rate", CurveKind.theorem1_min


def segment_window(kind: CurveKind, ch: ChannelParam) -> tuple[float, float]:
    """The rates of a segment kind: [R1, R_crit] for ``straight_line``,
    [R1, C] for ``corollary1``.  Refuses channels with p <= p1."""
    cc = channel_constants(ch)
    if ch.p <= cc.p1:
        raise DomainError(f"curve kind {CurveKind(kind).value!r} needs a "
                          f"segment channel (p > {cc.p1:.7f})")
    return cc.r1, cc.r_crit if kind == CurveKind.straight_line else cc.capacity


def corollary1_exponent(R: float, ch: ChannelParam) -> float:
    """The exact-exponent segment 1 - log2(1 + 2 sqrt(pq)) - R continued by
    sphere packing above the critical rate.

    Refuses channels without the segment, as ``segment_window`` does.
    """
    r1, cap = segment_window(CurveKind.corollary1, ch)
    if not r1 - 1e-9 <= R <= cap + _TOL:
        raise DomainError(f"rate must lie in [R1={r1:.6f}, C={cap:.6f}], got {R!r}")
    R = min(max(R, r1), cap)
    if R <= channel_constants(ch).r_crit:
        return ch.segment_intercept - R
    return sphere_packing_exponent(R, ch)


def _segment_anchors(ch: ChannelParam) -> tuple[tuple[float, float], tuple[float, float]]:
    r1, r_crit = segment_window(CurveKind.straight_line, ch)
    return ((r1, F_minimize(r1, ch).value),
            (r_crit, sphere_packing_exponent(r_crit, ch)))


def _curve_values(kind: CurveKind, ch: ChannelParam,
                  rates: list[float]) -> list[float]:
    """The bound of one kind at every rate of a grid.

    Every F the kind reads comes from one grid call.  ``combined`` is the
    best-known upper bound on the reliability function: at each rate the
    kind ``rate_regime`` names, so the two-level optimization cannot loosen
    an exactly known exponent.  The pieces meet at R1, where F equals the
    segment value.
    """
    if kind is CurveKind.sphere_packing:
        return [sphere_packing_exponent(r, ch) for r in rates]
    if kind is CurveKind.corollary1:
        return [corollary1_exponent(r, ch) for r in rates]
    if kind is CurveKind.straight_line:
        anchors = _segment_anchors(ch)
        return [straight_line(r, *anchors) for r in rates]
    if kind is CurveKind.F_bound:
        return [res.value for res in _f_grid(rates, ch)]
    if kind is CurveKind.theorem1_min:
        return [min(res.value, sphere_packing_exponent(r, ch))
                for r, res in zip(rates, _f_grid(rates, ch))]
    pieces = [rate_regime(r, ch)[1] for r in rates]
    values = {piece: iter(_curve_values(
        piece, ch, [r for r, k in zip(rates, pieces) if k is piece]))
        for piece in dict.fromkeys(pieces)}
    return [next(values[k]) for k in pieces]


def curve(kind: CurveKind, ch: ChannelParam, r_min: float, r_max: float,
          step: float) -> BoundCurve:
    """Sample one of the bounds on the rate grid r_min, r_min+step, ...

    Deterministic for fixed inputs; the grid stops at the last multiple of
    ``step`` that fits below r_max (within a few ulps of r_max, the rounding
    of the endpoints), so pass commensurate endpoints to include r_max
    itself.  A step that would give more than 100000 rates is a
    DomainError, raised before any rate is listed.
    """
    kind = CurveKind(kind)
    cap = capacity(ch)
    if not (0.0 <= r_min < r_max <= cap + _TOL):
        raise DomainError(
            f"need 0 <= r_min < r_max <= C = {cap:.6f}, got [{r_min}, {r_max}]")
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    # the slack absorbs the rounding of r_max - r_min, whatever the step
    span = (r_max - r_min + 8.0 * math.ulp(r_max)) / step
    if not span < _MAX_POINTS:
        raise DomainError(
            f"step {step!r} gives more than {_MAX_POINTS} points on "
            f"[{r_min}, {r_max}]")
    n = int(math.floor(span)) + 1
    rates = [min(r_min + k * step, cap) for k in range(n)]
    values = _curve_values(kind, ch, rates)
    return BoundCurve(ch, kind, tuple((r, max(v, 0.0))
                                      for r, v in zip(rates, values)))


# ---------------------------------------------------------------------------
# claims report: the certified facts about the cleaning gap


_CLAIMS_P = (0.003, 0.22)   # channel range the gap claims are stated on
_CLAIMS_COUNT = 44          # channels in the default claims grid
_GAP_GRID = 200             # lambda samples per band in claims_stats
_GAP_STEP = 1e-5            # step of the second-difference stencil


def default_claims_grid() -> list[ChannelParam]:
    """Log-spaced channel grid strictly inside the claims range (0.003, 0.22).

    The interior of a (_CLAIMS_COUNT + 2)-point net on the closed interval:
    the endpoints are deliberately excluded — the gap analysis is stated on the
    open interval, and the linear-decay margin genuinely degenerates at the
    upper endpoint itself.
    """
    ps = np.geomspace(*_CLAIMS_P, _CLAIMS_COUNT + 2)[1:-1]
    return [ChannelParam(float(p)) for p in ps]


def claims_stats(ch: ChannelParam) -> dict:
    """Measured gap statistics for one channel on the band [omega_m, omega_1].

    curvature_min: min over the lambda grid (both ends included) of the
    centred second difference of the case-1 gap in lambda — the s-terms
    cancel in the stencil, so the measurement is s-independent.
    linear_decay_constant: min over grid pairs lambda < s of
    -g(lambda, s)/(s - lambda), the largest D for which the linear-decay
    bound holds on this grid.
    """
    cc = channel_constants(ch)
    om, o1 = cc.omega_m, cc.omega1
    lam = np.linspace(om, o1, _GAP_GRID)
    h = _GAP_STEP
    stencil = (cleaning_gap_case1(lam + h, o1, ch)
               - 2.0 * cleaning_gap_case1(lam, o1, ch)
               + cleaning_gap_case1(lam - h, o1, ch)) / h ** 2
    L, S = np.meshgrid(lam, lam, indexing="ij")
    G = cleaning_gap_case1(L, S, ch)
    pairs = S > L + 1e-12
    decay = np.where(pairs, -G / np.maximum(S - L, 1e-300), np.inf)
    corner = cleaning_gap(om, o1, ch)
    return {
        "p": ch.p,
        "omega_m": om,
        "omega_1": o1,
        "corner_value": corner,
        "curvature_min": float(stencil.min()),
        "linear_decay_constant": float(decay.min()),
    }


def max_band_width() -> tuple[float, float]:
    """max over p in the claims range of omega_1(p) - omega_m(p);
    returns (argmax p, width)."""

    def neg_width(p: float) -> float:
        cc = channel_constants(ChannelParam(p))
        return cc.omega_m - cc.omega1

    res = minimize_scalar(neg_width, bounds=_CLAIMS_P, method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x), float(-res.fun)


_CORNER_THRESHOLD = -0.0008
_DECAY_THRESHOLD = 0.013


def verify_claims(ch_grid: list[ChannelParam] | None = None) -> dict:
    """Certify the gap claims on a channel grid; grid must avoid the
    endpoints 0.003 and 0.22 (see default_claims_grid).

    Per channel: corner value g(omega_m, omega_1) below -0.0008, curvature
    positive, linear-decay constant above 0.013.  The report also carries
    the band-width maximum over p and, under ``checks``, the curvature
    reference measured at the endpoint p = 0.003.
    """
    if ch_grid is None:
        ch_grid = default_claims_grid()
    p_lo, p_hi = _CLAIMS_P
    for ch in ch_grid:
        if not p_lo < ch.p < p_hi:
            raise DomainError(
                f"claims grid must lie strictly inside ({p_lo}, {p_hi}), got {ch.p!r}")
    per_p = []
    ok = True
    for ch in ch_grid:
        st = claims_stats(ch)
        st["corner_ok"] = st["corner_value"] < _CORNER_THRESHOLD
        st["curvature_ok"] = st["curvature_min"] > 0.0
        st["decay_ok"] = st["linear_decay_constant"] > _DECAY_THRESHOLD
        st["ok"] = st["corner_ok"] and st["curvature_ok"] and st["decay_ok"]
        ok = ok and st["ok"]
        per_p.append(st)
    p_star, width = max_band_width()
    curvature = claims_stats(ChannelParam(p_lo))["curvature_min"]
    curv_ok = abs(curvature - 0.009) <= 2e-3
    return {
        "suite": "claims",
        "thresholds": {"corner": _CORNER_THRESHOLD, "decay": _DECAY_THRESHOLD},
        "per_p": per_p,
        "band_width_max": {"p": p_star, "width": width},
        "passed": bool(ok and abs(width - 0.1076) <= 2e-3 and curv_ok),
        "checks": [{"name": "curvature_reference_p003", "passed": curv_ok,
                    "measured": curvature, "target": 0.009}],
    }
