"""Upper-bound assembly: the two-level optimization over spectrum components.

The inner objective ``W(omega, alpha, R, p) = (omega/2) log2(1/(4pq)) -
mu(R, alpha, omega)`` weighs the error exponent of a codeword pair at
normalised distance ``omega`` against the guaranteed size of that spectrum
component.  ``F1`` maximizes W over the feasible ``omega`` band, ``F``
minimizes F1 over the constraint curve in ``alpha``, and the final upper
bound on the reliability function takes the pointwise min of F with the
sphere-packing exponent at low rates, handing over to the exact-exponent
segment (and its sphere-packing continuation) from the anchor rate up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .core import (
    ChannelParam,
    DomainError,
    binary_entropy_inv,
    capacity,
    channel_constants,
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
]

_TOL = 1e-12
_MAX_POINTS = 100_000   # largest rate grid curve() samples
_F_GRID = 33            # alphas in the global grid of an F search
_F1_TOL = 1e-10         # bracket width of the inner slope search
_S_TOP = 1e-6           # s at the top of the searched band, omega = G (1 - 1e-12)
_EPS = 2.0 ** -52       # double-precision epsilon
_PASS_SLICES = 1032     # slices in one pass of the batched F searches: 31 grids


@dataclass(frozen=True)
class OptResult:
    """Result of a scalar bound optimization.

    ``attained_at_boundary`` maps coordinate name to a flag; for ``omega``
    the flag refers to the upper end of the band (the cap G), which is the
    end the boundary-attainment criterion speaks about.  An argmax at
    ``omega = 0`` is visible through ``arg_omega`` instead.  ``iterations``
    counts the evaluations of W's omega-slope per slice: 1 for a maximum
    at the cap, 2 for one at omega = 0, 2 plus the search passes for an
    interior one, 0 for a collapsed band.  F sums it over every slice its
    alpha search evaluated: the 33-point grid and the points its end
    probe, ladders and bracket steps add (the alpha-slopes of those
    slices are not counted).
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
             L: float, at_cap: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """d/d omega of W at fixed rate, L/2 - mu'(omega), broadcast over
    arrays, and the rounding it may carry.

    mu' splits into an elementary part a' and one kernel sample at
    omega/2, so the slope of a whole alpha batch costs a few array passes
    and the concave inner maximization reduces to a root of the slope.  On
    the band nu = (alpha - omega/2)/(1 - omega) stays inside (0, 1).  With
    ``at_cap`` omega is the cap G, where the kernel's radical is 0 exactly
    and the kernel is log2(G (sqrt(tau(1 - tau)) + G/2)): ``log_kernel``
    forms the radical from a cancelling difference, ~1e-8 off there.  The
    second array, eps (|L|/2 + |a'| + |kernel|), bounds the rounding the
    three terms can leave in the slope.
    """
    rest = 1.0 - omega
    nu = (alpha - 0.5 * omega) / rest
    log_nu, log_co = np.log2(nu), np.log2(1.0 - nu)
    a_prime = (2.0 * np.log2(rest) + nu * log_nu + (1.0 - nu) * log_co
               + (log_co - log_nu) * (alpha - 0.5) / rest)
    kernel = (np.log2(omega * (np.sqrt(tau * (1.0 - tau)) + 0.5 * omega)) if at_cap
              else log_kernel(0.5 * omega, alpha, tau))
    return (0.5 * L - a_prime + kernel,
            _EPS * (0.5 * abs(L) + np.abs(a_prime) + np.abs(kernel)))


class _F1Batch(NamedTuple):
    """Inner maxima of a batch of slices, one entry per alpha, with the
    alpha-slope of each maximum."""
    value: np.ndarray
    arg_omega: np.ndarray
    at_cap: np.ndarray
    iterations: np.ndarray
    slope: np.ndarray


def _slope_root(cap: np.ndarray, alpha: np.ndarray, tau: np.ndarray, L: float,
                f_zero: np.ndarray, f_top: np.ndarray,
                width: float) -> tuple[np.ndarray, np.ndarray]:
    """The root of W's omega-slope in (0, G (1 - _S_TOP^2)), one per slice.

    The slope is positive at omega = 0 (value ``f_zero``) and negative at
    the top of the band (``f_top``).  The search runs in s, where
    omega = G (1 - s^2): the slope's square-root branch at the cap is
    regular there.  Each pass takes one regula falsi step per bracket; an
    end kept twice in a row has its slope halved (the Illinois rule), so
    both ends close in on the root superlinearly.  A slice freezes once
    its bracket is at most ``width`` G wide in omega, once the step no
    longer falls strictly inside it (the root is then within rounding of
    the step), or once the slope at the step is within the rounding bound
    ``_w_slope`` returns with it.  So its passes do not depend on the
    other slices.  Returns omega at each slice's last step and the passes
    it took.
    """
    x, passes = np.empty(cap.size), np.empty(cap.size, int)
    rows = np.arange(cap.size)
    a, b = np.ones(cap.size), np.full(cap.size, _S_TOP)  # s at 0 and the top
    fa, fb, last = f_zero, f_top, np.zeros(cap.size)
    k = 0
    while rows.size:
        k += 1
        c = b + (a - b) * (fb / (fb - fa))
        fc, noise = _w_slope(cap * (1.0 - c * c), alpha, tau, L)
        sign = np.sign(fc)
        halve = np.where(sign == last, 0.5, 1.0)
        up, last = sign > 0.0, sign
        done = ~((b < c) & (c < a)) | (np.abs(fc) <= noise)
        a, fa = np.where(up, c, a), np.where(up, fc, halve * fa)
        b, fb = np.where(up, b, c), np.where(up, halve * fb, fc)
        done |= (a - b) * (a + b) <= width
        if done.any():
            x[rows[done]] = cap[done] * (1.0 - c[done] ** 2)
            passes[rows[done]] = k
            keep = ~done
            rows, a, b, fa, fb, last, cap, alpha, tau = (
                v[keep] for v in (rows, a, b, fa, fb, last, cap, alpha, tau))
    return x, passes


def _f1_batch(rate: np.ndarray, alphas: np.ndarray, L: float, tol: float) -> _F1Batch:
    """max over omega in [0, G(alpha, tau)] of W for every alpha in the batch.

    ``rate`` holds one rate per alpha.  W is concave in omega, so its
    analytic slope changes sign at most once.  A slope still non-negative
    a hair below the cap puts the maximum at the cap; a slope not positive
    at omega = 0 puts it at 0, where W = 0.  Only the slices in between
    search, by ``_slope_root``, until their bracket is at most tol G / 4
    wide: never wider than the ceil(log_8(1/(2 tol))) eight-cell passes of
    a sign search would leave it, so a coarse tol still narrows the band.
    The value error is quadratic in the bracket width.  Every slice then
    reads mu once, at its argmax, which integrates only the panels below
    it: every panel at the cap, none at omega = 0.  An interior maximum
    below 0 (round-off near omega = 0) is clamped.  Slices with
    G <= min(tol, _F1_TOL) get 0: a coarse search tolerance does not
    collapse a band.  ``iterations`` counts each slice's slope
    evaluations, as in ``OptResult``.

    ``slope`` is dF1/dalpha, by the envelope theorem, from the same read
    of mu (``MuSlice.mu_and_slope``): -dmu/dalpha at fixed omega = the
    argmax, tau following alpha on the slice rule, plus at the cap
    dW/domega there times dG/dalpha.  A maximum of 0 (omega = 0, a
    clamped maximum or a collapsed band) has slope 0, as alpha = 1/2 has
    by symmetry.
    """
    sl = MuSlice(rate, alphas)
    cap = sl.cap
    live = cap > min(tol, _F1_TOL)
    if not live.all():
        out = _F1Batch(np.zeros(cap.size), np.zeros(cap.size),
                       np.ones(cap.size, bool), np.zeros(cap.size, int),
                       np.zeros(cap.size))
        if live.any():
            for field, sub in zip(out, _f1_batch(rate[live], alphas[live], L, tol)):
                field[live] = sub
        return out
    alpha, tau = sl.alpha, sl.tau
    f_top = _w_slope(cap * (1.0 - _S_TOP * _S_TOP), alpha, tau, L)[0]
    at_cap = f_top >= 0.0
    x, iterations = cap.copy(), np.ones(cap.size, int)
    below = np.flatnonzero(~at_cap)
    f_zero = _w_slope(np.zeros(below.size), alpha[below], tau[below], L)[0]
    x[below], iterations[below] = 0.0, 2
    rise = f_zero > 0.0
    k = below[rise]
    x[k], passes = _slope_root(cap[k], alpha[k], tau[k], L, f_zero[rise],
                               f_top[k], 0.25 * tol)
    iterations[k] += passes
    mu, d_mu = sl.mu_and_slope(x)
    value = 0.5 * x * L - mu
    clamp = ~at_cap & (value < 0.0)
    value = np.where(clamp, 0.0, value)
    at = np.flatnonzero(at_cap)
    w_omega = _w_slope(x[at], alpha[at], tau[at], L, at_cap=True)[0]
    # dG/dalpha is -inf where tau = 0: the slope is too if W still rises
    g = sl.cap_slope()[at]
    finite = np.isfinite(g)
    slope = -d_mu
    slope[at] += np.where(finite, w_omega * np.where(finite, g, 0.0),
                          np.where(w_omega > 0.0, -np.inf, 0.0))
    return _F1Batch(value, np.where(clamp, 0.0, x), at_cap, iterations,
                    np.where(value > 0.0, slope, 0.0))


def F1_maximize(rate: float, alpha: float, ch: ChannelParam,
                *, tol: float = _F1_TOL) -> OptResult:
    """max over omega in [0, G(alpha, tau)] of W(omega, alpha, R, p).

    mu is convex in omega, so W is concave on the band and the maximum is
    the root of its analytic omega-slope, found by a bracketed search (see
    ``_f1_batch``).  The cap flag records a non-negative slope of W a hair
    below the cap: the form of boundary attainment the band criterion
    G >= omega_1(p) describes.  ``tol`` in (0, 1/2) sets the argmax
    bracket, at most tol G / 4 wide; the result is bit-for-bit the
    slice's entry in any batch of ``_f1_batch``, whose ``MuSlice`` refuses
    a slice the rule h2(alpha) >= 1 - R excludes.
    """
    if not 0.0 < tol < 0.5:
        raise DomainError(f"tol must be finite and lie in (0, 1/2), got {tol!r}")
    res = _f1_batch(np.array([rate], float), np.array([alpha], float), ch.log_pair, tol)
    return OptResult(float(res.value[0]), float(res.arg_omega[0]), alpha,
                     {"omega": bool(res.at_cap[0]), "alpha": False},
                     int(res.iterations[0]))


def _hermite_min(a: float, b: float, va: float, vb: float, da: float,
                 db: float) -> tuple[float, float] | None:
    """The lowest interior local minimum (value, alpha) of the cubic Hermite
    interpolant of the values va, vb and slopes da, db on [a, b], if any."""
    if not (math.isfinite(da) and math.isfinite(db)):
        return None
    h = b - a
    # H(t) = va + c1 t + c2 t^2 + c3 t^3 on t in [0, 1]
    c1, c2 = da * h, 3.0 * (vb - va) - (2.0 * da + db) * h
    c3 = 2.0 * (va - vb) + (da + db) * h
    if c3 == 0.0:
        roots = [-0.5 * c1 / c2] if c2 != 0.0 else []
    else:
        disc = c2 * c2 - 3.0 * c1 * c3
        roots = ([(-c2 + sign * math.sqrt(disc)) / (3.0 * c3) for sign in (1.0, -1.0)]
                 if disc >= 0.0 else [])
    minima = [(va + t * (c1 + t * (c2 + t * c3)), a + t * h)
              for t in roots if 0.0 < t < 1.0 and c2 + 3.0 * c3 * t > 0.0]
    return min(minima, default=None)


def _f_search(rate: float):
    """min over alpha of F1 at one rate, as a coroutine.

    Yields each alpha array it needs evaluated, receives the array's
    _F1Batch, the alpha-slopes of F1 included, and returns the
    OptResult, so that _f_rates can evaluate the arrays of many rates in
    shared passes.  F1 >= 0 (W = 0 at omega = 0), so a value <= 0 is a
    minimum and ends the search.  Otherwise a grid cell is searched when
    its slope changes sign from - to + (a local minimum inside) and it
    may hold a value below the best, or when its cubic Hermite
    interpolant dips below the best value; the other cells, and cells
    1e-12 wide, are not searched.
    - A bracket of a sign change takes two points a pass: the Illinois
      step of ``_slope_root`` on the slope, and the minimum of the Hermite
      interpolant of its ends, the secant corrected by the values.  It is
      done once the gain its slope still promises, slope^2 / (2 F1''), is
      below 1e-17, it is 1e-12 wide, or no step falls strictly inside.
    - A dip with no sign change takes the interpolant's minimum, and its
      two parts are new cells.
    - At alpha0 the slope is singular when the maximum sits at the cap
      (dG/dalpha ~ -1/sqrt(tau)) and the interpolant means nothing, so a
      cell at alpha0 is searched on a sign change alone, by a first step
      of 7 points at 8^-k of the cell.
    - At 1/2 the slope is 0 by symmetry.  When the grid is lowest there,
      one point 1e-3 of a cell below it reads whether 1/2 is a local
      minimum (slope < 0 there) or a maximum, with a minimum below it.
    The result is the lowest value evaluated, the exact 1/2 on ties within
    1e-12 in the last cell.
    """
    alpha0 = binary_entropy_inv(1.0 - rate)
    # R = 0 collapses the constraint interval onto 1/2, defined by
    # continuity; at R = 1 every band collapses (F1 = 0 on the whole
    # interval) and its end alpha = 0 is no slice: both take 1/2 alone
    grid = (np.linspace(alpha0, 0.5, _F_GRID) if 0.0 < alpha0 < 0.5 - 1e-12
            else np.array([0.5]))
    pts: dict = {}          # alpha -> (value, slope, arg_omega, at_cap)
    it, best = 0, math.inf
    # cells under search: [a, b, fa, fb, end kept last, alphas asked], with
    # the Illinois slopes fa, fb of a sign change, or None for a dip
    cells: list = []
    asks, fresh, later = grid.tolist(), None, []    # later: the 1/2 probe's cells
    while True:
        batch = yield np.array(asks)
        it += int(batch.iterations.sum())
        pts.update(zip(asks, zip(batch.value.tolist(), batch.slope.tolist(),
                                 batch.arg_omega.tolist(), batch.at_cap.tolist())))
        best = min(best, float(batch.value.min()))
        if best <= 0.0:
            break
        if fresh is None:       # the grid: every cell is new
            fresh = list(zip(asks[:-1], asks[1:]))
            if int(np.argmin(batch.value)) == _F_GRID - 1:
                left = fresh.pop()[0]
                probe = 0.5 - 1e-3 * (0.5 - left)
                later = [(left, probe), (probe, 0.5)]
        else:
            fresh, later = later, []
        searched = []
        for a, b, fa, fb, kept, asked in cells:
            ends = [a] + asked + [b]
            parts = list(zip(ends[:-1], ends[1:]))
            turns = [(x, y) for x, y in parts if pts[x][1] < 0.0 < pts[y][1]]
            if a == alpha0 or fa is None or not turns:
                # a ladder or a dip: its parts are new cells (a slope of 0
                # at a step is the root itself, and its parts end at once)
                fresh += parts
                continue
            x, y = turns[0]
            side = "a" if x == a else "b" if y == b else None
            halve = 0.5 if side is not None and side == kept else 1.0
            fa = halve * fa if x == a else pts[x][1]
            fb = halve * fb if y == b else pts[y][1]
            gain = min(pts[c][1] ** 2 for c in asked)
            curvature = (pts[y][1] - pts[x][1]) / (y - x)
            if y - x > 1e-12 and gain > 2e-17 * curvature:
                searched.append([x, y, fa, fb, side, None])
        cells = searched
        for a, b in fresh:
            if b - a <= 1e-12:
                continue
            (va, da, *_), (vb, db, *_) = pts[a], pts[b]
            low = min(va, vb)
            if da < 0.0 < db and (a == alpha0 or low <= best):
                cells.append([a, b, da, db, None, None])
                continue
            # H >= min(va, vb) - 4/27 (b - a)(|da| + |db|): most cells end here
            bound = low - 0.15 * (b - a) * (abs(da) + abs(db))
            if a == alpha0 or bound >= best - 1e-17:
                continue
            dip = _hermite_min(a, b, va, vb, da, db)
            if dip is not None and dip[0] < best - 1e-17:
                turn = da < 0.0 < db
                cells.append([a, b, da if turn else None, db, None, None])
        asks = [probe for _, probe in later[:1]]
        for cell in cells:
            a, b, fa, fb = cell[:4]
            if a == alpha0:
                cell[5] = [a + (b - a) * 8.0 ** -k for k in range(7, 0, -1)]
            else:
                (va, da, *_), (vb, db, *_) = pts[a], pts[b]
                dip = _hermite_min(a, b, va, vb, da, db)
                steps = [dip[1]] if dip else []
                if fa is not None:
                    steps.append(b + (a - b) * (fb / (fb - fa)))
                cell[5] = sorted({c for c in steps if a < c < b})
            asks += cell[5]
        cells = [cell for cell in cells if cell[5]]
        if not asks:
            break
    order = sorted(pts)
    values = [pts[a][0] for a in order]
    k = int(np.argmin(values))
    best_alpha = order[k]
    # prefer the exact half-point on ties within the last grid cell
    if best_alpha >= grid[-2:][0] and pts[0.5][0] <= values[k] + 1e-12:
        best_alpha = 0.5
    value, _, arg_omega, at_cap = pts[best_alpha]
    at_alpha_edge = best_alpha >= 0.5 - 1e-9 or best_alpha <= alpha0 + 1e-9
    return OptResult(value, arg_omega, best_alpha,
                     {"omega": at_cap, "alpha": at_alpha_edge}, it)


def _f_rates(rates: list[float], p: float) -> list[OptResult]:
    """F at distinct rates, their searches batched into shared passes.

    Each pass is one _f1_batch call, values and alpha-slopes from one
    MuSlice, over the alpha arrays that every search in flight asks for
    next.  A search joins while the pass has room for its global grid
    within _PASS_SLICES slices (one search always runs), and leaves as
    soon as it is done, so the bound on the slices of a pass bounds the
    panels it holds.  A pass
    costs about a millisecond of slope-search overhead whatever its size,
    so the bound is as large as memory allows: 31 global grids start up to
    31 rates in one pass.  Batch entries do not depend on their batch, so
    neither does a rate's F.
    """
    L = ChannelParam(p).log_pair
    results: list = [None] * len(rates)
    waiting = iter(range(len(rates)))
    flight: dict = {}       # rate index -> (search, alpha array it asks for)
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
        rate = np.repeat([rates[k] for k in flight], sizes)
        alphas = np.concatenate(grids)
        batch = _f1_batch(rate, alphas, L, _F1_TOL)
        cuts = np.cumsum(sizes)[:-1]
        parts = zip(*(np.split(field, cuts) for field in batch))
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
    each with the analytic alpha-slope of F1; there is no convexity
    guarantee in alpha, so the grid does the global work.  A minimum at
    an end is decided from the grid's values and slopes (at 1/2, whose
    slope is 0, with one more point just below it); a cell whose slope
    changes sign, or whose Hermite interpolant dips below the best value,
    is searched for the root of the slope in a few passes (see
    ``_f_search``).  This is a one-rate call of the grid routine behind
    ``curve``, which runs the searches of many rates in shared passes; a
    rate's result is the same whichever other rates share them, and it is
    cached per (rate, p).  At R = 1 every band collapses and F is 0,
    reported at alpha = 1/2.
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
    [R1, C] for ``corollary1``.  Refuses every other kind, and channels
    with p <= p1."""
    if kind not in (CurveKind.corollary1, CurveKind.straight_line):
        raise DomainError(f"curve kind {CurveKind(kind).value!r} has no segment window")
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

