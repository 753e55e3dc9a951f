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
_F1_TOL = 1e-10         # relative bracket width of the inner sign search
_SECTIONS = 8           # cells the inner sign search splits its bracket into


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


def _log_quarter(ch: ChannelParam) -> float:
    return math.log2(1.0 / (4.0 * ch.p * ch.q))


def W_value(omega: float, alpha: float, rate: float, ch: ChannelParam) -> float:
    """W(omega, alpha, R, p): pair exponent minus spectrum exponent, in bits."""
    pt = SpectrumPoint.make(rate, alpha, omega)
    return 0.5 * pt.omega * _log_quarter(ch) - spectrum_exponent_at(rate, alpha, pt.omega)


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
    """Inner maxima of an alpha batch at one rate, one entry per alpha."""
    value: np.ndarray
    arg_omega: np.ndarray
    at_cap: np.ndarray
    iterations: np.ndarray


def _f1_batch(rate: float, alphas: np.ndarray, L: float, tol: float) -> _F1Batch:
    """max over omega in [0, G(alpha, tau)] of W for every alpha in the batch.

    W is concave in omega, so its analytic slope changes sign once: a slope
    that is still non-negative at the cap puts the maximum there.  Otherwise
    each array pass samples the slope at _SECTIONS - 1 inner points of every
    bracket and keeps the cell where its sign changes, until the bracket is
    tol * max(G, 1) wide: about 11 passes where bisection needs about 32,
    and with numpy's per-call overhead 7 samples cost about what 1 does.
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
            for field, sub in zip(out, _f1_batch(rate, alphas[live], L, tol)):
                field[live] = sub
        return out
    at_cap = _w_slope(cap * (1.0 - 1e-12), sl.alpha, sl.tau, L) >= 0.0
    top = float(cap.max())
    passes = math.ceil(math.log(top / (tol * max(top, 1.0)), _SECTIONS))
    alpha, tau = sl.alpha[:, None], sl.tau[:, None]
    inner = np.arange(1, _SECTIONS)
    lo, width = np.zeros_like(cap), cap
    for _ in range(passes):
        width = width / _SECTIONS
        # the slope falls with omega, so its positive samples are a prefix
        probes = lo[:, None] + width[:, None] * inner
        lo = lo + width * (_w_slope(probes, alpha, tau, L) > 0.0).sum(axis=1)
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
    found by a sign search on its analytic omega-slope (see ``_f1_batch``).  The cap flag records a non-negative slope of W at the
    cap, or the cap value winning against the interior: the form of
    boundary attainment the band criterion G >= omega_1(p) describes.
    """
    alpha0 = binary_entropy_inv(1.0 - rate)
    if alpha < alpha0 - 1e-9:
        raise DomainError(
            f"alpha must be >= h2_inv(1-R) = {alpha0:.6f}, got {alpha!r}")
    res = _f1_batch(rate, np.array([alpha], dtype=float), _log_quarter(ch), tol)
    return OptResult(float(res.value[0]), float(res.arg_omega[0]), alpha,
                     {"omega": bool(res.at_cap[0]), "alpha": False},
                     int(res.iterations[0]))


@lru_cache(maxsize=4096)
def _f_minimize_cached(rate: float, p: float) -> OptResult:
    L = _log_quarter(ChannelParam(p))
    alpha0 = binary_entropy_inv(1.0 - rate)
    # R = 0 collapses the constraint interval onto 1/2; defined by continuity
    alphas = (np.linspace(alpha0, 0.5, _F_GRID) if alpha0 < 0.5 - 1e-12
              else np.array([0.5]))
    # one batched pass over the grid does the global work
    res = _f1_batch(rate, alphas, L, _F1_TOL)
    it = int(res.iterations.sum())
    i, last = int(np.argmin(res.value)), alphas.size - 1
    lo, hi = float(alphas[max(i - 1, 0)]), float(alphas[min(i + 1, last)])
    # polish: each level shrinks the bracket to the two cells around its
    # best point, a factor (_POLISH - 1)/2 per level
    level, a, j = res, alphas, i
    while hi - lo > 1e-9:
        a = np.linspace(lo, hi, _POLISH)
        level = _f1_batch(rate, a, L, _F1_TOL)
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


def F_minimize(rate: float, ch: ChannelParam) -> OptResult:
    """min over alpha in [h2_inv(1-R), 1/2] of F1(R, alpha, p).

    One batched inner maximization over a fixed grid of _F_GRID alphas,
    then batched bracket levels of _POLISH points around the best cell
    until the bracket is 1e-9 wide; there is no convexity guarantee in
    alpha, so the grid does the global work and the levels only polish.
    """
    if not 0.0 <= rate <= 1.0:
        raise DomainError(f"rate must lie in [0, 1], got {rate!r}")
    return _f_minimize_cached(float(rate), ch.p)


def theorem1_bound(R: float, ch: ChannelParam) -> float:
    """Pointwise min of the F bound and the sphere-packing exponent."""
    cap = capacity(ch)
    if not -_TOL <= R <= cap + _TOL:
        raise DomainError(f"rate must lie in [0, C={cap:.6f}], got {R!r}")
    R = min(max(R, 0.0), cap)
    return min(F_minimize(R, ch).value, sphere_packing_exponent(R, ch))


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


def corollary1_exponent(R: float, ch: ChannelParam) -> float:
    """The exact-exponent segment 1 - log2(1 + 2 sqrt(pq)) - R continued by
    sphere packing above the critical rate.

    Only meaningful when the segment exists, i.e. when the low-rate anchor
    R1 sits below the critical rate (p above the crossover channel p1).
    """
    cc = channel_constants(ch)
    if ch.p <= cc.p1:
        raise DomainError(
            f"segment requires p > p1 = {cc.p1:.7f}, got p = {ch.p!r}")
    cap = cc.capacity
    if not cc.r1 - 1e-9 <= R <= cap + _TOL:
        raise DomainError(
            f"rate must lie in [R1={cc.r1:.6f}, C={cap:.6f}], got {R!r}")
    R = min(max(R, cc.r1), cap)
    if R <= cc.r_crit:
        return 1.0 - math.log2(1.0 + 2.0 * math.sqrt(ch.p * ch.q)) - R
    return sphere_packing_exponent(R, ch)


def _segment_anchors(ch: ChannelParam) -> tuple[tuple[float, float], tuple[float, float]]:
    cc = channel_constants(ch)
    if ch.p <= cc.p1 or cc.r1 >= cc.r_crit:
        raise DomainError(
            f"straight segment requires p > p1 = {cc.p1:.7f} so that "
            f"R1 < R_crit; got p = {ch.p!r}")
    low = (cc.r1, F_minimize(cc.r1, ch).value)
    high = (cc.r_crit, sphere_packing_exponent(cc.r_crit, ch))
    return low, high


def _combined(R: float, ch: ChannelParam) -> float:
    """Best-known upper bound on the reliability function.

    Piecewise: from the anchor rate R1 upward (when the channel has a
    segment, p > p1) the exact-exponent segment and its sphere-packing
    continuation are the bound — on that range the exponent is known
    exactly, and the two-level optimization is not allowed to loosen it.
    Below R1, and everywhere for p <= p1, the bound is the pointwise min
    of F with sphere packing.  The two pieces meet at R1, where F equals
    the segment value.
    """
    cc = channel_constants(ch)
    if ch.p > cc.p1 and R >= cc.r1 - _TOL:
        return corollary1_exponent(R, ch)
    return theorem1_bound(R, ch)


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
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    # the slack absorbs the rounding of r_max - r_min, whatever the step
    span = (r_max - r_min + 8.0 * math.ulp(r_max)) / step
    if not span < _MAX_POINTS:
        raise DomainError(
            f"step {step!r} gives more than {_MAX_POINTS} points on "
            f"[{r_min}, {r_max}]")
    n = int(math.floor(span)) + 1
    rates = [min(r_min + k * step, cap) for k in range(n)]

    fns = {
        CurveKind.sphere_packing: lambda r: sphere_packing_exponent(r, ch),
        CurveKind.F_bound: lambda r: F_minimize(r, ch).value,
        CurveKind.theorem1_min: lambda r: theorem1_bound(r, ch),
        CurveKind.corollary1: lambda r: corollary1_exponent(r, ch),
        CurveKind.straight_line: lambda r: straight_line(r, *_segment_anchors(ch)),
        CurveKind.combined: lambda r: _combined(r, ch),
    }
    f = fns[kind]
    pts = tuple((r, max(f(r), 0.0)) for r in rates)
    return BoundCurve(ch, kind, pts)


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
    the band-width maximum over p.
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
    report = {
        "suite": "claims",
        "thresholds": {"corner": _CORNER_THRESHOLD, "decay": _DECAY_THRESHOLD},
        "per_p": per_p,
        "band_width_max": {"p": p_star, "width": width},
        "passed": ok and abs(width - 0.1076) <= 2e-3,
    }
    return report
