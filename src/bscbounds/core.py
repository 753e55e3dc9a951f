"""Scalar channel functions and critical constants of the binary symmetric channel.

Everything is in bits: entropies, divergences and exponents all use base-2
logarithms.  The module collects the closed-form scalar layer that the bound
optimizer, the spectrum exponent and the cleaning-step analysis build on:

* binary entropy, its inverse, KL divergence, channel capacity;
* the weight cap ``omega_cap`` (normalised span of the minimal Hahn root);
* the critical constants ``tau0/R0`` (global), ``p1`` (global) and the per-p
  block ``tau1/R1/omega1/tau_crit/R_crit/omega_m``;
* the sphere-packing exponent;
* the equidistant-radius map ``t(omega)``, the equidistant-count exponent
  ``u(t, omega)`` and the cleaning gap ``g(lambda, s)`` with its three
  case-specific closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "DomainError",
    "ChannelParam",
    "CriticalConstants",
    "binary_entropy",
    "binary_entropy_inv",
    "kl_divergence",
    "capacity",
    "omega_cap",
    "solve_tau0",
    "solve_p1",
    "channel_constants",
    "sphere_packing_exponent",
    "zero_rate_exponent",
    "equidistant_radius",
    "equidistant_exponent",
    "cleaning_gap",
    "cleaning_gap_generic",
    "cleaning_gap_case1",
]

_LOG2E = math.log2(math.e)
_TOL = 1e-12


class DomainError(ValueError):
    """Argument outside the documented domain of a scalar operation."""


@dataclass(frozen=True)
class ChannelParam:
    """Crossover probability of a binary symmetric channel, 0 < p < 1/2."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 0.5:
            raise DomainError(
                f"crossover probability must lie strictly inside (0, 1/2), got {self.p!r}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def log_pair(self) -> float:
        """log2(1/(4pq)): twice the Bhattacharyya exponent of one word pair."""
        return math.log2(1.0 / (4.0 * self.p * self.q))

    @property
    def segment_intercept(self) -> float:
        """1 - log2(1 + 2 sqrt(pq)): the exact segment's value at rate 0."""
        return 1.0 - math.log2(1.0 + 2.0 * math.sqrt(self.p * self.q))


@dataclass(frozen=True)
class CriticalConstants:
    """Solved threshold constants: global (tau0, r0, p1) plus a per-p block."""

    p: float
    tau0: float
    r0: float
    p1: float
    tau1: float
    r1: float
    omega1: float
    tau_crit: float
    r_crit: float
    capacity: float
    omega_m: float

    def __post_init__(self) -> None:
        if not self.r_crit < self.capacity:
            raise DomainError("critical rate must stay below capacity")


def binary_entropy(x: float) -> float:
    """Binary entropy h2(x) in bits, with 0*log(0) = 0 at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _h2_arr(x: np.ndarray) -> np.ndarray:
    """Vectorised binary entropy; endpoints give 0 without warnings."""
    x = np.asarray(x, dtype=float)
    inner = (x > 0.0) & (x < 1.0)
    xs = np.where(inner, x, 0.5)
    out = -xs * np.log2(xs) - (1.0 - xs) * np.log2(1.0 - xs)
    return np.where(inner, out, 0.0)


def _h2_inv_arr(y: np.ndarray) -> np.ndarray:
    """Vectorised inverse of h2 on [0, 1/2]; ``binary_entropy_inv`` is the
    scalar reference.

    Newton from below: h2 is concave on [0, 1/2], so a step from the left
    never overshoots.  It starts at the larger of two lower bounds of the
    preimage, 1/2 - sqrt(ln2 (1 - y) / 2) (as 1 - h2(1/2 - u) >= 2u^2/ln2)
    and, for y <= e/4, y / (2 log2(e/y)) (as h2(x) <= x log2(e/x)); four
    steps reach round-off on [0, 1], six are taken.  y <= 1e-300 gives 0.
    """
    y = np.asarray(y, dtype=float)
    inner = (y > 1e-300) & (y < 1.0)
    ys = np.where(inner, y, 0.5)
    top = 0.5 - np.sqrt(0.5 * math.log(2.0) * (1.0 - ys))
    low = np.where(ys <= 0.25 * math.e,
                   ys / (2.0 * (_LOG2E - np.log2(ys))), 0.0)
    x = np.maximum(top, low)
    for _ in range(6):
        x = x + (ys - _h2_arr(x)) / np.log2((1.0 - x) / x)
    return np.where(inner, x, np.where(y >= 1.0, 0.5, 0.0))


def binary_entropy_inv(y: float) -> float:
    """Inverse of h2 on [0, 1/2], by bisection to absolute tolerance 1e-12.

    The preimage on the lower branch is returned; ``binary_entropy`` of the
    result reproduces ``y`` within 1e-12.
    """
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"entropy value must lie in [0, 1], got {y!r}")
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break   # no float lies strictly between: the bracket is final
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-17:
            break
    return 0.5 * (lo + hi)


def kl_divergence(x: float, y: float) -> float:
    """Binary KL divergence D(x || y) in bits; y must avoid the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"first argument must lie in [0, 1], got {x!r}")
    if not 0.0 < y < 1.0:
        raise DomainError(f"second argument must lie strictly in (0, 1), got {y!r}")
    total = 0.0
    if x > 0.0:
        total += x * math.log2(x / y)
    if x < 1.0:
        total += (1.0 - x) * math.log2((1.0 - x) / (1.0 - y))
    return total


def capacity(ch: ChannelParam) -> float:
    """Channel capacity 1 - h2(p) in bits per use."""
    return 1.0 - binary_entropy(ch.p)


def omega_cap(alpha, tau):
    """Weight cap G(alpha, tau) = 2(alpha(1-alpha) - tau(1-tau)) / (1 + 2 sqrt(tau(1-tau))).

    Asymptotically, twice the normalised minimal root of the degree-(tau n)
    Hahn polynomial on the weight-(alpha n) slice; it caps the usable
    normalised-distance range of the spectrum bound.  Accepts scalars or
    broadcastable numpy arrays.
    """
    a = np.asarray(alpha, dtype=float)
    t = np.asarray(tau, dtype=float)
    if not np.all((0.0 <= t) & (t <= a + _TOL) & (a <= 0.5 + _TOL)):
        raise DomainError(f"need 0 <= tau <= alpha <= 1/2, got alpha={alpha!r} tau={tau!r}")
    root = np.sqrt(t * (1.0 - t))
    out = 2.0 * (a * (1.0 - a) - t * (1.0 - t)) / (1.0 + 2.0 * root)
    return out if out.ndim else float(out)


@lru_cache(maxsize=1)
def solve_tau0() -> tuple[float, float]:
    """Threshold (tau0, R0) below which the symmetric slice alpha = 1/2 is optimal.

    tau0 is the unique interior root of
    (1 - 2t) * (1 + 1/(2 sqrt(t(1-t)))) - ln((1-t)/t); R0 = h2(tau0).
    """

    def f(t: float) -> float:
        return ((1.0 - 2.0 * t) * (1.0 + 0.5 / math.sqrt(t * (1.0 - t)))
                - math.log((1.0 - t) / t))

    assert f(0.01) > 0.0 > f(0.3), "bracket lost the sign change"
    tau0 = float(brentq(f, 0.01, 0.3, xtol=1e-15, rtol=8.9e-16))
    return tau0, binary_entropy(tau0)


def _tau1(p: float) -> float:
    pair = 4.0 * p * (1.0 - p)
    return (1.0 - pair ** 0.25) ** 2 / (2.0 * (1.0 + math.sqrt(pair)))


def _r_crit(p: float) -> float:
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    return 1.0 - binary_entropy(sp / (sp + sq))


@lru_cache(maxsize=1)
def solve_p1() -> float:
    """Crossover probability where R1(p) meets R_crit(p); exact segment exists above it."""

    def f(p: float) -> float:
        return binary_entropy(_tau1(p)) - _r_crit(p)

    assert f(1e-3) > 0.0 > f(0.1), "bracket lost the sign change"
    return float(brentq(f, 1e-3, 0.1, xtol=1e-15, rtol=8.9e-16))


@lru_cache(maxsize=256)
def _constants_cached(p: float) -> CriticalConstants:
    ch = ChannelParam(p)
    tau0, r0 = solve_tau0()
    tau1 = _tau1(p)
    r1 = binary_entropy(tau1)
    s = math.sqrt(4.0 * p * ch.q)
    omega1 = s / (1.0 + s)
    r_crit = _r_crit(p)
    tau_crit = binary_entropy_inv(r_crit)
    cap = capacity(ch)
    if ch.log_pair <= 0.0:
        raise DomainError(f"crossover probability {p!r} is too close to 1/2: "
                          f"log2(1/(4pq)) rounds to 0")
    # Normalised midpoint where the straight-line bound meets the spectrum
    # bound; the closed form avoids evaluating the spectrum exponent.
    omega_m = 2.0 * (ch.segment_intercept - r1) / ch.log_pair
    return CriticalConstants(
        p=p, tau0=tau0, r0=r0, p1=solve_p1(), tau1=tau1, r1=r1, omega1=omega1,
        tau_crit=tau_crit, r_crit=r_crit, capacity=cap, omega_m=omega_m)


def channel_constants(ch: ChannelParam) -> CriticalConstants:
    """All solved critical constants for the channel (cached per p)."""
    return _constants_cached(ch.p)


def sphere_packing_exponent(rate: float, ch: ChannelParam) -> float:
    """Sphere-packing exponent D(h2^{-1}(1 - R) || p); zero exactly at capacity."""
    cap = capacity(ch)
    if rate < -_TOL or rate > cap + _TOL:
        raise DomainError(f"rate must lie in [0, capacity={cap:.6f}], got {rate!r}")
    rate = min(max(rate, 0.0), cap)
    return kl_divergence(binary_entropy_inv(1.0 - rate), ch.p)


def zero_rate_exponent(ch: ChannelParam) -> float:
    """Exact zero-rate exponent (1/4) log2(1/(4pq)); half the sphere-packing value."""
    return 0.25 * ch.log_pair


def equidistant_radius(omega: float, ch: ChannelParam) -> float:
    """Normalised test radius t(omega) = min{omega/2 + (1-omega)p, (1-sqrt(1-2 omega))/2}.

    The first branch is the smaller one exactly for omega >= omega1(p); the
    branches meet at omega1 where both equal (p + sqrt(pq)) / (1 + 2 sqrt(pq)).
    """
    if not -_TOL <= omega <= 0.5 + _TOL:
        raise DomainError(f"normalised distance must lie in [0, 1/2], got {omega!r}")
    omega = min(max(omega, 0.0), 0.5)
    linear = 0.5 * omega + (1.0 - omega) * ch.p
    curved = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * omega))
    return min(linear, curved)


def equidistant_exponent(t: float, omega: float) -> float:
    """Exponent u(t, omega) of the count of outputs equidistant from a word pair.

    u(t, omega) = omega + (1 - omega) h2(1/2 - (1-2t)/(2(1-omega))); equals
    omega at t = omega/2 and 1 at t = 1/2, and is non-increasing in omega.
    """
    if not 0.0 <= omega < 1.0:
        raise DomainError(f"normalised distance must lie in [0, 1), got {omega!r}")
    if not 0.5 * omega - _TOL <= t <= 0.5 + _TOL:
        raise DomainError(f"radius must lie in [omega/2, 1/2], got t={t!r} omega={omega!r}")
    arg = 0.5 - (1.0 - 2.0 * t) / (2.0 * (1.0 - omega))
    arg = min(max(arg, 0.0), 1.0)
    return omega + (1.0 - omega) * binary_entropy(arg)


def cleaning_gap_generic(lam: float, s: float, ch: ChannelParam) -> float:
    """Cleaning gap g(lam, s) as the plain ratio-exponent composition.

    g(lam, s) = u(t(s), lam) - u(t(lam), lam) - (t(s) - t(lam)) log2(q/p):
    the exponent cost of replacing the radius tuned for distance ``lam`` by
    the radius tuned for ``s`` while the spectrum sits at distance ``lam``.

    Below omega1(p) this composition loses convexity in ``lam`` near the
    diagonal and is not the form whose margins the claims report certifies;
    :func:`cleaning_gap` dispatches to :func:`cleaning_gap_case1` there.
    Above omega1 the two coincide.
    """
    _check_gap_domain(lam, s)
    ts, tl = equidistant_radius(s, ch), equidistant_radius(lam, ch)
    ratio = math.log2(ch.q / ch.p)
    return (equidistant_exponent(ts, lam) - equidistant_exponent(tl, lam)
            - (ts - tl) * ratio)


def _check_gap_domain(lam: float, s: float) -> None:
    if not -_TOL <= lam <= s + _TOL or s > 0.5 + _TOL:
        raise DomainError(f"need 0 <= lam <= s <= 1/2, got lam={lam!r} s={s!r}")


def cleaning_gap_case1(lam, s, ch: ChannelParam):
    """Closed form of the cleaning gap when both distances sit below omega1.

    Each square-root term is normalised on its own slice,

        g(lam, s) = (1 - lam) [h2(1/2 - sqrt(1-2s)/(2(1-s)))
                               - h2(1/2 - sqrt(1-2 lam)/(2(1-lam)))]
                    + (1/2) [sqrt(1-2s) - sqrt(1-2 lam)] log2(q/p),

    which keeps the map lam -> g(lam, s) convex on the whole band and is the
    form whose curvature and linear-decay margins the claims report measures.
    Note the s-term is *not* u(t(s), lam) rescaled -- substituting t into the
    ratio-exponent composition would put (1 - lam) under both square roots and
    destroy the convexity; see :func:`cleaning_gap_generic`.

    Accepts scalars or broadcastable numpy arrays; used by the claims grids.
    """
    lam = np.asarray(lam, dtype=float)
    s = np.asarray(s, dtype=float)
    ratio = math.log2(ch.q / ch.p)
    rl = np.sqrt(1.0 - 2.0 * lam)
    rs = np.sqrt(1.0 - 2.0 * s)
    out = ((1.0 - lam) * (_h2_arr(0.5 - rs / (2.0 * (1.0 - s)))
                          - _h2_arr(0.5 - rl / (2.0 * (1.0 - lam))))
           + 0.5 * (rs - rl) * ratio)
    return out if out.ndim else float(out)


def _cleaning_gap_case2(lam: float, s: float, ch: ChannelParam) -> float:
    ratio = math.log2(ch.q / ch.p)
    arg = 0.5 - (1.0 - 2.0 * ch.p) * (1.0 - s) / (2.0 * (1.0 - lam))
    return ((1.0 - lam) * (binary_entropy(arg) - binary_entropy(ch.p))
            - (0.5 - ch.p) * (s - lam) * ratio)


def _cleaning_gap_case3(lam: float, s: float, ch: ChannelParam) -> float:
    # Split the radius path at omega1: the straddling part f(lam, s) telescopes
    # out of the ratio-exponent composition exactly, the remainder is the
    # below-omega1 closed form evaluated at (lam, omega1).
    omega1 = channel_constants(ch).omega1
    ratio = math.log2(ch.q / ch.p)
    denom = 2.0 * (1.0 - lam)
    scale = 1.0 - 2.0 * ch.p
    straddle = ((1.0 - lam)
                * (binary_entropy(0.5 - (1.0 - s) * scale / denom)
                   - binary_entropy(0.5 - (1.0 - omega1) * scale / denom))
                - 0.5 * (s - omega1) * scale * ratio)
    return straddle + float(cleaning_gap_case1(lam, omega1, ch))


def cleaning_gap(lam: float, s: float, ch: ChannelParam) -> float:
    """Cleaning gap g(lam, s) via the case-specific closed forms.

    Dispatches on the position of (lam, s) relative to omega1(p): both below
    omega1 (convex closed form, :func:`cleaning_gap_case1`), both above
    (identical to :func:`cleaning_gap_generic`), or straddling (straddle part
    plus the below-omega1 form at (lam, omega1)).
    """
    _check_gap_domain(lam, s)
    omega1 = channel_constants(ch).omega1
    if s <= omega1 + _TOL:
        return float(cleaning_gap_case1(lam, s, ch))
    if lam >= omega1 - _TOL:
        return _cleaning_gap_case2(lam, s, ch)
    return _cleaning_gap_case3(lam, s, ch)
