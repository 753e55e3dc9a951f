"""Discrete orthogonal polynomials on the Johnson scheme and their roots.

Everything here works in log2 space with an explicit sign, because the
interesting regime (lengths in the hundreds to thousands) puts polynomial
values far beyond float range.  Two evaluation paths are kept deliberately
independent: a ratio chain seeded at the origin (cheap, valid below the
first root where all values are positive) and a three-term recurrence in
the degree index (valid everywhere, used past the root and as a fallback).

The minimal root x1 of the degree-j polynomial drives two consumers: its
scaled position 2*x1/n converges to the band cap G(alpha, tau), and the
extremal polynomial f(x) built from two consecutive degrees yields the
spectrum-component lower bound whose exponent q0 feeds the spectrum
module's integral form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import DomainError, binary_entropy
from .quadrature import integrate
from .spectrum import log_kernel

__all__ = [
    "HahnContext",
    "LogSigned",
    "BracketError",
    "hahn_at_zero",
    "hahn_ratios",
    "hahn_eval",
    "min_root",
    "MrrwPoly",
    "mrrw_poly",
    "choose_degree",
    "q0_exponent",
    "delsarte_margins",
]

_LOG2E = math.log2(math.e)
_Q0_TOL = 1e-9          # absolute tolerance of the q0 kernel integral


class BracketError(RuntimeError):
    """A root bracket failed to show the expected sign change."""


@dataclass(frozen=True)
class HahnContext:
    """Length n, weight w and degree j of one polynomial Q_j^{(n,w)}."""

    n: int
    w: int
    j: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and isinstance(self.w, int)
                and isinstance(self.j, int)):
            raise DomainError("HahnContext fields must be integers")
        if not 0 < self.w <= self.n // 2:
            raise DomainError(f"need 0 < w <= n/2, got n={self.n} w={self.w}")
        if not 0 <= self.j <= self.w:
            raise DomainError(f"need 0 <= j <= w, got j={self.j} w={self.w}")


@dataclass(frozen=True)
class LogSigned:
    """A real number stored as (log2 of absolute value, sign in {-1, 0, +1})."""

    log_abs: float
    sign: int

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * 2.0 ** self.log_abs
        except OverflowError:
            return self.sign * math.inf


_LS_ZERO = LogSigned(-math.inf, 0)


def _ls_add(a: LogSigned, b: LogSigned) -> LogSigned:
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    hi, lo = (a, b) if a.log_abs >= b.log_abs else (b, a)
    d = lo.log_abs - hi.log_abs  # <= 0
    if a.sign == b.sign:
        return LogSigned(hi.log_abs + math.log2(1.0 + 2.0 ** d), a.sign)
    rem = 1.0 - 2.0 ** d
    if rem <= 0.0:
        return _LS_ZERO
    return LogSigned(hi.log_abs + math.log2(rem), hi.sign)


def _log2_binom(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2.0)


def hahn_at_zero(ctx: HahnContext) -> LogSigned:
    """Q_j(0) = ((n - 2j + 1)/(n - j + 1)) binom(n, j); positive throughout."""
    n, j = ctx.n, ctx.j
    if j == 0:
        return LogSigned(0.0, 1)
    log = math.log2((n - 2 * j + 1) / (n - j + 1)) + _log2_binom(n, j)
    return LogSigned(log, 1)


def _b_coeff(ctx: HahnContext, k: int) -> float:
    n, w, j = ctx.n, ctx.w, ctx.j
    return w * (n - w) - k * (n - 2 * k) - j * (n + 1 - j)


def hahn_ratios(ctx: HahnContext, k_max: int) -> list[float]:
    """Consecutive-value ratios rho_k = Q_j(k+1)/Q_j(k) for k = 0..k_max.

    Forward-solves the quadratic recurrence in rho; if some rho comes out
    non-positive the polynomial has crossed its first root and the list is
    cut right after that entry (the crossing is the caller's signal).
    """
    n, w = ctx.n, ctx.w
    if k_max >= min(w, n - w):
        raise DomainError(f"k_max must stay below min(w, n-w) = {min(w, n - w)}")
    rho = _b_coeff(ctx, 0) / (w * (n - w))
    out = [rho]
    for k in range(1, k_max + 1):
        if out[-1] <= 0.0:
            break
        prev = out[-1]
        rho = (_b_coeff(ctx, k) * prev - k * k) / ((w - k) * (n - w - k) * prev)
        out.append(rho)
    return out


def _eval_by_degree(ctx: HahnContext, x: float) -> LogSigned:
    """Three-term recurrence in the degree index; valid at any real x.

    Runs on the hypergeometric normalisation (value 1 at x = 0) with
    periodic rescaling, then restores the Q normalisation at the end.
    """
    n, w, deg = ctx.n, ctx.w, ctx.j
    if deg == 0:
        return LogSigned(0.0, 1)
    h_prev = 1.0
    h = 1.0 - n * x / (w * (n - w))
    scale = 0.0
    for j in range(1, deg):
        a_j = ((j - n - 1) * (j - w) * (n - w - j)
               / ((2 * j - n - 1) * (2 * j - n)))
        c_j = (j * (j - w - 1) * (j - (n - w) - 1)
               / ((2 * j - n - 2) * (2 * j - n - 1)))
        h_prev, h = h, ((a_j + c_j - x) * h - c_j * h_prev) / a_j
        mag = max(abs(h), abs(h_prev))
        if mag > 2.0 ** 400 or (0.0 < mag < 2.0 ** -400):
            shift = math.floor(math.log2(mag))
            h, h_prev = h * 2.0 ** -shift, h_prev * 2.0 ** -shift
            scale += shift
    if h == 0.0:
        return _LS_ZERO
    sign = 1 if h > 0 else -1
    return LogSigned(math.log2(abs(h)) + scale + hahn_at_zero(ctx).log_abs, sign)


def hahn_eval(ctx: HahnContext, i: int) -> LogSigned:
    """Q_j(i) at an integer coordinate 0 <= i <= w.

    Uses the ratio chain where it is provably positive; once the chain
    signals a root crossing the degree-direction recurrence takes over.
    """
    if not 0 <= i <= ctx.w:
        raise DomainError(f"coordinate must lie in [0, w], got {i!r}")
    if i == 0:
        return hahn_at_zero(ctx)
    ratios = hahn_ratios(ctx, min(i, min(ctx.w, ctx.n - ctx.w) - 1))
    if len(ratios) >= i and all(r > 0.0 for r in ratios[:i]):
        log = hahn_at_zero(ctx).log_abs + sum(math.log2(r) for r in ratios[:i])
        return LogSigned(log, 1)
    return _eval_by_degree(ctx, i)


def _quad_root(v_m1: float, v_0: float, v_p1: float, x_center: float,
               t_lo: float, t_hi: float) -> float:
    """Root of the quadratic through samples at x_center + {-1, 0, +1},
    bisected on the sub-cell [t_lo, t_hi] (both ends sample coordinates,
    positive at t_lo, non-positive at t_hi).  1e-6 coordinate units.
    """
    def q(t: float) -> float:
        return (0.5 * v_m1 * t * (t - 1.0) + v_0 * (1.0 - t * t)
                + 0.5 * v_p1 * t * (t + 1.0))

    lo, hi = t_lo, t_hi
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if q(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return x_center + 0.5 * (lo + hi)


def min_root(ctx: HahnContext) -> float:
    """Location x1 of the smallest root of Q_j, to 1e-6 of a coordinate unit.

    Discrete orthogonality puts at most one root per unit interval, so the
    first non-positive entry of the ratio chain brackets x1 in (k, k+1];
    a quadratic through the three neighbouring integer values pins it down.
    """
    if ctx.j < 1:
        raise DomainError("the constant polynomial has no root")
    cap = min(ctx.w, ctx.n - ctx.w) - 1
    ratios = hahn_ratios(ctx, cap)
    k = next((m for m, r in enumerate(ratios) if r <= 0.0), None)
    if k is None:
        raise BracketError(
            f"no sign change found up to k = {cap} for n={ctx.n} w={ctx.w} j={ctx.j}")
    if k == 0:
        # root inside (0, 1]: samples at 0, 1, 2 relative to Q(0)
        v1 = ratios[0]
        if v1 == 0.0:
            return 1.0
        rho1 = ((_b_coeff(ctx, 1) * v1 - 1.0)
                / ((ctx.w - 1) * (ctx.n - ctx.w - 1) * v1))
        return _quad_root(1.0, v1, v1 * rho1, 1.0, -1.0, 0.0)
    # samples at k-1, k, k+1 relative to Q(k); root between t = 0 and t = 1
    return _quad_root(1.0 / ratios[k - 1], 1.0, ratios[k], float(k), 0.0, 1.0)


def _pair_sum_nodes(n: int, w: int, t: int, m: int) -> tuple[float, float, float]:
    """Scaled values of Q_t + Q_{t+1} at integers m-1, m, m+1 (common frame)."""
    vals = []
    for i in (m - 1, m, m + 1):
        vals.append((hahn_eval(HahnContext(n, w, t), i),
                     hahn_eval(HahnContext(n, w, t + 1), i)))
    ref = max(v.log_abs for pair in vals for v in pair if v.sign != 0)
    out = []
    for p, q in vals:
        s = (p.sign * 2.0 ** (p.log_abs - ref) if p.sign else 0.0) \
            + (q.sign * 2.0 ** (q.log_abs - ref) if q.sign else 0.0)
        out.append(s)
    return out[0], out[1], out[2]


def _logsigned_at(ctx: HahnContext, x: float) -> LogSigned:
    """Continuous single-polynomial evaluation by the same convention."""
    m = max(1, min(int(round(x)), ctx.w - 1))
    nodes = [hahn_eval(ctx, i) for i in (m - 1, m, m + 1)]
    ref = max(v.log_abs for v in nodes if v.sign != 0)
    v = [n.sign * 2.0 ** (n.log_abs - ref) if n.sign else 0.0 for n in nodes]
    tt = x - m
    val = (0.5 * v[0] * tt * (tt - 1.0) + v[1] * (1.0 - tt * tt)
           + 0.5 * v[2] * tt * (tt + 1.0))
    if val == 0.0:
        return _LS_ZERO
    return LogSigned(math.log2(abs(val)) + ref, 1 if val > 0 else -1)


@dataclass(frozen=True)
class MrrwPoly:
    """The extremal polynomial (1/(a-x)) Q_t^2(a) [Q_t(x) + Q_{t+1}(x)]^2."""

    a: float
    f0: LogSigned
    f_at_zero: LogSigned
    f_eval: Callable[[int], LogSigned]


def mrrw_poly(ctx: HahnContext) -> MrrwPoly:
    """Build the two-degree extremal polynomial for t = ctx.j.

    The pivot a solves Q_t(a) = -Q_{t+1}(a) between the two minimal roots;
    interlacing guarantees the sign change (the sum is positive at the
    deeper root, negative at the shallower one).
    """
    n, w, t = ctx.n, ctx.w, ctx.j
    if not 1 <= t <= w - 1:
        raise DomainError(f"degree must satisfy 1 <= t <= w-1, got t={t}")
    x_t = min_root(HahnContext(n, w, t))
    x_t1 = min_root(HahnContext(n, w, t + 1))
    # locate the integer cell where the pair sum flips; node values are exact,
    # so the bracketing quadratic agrees with its endpoints by construction
    lo_i = max(0, math.floor(x_t1))
    hi_i = min(w, math.ceil(x_t))
    cell = None
    prev = _ls_add(hahn_eval(HahnContext(n, w, t), lo_i),
                   hahn_eval(HahnContext(n, w, t + 1), lo_i)).sign
    for i in range(lo_i + 1, hi_i + 1):
        cur = _ls_add(hahn_eval(HahnContext(n, w, t), i),
                      hahn_eval(HahnContext(n, w, t + 1), i)).sign
        if prev > 0 >= cur:
            cell = i - 1
            break
        prev = cur
    if cell is None:
        raise BracketError(
            f"pair sum keeps its sign on ({x_t1:.4f}, {x_t:.4f}) "
            f"for n={n} w={w} t={t}")
    if cell >= 1:
        v_m1, v_0, v_p1 = _pair_sum_nodes(n, w, t, cell)
        a = _quad_root(v_m1, v_0, v_p1, float(cell), 0.0, 1.0)
    else:
        v_m1, v_0, v_p1 = _pair_sum_nodes(n, w, t, 1)
        a = _quad_root(v_m1, v_0, v_p1, 1.0, -1.0, 0.0)

    qt_a = _logsigned_at(HahnContext(n, w, t), a)
    log_qt_a_sq = 2.0 * qt_a.log_abs

    mu_t = hahn_at_zero(HahnContext(n, w, t)).log_abs
    f0 = LogSigned(
        mu_t + math.log2((n - 2 * t) * (n - 2 * t - 1))
        - math.log2((t + 1) * (w - t) * (n - w - t)) + log_qt_a_sq, 1)

    # binom(n, t+1) - binom(n, t-1) > 0 for t+1 <= n/2
    lead = _ls_add(LogSigned(_log2_binom(n, t + 1), 1),
                   LogSigned(_log2_binom(n, t - 1), -1))
    f_zero = LogSigned(-math.log2(a) + 2.0 * lead.log_abs + log_qt_a_sq, 1)

    def f_eval(i: int) -> LogSigned:
        pair = _ls_add(hahn_eval(HahnContext(n, w, t), i),
                       hahn_eval(HahnContext(n, w, t + 1), i))
        if pair.sign == 0:
            return _LS_ZERO
        sign = 1 if a > i else -1
        return LogSigned(-math.log2(abs(a - i)) + log_qt_a_sq
                         + 2.0 * pair.log_abs, sign)

    return MrrwPoly(a, f0, f_zero, f_eval)


def choose_degree(n: int, w: int, log2_size: float) -> int:
    """Largest degree t for which f(0)/f0 <= 2^-(n+1) binom(n,w) * size.

    Scans t downward from w-1; the ratio f(0)/f0 is free of the Q_t(a)^2
    factor, but still needs the pivot a of each candidate polynomial.
    """
    budget = -(n + 1) + _log2_binom(n, w) + log2_size
    for t in range(w - 1, 0, -1):
        poly = mrrw_poly(HahnContext(n, w, t))
        if poly.f_at_zero.log_abs - poly.f0.log_abs <= budget:
            return t
    raise BracketError(f"no degree satisfies the size budget for n={n} w={w}")


def q0_exponent(alpha: float, tau: float, xi: float) -> float:
    """Asymptotic upper exponent of the ratio-chain sum, in bits.

    q0 = h2(tau) - alpha h2(xi/alpha) - (1-alpha) h2(xi/(1-alpha))
         - 2 xi log2(xi/e) - xi + int_0^xi log2[s(u) + 2u^2
         + sqrt(s^2(u) - 4 tau(1-tau) u^2)] du,
    with s(u) = alpha(1-alpha) - tau(1-tau) - u (the integrand is the
    spectrum module's log_kernel), valid strictly below the
    scaled root position (alpha(1-alpha) - tau(1-tau))/(1 + 2 sqrt(tau(1-tau))).
    """
    if not 0.0 < tau <= alpha <= 0.5:
        raise DomainError(f"need 0 < tau <= alpha <= 1/2, got ({alpha!r}, {tau!r})")
    gap = alpha * (1.0 - alpha) - tau * (1.0 - tau)
    threshold = gap / (1.0 + 2.0 * math.sqrt(tau * (1.0 - tau)))
    if xi < 0.0 or xi >= threshold:
        raise DomainError(
            f"xi must lie in [0, {threshold:.6f}) for these (alpha, tau), got {xi!r}")
    if xi == 0.0:
        return binary_entropy(tau)
    quad = integrate(lambda u: log_kernel(u, alpha, tau), 0.0, xi, tol=_Q0_TOL)
    return (binary_entropy(tau)
            - alpha * binary_entropy(xi / alpha)
            - (1.0 - alpha) * binary_entropy(xi / (1.0 - alpha))
            - 2.0 * xi * (math.log2(xi) - _LOG2E)
            - xi + quad)


def delsarte_margins(n: int, w: int, b2i: Sequence[float]) -> list[float]:
    """The w+1 linear-programming sums sum_i b2i[i] Q_j(i), j = 0..w.

    Nonnegative (up to roundoff) whenever b2i is the pair-distance
    distribution of a constant-weight code section; small n only.
    """
    if len(b2i) != w + 1:
        raise DomainError(f"need w+1 = {w + 1} spectrum entries, got {len(b2i)}")
    out = []
    for j in range(w + 1):
        ctx = HahnContext(n, w, j)
        total = 0.0
        for i, b in enumerate(b2i):
            if b:
                total += b * hahn_eval(ctx, i).to_float()
        out.append(total)
    return out
