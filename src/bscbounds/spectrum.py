"""Guaranteed distance-spectrum exponent of binary codes.

``spectrum_exponent`` evaluates the exponent mu(R, alpha, omega): every code
of rate R whose words sit on the weight-(alpha n) slice has at least
2^{n(mu - o(1))} ordered word pairs at distance omega*n, provided omega stays
below the cap G(alpha, tau).  The general evaluation integrates a
logarithmic kernel; at alpha = 1/2 a closed form is available and the two
routes cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_LOG2E, _TOL, DomainError, _h2_arr, _h2_inv_arr,
                   _h2_slope, binary_entropy, binary_entropy_inv, omega_cap)
from .quadrature import _GL_NODES, _GL_WEIGHTS, integrate

__all__ = [
    "SpectrumPoint",
    "MuSlice",
    "spectrum_exponent",
    "spectrum_exponent_half",
    "spectrum_exponent_at",
    "log_kernel",
]

_DISC_SLACK = 1e-12
_QUAD_TOL = 1e-11       # absolute tolerance of the quadrature route


@dataclass(frozen=True)
class SpectrumPoint:
    """Admissible (rate, alpha, omega) triple with its induced tau.

    tau = h2^{-1}(h2(alpha) - 1 + rate) is the normalised degree of the
    certifying Hahn polynomial; validity requires h2(alpha) >= 1 - rate and
    0 <= omega <= G(alpha, tau).  ``make`` is the one scalar statement of
    this slice rule, within _TOL on each side; ``MuSlice`` states it for
    arrays.
    """

    rate: float
    alpha: float
    tau: float
    omega: float

    @classmethod
    def make(cls, rate: float, alpha: float, omega: float) -> "SpectrumPoint":
        if not 0.0 <= rate <= 1.0 + _TOL:
            raise DomainError(f"rate must lie in [0, 1], got {rate!r}")
        if not 0.0 < alpha <= 0.5 + _TOL:
            raise DomainError(f"slice weight must lie in (0, 1/2], got {alpha!r}")
        alpha = min(alpha, 0.5)
        deficit = binary_entropy(alpha) - 1.0 + rate
        if deficit < -_TOL:
            raise DomainError(
                f"slice too light for the rate: h2({alpha}) < 1 - {rate}")
        tau = binary_entropy_inv(min(max(deficit, 0.0), 1.0))
        cap = omega_cap(alpha, tau)
        if not -_TOL <= omega <= cap + _TOL:
            raise DomainError(
                f"normalised distance {omega!r} outside [0, cap={cap:.6f}]")
        return cls(rate=rate, alpha=alpha, tau=tau, omega=min(max(omega, 0.0), cap))

    @property
    def cap(self) -> float:
        """The weight cap G(alpha, tau): the largest admissible omega."""
        return omega_cap(self.alpha, self.tau)


def log_kernel(u: np.ndarray, alpha: float, tau: float) -> np.ndarray:
    """log2 of the spectrum kernel s(u) + 2u^2 + sqrt(s(u)^2 - 4 u^2 tau(1-tau)).

    ``s(u) = alpha(1-alpha) - tau(1-tau) - u``.  The discriminant is
    non-negative up to u = G(alpha, tau)/2; round-off slightly past the cap
    is clamped, anything beyond the clamp window is a domain error.
    """
    u = np.asarray(u, dtype=float)
    s = alpha * (1.0 - alpha) - tau * (1.0 - tau) - u
    disc = s * s - 4.0 * u * u * tau * (1.0 - tau)
    if (disc < -_DISC_SLACK).any():
        raise DomainError(
            f"spectrum kernel discriminant fell below the clamp window: "
            f"min={float(disc.min()):.3e}")
    disc = np.maximum(disc, 0.0)
    return np.log2(s + 2.0 * u * u + np.sqrt(disc))


def spectrum_exponent(pt: SpectrumPoint) -> float:
    """Spectrum exponent by adaptive quadrature of the logarithmic kernel."""
    omega, alpha, tau = pt.omega, pt.alpha, pt.tau
    if omega <= 0.0:
        return 0.0
    integral = integrate(lambda u: log_kernel(u, alpha, tau),
                         0.0, 0.5 * omega, tol=0.5 * _QUAD_TOL, refine_end=True)
    inner = (alpha - 0.5 * omega) / (1.0 - omega)
    return (-binary_entropy(alpha)
            - 2.0 * (1.0 - omega) * math.log2(1.0 - omega)
            - 2.0 * omega * _LOG2E
            + (1.0 - omega) * binary_entropy(min(max(inner, 0.0), 1.0))
            - 2.0 * integral)


def spectrum_exponent_half(rate: float, omega: float) -> float:
    """Closed form of the spectrum exponent on the symmetric slice alpha = 1/2.

    Finite combination of logarithms; the radical vanishes exactly at the
    weight cap, where the expression still evaluates finitely.  The point
    is checked by ``SpectrumPoint.make``.
    """
    pt = SpectrumPoint.make(rate, 0.5, omega)
    tau, omega = pt.tau, pt.omega
    if omega <= 0.0 or tau < 1e-14:
        return 0.0  # tau -> 0 is the zero-rate limit: mu vanishes on the band
    d = 1.0 - 2.0 * omega
    disc = (1.0 - 2.0 * tau) ** 2 - 4.0 * omega * (1.0 - omega)
    if disc < -_DISC_SLACK:
        raise DomainError(f"radical argument fell below the clamp window: {disc:.3e}")
    root = math.sqrt(max(disc, 0.0))
    g = 0.5 * (1.0 - 2.0 * tau + root)
    # (1-2tau) g - omega = (g-omega)(g+omega) and 1 - (1-2tau) g - omega =
    # (1-omega-g)(1-omega+g), as g solves g^2 - (1-2tau) g + omega(1-omega) = 0;
    # each factor is formed without cancellation as tau -> 0 or 1/2 (c's first
    # difference is exact: 1-2tau for tau >= 1/4, 1-2omega for omega >= 1/4)
    c = (1.0 - 2.0 * tau) - 2.0 * omega if tau >= 0.25 else d - 2.0 * tau
    upper = 0.5 * (c + root) * (g + omega)
    lower = 4.0 * tau * (1.0 - omega) / (d + 2.0 * tau + root) * (1.0 - omega + g)
    return (-2.0 * (1.0 - omega) * math.log2(1.0 - omega)
            - 1.0
            - (1.5 - 2.0 * tau) * math.log2(1.0 - tau)
            - 0.5 * math.log2(tau)
            + d * math.log2(g)
            + (1.0 - 2.0 * tau) * math.log2(0.5 * (d + root))
            - 0.5 * math.log2(upper / lower))


def spectrum_exponent_at(rate: float, alpha: float, omega: float) -> float:
    """Convenience dispatch: closed form on the symmetric slice, quadrature else."""
    if abs(alpha - 0.5) <= _TOL:
        return spectrum_exponent_half(rate, omega)
    return spectrum_exponent(SpectrumPoint.make(rate, alpha, omega))


# the s-mesh of every slice, from u = 0 (s = 1) to the cap (s = 0): three
# equal panels, five of ratio 1/4, then [0, 4^-6].  The grading resolves the
# discriminant's second root, about 2 tau^(1/4) off the real s axis.
_S_BOUNDS = np.array([1.0, 0.75, 0.5] + [0.25 ** k for k in range(1, 7)] + [0.0])
_PANELS = np.arange(_S_BOUNDS.size - 1)
# (slice, panel) rows per Gauss-rule call: bounds the (row x node)
# temporaries of a rule; 512 to 768 rows ran fastest
_BLOCK = 576


def _s_rule(lo, hi, half_cap, alpha, tau):
    """12-node Gauss rule, row by row, over s in [lo, hi], where u =
    half_cap (1 - s^2) and du = -2 half_cap s ds: one (row, 3) triple per
    row, the integrals of the kernel and of its alpha- and tau-derivatives,
    all on the same nodes.

    With A = alpha(1-alpha), B = tau(1-tau) and w = A - B - u, the radical
    factors as sqrt(disc) = s r, r = sqrt((A - B)(w + 2u sqrt(B))), since
    w - 2u sqrt(B) = (A - B) s^2.  So s d/dA log_kernel = (w + s r) /
    (ln2 (w + 2u^2 + s r) r) and s d/dB log_kernel = -1 / (ln2 r) are
    regular at the cap, where sqrt(disc) itself vanishes."""
    mid, hw = 0.5 * (hi + lo), 0.5 * (hi - lo)
    s = mid[..., None] + hw[..., None] * _GL_NODES
    a, t = alpha[..., None], tau[..., None]
    u = half_cap[..., None] * (1.0 - s * s)
    kernel = np.einsum("...k,k->...", log_kernel(u, a, t) * s, _GL_WEIGHTS)
    gap = a * (1.0 - a) - t * (1.0 - t)
    w = gap - u
    r = np.sqrt(gap * (w + 2.0 * u * np.sqrt(t * (1.0 - t))))
    root = s * r
    d_alpha = (1.0 - 2.0 * a) * (w + root) / ((w + 2.0 * u * u + root) * r)
    d_tau = -(1.0 - 2.0 * t) / r
    scale = hw * (2.0 * half_cap) / math.log(2.0)
    return np.stack([kernel * hw * (2.0 * half_cap),
                     np.einsum("...k,k->...", d_alpha, _GL_WEIGHTS) * scale,
                     np.einsum("...k,k->...", d_tau, _GL_WEIGHTS) * scale], axis=-1)


class MuSlice:
    """Reusable omega -> mu evaluator, for one (rate, alpha) slice or a vector.

    The logarithmic kernel does not depend on omega, so one panel
    decomposition of [0, G/2] serves every omega on the slice: mu(omega)
    costs one Gauss rule on each whole panel below omega/2 plus one on the
    partial panel, and at the cap (or on a panel bound) the whole panels
    alone.  The integral is taken in s, where u = (G/2)(1 - s^2): the
    factor du = -G s ds cancels the radical's square-root endpoint at the
    cap, so one fixed s-mesh (_S_BOUNDS, 9 panels of 12 nodes) serves every
    slice.  Against 30-digit mpmath the kernel integral was within 2.8e-16
    on 280 seeded slices (rates 1e-12 to 1 - 1e-6, x at and below the
    cap), and tests/test_spectrum.py holds it to 1e-15.  The
    adaptive-quadrature route stays untouched as the independent
    reference.  For a vector of alpha, attributes are arrays and ``mu``
    takes one omega per slice; the rate is one number for every slice or
    an array with one rate per slice, and enters only through the degree
    tau.  Construction integrates nothing and a read keeps nothing: each
    read integrates the panels below its omega/2, so a read at omega = 0
    costs no kernel node, and an F pass reads its slice once.  The same
    nodes carry the integrals of the kernel's alpha- and tau-derivatives
    (``_s_rule``), so ``mu_and_slope`` reads d mu / d alpha with mu in one
    walk of the panels.  Gauss rules run ``_BLOCK`` (slice, panel) rows at
    a time, which bounds the (row x node) temporaries, and are summed by
    ``einsum``, row by row: a BLAS product ``g @ w`` rounds a row by its
    place in the call, and a slice's mu must not depend on its batch.
    """

    def __init__(self, rate, alpha) -> None:
        a = np.asarray(alpha, dtype=float)
        self._scalar = a.ndim == 0
        a = np.atleast_1d(a)
        r = np.broadcast_to(np.asarray(rate, dtype=float), a.shape)
        bad = ~((0.0 <= r) & (r <= 1.0 + _TOL))
        if bad.any():
            raise DomainError(
                f"rate must lie in [0, 1], got {float(r[bad][0])!r}")
        bad = ~((a > 0.0) & (a <= 0.5 + _TOL))
        if bad.any():
            raise DomainError(
                f"slice weight must lie in (0, 1/2], got {float(a[bad][0])!r}")
        a = np.minimum(a, 0.5)
        deficit = _h2_arr(a) - 1.0 + r
        bad = deficit < -_TOL
        if bad.any():
            raise DomainError(f"slice too light for the rate: "
                              f"h2({float(a[bad][0])}) < 1 - {float(r[bad][0])}")
        tau = _h2_inv_arr(np.clip(deficit, 0.0, 1.0))
        cap = omega_cap(a, tau)
        self._alpha, self._tau, self._cap = a, tau, cap
        self.alpha, self.tau, self.cap = map(self._out, (a, tau, cap))
        self._half = np.maximum(0.5 * cap, 0.0)

    def _out(self, v: np.ndarray):
        return float(v[0]) if self._scalar else v

    def _integral(self, x: np.ndarray) -> np.ndarray:
        """Integrals of the kernel and of its alpha- and tau-derivatives over
        [0, x], one x per slice, x in [0, G/2]: one (slice, 3) row each.

        s_x lies in (_S_BOUNDS[k + 1], _S_BOUNDS[k]]: ``_s_rule`` runs over
        each slice's whole panels [0, k), and over the partial panel of the
        slices whose x falls strictly inside one, ``_BLOCK`` (slice, panel)
        rows a call.  The whole panels are summed in the order of the mesh,
        then the partial piece is added; x = G/2 reads all 9 panels."""
        # clipped, so rounding at the cap cannot take the root of a negative
        ratio = np.divide(x, self._half, out=np.zeros_like(x), where=self._half > 0.0)
        s_x = np.sqrt(np.clip(1.0 - ratio, 0.0, 1.0))
        k = (_S_BOUNDS >= s_x[:, None]).sum(axis=1) - 1
        hi = _S_BOUNDS[k]
        part = np.flatnonzero(s_x < hi)
        # panel j spans s in [_S_BOUNDS[j + 1], _S_BOUNDS[j]]
        row, j = np.nonzero(_PANELS < k[:, None])
        rows = np.concatenate([row, part])
        lo = np.concatenate([_S_BOUNDS[j + 1], s_x[part]])
        top = np.concatenate([_S_BOUNDS[j], hi[part]])
        vals = np.empty((rows.size, 3))
        for b in range(0, rows.size, _BLOCK):
            i, cut = rows[b:b + _BLOCK], slice(b, b + _BLOCK)
            vals[cut] = _s_rule(lo[cut], top[cut], self._half[i], self._alpha[i],
                                self._tau[i])
        grid = np.zeros((x.size, _S_BOUNDS.size, 3))
        grid[row, j + 1] = vals[:row.size]
        out = np.cumsum(grid, axis=1)[np.arange(x.size), k]
        out[part] += vals[row.size:]
        return out

    def _band(self, omega) -> np.ndarray:
        """One omega per slice, checked against the band and clipped to it."""
        omega = np.broadcast_to(np.asarray(omega, dtype=float), self._alpha.shape)
        cap = self._cap
        bad = ~((-_TOL <= omega) & (omega <= cap + _TOL))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(
                f"normalised distance {float(omega[k])!r} outside "
                f"[0, cap={cap[k]:.6f}]")
        return np.clip(omega, 0.0, cap)

    def mu(self, omega):
        """mu at one omega per slice (or one omega for every slice)."""
        return self.mu_and_slope(omega)[0]

    def mu_and_slope(self, omega):
        """mu and d mu / d alpha at fixed omega, one omega per slice (or one
        for every slice), from one walk of the panels.

        In the slope tau follows alpha on the rule.  With nu = (alpha -
        omega/2)/(1 - omega) and tau' = h2'(alpha) / h2'(tau) (0 where
        tau = 0, and at tau = 1/2, which only alpha = 1/2 reaches), it is
        -h2'(alpha) + h2'(nu) - 2 (I_alpha + tau' I_tau), where I_alpha and
        I_tau integrate the kernel's alpha- and tau-derivatives over
        [0, omega/2].  Every factor vanishes at alpha = 1/2, so the slope
        there is exactly 0.
        """
        omega = self._band(omega)
        alpha, tau = self._alpha, self._tau
        i_mu, i_alpha, i_tau = self._integral(0.5 * omega).T
        inner = (alpha - 0.5 * omega) / (1.0 - omega)
        val = (-_h2_arr(alpha)
               - 2.0 * (1.0 - omega) * np.log2(1.0 - omega)
               - 2.0 * omega * _LOG2E
               + (1.0 - omega) * _h2_arr(np.clip(inner, 0.0, 1.0))
               - 2.0 * i_mu)
        inside = (tau > 0.0) & (tau < 0.5)
        tau_slope = np.divide(_h2_slope(alpha),
                              _h2_slope(np.where(inside, tau, 0.25)),
                              out=np.zeros_like(tau), where=inside)
        slope = (_h2_slope(inner) - _h2_slope(alpha)
                 - 2.0 * (i_alpha + tau_slope * i_tau))
        read = omega > 0.0
        return (self._out(np.where(read, val, 0.0)),
                self._out(np.where(read, slope, 0.0)))

    def cap_slope(self):
        """dG/dalpha, tau following alpha on the rule: 0 at alpha = 1/2 and
        -inf where tau = 0 < alpha < 1/2 (there dtau/dalpha is 0, but
        d sqrt(tau(1 - tau))/dalpha is infinite)."""
        alpha, tau, cap = self._alpha, self._tau, self._cap
        root = np.sqrt(tau * (1.0 - tau))
        # (1 - 2 tau) tau' / root, with h2'(tau) root -> 0 as tau -> 0
        lower = _h2_slope(np.where(tau > 0.0, tau, 0.25)) * root
        ratio = np.divide((1.0 - 2.0 * tau) * _h2_slope(alpha), lower,
                          out=np.where(alpha < 0.5, np.inf, 0.0), where=lower > 0.0)
        return self._out((2.0 * (1.0 - 2.0 * alpha) - (2.0 * root + cap) * ratio)
                         / (1.0 + 2.0 * root))
