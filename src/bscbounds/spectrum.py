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

from .core import (DomainError, _h2_arr, _h2_inv_arr, binary_entropy,
                   binary_entropy_inv, omega_cap)
from .quadrature import integrate

__all__ = [
    "SpectrumPoint",
    "MuSlice",
    "spectrum_exponent",
    "spectrum_exponent_half",
    "spectrum_exponent_at",
    "log_kernel",
]

_LOG2E = math.log2(math.e)
_TOL = 1e-12
_DISC_SLACK = 1e-12
_QUAD_TOL = 1e-11       # absolute tolerance of the quadrature route


@dataclass(frozen=True)
class SpectrumPoint:
    """Admissible (rate, alpha, omega) triple with its induced tau.

    tau = h2^{-1}(h2(alpha) - 1 + rate) is the normalised degree of the
    certifying Hahn polynomial; validity requires h2(alpha) >= 1 - rate and
    0 <= omega <= G(alpha, tau).
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
    weight cap, where the expression still evaluates finitely.
    """
    if not 0.0 <= rate <= 1.0 + _TOL:
        raise DomainError(f"rate must lie in [0, 1], got {rate!r}")
    if omega < -_TOL:
        raise DomainError(f"normalised distance must be non-negative, got {omega!r}")
    if omega <= 0.0:
        return 0.0
    tau = binary_entropy_inv(rate)
    if tau < 1e-14:
        return 0.0  # zero-rate limit: the exponent vanishes for every omega
    cap = omega_cap(0.5, tau)
    if omega > cap + _TOL:
        raise DomainError(f"normalised distance {omega!r} beyond cap {cap:.6f}")
    omega = min(omega, cap)
    disc = (1.0 - 2.0 * tau) ** 2 - 4.0 * omega * (1.0 - omega)
    if disc < -_DISC_SLACK:
        raise DomainError(f"radical argument fell below the clamp window: {disc:.3e}")
    g = 0.5 * (1.0 - 2.0 * tau + math.sqrt(max(disc, 0.0)))
    upper = (1.0 - 2.0 * tau) * g - omega
    lower = 1.0 - (1.0 - 2.0 * tau) * g - omega
    return (-2.0 * (1.0 - omega) * math.log2(1.0 - omega)
            - 1.0
            - (1.5 - 2.0 * tau) * math.log2(1.0 - tau)
            - 0.5 * math.log2(tau)
            + (1.0 - 2.0 * omega) * math.log2(g)
            + (1.0 - 2.0 * tau) * math.log2(g + tau - omega)
            - 0.5 * math.log2(upper / lower))


def spectrum_exponent_at(rate: float, alpha: float, omega: float) -> float:
    """Convenience dispatch: closed form on the symmetric slice, quadrature else."""
    if abs(alpha - 0.5) <= _TOL:
        return spectrum_exponent_half(rate, omega)
    return spectrum_exponent(SpectrumPoint.make(rate, alpha, omega))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_BLOCK = 8
_UNIFORM_PANELS = 40    # equal panels on [0, 0.85 G/2]
_GRADED_PANELS = 36     # geometric panels (ratio 0.6) on [0.85 G/2, G/2]


class MuSlice:
    """Reusable omega -> mu evaluator at fixed rate, for one alpha or a vector.

    The logarithmic kernel does not depend on omega, so one panel
    decomposition of [0, G/2] serves every omega on the slice: mu(omega)
    costs the stored cumulative integral through the last whole panel plus
    a single Gauss rule on the partial panel.  Panels are graded toward
    G/2, where the radical's derivative blows up; the panel counts are the
    module constants _UNIFORM_PANELS and _GRADED_PANELS.  Agrees with the
    adaptive-quadrature route to ~1e-10; that route stays untouched as the
    independent reference.  For a vector of alpha, attributes are arrays
    and ``mu`` takes one omega per slice; panels are built ``_BLOCK``
    slices at a time, which bounds the (slice x panel x node) temporaries.
    """

    def __init__(self, rate: float, alpha) -> None:
        if not 0.0 <= rate <= 1.0 + _TOL:
            raise DomainError(f"rate must lie in [0, 1], got {rate!r}")
        a = np.asarray(alpha, dtype=float)
        self._scalar = a.ndim == 0
        a = np.atleast_1d(a)
        bad = ~((a > 0.0) & (a <= 0.5 + _TOL))
        if bad.any():
            raise DomainError(
                f"slice weight must lie in (0, 1/2], got {float(a[bad][0])!r}")
        a = np.minimum(a, 0.5)
        deficit = _h2_arr(a) - 1.0 + rate
        bad = deficit < -_TOL
        if bad.any():
            raise DomainError(
                f"slice too light for the rate: h2({float(a[bad][0])}) < 1 - {rate}")
        tau = _h2_inv_arr(np.clip(deficit, 0.0, 1.0))
        cap = omega_cap(a, tau)
        self.rate = rate
        self._alpha, self._tau, self._cap = a, tau, cap
        self.alpha, self.tau, self.cap = map(self._out, (a, tau, cap))
        x_end = np.maximum(0.5 * cap, 0.0)
        split = 0.85 * x_end
        uni = np.linspace(0.0, split, _UNIFORM_PANELS + 1, axis=-1)
        ratios = np.cumprod(np.full(_GRADED_PANELS, 0.6))
        widths = (x_end - split)[:, None] * ratios / ratios.sum()
        # widest graded panel first, so the mesh shrinks into the endpoint
        tail = split[:, None] + np.cumsum(widths, axis=1)
        tail[:, -1] = x_end
        self._bounds = np.concatenate([uni, tail], axis=1)
        panel = np.zeros((a.size, _UNIFORM_PANELS + _GRADED_PANELS))
        live = np.flatnonzero(x_end > 0.0)
        for start in range(0, live.size, _BLOCK):
            rows = live[start:start + _BLOCK]
            b = self._bounds[rows]
            centers = 0.5 * (b[:, 1:] + b[:, :-1])
            half = 0.5 * np.diff(b, axis=1)
            nodes = centers[..., None] + half[..., None] * _GL_NODES
            g = log_kernel(nodes, a[rows, None, None], tau[rows, None, None])
            panel[rows] = (g @ _GL_WEIGHTS) * half
        self._cum = np.concatenate(
            [np.zeros((a.size, 1)), np.cumsum(panel, axis=1)], axis=1)

    def _out(self, v: np.ndarray):
        return float(v[0]) if self._scalar else v

    def _integral(self, x: np.ndarray) -> np.ndarray:
        """Integral of the kernel over [0, x], one x per slice, x in [0, G/2]."""
        b = self._bounds
        rows = np.arange(b.shape[0])
        k = np.clip((b <= x[:, None]).sum(axis=1) - 1, 0, b.shape[1] - 2)
        lo = b[rows, k]
        out = self._cum[rows, k]
        part = np.flatnonzero(x > lo)
        if part.size:
            mid = 0.5 * (lo[part] + x[part])
            hw = 0.5 * (x[part] - lo[part])
            g = log_kernel(mid[:, None] + hw[:, None] * _GL_NODES,
                           self._alpha[part, None], self._tau[part, None])
            out[part] += hw * (g @ _GL_WEIGHTS)
        return out

    def mu(self, omega):
        """mu at one omega per slice (or one omega for every slice)."""
        omega = np.broadcast_to(np.asarray(omega, dtype=float), self._alpha.shape)
        cap = self._cap
        bad = ~((-_TOL <= omega) & (omega <= cap + _TOL))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(
                f"normalised distance {float(omega[k])!r} outside "
                f"[0, cap={cap[k]:.6f}]")
        omega = np.clip(omega, 0.0, cap)
        alpha = self._alpha
        inner = (alpha - 0.5 * omega) / (1.0 - omega)
        val = (-_h2_arr(alpha)
               - 2.0 * (1.0 - omega) * np.log2(1.0 - omega)
               - 2.0 * omega * _LOG2E
               + (1.0 - omega) * _h2_arr(np.clip(inner, 0.0, 1.0))
               - 2.0 * self._integral(0.5 * omega))
        return self._out(np.where(omega > 0.0, val, 0.0))
