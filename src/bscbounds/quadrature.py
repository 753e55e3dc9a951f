"""Vectorised adaptive Gauss-Legendre quadrature.

Panels are bisected until a two-level error estimate meets the panel's share
of the absolute tolerance.  An optional geometric pre-split concentrates
panels near the right endpoint, which is where the spectrum-exponent
integrand develops a square-root branch when the weight range is pushed to
its cap.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "integrate"]


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its refinement budget before converging."""


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)
_MAX_DEPTH = 60     # bisections allowed below an initial panel


def _panel_estimates(f: Callable[[np.ndarray], np.ndarray],
                     lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Fixed 12-point Gauss-Legendre estimate on each [lo_i, hi_i] panel."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    return half * (y @ _WEIGHTS)


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
              tol: float = 1e-9, refine_end: bool = False,
              max_panels: int = 65536) -> float:
    """Integrate a vectorised integrand over [a, b] to absolute tolerance.

    ``f`` must accept a 1-d numpy array and return values of the same shape.
    With ``refine_end`` the initial panel list is split geometrically toward
    ``b``.  Raises :class:`QuadratureError` if the bisection budget runs out.
    """
    if b <= a:
        return 0.0
    width = b - a
    if refine_end:
        edges = [a] + [b - width * 0.5 ** k for k in range(32, -1, -1)]
        edges = sorted(set(edges))
    else:
        edges = list(np.linspace(a, b, 5))
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    depth = np.zeros(lo.size, dtype=int)

    total = 0.0
    panels_seen = lo.size
    while lo.size:
        coarse = _panel_estimates(f, lo, hi)
        mid = 0.5 * (lo + hi)
        left = _panel_estimates(f, lo, mid)
        right = _panel_estimates(f, mid, hi)
        fine = left + right
        err = np.abs(fine - coarse)
        budget = tol * (hi - lo) / width
        done = err <= budget
        total += float(fine[done].sum())

        keep = ~done
        if not keep.any():
            break
        if (depth[keep] >= _MAX_DEPTH).any():
            raise QuadratureError(
                f"refinement depth {_MAX_DEPTH} exceeded; "
                f"residual error estimate {float(err[keep].max()):.3e}")
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
        panels_seen += lo.size
        if panels_seen > max_panels:
            raise QuadratureError(f"panel budget {max_panels} exceeded")
    return total
