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


# The 12-point Gauss-Legendre rule on [-1, 1], bit for bit the arrays
# numpy.polynomial.legendre.leggauss(12) returns, written out so that no
# import loads numpy.polynomial.  leggauss mirrors the nodes and weights to
# make the rule exactly symmetric, so the positive half is stored.
_HALF_NODES = np.array([float.fromhex(h) for h in (
    "0x1.007a5f8f630e4p-3", "0x1.78a8d20a8b19dp-2", "0x1.2cb4f05c077f9p-1",
    "0x1.8a30aeed88f36p-1", "0x1.cee874ffb88b3p-1", "0x1.f68f1d8e42e81p-1")])
_HALF_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.fe40ce6d4f022p-3", "0x1.de3155c256aaep-3", "0x1.a0163e6b1ab6bp-3",
    "0x1.47d7258f22d96p-3", "0x1.b60602bce61afp-4", "0x1.8275d9dea6d53p-5")])
_GL_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
_GL_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
_MAX_DEPTH = 60     # bisections allowed below an initial panel
_MAX_PANELS = 65536  # panels one integral may visit


def _panel_estimates(f: Callable[[np.ndarray], np.ndarray],
                     lo: np.ndarray, hi: np.ndarray, parts: int) -> list:
    """Fixed 12-point Gauss-Legendre estimate on each [lo_i, hi_i] panel,
    from one call of ``f``, split into ``parts`` arrays of equal length.

    Each part is weighted by its own matrix-vector product: BLAS row sums
    can depend on the matrix shape, so a part's estimates are those of a
    call on its panels alone."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    k = lo.size // parts
    return [half[i:i + k] * (y[i:i + k] @ _GL_WEIGHTS)
            for i in range(0, lo.size, k)]


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
              tol: float = 1e-9, refine_end: bool = False) -> float:
    """Integrate a vectorised integrand over [a, b] to absolute tolerance.

    ``f`` must accept a 1-d numpy array and return values of the same shape.
    With ``refine_end`` the initial panel list is split geometrically toward
    ``b``.  Raises :class:`QuadratureError` if the bisection budget runs out.
    """
    if b <= a:
        return 0.0
    width = b - a
    if refine_end:
        edges = [a, b] + [b - width * 0.5 ** k for k in range(32, -1, -1)]
        edges = sorted(set(edges))
    else:
        edges = list(np.linspace(a, b, 5))
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    depth = np.zeros(lo.size, dtype=int)

    total = 0.0
    panels_seen = lo.size
    # one integrand call per level: the first level's panels with their
    # halves, every later level's halves only
    mid = 0.5 * (lo + hi)
    coarse, left, right = _panel_estimates(
        f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]), 3)
    while True:
        fine = left + right
        err = np.abs(fine - coarse)
        budget = tol * (hi - lo) / width
        done = err <= budget
        total += float(fine[done].sum())

        keep = ~done
        if not keep.any():
            return total
        if (depth[keep] >= _MAX_DEPTH).any():
            raise QuadratureError(
                f"refinement depth {_MAX_DEPTH} exceeded; "
                f"residual error estimate {float(err[keep].max()):.3e}")
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        # a kept panel's halves are the next level's panels: their
        # estimates are that level's coarse ones
        coarse = np.concatenate([left[keep], right[keep]])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
        panels_seen += lo.size
        if panels_seen > _MAX_PANELS:
            raise QuadratureError(f"panel budget {_MAX_PANELS} exceeded")
        mid = 0.5 * (lo + hi)
        left, right = _panel_estimates(
            f, np.concatenate([lo, mid]), np.concatenate([mid, hi]), 2)
