"""Minimal standalone SVG line charts for the bound curves.

No plotting dependency: the emitter lays the series out as polylines in a
linear axis box and marks the segment-anchor and critical rates with dashed
seams.  Every coordinate is printed with a fixed format, so the output is
byte-stable for fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["SeamMark", "render_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_AXIS = "#444444"
_GRID = "#dddddd"
_SEAM = "#888888"
_WIDTH, _HEIGHT = 640, 420      # canvas size in pixels
_X_LABEL, _Y_LABEL = "R", "exponent"


@dataclass(frozen=True)
class SeamMark:
    """A labelled vertical marker at a fixed abscissa."""

    label: str
    x: float


def _c(v: float) -> str:
    # pixel coordinate: two decimals keep files small and diff-stable
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return s if s else "0"


def render_chart(series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
                 seams: Sequence[SeamMark] = (), *, title: str = "") -> str:
    """Render labelled (x, y) polylines into a self-contained SVG string.

    ``series`` is a sequence of (label, points) pairs; empty series are
    rejected.  Axis ranges cover the data with the y-axis pinned at 0
    (exponents are nonnegative) and a 4% headroom on top.
    """
    if not series or any(not pts for _, pts in series):
        raise ValueError("render_chart needs at least one nonempty series")
    ml, mr, mt, mb = 62, 16, 22 if title else 14, 46
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(max(ys), 1e-12) * 1.04
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{_c(ml + pw / 2)}" y="15" font-size="13" '
                   f'text-anchor="middle" fill="{_AXIS}">{title}</text>')

    # gridlines + ticks (5 divisions each way)
    for k in range(6):
        gx = x_lo + (x_hi - x_lo) * k / 5
        gy = y_lo + (y_hi - y_lo) * k / 5
        out.append(f'<line x1="{_c(px(gx))}" y1="{_c(mt)}" x2="{_c(px(gx))}" '
                   f'y2="{_c(mt + ph)}" stroke="{_GRID}" stroke-width="1"/>')
        out.append(f'<line x1="{_c(ml)}" y1="{_c(py(gy))}" x2="{_c(ml + pw)}" '
                   f'y2="{_c(py(gy))}" stroke="{_GRID}" stroke-width="1"/>')
        out.append(f'<text x="{_c(px(gx))}" y="{_c(mt + ph + 16)}" '
                   f'font-size="10" text-anchor="middle" fill="{_AXIS}">'
                   f'{_tick_label(gx)}</text>')
        out.append(f'<text x="{_c(ml - 6)}" y="{_c(py(gy) + 3.5)}" '
                   f'font-size="10" text-anchor="end" fill="{_AXIS}">'
                   f'{_tick_label(gy)}</text>')

    # axis frame and labels
    out.append(f'<rect x="{_c(ml)}" y="{_c(mt)}" width="{_c(pw)}" '
               f'height="{_c(ph)}" fill="none" stroke="{_AXIS}" '
               f'stroke-width="1"/>')
    out.append(f'<text x="{_c(ml + pw / 2)}" y="{_c(_HEIGHT - 12)}" '
               f'font-size="11" text-anchor="middle" fill="{_AXIS}">'
               f'{_X_LABEL}</text>')
    out.append(f'<text x="14" y="{_c(mt + ph / 2)}" font-size="11" '
               f'text-anchor="middle" fill="{_AXIS}" '
               f'transform="rotate(-90 14 {_c(mt + ph / 2)})">{_Y_LABEL}</text>')

    for mark in seams:
        if not x_lo <= mark.x <= x_hi:
            continue
        sx = _c(px(mark.x))
        out.append(f'<line x1="{sx}" y1="{_c(mt)}" x2="{sx}" '
                   f'y2="{_c(mt + ph)}" stroke="{_SEAM}" stroke-width="1" '
                   f'stroke-dasharray="5 3"/>')
        out.append(f'<text x="{_c(px(mark.x) + 3)}" y="{_c(mt + 11)}" '
                   f'font-size="10" fill="{_SEAM}">{mark.label}</text>')

    for idx, (label, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{_c(px(x))},{_c(py(y))}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        ly = mt + ph - 10 - 14 * (len(series) - 1 - idx)
        out.append(f'<line x1="{_c(ml + 8)}" y1="{_c(ly - 3.5)}" '
                   f'x2="{_c(ml + 26)}" y2="{_c(ly - 3.5)}" stroke="{color}" '
                   f'stroke-width="1.6"/>')
        out.append(f'<text x="{_c(ml + 30)}" y="{_c(ly)}" font-size="10" '
                   f'fill="{_AXIS}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
