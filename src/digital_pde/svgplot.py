"""Minimal deterministic SVG line charts.

Self-contained output: inline styling, fixed 800x500 viewport, fixed
color cycle.  No plotting library is involved, so identical inputs
yield identical bytes, which the CLI relies on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 30
MARGIN_BOTTOM = 45

COLORS = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#e67e22",
          "#16a085", "#7f8c8d", "#2c3e50"]


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _nice_ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / count
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            stepsize = mult * mag
            break
    first = math.ceil(lo / stepsize) * stepsize
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += stepsize
    return ticks


def line_chart(series: Dict[str, Sequence[float]],
               x_label: str = "t", y_label: str = "f") -> str:
    """Render one polyline per labeled series over x = 0, 1, 2, ...

    Series are drawn in sorted-label order with a fixed color cycle.
    """
    labels = sorted(series)
    max_len = max((len(series[k]) for k in labels), default=0)
    all_vals = [v for k in labels for v in series[k]]
    y_lo = min(all_vals, default=0.0)
    y_hi = max(all_vals, default=1.0)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_hi = max(max_len - 1, 1)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + plot_w * x / x_hi

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h * (1 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tick in _nice_ticks(0, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_TOP + plot_h}" x2="{_fmt(x)}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="#333333"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>')
    for tick in _nice_ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(y)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(y)}" stroke="#333333"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>')
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>')
    parts.append(
        f'<text x="15" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 15 {HEIGHT // 2})">{y_label}</text>')
    for i, label in enumerate(labels):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(
            f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in enumerate(series[label]))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 5}" y="{MARGIN_TOP + 16 + 16 * i}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
