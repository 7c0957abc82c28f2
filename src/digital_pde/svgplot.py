"""Minimal deterministic SVG line charts.

Self-contained output: inline styling, fixed 800x500 viewport, fixed
color cycle.  No plotting library is involved, so identical inputs
yield identical bytes, which the CLI relies on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 30
MARGIN_BOTTOM = 45
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

COLORS = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#e67e22",
          "#16a085", "#7f8c8d", "#2c3e50"]


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    """The multiples k * step in [lo, hi + 1e-12 * span] of the least step
    1, 2, 5 or 10 x 10^m at or above span / count, each rounded once (step is
    an exact int for m >= 0).  Those that rounding puts outside [lo, hi] by
    1e-7 of the span are dropped, and all of them when 10^m underflows."""
    span = hi - lo
    raw = span / count
    if raw <= 1e-323:
        return []
    mag = 10 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1, 2, 5, 10) if raw <= m * mag)
    ticks = (float(k * step) for k in range(math.ceil(lo / step),
                                             math.floor(hi / step + 1e-12 * span / step) + 1))
    return [t for t in ticks if lo - 1e-7 * span <= t <= hi + 1e-7 * span]


def _text(label) -> str:
    return str(label).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(series: Dict[str, Sequence[float]],
               x_label: str = "t", y_label: str = "f") -> str:
    """Render one polyline per labeled series over x = 0, 1, 2, ...

    Series are drawn in sorted-label order with a fixed color cycle.  A
    non-finite value or a y window wider than a float is a ValueError.
    """
    labels = sorted(series)
    arrays = [np.asarray(series[k], dtype=float) for k in labels]
    values = np.concatenate([np.empty(0), *arrays])
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 1.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = next(k for k, a in zip(labels, arrays) if not np.isfinite(a).all())
        raise ValueError(f"series {bad!r}: every value must be finite")
    # [lo, top] padded by 5%, its width doubled until the ticks are distinct
    top = lo + 1.0 if hi == lo else hi
    width = top - lo
    while True:
        pad = 0.05 * width
        y_lo, y_hi = lo - pad, top + pad
        if not math.isfinite(y_hi - y_lo):
            raise ValueError(f"y range [{lo!r}, {hi!r}]: the chart's window overflows a float")
        y_ticks = _ticks(y_lo, y_hi)
        if len(set(y_ticks)) == len(y_ticks) > 1:
            break
        width = 2 * max(width, math.ulp(top))
        top = lo + width
    max_len = max(map(len, arrays), default=0)
    x_hi = max(max_len - 1, 1)
    x_ticks = _ticks(0, x_hi)

    # one transform for ticks and points, in the scalar formulas' order
    xs = (MARGIN_LEFT + PLOT_W * np.concatenate([x_ticks, np.arange(max_len)]) / x_hi).tolist()
    ys = (MARGIN_TOP + PLOT_H * (1 - (np.concatenate([y_ticks, values]) - y_lo)
                                 / (y_hi - y_lo))).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" height="{PLOT_H}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tick, x in zip(x_ticks, xs):
        parts += [f'<line x1="{x:.6g}" y1="{MARGIN_TOP + PLOT_H}" x2="{x:.6g}" '
                  f'y2="{MARGIN_TOP + PLOT_H + 5}" stroke="#333333"/>',
                  f'<text x="{x:.6g}" y="{MARGIN_TOP + PLOT_H + 20}" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="11">{tick:.6g}</text>']
    for tick, y in zip(y_ticks, ys):
        parts += [f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.6g}" x2="{MARGIN_LEFT}" '
                  f'y2="{y:.6g}" stroke="#333333"/>',
                  f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.6g}" text-anchor="end" '
                  f'font-family="sans-serif" font-size="11">{tick:.6g}</text>']
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_text(x_label)}</text>')
    parts.append(
        f'<text x="15" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 15 {HEIGHT // 2})">{_text(y_label)}</text>')
    xs, ys = xs[len(x_ticks):], iter(ys[len(y_ticks):])
    for i, (label, a) in enumerate(zip(labels, arrays)):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(map("%.6g,%.6g".__mod__, zip(xs[:len(a)], ys)))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 5}" y="{MARGIN_TOP + 16 + 16 * i}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{_text(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
