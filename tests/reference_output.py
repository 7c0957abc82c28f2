"""The CSV and SVG writers as they were before one format call per row
and per point.

Every value goes through ``format`` on its own: ``.12g`` for a CSV
value and ``.6g`` for an SVG coordinate, each coordinate computed by the
scalar ``sx``/``sy``, at ticks placed by adding the step to a running
total.  They are kept as a byte-identity oracle: on every input they
draw, ``problem_io.trajectory_csv`` and ``svgplot.line_chart`` must
return the same text, except for two deliberate changes in the chart's
y ticks: ``_nice_ticks`` here can label a zero tick ``-0`` and, below
1e-12, round distinct ticks to one value.  The chart's layout constants
did not change and are taken from ``digital_pde.svgplot``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from digital_pde.svgplot import (COLORS, HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT,
                                 MARGIN_TOP, WIDTH)


def _fmt12(x: float) -> str:
    return format(x, ".12g")


def trajectory_csv(trajectory, space) -> str:
    header = "t," + ",".join(f"f_{p}" for p in space.points) + ",S,norm1"
    lines = [header]
    records = zip(trajectory.values, trajectory.sums, trajectory.norms)
    for t, (values, s, norm) in enumerate(records):
        row = [str(t)] + [_fmt12(v) for v in values] + [_fmt12(s), _fmt12(norm)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
