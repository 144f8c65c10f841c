"""Deterministic SVG line charts: one polyline per series, date x-axis,
legend.  Output depends only on the input, so identical calls are
byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

WIDTH, HEIGHT = 800, 400
MARGIN_LEFT = 60
MARGIN_RIGHT = 160
MARGIN_TOP = 30
MARGIN_BOTTOM = 40


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def emit_plot(series_list, title: str = "") -> str:
    """Render DailySeries objects to an SVG document string, each labelled
    in the legend by its leaning (or metric).  Non-finite values are left
    out of the polyline.
    """
    series_list = list(series_list)
    if not series_list:
        raise ValueError("emit_plot needs at least one series")

    start = min(s.start_date for s in series_list)
    end = max(s.end_date for s in series_list)
    span_days = max((end - start).days, 1)
    finite = np.concatenate([np.asarray(s.values, dtype=np.float64)[
        np.isfinite(s.values)] for s in series_list])
    if finite.size == 0:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = float(finite.min()), float(finite.max())
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x_px(day_offset: float) -> float:
        return MARGIN_LEFT + plot_w * day_offset / span_days

    def y_px(value: float) -> float:
        return MARGIN_TOP + plot_h * (hi - value) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{MARGIN_LEFT}" y="20" font-size="14" '
            f'font-family="sans-serif">{title}</text>')

    # axes
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    parts.append(f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<text x="{x0}" y="{y0 + 16}" font-size="10" '
                 f'font-family="sans-serif">{start.isoformat()}</text>')
    parts.append(f'<text x="{x0 + plot_w}" y="{y0 + 16}" font-size="10" '
                 f'font-family="sans-serif" text-anchor="end">{end.isoformat()}</text>')
    parts.append(f'<text x="{x0 - 6}" y="{MARGIN_TOP + 4}" font-size="10" '
                 f'font-family="sans-serif" text-anchor="end">{_fmt(hi)}</text>')
    parts.append(f'<text x="{x0 - 6}" y="{y0 + 4}" font-size="10" '
                 f'font-family="sans-serif" text-anchor="end">{_fmt(lo)}</text>')

    for idx, series in enumerate(series_list):
        color = PALETTE[idx % len(PALETTE)]
        offset0 = (series.start_date - start).days
        points = []
        for i, v in enumerate(np.asarray(series.values, dtype=np.float64)):
            if math.isfinite(v):
                points.append(f"{_fmt(x_px(offset0 + i))},{_fmt(y_px(v))}")
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{" ".join(points)}"/>')
        ly = MARGIN_TOP + 14 + idx * 18
        lx = MARGIN_LEFT + plot_w + 12
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" '
                     f'fill="{color}" class="legend-swatch"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly + 1}" font-size="11" '
                     f'font-family="sans-serif" class="legend-label">'
                     f'{series.leaning or series.metric}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
