"""Minimal SVG scatter/line plots for experiment reports.

Writes self-contained SVG files with log2 or linear axes; no plotting
dependencies.  Good enough to eyeball a scaling law and its fit line.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
PALETTE = ["#1f6fb2", "#d1495b", "#3a9d5d", "#8d6cab", "#c2851f", "#44808c"]


def _transform(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) / span * (out_hi - out_lo)


def _ticks(lo, hi, max_ticks=8):
    if hi <= lo:
        return [lo]
    step = 1
    while (hi - lo) / step > max_ticks:
        step *= 2
    start = math.ceil(lo / step) * step
    return [start + i * step for i in range(int((hi - start) / step) + 1)]


def _esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def loglog_plot(series, path, title="", xlabel="", ylabel="", log_x=True,
                log_y=True):
    """Write an SVG plot; each series is a dict with keys x, y and
    optionally label and dashed; series take the palette's colors in turn.

    Axes are log2 when the corresponding flag is set; points with
    nonpositive coordinates on a log axis are dropped.
    """
    prepared = []
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if log_x:
            keep &= x > 0
        if log_y:
            keep &= y > 0
        x, y = x[keep], y[keep]
        if x.size == 0:
            continue
        prepared.append({
            "x": np.log2(x) if log_x else x,
            "y": np.log2(y) if log_y else y,
            "label": s.get("label", ""),
            "dashed": s.get("dashed", False),
        })
    if not prepared:
        raise ValueError("nothing to plot")
    all_x = np.concatenate([s["x"] for s in prepared])
    all_y = np.concatenate([s["y"] for s in prepared])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1, y_hi + 1
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def sx(v):
        return _transform(v, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)

    def sy(v):
        return _transform(v, y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d" font-family="monospace" font-size="12">'
        % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT),
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
        'stroke="#333"/>' % (MARGIN_L, MARGIN_T, WIDTH - MARGIN_L - MARGIN_R,
                             HEIGHT - MARGIN_T - MARGIN_B),
    ]
    if title:
        parts.append('<text x="%d" y="24" text-anchor="middle" '
                     'font-size="14">%s</text>' % (WIDTH // 2, _esc(title)))
    for t in _ticks(x_lo, x_hi):
        px = float(sx(t))
        parts.append('<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" '
                     'stroke="#bbb" stroke-dasharray="2,3"/>'
                     % (px, MARGIN_T, px, HEIGHT - MARGIN_B))
        label = "2^%d" % t if log_x else "%g" % t
        parts.append('<text x="%.1f" y="%d" text-anchor="middle">%s</text>'
                     % (px, HEIGHT - MARGIN_B + 18, _esc(label)))
    for t in _ticks(y_lo, y_hi):
        py = float(sy(t))
        parts.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                     'stroke="#bbb" stroke-dasharray="2,3"/>'
                     % (MARGIN_L, py, WIDTH - MARGIN_R, py))
        label = "2^%d" % t if log_y else "%g" % t
        parts.append('<text x="%d" y="%.1f" text-anchor="end">%s</text>'
                     % (MARGIN_L - 6, py + 4, _esc(label)))
    if xlabel:
        parts.append('<text x="%d" y="%d" text-anchor="middle">%s</text>'
                     % (WIDTH // 2, HEIGHT - 14, _esc(xlabel)))
    if ylabel:
        parts.append('<text x="16" y="%d" text-anchor="middle" '
                     'transform="rotate(-90 16 %d)">%s</text>'
                     % (HEIGHT // 2, HEIGHT // 2, _esc(ylabel)))
    legend_y = MARGIN_T + 14
    for si, s in enumerate(prepared):
        color = PALETTE[si % len(PALETTE)]
        pts = " ".join("%.2f,%.2f" % (float(sx(a)), float(sy(b)))
                       for a, b in zip(s["x"], s["y"]))
        dash = ' stroke-dasharray="6,4"' if s["dashed"] else ""
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.6"%s/>' % (pts, color, dash))
        for a, b in zip(s["x"], s["y"]):
            parts.append('<circle cx="%.2f" cy="%.2f" r="2.4" fill="%s"/>'
                         % (float(sx(a)), float(sy(b)), color))
        if s["label"]:
            parts.append('<rect x="%d" y="%d" width="14" height="3" '
                         'fill="%s"/>' % (WIDTH - MARGIN_R - 170,
                                          legend_y - 4, color))
            parts.append('<text x="%d" y="%d">%s</text>'
                         % (WIDTH - MARGIN_R - 150, legend_y,
                            _esc(s["label"])))
            legend_y += 16
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
