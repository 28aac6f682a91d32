"""Native SVG 1.1 emission: polyline charts and heatmaps, no dependencies.

Output is deterministic for identical inputs (fixed float formatting), so
CLI reruns produce byte-identical images up to the embedded tool version.
Titles, axis labels and names are XML-escaped (&, <, >).
"""

from __future__ import annotations

import math

from . import textio

__all__ = ["line_plot", "heatmap"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _escape(text) -> str:
    """Text as XML character data. xml.sax.saxutils.escape does the same,
    but its import loads urllib.request and http.client, about 2 MB of
    resident memory and 40 ms per process."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out or [lo]


def _scale(lo, hi, log):
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    span = (hi - lo) or 1.0

    def to01(v):
        v = math.log10(v) if log else v
        return (v - lo) / span

    return to01


def line_plot(series, title: str, xlabel: str, ylabel: str,
              logx: bool = False, comment: str = "") -> str:
    """series: list of (name, xs, ys). Non-finite points are skipped; with
    none left, the chart has no ticks and notes that it has no points."""
    title, xlabel, ylabel = map(_escape, (title, xlabel, ylabel))
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y) and (not logx or x > 0)]
    x_all, y_all = [p[0] for p in pts] or [1.0], [p[1] for p in pts] or [0.0]
    xlo, xhi, ylo, yhi = min(x_all), max(x_all), min(y_all), max(y_all)
    if yhi == ylo:
        yhi = ylo + 1.0
    sx = _scale(xlo, xhi, logx)
    sy = _scale(ylo, yhi, False)
    px = lambda x: _ML + sx(x) * (_W - _ML - _MR)
    py = lambda y: _H - _MB - sy(y) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
    ]
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts += [
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" stroke="black"/>',
    ]
    if not pts:
        xticks = yticks = []
        parts.append(f'<text x="{(_ML+_W-_MR)/2:.1f}" y="{(_MT+_H-_MB)/2:.1f}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     'font-size="12">no finite points</text>')
    elif logx:
        e_lo = math.ceil(math.log10(xlo) - 1e-9)
        e_hi = math.floor(math.log10(xhi) + 1e-9)
        xticks = [10.0 ** e for e in range(e_lo, e_hi + 1)] or [xlo]
        yticks = _ticks(ylo, yhi)
    else:
        xticks, yticks = _ticks(xlo, xhi), _ticks(ylo, yhi)
    for t in xticks:
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_H-_MB}" x2="{x:.1f}" '
                     f'y2="{_H-_MB+5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H-_MB+18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for t in yticks:
        y = py(t)
        parts.append(f'<line x1="{_ML-5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{_ML-8}" y="{y+4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    parts.append(f'<text x="{(_ML+_W-_MR)/2:.1f}" y="{_H-14}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT+_H-_MB)/2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(_MT+_H-_MB)/2:.1f})">{ylabel}</text>')
    for i, (name, xs, ys) in enumerate(series):
        name = _escape(name)
        color = _COLORS[i % len(_COLORS)]
        coords = [
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y) and (not logx or x > 0)
        ]
        if len(coords) > 1:
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{" ".join(coords)}"/>')
        for c in coords:
            cx, cy = c.split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{_W-_MR-6}" y="{_MT+14+14*i}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return textio.join(parts)


def heatmap(values, row_labels, col_labels, title: str,
            comment: str = "") -> str:
    """Matrix heatmap (white = low, dark blue = high); NaN cells hatched grey."""
    title = _escape(title)
    row_labels, col_labels = ([_escape(lab) for lab in labels]
                              for labels in (row_labels, col_labels))
    n_rows, n_cols = len(row_labels), len(col_labels)
    cell = max(24, min(64, 360 // max(n_rows, n_cols)))
    left, top = 120, 90
    w = left + n_cols * cell + 20
    h = top + n_rows * cell + 20
    finite = [v for row in values for v in row if v == v]
    vmax = max(finite) if finite else 1.0
    vmin = min(finite) if finite else 0.0
    span = (vmax - vmin) or 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">']
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts.append(f'<rect width="{w}" height="{h}" fill="white"/>')
    parts.append(f'<text x="{w/2:.0f}" y="20" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">{title}</text>')
    for j, lab in enumerate(col_labels):
        x = left + j * cell + cell / 2
        parts.append(f'<text x="{x:.0f}" y="{top-8}" text-anchor="start" '
                     f'font-family="sans-serif" font-size="11" '
                     f'transform="rotate(-45 {x:.0f} {top-8})">{lab}</text>')
    for i, lab in enumerate(row_labels):
        y = top + i * cell + cell / 2 + 4
        parts.append(f'<text x="{left-6}" y="{y:.0f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{lab}</text>')
    for i in range(n_rows):
        for j in range(n_cols):
            v = values[i][j]
            x, y = left + j * cell, top + i * cell
            if v != v:
                fill = "#cccccc"
                text = "nan"
            else:
                frac = (v - vmin) / span
                shade = int(255 - frac * 175)
                fill = f"rgb({shade},{shade},255)"
                text = _fmt(v)
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" '
                         f'height="{cell}" fill="{fill}" stroke="#666"/>')
            parts.append(f'<text x="{x+cell/2:.0f}" y="{y+cell/2+4:.0f}" '
                         f'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="10">{text}</text>')
    parts.append("</svg>")
    return textio.join(parts)
