"""Minimal deterministic SVG charts for sweep and perturbation outputs.

Byte-stable for fixed inputs: coordinates are formatted with fixed precision
and nothing time- or environment-dependent is written.  Log-scale axes drop
nonpositive values (a bias estimate can fluctuate through zero), which keeps
the remaining curve intact rather than failing the render.
"""
from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 52  # margins: left, right, top, bottom


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class _Axes:
    """Maps data coordinates into the fixed pixel frame."""

    def __init__(self, xs, ys, log_y: bool):
        self.log_y = log_y
        self.x_lo, self.x_hi = min(xs), max(xs)
        if self.x_hi == self.x_lo:
            self.x_lo -= 0.5
            self.x_hi += 0.5
        if log_y:
            ys = [y for y in ys if y > 0]
            if not ys:
                ys = [1e-1, 1.0]
            self.y_lo = math.floor(math.log10(min(ys)))
            self.y_hi = math.ceil(math.log10(max(ys)))
            if self.y_hi == self.y_lo:
                self.y_hi += 1
        else:
            self.y_lo, self.y_hi = min(ys), max(ys)
            if self.y_hi == self.y_lo:
                self.y_lo -= 0.5
                self.y_hi += 0.5
            pad = 0.05 * (self.y_hi - self.y_lo)
            self.y_lo -= pad
            self.y_hi += pad

    def px(self, x: float) -> float:
        f = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _ML + f * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        v = math.log10(y) if self.log_y else y
        f = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return _H - _MB - f * (_H - _MT - _MB)

    def x_ticks(self):
        return _nice_ticks(self.x_lo, self.x_hi)

    def y_ticks(self):
        if self.log_y:
            return [10.0**k for k in range(int(self.y_lo), int(self.y_hi) + 1)]
        return _nice_ticks(self.y_lo, self.y_hi)


def _frame(ax: _Axes, title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        '<g font-family="sans-serif" font-size="12" fill="#222222">',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{_H // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H // 2})">{y_label}</text>',
        "</g>",
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#444444"/>',
    ]
    grid = ['<g font-family="sans-serif" font-size="11" fill="#222222">']
    for t in ax.x_ticks():
        x = _fmt(ax.px(t))
        grid.append(
            f'<line x1="{x}" y1="{_H - _MB}" x2="{x}" y2="{_H - _MB + 4}" stroke="#444444"/>'
        )
        grid.append(
            f'<text x="{x}" y="{_H - _MB + 16}" text-anchor="middle">{_label(t)}</text>'
        )
    for t in ax.y_ticks():
        y = _fmt(ax.py(t))
        grid.append(
            f'<line x1="{_ML - 4}" y1="{y}" x2="{_ML}" y2="{y}" stroke="#444444"/>'
        )
        grid.append(
            f'<line x1="{_ML}" y1="{y}" x2="{_W - _MR}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        grid.append(
            f'<text x="{_ML - 7}" y="{y}" text-anchor="end" dy="4">{_label(t)}</text>'
        )
    grid.append("</g>")
    return parts + grid


def _write(path, parts: list[str], legend: list[tuple[str, str]]) -> None:
    """Write the chart parts, then the legend of (label, color) entries, as one SVG file."""
    parts = [*parts, '<g font-family="sans-serif" font-size="12">']
    x = _W - _MR - 150
    for i, (label, color) in enumerate(legend):
        y = _MT + 16 + 16 * i
        parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x + 28}" y="{y}" fill="#222222">{label}</text>')
    parts += ["</g>", "</svg>"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def line_chart(path, series: list[dict], x_label: str, y_label: str, title: str = "") -> None:
    """Write a multi-series line chart on a log-scale y axis.

    Each series is {"label", "x", "y"}, coloured from PALETTE in order;
    points are drawn as circles joined by a polyline.
    """
    all_x = [x for s in series for x in s["x"]]
    all_y = [y for s in series for y in s["y"]]
    ax = _Axes(all_x, all_y, log_y=True)
    parts = _frame(ax, title, x_label, y_label)
    legend = []
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        legend.append((s["label"], color))
        pts = [(xv, yv) for xv, yv in zip(s["x"], s["y"]) if not yv <= 0]  # keeps a NaN, as yv > 0 would not
        if not pts:
            continue
        coords = " ".join(f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{_fmt(ax.px(x))}" cy="{_fmt(ax.py(y))}" r="3" fill="{color}"/>'
            )
    _write(path, parts, legend)


def scatter_chart(
    path,
    groups: list[dict],
    x_label: str,
    y_label: str,
    title: str = "",
) -> None:
    """Write a grouped scatter plot with optional per-group OLS lines.

    Each group is {"label", "x", "y"} plus optional "color" and "slope"
    (line through the group's mean point with that slope).
    """
    all_x = [x for g in groups for x in g["x"]]
    all_y = [y for g in groups for y in g["y"]]
    ax = _Axes(all_x, all_y, log_y=False)
    parts = _frame(ax, title, x_label, y_label)
    legend = []
    for i, g in enumerate(groups):
        color = g.get("color", PALETTE[i % len(PALETTE)])
        legend.append((g["label"], color))
        for x, y in zip(g["x"], g["y"]):
            parts.append(
                f'<circle cx="{_fmt(ax.px(x))}" cy="{_fmt(ax.py(y))}" r="2.5" '
                f'fill="{color}" fill-opacity="0.55"/>'
            )
        slope = g.get("slope")
        if slope is not None and math.isfinite(slope) and g["x"]:
            mx = sum(g["x"]) / len(g["x"])
            my = sum(g["y"]) / len(g["y"])
            x0, x1 = ax.x_lo, ax.x_hi
            if slope != 0.0:  # clip to the frame's y-range
                xa = mx + (ax.y_lo - my) / slope
                xb = mx + (ax.y_hi - my) / slope
                x0 = max(x0, min(xa, xb))
                x1 = min(x1, max(xa, xb))
            if x0 < x1 and ax.y_lo <= my <= ax.y_hi:
                y_at = lambda xv: my + slope * (xv - mx)
                parts.append(
                    f'<line x1="{_fmt(ax.px(x0))}" y1="{_fmt(ax.py(y_at(x0)))}" '
                    f'x2="{_fmt(ax.px(x1))}" y2="{_fmt(ax.py(y_at(x1)))}" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
    _write(path, parts, legend)
