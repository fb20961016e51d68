"""Deterministic static SVG convergence plots.

Hand-rolled emitter: fixed layout, fixed palette, fixed float formatting,
so identical inputs produce byte-identical files.  One polyline per result
table on a log-scale y axis, with a shaded +/- one-standard-deviation band
when the metric carries a std column.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import TRACE_COLUMNS
from .harness import ResultTable

_WIDTH, _HEIGHT = 800.0, 500.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70.0, 170.0, 30.0, 50.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
_FLOOR = 1e-300


def _fmt(v: float) -> str:
    return format(v, ".2f")


def emit_plot(tables: list[ResultTable], metric: str, path: str,
              title: str | None = None) -> None:
    """Write an SVG comparing ``metric`` across result tables."""
    if not tables:
        raise ValueError("nothing to plot: empty table list")
    if metric not in TRACE_COLUMNS or metric.endswith("_std") or metric == "t":
        raise ValueError(f"unknown metric {metric!r}")

    series = []
    y_lo, y_hi = math.inf, -math.inf
    x_hi = 1.0
    for table in tables:
        t = table.columns["t"]
        y = table.columns[metric]
        std = table.columns.get(metric + "_std")
        mask = np.isfinite(y) & (y > 0)
        if not mask.any():
            raise ValueError(f"metric {metric!r} has no positive finite values "
                             f"in table {table.label!r}")
        y_lo = min(y_lo, float(y[mask].min()))
        y_hi = max(y_hi, float(y[mask].max()))
        top = None
        if std is not None:
            with np.errstate(over="ignore"):
                top = (y + std)[mask]
            # only finite band tops count, as only a finite std draws a band
            y_hi = max(y_hi, float(top.max(initial=-math.inf, where=np.isfinite(top))))
        series.append((table.label, t, y, std, top, mask))
        x_hi = max(x_hi, float(t.max()))

    log_lo = math.floor(math.log10(max(y_lo, _FLOOR)))
    log_hi = math.ceil(math.log10(max(y_hi, _FLOOR)))
    if log_hi <= log_lo:
        log_hi = log_lo + 1

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(t: float) -> float:
        return _MARGIN_L + plot_w * (t / x_hi if x_hi > 0 else 0.0)

    def sy(v: float) -> float:
        lv = math.log10(max(v, _FLOOR))
        lv = min(max(lv, log_lo), log_hi)
        return _MARGIN_T + plot_h * (log_hi - lv) / (log_hi - log_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
        f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
        f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_fmt(_WIDTH / 2)}" y="20" font-size="14" '
                     f'text-anchor="middle">{_escape(title)}</text>')

    # y grid: one line per decade
    for exp in range(log_lo, log_hi + 1):
        yy = sy(10.0 ** exp)
        parts.append(f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(yy)}" '
                     f'x2="{_fmt(_MARGIN_L + plot_w)}" y2="{_fmt(yy)}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(yy + 4)}" '
                     f'font-size="11" text-anchor="end">1e{exp}</text>')
    # x ticks: quarters
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = _MARGIN_L + plot_w * frac
        parts.append(f'<line x1="{_fmt(tx)}" y1="{_fmt(_MARGIN_T + plot_h)}" '
                     f'x2="{_fmt(tx)}" y2="{_fmt(_MARGIN_T + plot_h + 5)}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(tx)}" y="{_fmt(_MARGIN_T + plot_h + 20)}" '
                     f'font-size="11" text-anchor="middle">{int(round(x_hi * frac))}</text>')
    parts.append(f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" '
                 f'y="{_fmt(_HEIGHT - 12)}" font-size="12" '
                 f'text-anchor="middle">communication round</text>')
    parts.append(f'<text x="16" y="{_fmt(_MARGIN_T + plot_h / 2)}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{_fmt(_MARGIN_T + plot_h / 2)})">{_escape(metric)}</text>')

    for k, (label, t, y, std, top, mask) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        if std is not None and np.isfinite(std[mask]).all():
            upper = [(sx(tv), sy(uv)) for tv, uv in zip(t[mask], top)]
            lower = [(sx(tv), sy(max(yv - sv, _FLOOR))) for tv, yv, sv
                     in zip(t[mask], y[mask], std[mask])]
            pts = " ".join(f"{_fmt(x)},{_fmt(v)}" for x, v in upper + lower[::-1])
            parts.append(f'<polygon points="{pts}" fill="{color}" '
                         f'fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(f"{_fmt(sx(tv))},{_fmt(sy(yv))}"
                       for tv, yv in zip(t[mask], y[mask]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 18 * k
        lx = _MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" '
                     f'x2="{_fmt(lx + 22)}" y2="{_fmt(ly - 4)}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" '
                     f'font-size="11">{_escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
