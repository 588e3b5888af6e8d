"""Self-contained SVG charts (no plotting dependency).

Two chart types: eigenvalue branches versus sigma (optionally log-x, with a
horizontal rule at the reference value) and the scan scatter of nodal count
versus index with the y = x guide.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .spectra import FlowResult

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_W, _H = 860, 540
_MAX = sys.float_info.max
_ML, _MR, _MT, _MB = 72, 24, 40, 52
_TICKS = 5  # about this many steps span an axis


def _ticks(lo: float, hi: float) -> list[float]:
    """Ticks at the multiples of a 1-2-5 step of about (hi - lo) / _TICKS,
    up to hi plus 1e-12 |hi| or half a step, whichever is less: [lo] when
    hi <= lo, and none when the range is too narrow for a step, which then
    underflows or is below half an ulp of some tick. A range wider than the
    largest double is cut to the finite doubles."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICKS
    slack = 1e-12 * abs(hi)
    if raw == math.inf:
        lo, hi = max(lo, -_MAX), min(hi, _MAX)
        raw, slack = hi / _TICKS - lo / _TICKS, 0.0
    if raw == 0.0:
        return []
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    else:  # mag underflowed below raw / 10
        return []
    end = hi + min(slack, step / 2)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= end:
        if t + step == t:
            return []
        ticks.append(t)
        t += step
    return ticks


def _y_axis(lo: float, hi: float) -> tuple[float, float, list[float]]:
    """The y-range and its ticks for values from lo to hi: padded by 4% of
    hi - lo (of 1 when they are equal), or, where that range has no ticks or
    no width (a flat or near-flat range far from 0, whose pad is lost in
    rounding, or a range of subnormals), by 4% of max(1, |lo|, |hi|). A
    padded end that overflows is cut to the largest double."""
    pad = 0.04 * (hi - lo or 1.0)
    ticks = _ticks(lo - pad, hi + pad)
    if not (ticks and hi + pad > lo - pad):
        pad = 0.04 * max(1.0, abs(lo), abs(hi))
        ticks = _ticks(lo - pad, hi + pad)
    return max(lo - pad, -_MAX), min(hi + pad, _MAX), ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
        ]
        if title:
            self.parts.append(
                f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
                f'font-family="sans-serif" font-size="15">{title}</text>'
            )

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _frame(canvas: _Canvas, xticks, yticks, to_x, to_y, xlab: str, ylab: str,
           xfmt=_fmt) -> None:
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    canvas.add(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for t in xticks:
        px = to_x(t)
        canvas.add(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="#333"/>')
        canvas.add(
            f'<text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xfmt(t)}</text>'
        )
    for t in yticks:
        py = to_y(t)
        canvas.add(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="#333"/>')
        canvas.add(
            f'<text x="{x0 - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    canvas.add(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlab}</text>'
    )
    canvas.add(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{ylab}</text>'
    )


def branch_chart_svg(fr: FlowResult, *, log_x: bool = False, title: str = "") -> str:
    """Line chart of every tracked branch with a dashed rule at the
    reference value. With log_x the sigma = 0 grid point (if any) is
    dropped. Coordinates are printed to 2 decimals."""
    sigmas = np.asarray(fr.sigma_grid)
    values = np.asarray(fr.branch_values)
    if log_x:
        keep = sigmas > 0
        sigmas, values = sigmas[keep], values[:, keep]
        xs = np.log10(sigmas)
    else:
        xs = sigmas
    xlo, xhi = float(xs[0]), float(xs[-1])
    ylo, yhi, yticks = _y_axis(min(float(values.min()), fr.reference_value),
                               max(float(values.max()), fr.reference_value))

    def to_x(v):
        return _ML + (v - xlo) / (xhi - xlo or 1.0) * (_W - _ML - _MR)

    # A y-range wider than the largest double is mapped at half scale, which
    # keeps every difference finite.
    half = 1.0 if math.isfinite(yhi - ylo) else 0.5

    def to_y(v):
        return _H - _MB - (half * v - half * ylo) / (half * yhi - half * ylo) * (_H - _MT - _MB)

    canvas = _Canvas(title)
    xfmt = (lambda t: f"1e{t:.0f}") if log_x else _fmt
    _frame(canvas, _ticks(xlo, xhi), yticks, to_x, to_y,
           "log10(sigma)" if log_x else "sigma", "eigenvalue", xfmt=xfmt)

    ry = to_y(fr.reference_value)
    canvas.add(
        f'<line x1="{_ML}" y1="{ry:.2f}" x2="{_W - _MR}" y2="{ry:.2f}" '
        f'stroke="#d62728" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    points = " ".join(["%.2f,%.2f"] * len(xs))
    xy = np.empty(2 * len(xs))
    xy[0::2] = to_x(xs)
    for b in range(values.shape[0]):
        xy[1::2] = to_y(values[b])
        pts = points % tuple(xy.tolist())
        color = _PALETTE[b % len(_PALETTE)]
        canvas.add(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
    return canvas.render()


def scan_scatter_svg(rows) -> str:
    """Scatter of (k, nu) with the y = x guide. rows are dicts with keys
    k, nu, simple, nowhere_zero; rows violating an assumption are drawn
    hollow."""
    ks = [r["k"] for r in rows]
    nus = [r["nu"] for r in rows]
    lo, hi = 0.0, max(max(ks), max(nus)) + 1.0

    def to_x(v):
        return _ML + (v - lo) / (hi - lo) * (_W - _ML - _MR)

    def to_y(v):
        return _H - _MB - (v - lo) / (hi - lo) * (_H - _MT - _MB)

    canvas = _Canvas("nodal counts")
    ticks = [t for t in _ticks(lo, hi) if t == int(t)]
    _frame(canvas, ticks, ticks, to_x, to_y, "index k", "strong domains nu")
    canvas.add(
        f'<line x1="{to_x(lo):.2f}" y1="{to_y(lo):.2f}" x2="{to_x(hi):.2f}" '
        f'y2="{to_y(hi):.2f}" stroke="#999" stroke-width="1" stroke-dasharray="4,4"/>'
    )
    for r in rows:
        cx, cy = to_x(r["k"]), to_y(r["nu"])
        clean = r["simple"] and r["nowhere_zero"]
        fill = "#1f77b4" if clean else "white"
        canvas.add(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{fill}" '
            f'stroke="#1f77b4" stroke-width="1.5"/>'
        )
    return canvas.render()
