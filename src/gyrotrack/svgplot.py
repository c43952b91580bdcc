"""Minimal static SVG line plots (axes, polylines, legend).

Hand-rolled on purpose: telemetry rendering needs nothing beyond a few
polylines, and this keeps the package free of plotting dependencies.
Long series are thinned to a fixed point budget; each polyline's pixel
coordinates are computed as arrays and formatted in one pass.
"""

from dataclasses import dataclass, field

import numpy as np

_MAX_POINTS = 4000
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 28, 40
_WIDTH, _PANEL_HEIGHT = 720, 260
_FMAX, _UNIT = float(np.finfo(float).max), 2.0 ** 11


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    color: str = "#1f77b4"


@dataclass
class Panel:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    series: list = field(default_factory=list)


def _thin(arr):
    if len(arr) <= _MAX_POINTS:
        return arr
    stride = int(np.ceil(len(arr) / _MAX_POINTS))
    return arr[::stride]


def _axis(arrs):
    """Data range (lo, hi) of an axis in its unit, _UNIT for data past
    _FMAX / _UNIT or else 1, so that a span times a pixel width (< 2**10)
    and every coordinate stay finite; a power of two scales exactly."""
    lo = min(float(a.min()) for a in arrs)
    hi = max(float(a.max()) for a in arrs)
    unit = _UNIT if max(-lo, hi) > _FMAX / _UNIT else 1.0
    return lo / unit, hi / unit, unit


def _panel_svg(panel, width, height, y_offset):
    x0, y0 = _MARGIN_L, y_offset + _MARGIN_T
    pw = width - _MARGIN_L - _MARGIN_R
    ph = height - _MARGIN_T - _MARGIN_B

    xs = [_thin(np.asarray(s.x, dtype=float)) for s in panel.series]
    ys = [_thin(np.asarray(s.y, dtype=float)) for s in panel.series]
    xlo, xhi, xunit = _axis(xs)
    ylo, yhi, yunit = _axis(ys)
    # a flat range is widened by 1 (x; down at the top of the float range)
    # or 0.5 each way (y), or by 2**-30 of its value if that is more
    if xhi == xlo:
        width = max(1.0, abs(xlo) * 2.0 ** -30)
        xlo, xhi = ((xlo, xlo + width) if xlo + width <= _FMAX / xunit
                    else (xlo - width, xlo))
    if yhi == ylo:
        half = max(0.5, abs(ylo) * 2.0 ** -30)
        yhi, ylo = ylo + half, ylo - half
    pad = 0.05 * (yhi - ylo)
    # padded only as far as tick labels, scaled back, stay finite
    ylo, yhi = max(ylo - pad, -_FMAX / yunit), min(yhi + pad, _FMAX / yunit)

    def px(x):
        return x0 + pw * (x - xlo) / (xhi - xlo)

    def py(y):
        return y0 + ph * (1.0 - (y - ylo) / (yhi - ylo))

    parts = [
        f'<rect x="{x0}" y="{y0}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{x0 + pw / 2:.1f}" y="{y0 - 9}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{panel.title}</text>',
        f'<text x="{x0 + pw / 2:.1f}" y="{y0 + ph + 32}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{panel.xlabel}</text>',
        f'<text x="{x0 - 44}" y="{y0 + ph / 2:.1f}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif" '
        f'transform="rotate(-90 {x0 - 44} {y0 + ph / 2:.1f})">{panel.ylabel}</text>',
    ]
    for tx in np.linspace(xlo, xhi, 5):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{y0 + ph}" x2="{px(tx):.1f}" '
                     f'y2="{y0 + ph + 4}" stroke="#444"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{y0 + ph + 16}" '
                     f'text-anchor="middle" font-size="10" '
                     f'font-family="sans-serif">{tx * xunit:.3g}</text>')
    for ty in np.linspace(ylo, yhi, 5):
        parts.append(f'<line x1="{x0 - 4}" y1="{py(ty):.1f}" x2="{x0}" '
                     f'y2="{py(ty):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{x0 - 6}" y="{py(ty):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-size="10" '
                     f'font-family="sans-serif">{ty * yunit:.3g}</text>')

    for s, x, y in zip(panel.series, xs, ys):
        xy = np.empty(2 * len(x))
        xy[0::2], xy[1::2] = px(x / xunit), py(y / yunit)
        pts = " ".join(["%.2f,%.2f"] * len(x)) % tuple(xy.tolist())
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{s.color}" stroke-width="1.2"/>')

    lx, ly = x0 + pw - 8, y0 + 14
    for k, s in enumerate(panel.series):
        if not s.label:
            continue
        yy = ly + 14 * k
        parts.append(f'<line x1="{lx - 60}" y1="{yy - 4}" x2="{lx - 40}" '
                     f'y2="{yy - 4}" stroke="{s.color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx - 36}" y="{yy}" font-size="10" '
                     f'font-family="sans-serif">{s.label}</text>')
    return parts


def write_svg(path, panels):
    """Write stacked _WIDTH x _PANEL_HEIGHT line-plot panels to SVG."""
    panels = list(panels)
    total_h = _PANEL_HEIGHT * len(panels)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{total_h}" viewBox="0 0 {_WIDTH} {total_h}">',
             f'<rect width="{_WIDTH}" height="{total_h}" fill="white"/>']
    for k, panel in enumerate(panels):
        parts.extend(_panel_svg(panel, _WIDTH, _PANEL_HEIGHT,
                                k * _PANEL_HEIGHT))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
