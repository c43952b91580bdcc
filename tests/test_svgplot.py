"""The bulk polyline formatting against the per-point loop it replaced.

``_panel_svg`` computes each series' pixel coordinates as arrays and
formats the whole polyline in one ``%`` operation.  The arithmetic is the
same as the per-point closures', in the same order, so the text must be
identical, including at the ``.xx5`` rounding ties.  Over the whole float
range, the text holds no non-finite number.
"""

import re
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrotrack import svgplot
from gyrotrack.svgplot import Panel, Series

_VALUES = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-8000, max_value=8000).map(lambda k: k / 8),
)
# multiples of 1/8 on an x span of exactly 648 = pw pixels: px(x) is then
# 56 + x, exactly, and half the fractions (.125, .375, ...) are .xx5 ties
_GRID = st.integers(min_value=0, max_value=8 * 648).map(lambda k: k / 8)


def per_point_polylines(panel, width, height, y_offset):
    """The points attributes as the per-point loop formatted them."""
    x0, y0 = svgplot._MARGIN_L, y_offset + svgplot._MARGIN_T
    pw = width - svgplot._MARGIN_L - svgplot._MARGIN_R
    ph = height - svgplot._MARGIN_T - svgplot._MARGIN_B
    xs = [np.asarray(s.x, dtype=float) for s in panel.series]
    ys = [np.asarray(s.y, dtype=float) for s in panel.series]
    xlo = min(float(x.min()) for x in xs)
    xhi = max(float(x.max()) for x in xs)
    ylo = min(float(y.min()) for y in ys)
    yhi = max(float(y.max()) for y in ys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi, ylo = ylo + 0.5, ylo - 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x):
        return x0 + pw * (x - xlo) / (xhi - xlo)

    def py(y):
        return y0 + ph * (1.0 - (y - ylo) / (yhi - ylo))

    return [" ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
            for x, y in zip(xs, ys)]


@st.composite
def panels(draw):
    grid = draw(st.booleans())
    series = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=40))
        x = draw(st.lists(_GRID if grid else _VALUES, min_size=n, max_size=n))
        if grid:
            x[:0] = [0.0, 648.0]
            n += 2
        y = draw(st.lists(_VALUES, min_size=n, max_size=n))
        series.append(Series(np.array(x), np.array(y)))
    return Panel(series=series)


@settings(max_examples=50, deadline=None)
@given(panel=panels(), y_offset=st.sampled_from([0, 260, 520]))
def test_bulk_polyline_matches_per_point_loop(panel, y_offset):
    text = "\n".join(svgplot._panel_svg(panel, 720, 260, y_offset))
    assert (re.findall(r'<polyline points="([^"]*)"', text)
            == per_point_polylines(panel, 720, 260, y_offset))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
def test_finite_data_gives_finite_text(data, n):
    # spans, pads and tick labels of any finite data stay in the float range
    x, y = (np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
            for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = "\n".join(svgplot._panel_svg(
            Panel(series=[Series(x, y)]), 720, 260, 0))
    assert not re.search(r"\b(nan|inf)\b", text)
