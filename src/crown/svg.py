"""Deterministic SVG rendering of layouts.

Model coordinates grow upward, SVG coordinates grow downward, so every y
is emitted as ``-(y + h)``.  All emitted numbers are first snapped to the
1/64 grid and then written as exact decimals (1/64 = 0.015625 needs six
fractional digits at most), which keeps the byte stream independent of
any floating-point formatting.  Box numbers are rounded from integer
numerator and denominator over the layout's unit
(:func:`crown.geometry.int_extents`), with no Fraction arithmetic.
"""

import zlib
from fractions import Fraction
from typing import Mapping, Optional

from .geometry import Layout, int_extents

GRID = Fraction(1, 64)

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b4",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def _snap(n: int, d: int) -> int:
    """``round(64 * n / d)`` (``d > 0``, ties to even): ``n / d`` on the
    1/64 grid, counted in 64ths."""
    q, r = divmod(64 * n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def _dec64(m: int) -> str:
    """Exact decimal of ``m / 64``, no trailing zeros (1/64 = 0.015625)."""
    whole, frac = divmod(abs(m) * 15625, 1000000)
    sign = "-" if m < 0 else ""
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")


def snap64(q: Fraction) -> Fraction:
    return Fraction(_snap(*q.as_integer_ratio()), 64)


def dec(q: Fraction) -> str:
    """Exact decimal of ``q`` snapped to the 1/64 grid, no trailing zeros."""
    return _dec64(_snap(*q.as_integer_ratio()))


def _escape(text: str) -> str:
    """XML character data: the three replacements of
    ``xml.sax.saxutils.escape``, whose import pulls in ``urllib`` and
    ``http.client`` (about 2 MB resident)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def fill_color(box_id: str) -> str:
    return PALETTE[zlib.crc32(box_id.encode("utf-8")) % len(PALETTE)]


def render_svg(lay: Layout, labels: Optional[Mapping[str, str]] = None) -> str:
    labels = labels or {}
    unit, exts = int_extents(lay)
    cols = list(zip(*exts.values())) or [(0,)] * 4  # an empty layout's box is all 0
    x1, x2, y1, y2 = (Fraction(f(c), unit) for f, c in zip((min, max, min, max), cols))
    w = x2 - x1
    h = y2 - y1
    mx = max(w * Fraction(5, 100), GRID)
    my = max(h * Fraction(5, 100), GRID)
    vb_x = snap64(x1 - mx)
    vb_y = snap64(-(y2 + my))
    vb_w = snap64(w + 2 * mx)
    vb_h = snap64(h + 2 * my)
    stroke = dec(max(snap64(min(vb_w, vb_h) / 200), GRID))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{dec(vb_x)} {dec(vb_y)} {dec(vb_w)} {dec(vb_h)}" '
        'font-family="sans-serif">'
    ]
    ids = sorted(exts)
    # Box numbers below are integer extents over ``unit``; centres are over
    # ``2 * unit`` and the font size, 7/10 of the height, over ``10 * unit``.
    for bid in ids:
        bx1, bx2, by1, by2 = exts[bid]
        parts.append(
            f'  <rect x="{_dec64(_snap(bx1, unit))}" y="{_dec64(_snap(-by2, unit))}" '
            f'width="{_dec64(_snap(bx2 - bx1, unit))}" height="{_dec64(_snap(by2 - by1, unit))}" '
            f'fill="{fill_color(bid)}" fill-opacity="0.85" '
            f'stroke="#333333" stroke-width="{stroke}"/>'
        )
    for bid in ids:
        bx1, bx2, by1, by2 = exts[bid]
        label = labels.get(bid, bid)
        font = max(_snap(7 * (by2 - by1), 10 * unit), 1)
        parts.append(
            f'  <text x="{_dec64(_snap(bx1 + bx2, 2 * unit))}" '
            f'y="{_dec64(_snap(-(by1 + by2), 2 * unit))}" '
            f'font-size="{_dec64(font)}" text-anchor="middle" '
            f'dominant-baseline="central" fill="#1a1a1a">'
            f"{_escape(label)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
