"""Deterministic SVG rendering of layouts.

Model coordinates grow upward, SVG coordinates grow downward, so every y
is emitted as ``-(y + h)``.  All emitted numbers are first snapped to the
1/64 grid and then written as exact decimals (1/64 = 0.015625 needs six
fractional digits at most), which keeps the byte stream independent of
any floating-point formatting.
"""

import zlib
from fractions import Fraction
from typing import Mapping, Optional

from .geometry import Layout

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


def snap64(q: Fraction) -> Fraction:
    return Fraction(round(q / GRID), 1) * GRID


def dec(q: Fraction) -> str:
    """Exact decimal for a 1/64-grid rational, no trailing zeros."""
    q = snap64(q)
    sign = "-" if q < 0 else ""
    n = abs(q.numerator) * (1000000 // q.denominator)
    whole, frac = divmod(n, 1000000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")


def _escape(text: str) -> str:
    """XML character data: the three replacements of
    ``xml.sax.saxutils.escape``, whose import pulls in ``urllib`` and
    ``http.client`` (about 2 MB resident even beside networkx)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def fill_color(box_id: str) -> str:
    return PALETTE[zlib.crc32(box_id.encode("utf-8")) % len(PALETTE)]


def render_svg(lay: Layout, labels: Optional[Mapping[str, str]] = None) -> str:
    labels = labels or {}
    x1, x2, y1, y2 = lay.bbox()
    w = x2 - x1
    h = y2 - y1
    mx = max(w * Fraction(5, 100), GRID)
    my = max(h * Fraction(5, 100), GRID)
    vb_x = snap64(x1 - mx)
    vb_y = snap64(-(y2 + my))
    vb_w = snap64(w + 2 * mx)
    vb_h = snap64(h + 2 * my)
    stroke = max(snap64(min(vb_w, vb_h) / 200), GRID)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{dec(vb_x)} {dec(vb_y)} {dec(vb_w)} {dec(vb_h)}" '
        'font-family="sans-serif">'
    ]
    for bid in lay.ids():
        b = lay.boxes[bid]
        x, y = lay.pos[bid]
        parts.append(
            f'  <rect x="{dec(x)}" y="{dec(-(y + b.h))}" '
            f'width="{dec(b.w)}" height="{dec(b.h)}" '
            f'fill="{fill_color(bid)}" fill-opacity="0.85" '
            f'stroke="#333333" stroke-width="{dec(stroke)}"/>'
        )
    for bid in lay.ids():
        b = lay.boxes[bid]
        x, y = lay.pos[bid]
        label = labels.get(bid, bid)
        font = max(snap64(b.h * Fraction(7, 10)), GRID)
        parts.append(
            f'  <text x="{dec(x + b.w / 2)}" y="{dec(-(y + b.h / 2))}" '
            f'font-size="{dec(font)}" text-anchor="middle" '
            f'dominant-baseline="central" fill="#1a1a1a">'
            f"{_escape(label)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
