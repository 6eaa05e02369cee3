"""Deterministic SVG rendering of layouts.

Model coordinates grow upward, SVG coordinates grow downward, so every y
is emitted as ``-(y + h)``.  All emitted numbers are first snapped to the
1/64 grid and then written as exact decimals (1/64 = 0.015625 needs six
fractional digits at most), which keeps the byte stream independent of
any floating-point formatting.  Every number is rounded from an integer
numerator and denominator over the layout's unit
(:func:`crown.geometry.int_extents`), with no Fraction arithmetic.
"""

import re
import zlib
from typing import Mapping, Optional, Tuple

from .geometry import Layout, int_bbox, int_extents

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


def _margin(side: int, unit: int) -> Tuple[int, int]:
    """``max(side / 20, unit / 64)`` as a numerator and denominator."""
    return (side, 20) if 64 * side >= 20 * unit else (unit, 64)


_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """XML character data: the three replacements of
    ``xml.sax.saxutils.escape``, whose import pulls in ``urllib`` and
    ``http.client`` (about 2 MB resident), and U+FFFD for each code point
    that XML 1.0 forbids: C0 controls but tab, LF and CR, lone surrogates
    (which UTF-8 cannot encode), U+FFFE and U+FFFF."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML.sub("\ufffd", text)


def fill_color(box_id: str) -> str:
    # "surrogatepass" gives a lone surrogate, valid in a JSON id, a colour
    return PALETTE[zlib.crc32(box_id.encode("utf-8", "surrogatepass")) % len(PALETTE)]


def render_svg(lay: Layout, labels: Optional[Mapping[str, str]] = None) -> str:
    labels = labels or {}
    unit, exts = int_extents(lay)
    x1, x2, y1, y2 = int_bbox(exts)
    # Margins: 5% of each side, at least 1/64, as n / (d * unit).
    mxn, mxd = _margin(x2 - x1, unit)
    myn, myd = _margin(y2 - y1, unit)
    vb_x = _snap(x1 * mxd - mxn, unit * mxd)
    vb_y = _snap(-(y2 * myd + myn), unit * myd)
    vb_w = _snap((x2 - x1) * mxd + 2 * mxn, unit * mxd)
    vb_h = _snap((y2 - y1) * myd + 2 * myn, unit * myd)
    stroke = _dec64(max(_snap(min(vb_w, vb_h), 12800), 1))  # 1/200 of the side
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_dec64(vb_x)} {_dec64(vb_y)} {_dec64(vb_w)} {_dec64(vb_h)}" '
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
