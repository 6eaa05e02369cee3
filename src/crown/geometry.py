"""Axis-aligned boxes with exact rational coordinates and their contacts.

A box is closed; two boxes are *in contact* when their boundaries share a
segment or a single point while their interiors stay disjoint.  A contact is

* ``vertical``   -- the shared segment is horizontal (one box sits on top of
  the other), and
* ``horizontal`` -- the shared segment is vertical (the boxes stand side by
  side).

A point contact is horizontal exactly when the point is the north-east
corner of one box and the south-west corner of the other; every other
corner-to-corner touch is vertical.

All coordinates are :class:`fractions.Fraction`; there is no floating-point
fast path anywhere in this module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .errors import DuplicateIdError, OverlapError, ParameterError


# Fraction("1e99999999") computes 10**99999999, which takes minutes; a
# value past this exponent also has more digits than int() reads by default.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def rat(value) -> Fraction:
    """The one reader of outside rationals: a Fraction as it is, a string
    like ``"3/4"``, ``"-1.5"`` or ``"2e3"``, or an int, as a Fraction.

    Raises ParameterError for a string that is not a rational, has a
    zero denominator or an exponent past ``MAX_EXPONENT`` in size, and
    for any other type but float, a bool included.  A float raises
    TypeError: passing one is a programming error, outside the
    ``CrownError`` contract.
    """
    # Fraction, then str: a type test before them slows document parsing.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        # ASCII "digits/digits", as frac_str writes it, skips Fraction's
        # regex; int() alone would also take "_", spaces and signs.
        p, slash, q = value.partition("/")
        try:
            if slash and p.isascii() and p.isdigit() and q.isascii() and q.isdigit():
                return Fraction(int(p), int(q))
            exponent = _EXPONENT.search(value)
            if not exponent or abs(int(exponent[1])) <= MAX_EXPONENT:
                return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(value, int):
        if not isinstance(value, bool):
            return Fraction(value)
    elif isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass an exact rational")
    raise ParameterError(f"not an exact rational: {value!r}")


def on_unit(values: Iterable[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """``(unit, counts)``: ``unit`` is the least common multiple of the
    denominators of the ints and Fractions ``values`` (1 for none), and
    ``counts`` holds each value, in order, as a whole number of ``1/unit``.
    Scaling by the positive ``unit`` keeps every sum and comparison, so
    exact integer code can run on the counts and turn back with
    ``Fraction(count, unit)``."""
    values = list(values)
    unit = math.lcm(*(v.denominator for v in values))
    return unit, [v.numerator * (unit // v.denominator) for v in values]


@dataclass(frozen=True)
class BoxSpec:
    """A box that must be drawn with exactly this width and height."""

    id: str
    w: Fraction
    h: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w", rat(self.w))
        object.__setattr__(self, "h", rat(self.h))
        if self.w <= 0 or self.h <= 0:
            raise ParameterError(f"box {self.id!r} needs positive dimensions")


@dataclass(frozen=True)
class Contact:
    """A detected contact between boxes ``a`` and ``b`` (a < b).

    ``coord`` is the coordinate of the shared line (x for horizontal
    contacts, y for vertical ones); the shared segment spans ``lo..hi`` in
    the other axis.  ``degenerate`` marks point contacts (lo == hi).
    """

    a: str
    b: str
    orientation: str  # "h" | "v"
    coord: Fraction
    lo: Fraction
    hi: Fraction

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi


class ProfitGraph:
    """Undirected graph with non-negative rational edge profits."""

    def __init__(self, vertices: Iterable[str] = (), edges: Mapping = None):
        self.vertices = set(vertices)
        self._profit: Dict[Tuple[str, str], Fraction] = {}
        if edges:
            for (a, b), p in edges.items():
                self.add_edge(a, b, p)

    @staticmethod
    def key(a: str, b: str) -> Tuple[str, str]:
        if a == b:
            raise ParameterError(f"self-loop at {a!r}")
        return (a, b) if a < b else (b, a)

    def add_edge(self, a: str, b: str, profit) -> None:
        p = rat(profit)
        if p < 0:
            raise ParameterError(f"negative profit on edge {a!r}-{b!r}")
        self.vertices.add(a)
        self.vertices.add(b)
        self._profit[self.key(a, b)] = p

    def profit(self, a: str, b: str) -> Fraction:
        return self._profit[self.key(a, b)]

    def has_edge(self, a: str, b: str) -> bool:
        return self.key(a, b) in self._profit

    def edges(self) -> List[Tuple[str, str, Fraction]]:
        return [(a, b, self._profit[(a, b)]) for a, b in sorted(self._profit)]

    def total_profit(self) -> Fraction:
        unit, counts = on_unit(self._profit.values())
        return Fraction(sum(counts), unit)

    def degrees(self) -> Dict[str, int]:
        """Degree of every vertex, counted in one pass over the edges."""
        deg = dict.fromkeys(self.vertices, 0)
        for a, b in self._profit:
            deg[a] += 1
            deg[b] += 1
        return deg


def require_boxes(vertices: Iterable[str], boxes: Mapping[str, BoxSpec]) -> None:
    """ParameterError naming the first of ``vertices``, in sorted order,
    that has no box."""
    missing = [v for v in vertices if v not in boxes]
    if missing:
        raise ParameterError(f"graph vertex {min(missing)!r} has no box")


@dataclass
class Layout:
    """Placed boxes: ``pos[id]`` is the lower-left corner of ``boxes[id]``."""

    boxes: Dict[str, BoxSpec] = field(default_factory=dict)
    pos: Dict[str, Tuple[Fraction, Fraction]] = field(default_factory=dict)

    def place(self, box: BoxSpec, x, y) -> None:
        if box.id in self.boxes:
            raise DuplicateIdError(box.id)
        self.boxes[box.id] = box
        self.pos[box.id] = (rat(x), rat(y))

    def ids(self) -> List[str]:
        return sorted(self.boxes)


def _classify(ax1, ax2, ay1, ay2, bx1, bx2, by1, by2):
    """Return (orientation, coord, lo, hi) for a touching pair, None if
    disjoint, or raise-marker "overlap" when interiors intersect."""
    xlo = ax1 if ax1 > bx1 else bx1
    xhi = ax2 if ax2 < bx2 else bx2
    if xlo > xhi:
        return None
    ylo = ay1 if ay1 > by1 else by1
    yhi = ay2 if ay2 < by2 else by2
    if ylo > yhi:
        return None
    x_thin = xlo == xhi
    y_thin = ylo == yhi
    if not x_thin and not y_thin:
        return "overlap"
    if x_thin and not y_thin:
        return ("h", xlo, ylo, yhi)
    if y_thin and not x_thin:
        return ("v", ylo, xlo, xhi)
    # Point contact.  Horizontal iff the point is the NE corner of one box
    # and the SW corner of the other.
    p = (xlo, ylo)
    ne_sw = (p == (ax2, ay2) and p == (bx1, by1)) or (
        p == (bx2, by2) and p == (ax1, ay1)
    )
    if ne_sw:
        return ("h", xlo, ylo, ylo)
    return ("v", ylo, xlo, xlo)


def int_extents(layout: Layout) -> Tuple[int, Dict[str, Tuple[int, int, int, int]]]:
    """``(unit, {id: (x1, x2, y1, y2)})``: every extent of the layout as a
    whole multiple of ``1/unit``, with :func:`on_unit` over all positions
    and dimensions."""
    boxes = layout.boxes
    unit, counts = on_unit(
        v for i, (x, y) in layout.pos.items() for v in (x, y, boxes[i].w, boxes[i].h)
    )
    quads = iter(counts)  # four counts per box, in the order of layout.pos
    return unit, {
        i: (x1, x1 + w, y1, y1 + h)
        for i, x1, y1, w, h in zip(layout.pos, quads, quads, quads, quads)
    }


def int_bbox(exts: Mapping[str, Tuple[int, int, int, int]]) -> Tuple[int, int, int, int]:
    """``(min x1, max x2, min y1, max y2)`` over :func:`int_extents`
    extents, in the same unit; all 0 when there are no boxes."""
    if not exts:
        return (0, 0, 0, 0)
    x1s, x2s, y1s, y2s = zip(*exts.values())
    return (min(x1s), max(x2s), min(y1s), max(y2s))


def detect_contacts(layout: Layout) -> List[Contact]:
    """All contacts of the layout, sorted by id pair.

    Raises :class:`OverlapError` if any two interiors intersect, so a
    successful call doubles as an exact no-overlap certificate.  The sweep
    compares the integer extents of :func:`int_extents`; only the returned
    contacts go back to Fractions.
    """
    unit, exts = int_extents(layout)
    # Sweep by left edge; prune pairs whose x-ranges cannot touch.
    order = sorted(exts, key=lambda i: (exts[i][0], i))
    active: List[str] = []
    found = []
    for cur in order:
        cx1, cx2, cy1, cy2 = exts[cur]
        keep = []
        for other in active:
            ox1, ox2, oy1, oy2 = exts[other]
            if ox2 < cx1:
                continue  # can never touch anything to the right either
            keep.append(other)
            got = _classify(ox1, ox2, oy1, oy2, cx1, cx2, cy1, cy2)
            if got is None:
                continue
            if got == "overlap":
                raise OverlapError(*sorted((cur, other)))
            found.append((*sorted((cur, other)), *got))
        keep.append(cur)
        active = keep
    found.sort()
    # Contacts share few distinct coordinates (a row's y, a column's x).
    frac = {v: Fraction(v, unit) for v in {v for t in found for v in t[3:]}}
    return [
        Contact(a, b, orient, frac[coord], frac[lo], frac[hi])
        for a, b, orient, coord, lo, hi in found
    ]


def realized_profit(layout: Layout, graph: ProfitGraph) -> Fraction:
    """Total profit of graph edges whose boxes are placed and touching."""
    return contact_profit(detect_contacts(layout), graph)


def contact_profit(contacts: Iterable[Contact], graph: ProfitGraph) -> Fraction:
    """Total profit of the graph edges among ``contacts`` (one per pair,
    as :func:`detect_contacts` returns them)."""
    total = Fraction(0)
    for c in contacts:
        p = graph._profit.get((c.a, c.b))
        if p is not None:
            total += p
    return total


def pack_components(layouts: Iterable[Layout], boxes: Mapping[str, BoxSpec]) -> Layout:
    """Set component layouts side by side, 1 apart, bottoms aligned; then
    every box of ``boxes`` that no component holds, alone, in id order.

    Rigid translation only: contacts inside each component are preserved and
    no contact between components can appear.
    """
    merged = Layout()
    cursor = Fraction(0)
    for component in layouts:
        if not component.pos:
            continue
        unit, exts = int_extents(component)
        x1, x2, y1, _ = int_bbox(exts)
        dx = cursor - Fraction(x1, unit)
        dy = Fraction(y1, unit)
        for i, (x, y) in component.pos.items():
            merged.place(component.boxes[i], x + dx, y - dy)
        cursor += Fraction(x2 - x1, unit) + 1
    for i in sorted(boxes.keys() - merged.boxes.keys()):
        merged.place(boxes[i], cursor, 0)
        cursor += boxes[i].w + 1
    return merged
