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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import DuplicateIdError, OverlapError, ParameterError


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass an exact rational")
    return Fraction(value)


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
        return sum(self._profit.values(), Fraction(0))

    def degrees(self) -> Dict[str, int]:
        """Degree of every vertex, counted in one pass over the edges."""
        deg = dict.fromkeys(self.vertices, 0)
        for a, b in self._profit:
            deg[a] += 1
            deg[b] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees().values(), default=0)


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

    def extent(self, box_id: str) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        """(x1, x2, y1, y2) of the closed rectangle."""
        box = self.boxes[box_id]
        x, y = self.pos[box_id]
        return (x, x + box.w, y, y + box.h)

    def bbox(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        if not self.pos:
            z = Fraction(0)
            return (z, z, z, z)
        exts = [self.extent(i) for i in self.pos]
        return (
            min(e[0] for e in exts),
            max(e[1] for e in exts),
            min(e[2] for e in exts),
            max(e[3] for e in exts),
        )

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


def detect_contacts(layout: Layout) -> List[Contact]:
    """All contacts of the layout, sorted by id pair.

    Raises :class:`OverlapError` if any two interiors intersect, so a
    successful call doubles as an exact no-overlap certificate.
    """
    ids = sorted(layout.pos)
    exts = {i: layout.extent(i) for i in ids}
    # Sweep by left edge; prune pairs whose x-ranges cannot touch.
    order = sorted(ids, key=lambda i: (exts[i][0], i))
    active: List[str] = []
    contacts: List[Contact] = []
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
            orient, coord, lo, hi = got
            a, b = sorted((cur, other))
            contacts.append(Contact(a, b, orient, coord, lo, hi))
        keep.append(cur)
        active = keep
    contacts.sort(key=lambda c: (c.a, c.b))
    return contacts


def contact_pairs(layout: Layout) -> set:
    return {(c.a, c.b) for c in detect_contacts(layout)}


def realized_profit(layout: Layout, graph: ProfitGraph) -> Fraction:
    """Total profit of graph edges whose boxes are placed and touching."""
    touching = contact_pairs(layout)
    total = Fraction(0)
    for a, b, p in graph.edges():
        if (a, b) in touching:
            total += p
    return total


def pack_components(layouts: Iterable[Layout]) -> Layout:
    """Set component layouts side by side, 1 apart, bottoms aligned.

    Rigid translation only: contacts inside each component are preserved and
    no contact between components can appear.
    """
    merged = Layout()
    cursor = Fraction(0)
    for component in layouts:
        if not component.pos:
            continue
        x1, x2, y1, _ = component.bbox()
        dx = cursor - x1
        for i, (x, y) in component.pos.items():
            if i in merged.boxes:
                raise DuplicateIdError(i)
            merged.boxes[i] = component.boxes[i]
            merged.pos[i] = (x + dx, y - y1)
        cursor += x2 - x1 + 1
    return merged


def singleton_layout(box: BoxSpec) -> Layout:
    lay = Layout()
    lay.place(box, 0, 0)
    return lay
