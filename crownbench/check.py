"""Independent checks of emitted layouts.

Works from the emitted JSON text and plain instance data only: it
imports nothing from ``crown``.  Coordinates are scaled to integers by
the common denominator, so every comparison is exact.  Two closed boxes
*touch* when they intersect and their interiors do not.
"""

import json
from fractions import Fraction
from math import lcm


def _rects(doc, boxes):
    """Integer rectangles {id: (x1, y1, x2, y2)} and the grid scale, after
    checking that the layout places exactly the instance's boxes at their
    given sizes.  ``boxes`` maps id -> (w, h) as Fractions."""
    entries = doc["boxes"]
    got = {e["id"]: e for e in entries}
    if len(got) != len(entries) or set(got) != set(boxes):
        raise ValueError("layout does not place exactly the instance's boxes")
    vals = {}
    for bid, e in got.items():
        w, h = Fraction(e["w"]), Fraction(e["h"])
        if (w, h) != tuple(boxes[bid]):
            raise ValueError(f"box {bid} drawn at {w}x{h}, instance says {boxes[bid]}")
        vals[bid] = (Fraction(e["x"]), Fraction(e["y"]), w, h)
    scale = lcm(*(q.denominator for v in vals.values() for q in v))
    rects = {}
    for bid, (x, y, w, h) in vals.items():
        x1, y1 = int(x * scale), int(y * scale)
        rects[bid] = (x1, y1, x1 + int(w * scale), y1 + int(h * scale))
    return rects, scale


def _touching(rects):
    """Touching pairs (sorted ids); raises ValueError on an overlap."""
    order = sorted(rects, key=lambda i: rects[i][0])
    active = []
    pairs = set()
    for cur in order:
        cx1, cy1, cx2, cy2 = rects[cur]
        active = [o for o in active if rects[o][2] >= cx1]
        for other in active:
            ox1, oy1, ox2, oy2 = rects[other]
            xs = min(cx2, ox2) - max(cx1, ox1)
            ys = min(cy2, oy2) - max(cy1, oy1)
            if xs < 0 or ys < 0:
                continue
            if xs > 0 and ys > 0:
                raise ValueError(f"boxes {other} and {cur} overlap")
            pairs.add((cur, other) if cur < other else (other, cur))
        active.append(cur)
    return pairs


def profit_layout(text, boxes, edges, claimed=None):
    """Check a profit-graph layout; return its realized profit.

    ``edges`` is a list of (a, b, profit).  The realized profit is
    recomputed from the touching pairs and must equal the document's
    own field and, when given, the value the library returned.
    """
    doc = json.loads(text)
    rects, _ = _rects(doc, boxes)
    touching = _touching(rects)
    realized = sum(
        (p for a, b, p in edges if (min(a, b), max(a, b)) in touching), Fraction(0)
    )
    total = sum((p for _, _, p in edges), Fraction(0))
    if Fraction(doc["realized_profit"]) != realized:
        raise ValueError(f"document claims {doc['realized_profit']}, contacts give {realized}")
    if Fraction(doc["total_profit"]) != total:
        raise ValueError("document total profit differs from the instance")
    if claimed is not None and claimed != realized:
        raise ValueError(f"library returned {claimed}, contacts give {realized}")
    return realized


def max_degree(edges):
    degree = {}
    for a, b, *_ in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    return max(degree.values(), default=0)


def cycle_cover_bound(realized, edges):
    """Cycle covers keep at least total / ceil(maxdeg / 2)."""
    k = -(-max_degree(edges) // 2)
    if not k:
        return
    total = sum((p for _, _, p in edges), Fraction(0))
    if realized * k < total:
        raise ValueError(f"cycle cover keeps {realized} < {total} / {k}")


def hier_layout(text, boxes, edges):
    """Every (child, parent) edge: child top on parent bottom, x-overlap
    at least min width / 1000 (the solver's default delta)."""
    rects, scale = _rects(json.loads(text), boxes)
    _touching(rects)
    delta = min(w for w, _ in boxes.values()) / 1000 * scale
    for child, parent in edges:
        c, p = rects[child], rects[parent]
        if c[3] != p[1]:
            raise ValueError(f"{child} does not sit under {parent}")
        if min(c[2], p[2]) - max(c[0], p[0]) < delta:
            raise ValueError(f"{child} overlaps {parent} by less than delta")


def contact_layout(text, boxes, edges):
    """Every required (a, b) pair touches."""
    rects, _ = _rects(json.loads(text), boxes)
    touching = _touching(rects)
    for a, b in edges:
        if (min(a, b), max(a, b)) not in touching:
            raise ValueError(f"required contact {a}-{b} missing")


def svg_boxes(text, n):
    """The SVG draws one rectangle per box."""
    if not text.startswith("<svg") or text.count("<rect ") != n:
        raise ValueError(f"SVG does not draw {n} rectangles")
