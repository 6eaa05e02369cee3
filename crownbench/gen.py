"""Seeded instance generators whose answers are known by construction.

Every generator takes a ``random.Random`` and returns crown objects plus
the verdict the solvers must reach.  Dimensions are integers in units of
1/64 (the library's layout grid) and profits are on the 2**-10 grid, so
the instances are exact.

* ``hub_instance``: trees of hubs with the given leaf counts, or the same
  with fan edges between consecutive leaves (planar, not a forest).
* ``drawn_dag``: an embedded single-sink DAG read off a drawn layout,
  so it is feasible; the ``assign_y`` and ``solve_x`` variants add one
  gadget with a certain cause of infeasibility.
* ``floorplan_dual``: the rectangular dual of a sliceable floorplan with
  distinct cut coordinates (no 4-way junctions), framed N/E/S/W; the
  ``outer-too-small`` variant shortens one frame box.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from crown.geometry import BoxSpec, ProfitGraph
from crown.hier import EmbeddedDag
from crown.triangulation import TriangulationInstance

UNIT = 64  # grid steps per layout unit


def _q(units: int) -> Fraction:
    return Fraction(units, UNIT)


def _profit(rng) -> Fraction:
    return Fraction(rng.randint(1, 1024), 1024)


# ---------------------------------------------------------------------------
# stars-hub


def hub_instance(rng, name: str, hub_sizes, planar: bool):
    """Hubs chained hub to hub, each with its own leaves.

    Trees get a grandchild under one leaf in ten, so the second star
    forest of the split holds small stars too.  ``planar`` adds an edge
    between every pair of consecutive leaves of a hub (a fan), which
    keeps the graph planar and makes it cyclic.
    """
    boxes: List[BoxSpec] = []
    graph = ProfitGraph()
    hubs = [f"{name}h{j}" for j in range(len(hub_sizes))]
    for j, (hub, n) in enumerate(zip(hubs, hub_sizes)):
        boxes.append(BoxSpec(hub, _q(rng.randint(128, 256)), _q(rng.randint(64, 128))))
        graph.vertices.add(hub)
        if j:
            graph.add_edge(hubs[j - 1], hub, _profit(rng))
        leaves = [f"{hub}l{i:02d}" for i in range(n)]
        for leaf in leaves:
            boxes.append(BoxSpec(leaf, _q(rng.randint(16, 128)), _q(rng.randint(16, 64))))
            graph.add_edge(hub, leaf, _profit(rng))
        if planar:
            for a, b in zip(leaves, leaves[1:]):
                graph.add_edge(a, b, _profit(rng))
        else:
            for leaf in leaves:
                if rng.random() < 0.1:
                    kid = f"{leaf}g"
                    boxes.append(BoxSpec(kid, _q(rng.randint(16, 96)), _q(rng.randint(16, 48))))
                    graph.add_edge(leaf, kid, _profit(rng))
    return boxes, graph


# ---------------------------------------------------------------------------
# hierarchies


def _shelves(open_boxes, rect):
    """Runs of side-by-side touching boxes whose bottoms share the top
    open level: (y, x1, x2, [ids left to right])."""
    level = max(rect[v][1] for v in open_boxes)
    row = sorted((v for v in open_boxes if rect[v][1] == level), key=lambda v: rect[v][0])
    runs = []
    for v in row:
        x1, _, x2, _ = rect[v]
        if runs and runs[-1][2] == x1:
            runs[-1][2] = x2
            runs[-1][3].append(v)
        else:
            runs.append([level, x1, x2, [v]])
    return [tuple(r) for r in runs]


def _embedding(ids, rect, edges) -> Dict[str, Tuple[str, ...]]:
    """Counterclockwise rotations of the drawing: children left to right
    along the bottom side, then parents right to left along the top."""
    kids: Dict[str, List[str]] = {v: [] for v in ids}
    parents: Dict[str, List[str]] = {v: [] for v in ids}
    for u, v in edges:
        kids[v].append(u)
        parents[u].append(v)
    return {
        v: tuple(sorted(kids[v], key=lambda u: rect[u][0]))
        + tuple(sorted(parents[v], key=lambda u: -rect[u][0]))
        for v in ids
    }


def drawn_dag(rng, n: int, name: str, cause: str = "ok"):
    """An n-vertex hierarchy drawn top-down, plus its known verdict.

    Boxes hang below *shelves* (touching boxes with a common bottom); a
    child lies inside its shelf and gets an edge to every shelf box its
    top overlaps.  Children stay inside shelves, shelves are x-disjoint
    and nothing lies below an open box, so the drawing has no overlap
    and realizes every edge with overlap >= 1/64: ``ok`` is certain.

    ``assign_y`` appends a child under two boxes with different bottoms;
    ``solve_x`` hangs three children under one box with the middle one
    wider than that box, so no x-placement exists.
    """
    ids: List[str] = []
    rect: Dict[str, Tuple[int, int, int, int]] = {}  # x1, y1, x2, y2
    edges: List[Tuple[str, str]] = []
    gadget = {"ok": 0, "assign_y": 1, "solve_x": 3}[cause]
    target = n - gadget

    def add(x1, y_top, w, h):
        v = f"{name}v{len(ids)}"
        ids.append(v)
        rect[v] = (x1, y_top - h, x1 + w, y_top)
        return v

    sink_w = max(320, int(24 * n ** 0.5) * 8)
    open_boxes = {add(0, 0, sink_w, rng.choice((48, 64)))}
    while len(ids) < target:
        if not open_boxes:
            raise RuntimeError("drawing ran out of room")
        for y, x1, x2, run in _shelves(open_boxes, rect):
            open_boxes.difference_update(run)
            x = x1 + rng.choice((0, 0, 8))
            while len(ids) < target and x2 - x >= 24:
                w = rng.randint(24, min(96, x2 - x))
                if x2 - x - w < 24:
                    w = x2 - x  # no sliver too narrow for a child
                child = add(x, y, w, rng.choice((32, 48, 64)))
                open_boxes.add(child)
                for parent in run:
                    if rect[parent][0] < x + w and x < rect[parent][2]:
                        edges.append((child, parent))
                x += w + rng.choice((0, 0, 0, 0, 8))

    if cause == "assign_y":
        pairs = [
            (a, b)
            for a in ids
            for b in ids
            if rect[a][2] == rect[b][0] and rect[a][1] != rect[b][1]
            and rect[a][3] > rect[b][1] and rect[b][3] > rect[a][1]
        ]
        a, b = pairs[rng.randrange(len(pairs))] if pairs else (ids[0], ids[-1])
        x = rect[a][2] - 8
        child = add(x, max(rect[a][1], rect[b][1]), 16, 32)
        edges += [(child, a), (child, b)]
    elif cause == "solve_x":
        parent = ids[rng.randrange(len(ids) // 2, len(ids))]
        px1, py1, px2, _ = rect[parent]
        for w in (24, px2 - px1 + 16, 24):
            child = add(px1, py1, w, 32)
            rect[child] = (px1 + len(ids), rect[child][1], px1 + len(ids) + w, py1)
            edges.append((child, parent))

    rotation = _embedding(ids, rect, edges)
    boxes = {
        v: BoxSpec(v, _q(rect[v][2] - rect[v][0]), _q(rect[v][3] - rect[v][1])) for v in ids
    }
    return EmbeddedDag(tuple(ids), tuple(edges), rotation), boxes, cause


# ---------------------------------------------------------------------------
# rectangular duals


def _sliceable(rng, tiles: int, size: int):
    """Guillotine tiling of [0, size]^2 with pairwise distinct cuts per axis."""
    rects = [(0, 0, size, size)]
    used = ({0, size}, {0, size})
    while len(rects) < tiles:
        i = rng.randrange(len(rects))
        r = rects[i]
        axis = rng.randrange(2)
        lo, hi = r[axis] + 16, r[axis + 2] - 16
        free = [c for c in range(lo, hi + 1, 4) if c not in used[axis]]
        if not free:
            continue
        cut = rng.choice(free)
        used[axis].add(cut)
        a, b = list(r), list(r)
        a[axis + 2] = cut
        b[axis] = cut
        rects[i : i + 1] = [tuple(a), tuple(b)]
    return rects


def _ccw_key(rv, ru):
    """Position of neighbor u walking v's boundary counterclockwise: right
    side bottom-up, top right to left, left side top-down, bottom left
    to right."""
    if ru[0] >= rv[2]:
        return (0, max(rv[1], ru[1]))
    if ru[1] >= rv[3]:
        return (1, -max(rv[0], ru[0]))
    if ru[2] <= rv[0]:
        return (2, -max(rv[1], ru[1]))
    return (3, max(rv[0], ru[0]))


def _shares_side(r, s) -> bool:
    def seg(a1, a2, b1, b2):
        return min(a2, b2) - max(a1, b1) > 0

    return ((r[2] == s[0] or s[2] == r[0]) and seg(r[1], r[3], s[1], s[3])) or (
        (r[3] == s[1] or s[3] == r[1]) and seg(r[0], r[2], s[0], s[2])
    )


def floorplan_dual(rng, tiles: int, name: str, cause: str = "ok"):
    """Framed rectangular dual of a sliceable floorplan, plus its verdict.

    Inner boxes get their tile's exact size, so the staircase rebuilds
    the tiling and ``ok`` is certain; frame boxes wrap it with slack.
    ``outer-too-small`` makes one frame box shorter than the tiled
    rectangle, which fails only the last stage.
    """
    size = 64 * max(4, int(1.6 * tiles ** 0.5))
    geo = {f"{name}t{i:03d}": r for i, r in enumerate(_sliceable(rng, tiles, size))}
    frame = {s: f"{name}{s}" for s in "NESW"}
    geo[frame["W"]] = (-64, 0, 0, size)
    geo[frame["E"]] = (size, 0, size + 64, size)
    geo[frame["N"]] = (-64, size, size + 64, size + 64)
    geo[frame["S"]] = (-64, -64, size + 64, 0)
    ids = sorted(geo)
    nbrs: Dict[str, List[str]] = {v: [] for v in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if _shares_side(geo[a], geo[b]):
                nbrs[a].append(b)
                nbrs[b].append(a)
    rotation = {v: tuple(sorted(nbrs[v], key=lambda u: _ccw_key(geo[v], geo[u]))) for v in ids}

    boxes = {
        v: BoxSpec(v, _q(r[2] - r[0]), _q(r[3] - r[1]))
        for v, r in geo.items()
        if v not in frame.values()
    }
    long_side = {s: size + rng.randint(0, 64) for s in "NESW"}
    if cause == "outer-too-small":
        long_side[rng.choice("NESW")] = size - rng.randint(1, 32)
    for s in "NS":
        boxes[frame[s]] = BoxSpec(frame[s], _q(long_side[s]), _q(rng.randint(32, 96)))
    for s in "EW":
        boxes[frame[s]] = BoxSpec(frame[s], _q(rng.randint(32, 96)), _q(long_side[s]))
    outer = tuple(frame[s] for s in "NESW")
    return TriangulationInstance(boxes, rotation, outer), cause
