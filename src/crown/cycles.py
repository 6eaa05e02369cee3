"""Cycle layouts and the bounded-degree cycle-cover solver.

A cyclic sequence of boxes is realized with two channels hanging off a
shared horizontal line: the first boxes sit on the line, the last boxes
hang under it, and the one leftover box closes the loop at the right end.
Arbitrary graphs are handled by splitting the edge set into exactly
ceil(max_degree / 2) covers, each a disjoint union of cycles and paths,
and laying out the most profitable cover.  The split orients every edge
once, so that no vertex has more than ceil(max_degree / 2) arcs out or
in, and gives each colour of a König colouring of the arcs its own cover.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, filterfalse
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import CycleTooShortError
from .geometry import (
    BoxSpec,
    Layout,
    ProfitGraph,
    on_unit,
    pack_components,
    require_boxes,
)

Edge = Tuple[str, str]


def layout_path(boxes: Sequence[BoxSpec]) -> Layout:
    """Boxes side by side, bottoms on y=0; realizes all m-1 consecutive contacts."""
    lay = Layout()
    x = Fraction(0)
    for b in boxes:
        lay.place(b, x, 0)
        x += b.w
    return lay


def layout_cycle(boxes: Sequence[BoxSpec]) -> Layout:
    """Realize all n contacts of the cycle (boxes[0], ..., boxes[n-1]).

    Let W be the total width and t the largest index with w_1+...+w_t <
    W/2.  Boxes 1..t form the top channel (bottoms on y=0, packed from
    x=0), boxes n..t+2 the bottom channel (tops on y=0, also from x=0, so
    the two channels touch along the line), and box t+1 is appended to
    the strictly narrower channel, where it reaches across the line to
    the other channel's last box.  If the channels tie exactly, box t+1
    straddles the line at the common right end, touching both last boxes
    by a vertical segment.
    """
    n = len(boxes)
    if n < 3:
        raise CycleTooShortError(f"cycle needs at least 3 boxes, got {n}")
    half = sum((b.w for b in boxes), Fraction(0)) / 2
    pref = Fraction(0)
    t = 0
    for i in range(1, n + 1):
        pref += boxes[i - 1].w
        if pref < half:
            t = i

    lay = Layout()
    top_w = Fraction(0)
    for b in boxes[:t]:
        lay.place(b, top_w, 0)
        top_w += b.w
    bot_w = Fraction(0)
    for b in reversed(boxes[t + 1 :]):
        lay.place(b, bot_w, -b.h)
        bot_w += b.w

    closer = boxes[t]
    if top_w < bot_w:
        lay.place(closer, top_w, 0)
    elif bot_w < top_w:
        lay.place(closer, bot_w, -closer.h)
    else:
        lay.place(closer, top_w, -closer.h / 2)
    return lay


@dataclass(frozen=True)
class CycleCover:
    """Edge covers: within each cover every vertex has degree at most 2."""

    covers: Tuple[Tuple[Edge, ...], ...]


def _balanced_orientation(graph: ProfitGraph) -> List[Edge]:
    """Every edge of ``graph``, in ``graph.edges()`` order, as a (tail, head)
    arc, so that a vertex of degree d has at most ceil(d/2) arcs out and
    at most as many in.

    One extra vertex, ``None``, joins every vertex of odd degree, which
    makes every degree even.  Trails then start at each vertex in sorted
    order and always leave over the first unused edge in edge order; with
    even degrees a trail can only end where it began, so every vertex is
    left as often as it is entered, and dropping the extra edges moves a
    vertex at most one arc off balance.
    """
    arcs = [(a, b) for a, b, _ in graph.edges()]
    ends = arcs + [(v, None) for v, d in sorted(graph.degrees().items()) if d % 2]
    # The edges at each vertex, last first so that they pop in edge
    # order; a walked edge is dropped when it comes up.
    incident: Dict[Optional[str], List[int]] = {v: [] for v in graph.vertices}
    incident[None] = []
    for e in reversed(range(len(ends))):
        for v in ends[e]:
            incident[v].append(e)
    walked = bytearray(len(ends))
    for v in sorted(graph.vertices):
        while True:
            todo = incident[v]
            while todo and walked[todo[-1]]:
                todo.pop()
            if not todo:
                break
            e = todo.pop()
            walked[e] = 1
            a, b = ends[e]
            u = b if a == v else a
            if e < len(arcs):
                arcs[e] = (v, u)
            v = u
    return arcs


def _smallest_free(colours: Dict[int, int]) -> int:
    """The smallest colour not in ``colours``, in O(len(colours))."""
    return next(filterfalse(colours.__contains__, count()))


def _colour_arcs(arcs: Sequence[Edge]) -> List[int]:
    """A colour for every arc, in order, such that no two arcs out of a
    vertex, nor two into it, share one: König's colouring of the
    bipartite tail/head graph, with as many colours as the most arcs out
    of or into one vertex.

    Arc (u, v) takes the smallest colour a that no arc out of u has.  If
    an arc into v has a, the path from v that alternates between a and
    b, the smallest colour no arc into v has, first swaps the two; it
    cannot reach the arcs out of u, which lack a.  Each vertex keeps one
    colour -> arc dict per side, so memory stays O(n + E).
    """
    out: Dict[str, Dict[int, int]] = {}
    into: Dict[str, Dict[int, int]] = {}
    colour = [0] * len(arcs)
    for i, (u, v) in enumerate(arcs):
        at_u = out.setdefault(u, {})
        at_v = into.setdefault(v, {})
        a = _smallest_free(at_u)
        if a in at_v:
            b = _smallest_free(at_v)
            path = []
            j = at_v[a]
            while j is not None:
                path.append(j)
                j = out[arcs[j][0]].get(b)  # on from the tail over b
                if j is not None:
                    path.append(j)
                    j = into[arcs[j][1]].get(a)  # on from the head over a
            for j in path:
                del out[arcs[j][0]][colour[j]], into[arcs[j][1]][colour[j]]
            for j in path:
                colour[j] = a + b - colour[j]
                out[arcs[j][0]][colour[j]] = into[arcs[j][1]][colour[j]] = j
        colour[i] = a
        at_u[a] = at_v[a] = i
    return colour


def decompose_cycle_covers(graph: ProfitGraph) -> CycleCover:
    """Split the edges into k = ceil(max_degree/2) degree-<=2 covers.

    The edges are oriented once, each vertex at most ceil(deg/2) arcs
    out and as many in, and the arcs are coloured so that no vertex has
    two arcs out or two arcs in of one colour: a colour class then gives
    every vertex at most one arc out and one in, degree at most 2.  A
    vertex of degree max_degree has k arcs on one side, all of distinct
    colours, so the k colours all make non-empty covers.  Each cover
    lists its edges in ``graph.edges()`` order.
    """
    arcs = _balanced_orientation(graph)
    colours = _colour_arcs(arcs)
    covers: List[List[Edge]] = [[] for _ in range(max(colours, default=-1) + 1)]
    for arc, c in zip(arcs, colours):
        covers[c].append(ProfitGraph.key(*arc))
    return CycleCover(tuple(map(tuple, covers)))


def _cover_components(cover: Sequence[Edge]) -> List[Tuple[str, List[str]]]:
    """Split a degree-<=2 edge set into ('path'|'cycle', vertex order) parts."""
    nbrs: Dict[str, List[str]] = {}
    for a, b in cover:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    for v in nbrs:
        nbrs[v].sort()

    out = []
    visited = set()
    for v0 in sorted(nbrs):
        if v0 in visited:
            continue
        comp = {v0}
        frontier = [v0]
        while frontier:
            v = frontier.pop()
            for u in nbrs[v]:
                if u not in comp:
                    comp.add(u)
                    frontier.append(u)
        visited |= comp
        ends = sorted(v for v in comp if len(nbrs[v]) == 1)
        if ends:
            kind, cur = "path", ends[0]
        else:
            kind, cur = "cycle", min(comp)
        order = [cur]
        prev = None
        while len(order) < len(comp):
            nxt = [u for u in nbrs[cur] if u != prev]
            prev, cur = cur, nxt[0]
            order.append(cur)
        out.append((kind, order))
    return out


def max_crown_cycles(graph: ProfitGraph, boxes: Mapping[str, BoxSpec]) -> Layout:
    """Lay out the most profitable cycle cover; untouched boxes go aside.

    Realizes at least total_profit / ceil(max_degree / 2): the best of k
    covers carries at least 1/k of the profit, and every cover edge is
    realized by the cycle/path layouts.  Covers are compared on the
    profits' ``on_unit`` counts, and a tie keeps the earlier cover.
    Raises ParameterError when a graph vertex has no box.
    """
    require_boxes(graph.vertices, boxes)
    edges = graph.edges()
    _, counts = on_unit(p for _, _, p in edges)
    profit = {(a, b): c for (a, b, _), c in zip(edges, counts)}
    chosen = max(
        decompose_cycle_covers(graph).covers,
        key=lambda cover: sum(map(profit.__getitem__, cover)),
        default=(),
    )
    components: List[Layout] = []
    for kind, order in _cover_components(chosen):
        seq = [boxes[v] for v in order]
        components.append(layout_cycle(seq) if kind == "cycle" else layout_path(seq))
    return pack_components(components, boxes)
