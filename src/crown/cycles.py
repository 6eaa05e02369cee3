"""Cycle layouts and the bounded-degree cycle-cover solver.

A cyclic sequence of boxes is realized with two channels hanging off a
shared horizontal line: the first boxes sit on the line, the last boxes
hang under it, and the one leftover box closes the loop at the right end.
Arbitrary graphs are handled by splitting the edge set into at most
ceil(max_degree / 2) covers, each a disjoint union of cycles and paths,
and laying out the most profitable cover.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import CycleTooShortError
from .geometry import BoxSpec, Layout, ProfitGraph, pack_components, singleton_layout

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

    def cover_profit(self, graph: ProfitGraph, index: int) -> Fraction:
        return sum((graph.profit(a, b) for a, b in self.covers[index]), Fraction(0))


# Multigraph scaffolding for the decomposition.  Node copy * n + i is the
# given copy (0 or 1) of the i-th vertex in sorted order, so integer nodes
# sort exactly as (copy, vertex) pairs would; edges are ids into parallel
# arrays so parallel edges stay distinct.


def _euler_orient(adj, n_edges: int) -> List[List[Tuple[int, int]]]:
    """Orient every edge of ``adj`` along an Euler circuit of its component.

    All degrees are even.  Circuits start at the smallest node of each
    component and always leave over the smallest (neighbor, edge id)
    still unused, so the orientation is deterministic.  Returns the
    sorted (head, edge id) out-list of every node: a node's out-edges are
    taken in its adjacency order, so they come out sorted.
    """
    used = bytearray(n_edges)
    ptr = [0] * len(adj)
    out_edges: List[List[Tuple[int, int]]] = [[] for _ in adj]
    for start in range(len(adj)):
        stack = [start]
        while stack:
            v = stack[-1]
            # Extend the trail from v until it gets stuck, then back up.
            while True:
                lst, i = adj[v], ptr[v]
                while i < len(lst) and used[lst[i][1]]:
                    i += 1
                if i == len(lst):
                    ptr[v] = i
                    break
                ptr[v] = i + 1
                u, eid = lst[i]
                used[eid] = 1
                out_edges[v].append(lst[i])
                stack.append(u)
                v = u
            stack.pop()
    return out_edges


def _perfect_matching(out_edges) -> List[int]:
    """Perfect matching in a regular bipartite graph by augmenting paths.

    ``out_edges[tail]`` lists (head, edge id) sorted; tails and heads are
    both the nodes 0..len(out_edges)-1.  Regularity guarantees the
    matching saturates every tail.  Each path is searched depth first,
    heads in out-list order, on an explicit stack so that long paths
    cannot exhaust the interpreter's recursion limit.
    """
    size = len(out_edges)
    tail_of = [-1] * size  # head -> matched tail
    head_of = [-1] * size  # tail -> matched head
    eid_of = [0] * size  # head -> matched edge id
    seen = [-1] * size  # head -> last root whose search reached it
    via = [0] * size  # head -> the tail it was reached from, ...
    via_eid = [0] * size  # ... over this edge

    for root in range(size):
        stack = [iter(out_edges[root])]  # out-list iterators along the path
        tail = root
        while True:
            for head, eid in stack[-1]:
                if seen[head] != root:
                    break
            else:
                # A dead end: back up to the tail whose head led here.
                stack.pop()
                if not stack:
                    raise AssertionError("regular bipartite graph must have a perfect matching")
                tail = via[head_of[tail]]
                continue
            seen[head] = root
            via[head] = tail
            via_eid[head] = eid
            tail = tail_of[head]
            if tail < 0:
                break
            stack.append(iter(out_edges[tail]))
        # Augment: every tail on the path takes the head it reached.
        while head >= 0:
            tail = via[head]
            prev = head_of[tail]
            tail_of[head] = tail
            head_of[tail] = head
            eid_of[head] = via_eid[head]
            head = prev
    return sorted(eid_of)


def decompose_cycle_covers(graph: ProfitGraph) -> CycleCover:
    """Split the edges into k = ceil(max_degree/2) degree-<=2 covers.

    The graph is padded to a 2k-regular multigraph: two copies of it,
    plus 2k - deg(v) parallel edges between the copies of each vertex v.
    A 2k-regular multigraph decomposes into k spanning 2-factors; each is
    extracted by orienting an Euler circuit (in-degree = out-degree) and
    taking a perfect matching of the resulting regular bipartite
    out/in incidence graph.  Restricting each factor to the first copy's
    real edges yields the covers; every edge lands in exactly one.
    """
    real_edges = [(a, b) for a, b, _ in graph.edges()]
    if not real_edges:
        return CycleCover(())
    deg = graph.degrees()
    k = -(-max(deg.values()) // 2)

    order = sorted(graph.vertices)
    n = len(order)
    rank = {v: i for i, v in enumerate(order)}
    tails: List[int] = []
    heads: List[int] = []
    tag: List[Edge] = []

    def add(u, v, real):
        tails.append(u)
        heads.append(v)
        tag.append(real)

    for a, b in real_edges:
        add(rank[a], rank[b], (a, b))
        add(n + rank[a], n + rank[b], None)
    for i, v in enumerate(order):
        for _ in range(2 * k - deg[v]):
            add(i, n + i, None)

    adj: List[List[Tuple[int, int]]] = [[] for _ in range(2 * n)]
    for eid in range(len(tails)):
        adj[tails[eid]].append((heads[eid], eid))
        adj[heads[eid]].append((tails[eid], eid))
    for lst in adj:
        lst.sort()

    covers: List[Tuple[Edge, ...]] = []
    for _ in range(k):
        factor = _perfect_matching(_euler_orient(adj, len(tails)))
        gone = bytearray(len(tails))
        for eid in factor:
            gone[eid] = 1
        adj = [[e for e in lst if not gone[e[1]]] for lst in adj]
        cover = sorted(tag[eid] for eid in factor if tag[eid] is not None)
        if cover:
            covers.append(tuple(cover))
    assert not any(adj)
    return CycleCover(tuple(covers))


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
    realized by the cycle/path layouts.
    """
    decomposition = decompose_cycle_covers(graph)
    components: List[Layout] = []
    covered: set = set()
    if decomposition.covers:
        profits = [
            decomposition.cover_profit(graph, i)
            for i in range(len(decomposition.covers))
        ]
        chosen = decomposition.covers[profits.index(max(profits))]
        for kind, order in _cover_components(chosen):
            covered.update(order)
            seq = [boxes[v] for v in order]
            components.append(layout_cycle(seq) if kind == "cycle" else layout_path(seq))
    for v in sorted(boxes):
        if v not in covered:
            components.append(singleton_layout(boxes[v]))
    return pack_components(components)
