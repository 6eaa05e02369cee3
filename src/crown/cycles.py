"""Cycle layouts and the bounded-degree cycle-cover solver.

A cyclic sequence of boxes is realized with two channels hanging off a
shared horizontal line: the first boxes sit on the line, the last boxes
hang under it, and the one leftover box closes the loop at the right end.
Arbitrary graphs are handled by splitting the edge set into exactly
ceil(max_degree / 2) covers, each a disjoint union of cycles and paths,
and laying out the most profitable cover.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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


# Multigraph scaffolding for the decomposition.  Node copy * n + i is the
# given copy (0 or 1) of the i-th vertex in sorted order, so integer nodes
# sort exactly as (copy, vertex) pairs would.  Edges come in groups of
# interchangeable parallel copies with a count: every real edge (and its
# mirror in the second copy) is a group of one, and the 2k - deg(v)
# padding edges between the copies of v are one group.  Each node's
# neighbors are distinct, so an adjacency list sorted by neighbor lists
# one group per neighbor.


def _euler_orient(adj, count: Sequence[int]) -> List[List[Tuple[int, int]]]:
    """Orient every edge copy of ``adj`` along an Euler circuit of its component.

    ``adj[v]`` lists (neighbor, group) sorted by neighbor and ``count[g]``
    is the number of copies in group g; all degrees are even.  Circuits
    start at the smallest node of each component and always leave over
    the smallest neighbor with an unused copy, so the orientation is
    deterministic.  Returns the (head, group) out-list of every node,
    sorted by head, with one entry per group that has a copy oriented
    out of the node: a node's out-copies are taken in its adjacency order.

    The padding group of v joins v to n + v, the largest neighbor of v
    and the smallest of n + v.  So the walk takes it from v only once v's
    real edges are used up, and then goes back and forth between v and
    n + v until the group is used up: ceil(c/2) copies leave v and
    floor(c/2) leave n + v.  That run is taken in one step.
    """
    n = len(adj) // 2
    left = list(count)
    ptr = [0] * len(adj)
    out_edges: List[List[Tuple[int, int]]] = [[] for _ in adj]
    for start in range(len(adj)):
        stack = [start]
        while stack:
            v = stack[-1]
            # Extend the trail from v until it gets stuck, then back up.
            while True:
                lst, i = adj[v], ptr[v]
                end = len(lst)
                while i < end and not left[lst[i][1]]:
                    i += 1
                ptr[v] = i
                if i == end:
                    break
                u, g = lst[i]
                c = left[g]
                if u == v + n:
                    # The padding run v, n + v, v, ... in one step.  It
                    # leaves v with no copy, so of the entries a walk
                    # copy by copy would stack, only the topmost n + v
                    # can still lead on.
                    left[g] = 0
                    out_edges[v].append(lst[i])
                    if c > 1 and not out_edges[u]:
                        out_edges[u].append((v, g))
                    stack.append(u)
                    if c % 2 == 0:
                        stack.append(v)  # stuck at v: nothing left there
                        break
                    v = u
                    continue
                left[g] = c - 1
                out = out_edges[v]
                if not out or out[-1][1] != g:  # padding n + v -> v may repeat
                    out.append(lst[i])
                stack.append(u)
                v = u
            stack.pop()
    return out_edges


def _perfect_matching(out_edges) -> List[int]:
    """Perfect matching in a regular bipartite multigraph by augmenting paths.

    ``out_edges[tail]`` lists (head, group) sorted by head; tails
    and heads are both the nodes 0..len(out_edges)-1.  Regularity
    guarantees the matching saturates every tail.  Each path is searched
    depth first, heads in out-list order, on an explicit stack so that
    long paths cannot exhaust the interpreter's recursion limit.  Returns
    the group of every matched pair, one entry per head: a group appears
    once per direction the matching uses it.
    """
    size = len(out_edges)
    tail_of = [-1] * size  # head -> matched tail
    head_of = [-1] * size  # tail -> matched head
    group_of = [0] * size  # head -> matched group
    seen = [-1] * size  # head -> last root whose search reached it
    via = [0] * size  # head -> the tail it was reached from, ...
    via_group = [0] * size  # ... over this group

    for root in range(size):
        stack = [iter(out_edges[root])]  # out-list iterators along the path
        tail = root
        while True:
            for head, g in stack[-1]:
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
            via_group[head] = g
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
            group_of[head] = via_group[head]
            head = prev
    return group_of


def decompose_cycle_covers(
    graph: ProfitGraph, stop: Optional[Callable[[Tuple[Edge, ...]], bool]] = None
) -> CycleCover:
    """Split the edges into k = ceil(max_degree/2) degree-<=2 covers.

    The graph is padded to a 2k-regular multigraph: two copies of it,
    plus 2k - deg(v) parallel padding edges between the copies of each
    vertex v, kept as one group with a count.  A 2k-regular
    multigraph decomposes into k spanning 2-factors; each is extracted by
    orienting an Euler circuit (in-degree = out-degree) and taking a
    perfect matching of the resulting regular bipartite out/in incidence
    graph, and a group loses one copy per matched pair it carries.
    Restricting each factor to the first copy's real edges yields the
    covers; every edge lands in exactly one.  A round's Euler orientation
    costs O(n + E), whatever the padding, but its augmenting-path matching
    is superlinear.  ``stop``, when given, sees each cover as it is found;
    once it returns True the covers so far are returned, a prefix of the k.
    """
    real_edges = [(a, b) for a, b, _ in graph.edges()]
    if not real_edges:
        return CycleCover(())
    deg = graph.degrees()
    k = -(-max(deg.values()) // 2)

    order = sorted(graph.vertices)
    n = len(order)
    rank = {v: i for i, v in enumerate(order)}
    count: List[int] = []
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(2 * n)]

    def add(u, v, c):
        adj[u].append((v, len(count)))
        adj[v].append((u, len(count)))
        count.append(c)

    # Groups 0..m-1 are the first copy's real edges, in real_edges order.
    for a, b in real_edges:
        add(rank[a], rank[b], 1)
    for a, b in real_edges:
        add(n + rank[a], n + rank[b], 1)
    for i, v in enumerate(order):
        if deg[v] < 2 * k:
            add(i, n + i, 2 * k - deg[v])
    for lst in adj:
        lst.sort()

    m = len(real_edges)
    covers: List[Tuple[Edge, ...]] = []
    for _ in range(k):
        factor = _perfect_matching(_euler_orient(adj, count))
        for g in factor:
            count[g] -= 1
        # Never empty: a max-degree vertex has at most one padding copy.
        covers.append(tuple(sorted(real_edges[g] for g in factor if g < m)))
        if stop is not None and stop(covers[-1]):
            break
    else:
        assert not any(count)
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
    realized by the cycle/path layouts.  Covers are summed on the
    profits' ``on_unit`` counts as they come, and the decomposition stops
    once the profit not yet covered is at most the best cover's, which
    no later cover can then beat; a tie keeps the earlier cover.  Raises
    ParameterError when a graph vertex has no box.
    """
    require_boxes(graph.vertices, boxes)
    edges = graph.edges()
    _, counts = on_unit(p for _, _, p in edges)
    profit = {(a, b): c for (a, b, _), c in zip(edges, counts)}
    left, top, chosen = sum(counts), -1, ()

    def no_later_cover_wins(cover: Tuple[Edge, ...]) -> bool:
        nonlocal left, top, chosen
        value = sum(map(profit.__getitem__, cover))
        left -= value
        if value > top:
            top, chosen = value, cover
        return left <= top

    decompose_cycle_covers(graph, no_later_cover_wins)
    components: List[Layout] = []
    for kind, order in _cover_components(chosen):
        seq = [boxes[v] for v in order]
        components.append(layout_cycle(seq) if kind == "cycle" else layout_path(seq))
    return pack_components(components, boxes)
