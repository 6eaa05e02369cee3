"""Star packing via generalized assignment, and star-forest partitions.

The star solver places the center box at the origin and auctions the
leaves: up to four become corner boxes touching the center at its corner
points, the rest compete for the four sides in a GAP instance whose bins
are the sides (top/bottom capacity = center width, left/right capacity =
center height).  Trees split into 2 star forests, planar graphs into at
most 6, and the best per-forest layout is kept.

``partition_planar`` splits a planar graph into 3 forests by Edmonds'
matroid partition, with no embedding; each forest is a parent link per
vertex, and walks up it find tree paths.  ``maximal_planar_subgraph``
tests planarity with its own boolean left-right test, ``_is_planar``,
one block at a time: each block on the path an edge would close gets
one virtual edge between the cut vertices of the path, pairs found
non-planar once are remembered and fail later paths untested, and a
minor of the block, the pair's neighbourhood with the rest contracted,
is tested before the whole block.  Both functions take edges in the
order ``_ranked`` gives.  The module needs nothing beyond the standard
library.
"""

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import NotATreeError, NotPlanarError, ParameterError, TooLargeError
from .gap import GapInstance, GapItem, check_eps, gap_sequential
from .geometry import (
    BoxSpec,
    Layout,
    ProfitGraph,
    on_unit,
    pack_components,
    rat,
    realized_profit,
    require_boxes,
)


@dataclass(frozen=True)
class StarInstance:
    center: BoxSpec
    leaves: Tuple[BoxSpec, ...]
    profits: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(self.leaves))
        object.__setattr__(
            self, "profits", {i: rat(p) for i, p in self.profits.items()}
        )
        for leaf in self.leaves:
            if leaf.id == self.center.id:
                raise ParameterError(f"leaf duplicates center id {leaf.id!r}")
            if leaf.id not in self.profits:
                raise ParameterError(f"leaf {leaf.id!r} has no profit entry")


@dataclass(frozen=True)
class Star:
    """A star by ids only: one center, its leaves."""

    center: str
    leaves: Tuple[str, ...]


@dataclass(frozen=True)
class StarForest:
    """Vertex-disjoint stars; edges (center, leaf) pairwise distinct."""

    stars: Tuple[Star, ...]


# solve_star runs one GAP solve per corner subset of up to 4 pool leaves
# that the corner bound does not skip, Theta(pool**4) in all: at eps 1/4,
# 12-, 16- and 20-leaf stars where no subset is skipped (leaves of sides
# 5/8 to 1 around a unit center) took 0.1, 0.45 and 1.3 s (2-core x86 VM,
# CPython 3.11).  Larger pools need a corner_candidates cap.
MAX_CORNER_POOL = 12

# Corner slots for the chosen corner boxes, in the fixed assignment order.
# Each touches the center box (w0 x h0 at the origin) in a single point.
_CORNER_OFFSETS = (
    ("ne", lambda w0, h0, b: (w0, h0)),
    ("nw", lambda w0, h0, b: (-b.w, h0)),
    ("se", lambda w0, h0, b: (w0, -b.h)),
    ("sw", lambda w0, h0, b: (-b.w, -b.h)),
)


def _check_star_params(eps, corner_candidates: Optional[int]) -> Fraction:
    """``eps`` as a Fraction; ParameterError for eps outside (0, 1) or a
    corner cap that is not an int >= 0 or is a bool."""
    if corner_candidates is not None and (
        isinstance(corner_candidates, bool)
        or not isinstance(corner_candidates, int)
        or corner_candidates < 0
    ):
        raise ParameterError(f"corner_candidates must be an int >= 0, got {corner_candidates!r}")
    return check_eps(eps)


def _corner_pool(inst: StarInstance, cap: Optional[int]) -> List[int]:
    """Indices allowed as corner boxes.

    With a cap, prefer leaves that fit no side (corner contact is their
    only chance) and then higher profit; the uncapped default considers
    every leaf, which is what the approximation guarantee needs.
    """
    n = len(inst.leaves)
    if cap is None or cap >= n:
        return list(range(n))
    c = inst.center

    def rank(i):
        leaf = inst.leaves[i]
        fits = leaf.w <= c.w or leaf.h <= c.h
        return (fits, -inst.profits[leaf.id], i)

    return sorted(heapq.nsmallest(cap, range(n), key=rank))


def solve_star(inst: StarInstance, eps, corner_candidates: Optional[int] = None) -> Layout:
    """Best-corner-choice GAP packing of a star; realizes the chosen edges.

    Enumerates corner subsets of up to 4 leaves (smallest-index-tuple wins
    ties), packs the rest into the four side bins with gap_sequential, and
    returns the most profitable layout.  A subset is skipped when its
    corner profit plus the profit of the other leaves that fit a side is
    at most the best so far.  Leaves that end up unassigned are
    parked in a detached row below everything, touching nothing.
    ``corner_candidates`` restricts the corner pool (a speed knob for
    large stars; leave None to keep the guarantee).  Raises ParameterError
    for eps outside (0, 1) or a negative ``corner_candidates``, and
    TooLargeError when the corner pool holds more than MAX_CORNER_POOL
    leaves.
    """
    eps = _check_star_params(eps, corner_candidates)
    c = inst.center
    pool = _corner_pool(inst, corner_candidates)
    if len(pool) > MAX_CORNER_POOL:
        raise TooLargeError(
            f"corner enumeration accepts at most {MAX_CORNER_POOL} candidate "
            f"leaves (got {len(pool)}); cap it with corner_candidates"
        )
    subsets = sorted(
        s for r in range(min(4, len(pool)) + 1) for s in itertools.combinations(pool, r)
    )

    # One GAP item per leaf, shared by every corner subset, with sizes and
    # profits each counted on their own unit: scaling keeps every
    # comparison, so the choice is that of the Fraction values.
    _, (cw, ch, *sides) = on_unit(
        [c.w, c.h, *(b for leaf in inst.leaves for b in (leaf.w, leaf.h))]
    )
    _, profits = on_unit(inst.profits[leaf.id] for leaf in inst.leaves)
    side_bins = (cw, cw, ch, ch)
    items, fits = [], []
    for leaf, w, h, p in zip(inst.leaves, sides[::2], sides[1::2], profits):
        items.append(GapItem(leaf.id, (w, w, h, h), p))
        fits.append(p if w <= cw or h <= ch else 0)  # what a side can earn
    fit_total = sum(fits)
    best = None
    for corners in subsets:
        corner_value = sum(items[i].value for i in corners)
        if best is not None and (
            corner_value + fit_total - sum(fits[i] for i in corners) <= best[0]
        ):
            continue  # the GAP cannot beat best; a tie keeps the earlier subset
        gi = GapInstance(
            side_bins, tuple(item for i, item in enumerate(items) if i not in corners)
        )
        asg = gap_sequential(gi, eps)
        value = corner_value + asg.value
        if best is None or value > best[0]:
            best = (value, corners, asg)

    _, corners, asg = best
    lay = Layout()
    lay.place(c, 0, 0)
    by_id = {leaf.id: leaf for leaf in inst.leaves}
    for (_, offset), i in zip(_CORNER_OFFSETS, corners):
        leaf = inst.leaves[i]
        lay.place(leaf, *offset(c.w, c.h, leaf))

    top, bottom, left, right = asg.by_bin
    x = Fraction(0)
    for i in top:
        lay.place(by_id[i], x, c.h)
        x += by_id[i].w
    x = Fraction(0)
    for i in bottom:
        lay.place(by_id[i], x, -by_id[i].h)
        x += by_id[i].w
    y = Fraction(0)
    for i in left:
        lay.place(by_id[i], -by_id[i].w, y)
        y += by_id[i].h
    y = Fraction(0)
    for i in right:
        lay.place(by_id[i], c.w, y)
        y += by_id[i].h

    if asg.unassigned:
        floor = min(lay.pos[i][1] for i in lay.pos) - 1
        x = Fraction(0)
        for i in asg.unassigned:
            lay.place(by_id[i], x, floor - by_id[i].h)
            x += by_id[i].w + 1
    return lay


def _ranked(graph: ProfitGraph) -> List[Tuple[str, str, Fraction]]:
    """The edges in (profit descending, id pair) order: a stable sort of
    ``graph.edges()``, which come in id-pair order, on the profits'
    ``on_unit`` counts."""
    edges = graph.edges()
    _, counts = on_unit(p for _, _, p in edges)
    order = sorted(range(len(edges)), key=counts.__getitem__, reverse=True)
    return [edges[i] for i in order]


def partition_tree(edges: Sequence[Tuple[str, str]]) -> Tuple[StarForest, StarForest]:
    """Split forest edges into two star forests by the parent's depth parity.

    Each component is searched breadth first from its smallest vertex.
    Edge (parent u, child v) goes to forest depth(u) mod 2; all edges
    sharing a parent form one star, and parity keeps the stars
    vertex-disjoint.  Stars come in (component, center) order with sorted
    leaves.  Raises NotATreeError unless the edges form a forest (no
    loop, repeated edge or cycle).
    """
    adj: Dict[str, List[str]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    depth: Dict[str, int] = {}
    halves: Tuple[List[Star], List[Star]] = ([], [])
    components = 0
    for root in sorted(adj):
        if root in depth:
            continue
        components += 1
        depth[root] = 0
        children: Dict[str, List[str]] = {}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            kids = sorted(v for v in adj[u] if v not in depth)
            for v in kids:
                depth[v] = depth[u] + 1
            queue.extend(kids)
            if kids:
                children[u] = kids
        for u in sorted(children):
            halves[depth[u] % 2].append(Star(u, tuple(children[u])))
    if len(edges) != len(adj) - components:
        raise NotATreeError("edges do not form a forest")
    return StarForest(tuple(halves[0])), StarForest(tuple(halves[1]))


def _tree_path(up: List[Optional[Tuple[int, int]]], a: int, b: int) -> Optional[List[int]]:
    """Edge ids on the path from b to a in a forest given as parent links,
    vertex -> (parent, edge id) or None at a root; None when a and b lie
    in different trees.

    Records a and its ancestors, then walks b up to the first of them,
    where the unique tree path turns, and a up to the same vertex.
    """
    rise = {a}  # a and its ancestors
    link = up[a]
    while link is not None:
        rise.add(link[0])
        link = up[link[0]]
    path = []
    while b not in rise:
        if up[b] is None:
            return None
        b, e = up[b]
        path.append(e)
    down = []
    while a != b:
        a, e = up[a]
        down.append(e)
    return path + down[::-1]


def _link(up: List[Optional[Tuple[int, int]]], a: int, b: int, e: int) -> None:
    """Hang a's tree from b by edge e: the links from a up to its root
    turn round, so that a becomes the root, then a links to b."""
    while True:
        old, up[a] = up[a], (b, e)
        if old is None:
            return
        b, (a, e) = a, old


def partition_planar(graph: ProfitGraph) -> List[StarForest]:
    """Partition a planar graph's edges into at most 6 star forests.

    Planar graphs have arboricity at most 3 (Nash-Williams 1964), so
    Edmonds' matroid partition (1965) splits them into 3 forests, which
    ``partition_tree`` halves.  Edges go in by (profit descending, id
    pair), each by a breadth-first search from it: an edge fits a forest
    other than its own when its ends lie in different trees there, and
    else may push out any edge on the tree path between them.  Moving
    the edges of the shortest such chain keeps every class a forest.
    Each forest is a parent link per vertex, so one upward walk,
    ``_tree_path``, finds the tree path or tells that the edge fits; a
    move cuts the link of the edge's child end and ``_link``s the edge
    into its new forest.  A forest lands whole in the first class.
    Raises NotPlanarError when ``_is_planar`` rejects the graph.
    """
    names = sorted(graph.vertices)
    num = {v: i for i, v in enumerate(names)}
    ranked = _ranked(graph)
    ends = [(num[a], num[b]) for a, b, _ in ranked]
    if not _is_planar(len(names), ends):
        raise NotPlanarError("input graph is not planar")
    home = [-1] * len(ends)  # edge -> its forest
    up = [[None] * len(names) for _ in range(3)]  # forest -> vertex -> (parent, edge) or None
    for new in range(len(ends)):
        came: Dict[int, Optional[int]] = {new: None}  # edge -> edge it makes room for
        queue = deque([new])
        sink = None
        while sink is None:  # arboricity 3 leaves a chain for every edge
            e = queue.popleft()
            a, b = ends[e]
            for f in range(3):
                if f == home[e]:
                    continue
                path = _tree_path(up[f], a, b)
                if path is None:
                    sink = f
                    break
                for h in path:  # queued in vain if a later forest is the sink
                    if h not in came:
                        came[h] = e
                        queue.append(h)
        f = sink
        while e is not None:
            a, b = ends[e]
            old = home[e]
            if old >= 0:
                cut = up[old]
                cut[a if cut[a] == (b, e) else b] = None
            _link(up[f], a, b, e)
            home[e] = f
            e, f = came[e], old

    out: List[StarForest] = []
    for f in range(3):
        edges = [(names[a], names[b]) for e, (a, b) in enumerate(ends) if home[e] == f]
        out.extend(half for half in partition_tree(edges) if half.stars)
    return out


def solve_star_forest(
    forest: StarForest,
    boxes: Mapping[str, BoxSpec],
    graph: ProfitGraph,
    eps,
    corner_candidates: Optional[int] = None,
) -> Layout:
    """solve_star per star, side by side; boxes in no star ride along.

    Raises ParameterError when a graph vertex has no box or a star edge
    is not in the graph.
    """
    require_boxes(graph.vertices, boxes)
    components: List[Layout] = []
    for star in forest.stars:
        for leaf in star.leaves:
            if not graph.has_edge(star.center, leaf):
                raise ParameterError(f"star edge {star.center!r}-{leaf!r} is not in the graph")
        inst = StarInstance(
            boxes[star.center],
            tuple(boxes[l] for l in star.leaves),
            {l: graph.profit(star.center, l) for l in star.leaves},
        )
        components.append(solve_star(inst, eps, corner_candidates))
    return pack_components(components, boxes)


def max_crown_stars(
    graph: ProfitGraph,
    boxes: Mapping[str, BoxSpec],
    eps,
    corner_candidates: Optional[int] = None,
) -> Layout:
    """Best star-forest layout of a tree or planar graph.

    The partition has k forests (2 for forests, at most 6 in general), so
    the best one carries at least 1/k of the realizable profit and the
    star solver keeps its GAP share of that; a tie keeps the earlier
    forest.  Raises ParameterError for eps outside (0, 1) or a negative
    ``corner_candidates``, and TooLargeError for a star whose corner
    pool is too large (see solve_star).  Raises ParameterError, too,
    when a graph vertex has no box.
    """
    _check_star_params(eps, corner_candidates)
    require_boxes(graph.vertices, boxes)
    best = max(
        (solve_star_forest(f, boxes, graph, eps, corner_candidates) for f in partition_planar(graph)),
        key=lambda lay: realized_profit(lay, graph),
        default=None,
    )
    return pack_components([], boxes) if best is None else best


def _block_path(vblocks, bverts, a: int, b: int) -> Optional[List[Tuple[int, int]]]:
    """The blocks on the block-cut-forest path from b to a, each with the
    vertex it was entered from: the cut vertex toward a, or a itself in
    the last block; None when b is in another component.  The path is
    unique, so breadth-first search finds it; only cut vertices (in two
    or more blocks) lead on to new blocks."""
    via: Dict[int, int] = {}  # block -> the vertex it was entered from
    prev: Dict[int, Optional[int]] = {a: None}  # vertex -> block it was reached through
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for blk in vblocks[v]:
            if blk in via:
                continue
            via[blk] = v
            if b in bverts[blk]:
                path = [(blk, v)]
                while prev[v] is not None:
                    blk = prev[v]
                    v = via[blk]
                    path.append((blk, v))
                return path
            for u in bverts[blk]:
                if u not in prev and len(vblocks[u]) > 1:
                    prev[u] = blk
                    queue.append(u)
    return None


def _is_planar(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """Left-right planarity test (Brandes 2009, "The Left-Right Planarity
    Test") on vertices 0..n-1 and a simple edge list, without loops or
    repeated edges.

    Only the orientation and testing phases run: no embedding is built.
    Edge i is the i-th entry of ``edges``; every per-edge and per-vertex
    value is a flat list indexed by id, and -1 means none.  A conflict
    pair is a list [left.low, left.high, right.low, right.high] of
    return-edge ids; an interval is empty when both its ends are -1.
    Both depth-first searches keep an explicit stack and a per-vertex
    position, so no recursion limit applies.
    """
    m = len(edges)
    adj_w: List[List[int]] = [[] for _ in range(n)]  # vertex -> neighbours
    adj_e: List[List[int]] = [[] for _ in range(n)]  # vertex -> edge ids
    for i, (a, b) in enumerate(edges):
        adj_w[a].append(b)
        adj_e[a].append(i)
        adj_w[b].append(a)
        adj_e[b].append(i)

    # Orientation: a depth-first search directs each edge away from the
    # root (tree edges) or up to an ancestor (back edges) and gives it its
    # lowpoints and nesting depth, folding them into the parent edge.
    height = [-1] * n
    parent = [-1] * n  # vertex -> tree edge from its parent
    tail = [-1] * m
    head = [-1] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out: List[List[int]] = [[] for _ in range(n)]  # vertex -> oriented edges
    pos = [0] * n
    roots = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            e = parent[v]
            ws, es, out_v = adj_w[v], adj_e[v], out[v]
            i = pos[v]
            while i < len(es):
                vw = es[i]
                t = tail[vw]
                if t < 0:
                    w = ws[i]
                    tail[vw], head[vw] = v, w
                    out_v.append(vw)
                    if height[w] < 0:  # tree edge, finished when w is
                        parent[w] = vw
                        height[w] = hv + 1
                        lowpt[vw] = lowpt2[vw] = hv
                        stack.append(w)
                        break
                    low = lowpt[vw] = height[w]  # back edge
                    low2 = lowpt2[vw] = hv
                    nesting[vw] = 2 * low
                elif t == v:  # the tree edge to a finished child
                    low, low2 = lowpt[vw], lowpt2[vw]
                    nesting[vw] = 2 * low + (low2 < hv)
                else:  # oriented from its other end
                    i += 1
                    continue
                if e >= 0:
                    low_e = lowpt[e]
                    if low < low_e:
                        lowpt2[e] = min(low_e, low2)
                        lowpt[e] = low
                    elif low > low_e:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], low2)
                i += 1
            else:
                stack.pop()
            pos[v] = i

    # Testing: a second search in nesting order merges the return edges
    # of each vertex's outgoing edges into conflict pairs on one stack.
    for out_v in out:
        out_v.sort(key=nesting.__getitem__)
    pairs: List[List[int]] = []
    bottom: List[Optional[List[int]]] = [None] * m  # edge -> top pair on entry
    lowpt_edge = [-1] * m
    ref = [-1] * m

    def add_constraints(ei: int, e: int) -> bool:
        """Merge the return edges of ei, and those of its earlier
        siblings that conflict with them, into one new pair; False when
        no left/right split exists."""
        p = [-1, -1, -1, -1]
        low_e = lowpt[e]
        below = bottom[ei]
        while True:  # the return edges of ei go right
            q = pairs.pop()
            if q[0] != -1 or q[1] != -1:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[0] != -1 or q[1] != -1:
                    return False
            if lowpt[q[2]] > low_e:
                if p[2] == -1 and p[3] == -1:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:
                ref[q[2]] = lowpt_edge[e]
            if (pairs[-1] if pairs else None) is below:
                break
        low_i = lowpt[ei]
        while pairs:  # conflicting pairs of earlier siblings go left
            q = pairs[-1]
            if not (
                (q[1] != -1 and lowpt[q[1]] > low_i) or (q[3] != -1 and lowpt[q[3]] > low_i)
            ):
                break
            pairs.pop()
            if q[3] != -1 and lowpt[q[3]] > low_i:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[3] != -1 and lowpt[q[3]] > low_i:
                    return False
            if p[2] != -1:  # the right interval may still be empty
                ref[p[2]] = q[3]
            if q[2] != -1:
                p[2] = q[2]
            if p[0] == -1 and p[1] == -1:
                p[1] = q[1]
            elif p[0] != -1:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p != [-1, -1, -1, -1]:
            pairs.append(p)
        return True

    def remove_back_edges(u: int) -> None:
        """Drop the pairs whose return edges all end at u, the parent of
        the vertex just finished, and trim u off the next one."""
        hu = height[u]
        while pairs:
            p = pairs[-1]
            if p[0] == -1 and p[1] == -1:
                lowest = lowpt[p[2]]
            elif p[2] == -1 and p[3] == -1:
                lowest = lowpt[p[0]]
            else:
                lowest = min(lowpt[p[0]], lowpt[p[2]])
            if lowest != hu:
                break
            pairs.pop()
        else:
            return
        while p[1] != -1 and head[p[1]] == u:
            p[1] = ref[p[1]]
        if p[1] == -1 and p[0] != -1:  # left interval just emptied
            ref[p[0]] = p[2]
            p[0] = -1
        while p[3] != -1 and head[p[3]] == u:
            p[3] = ref[p[3]]
        if p[3] == -1 and p[2] != -1:  # right interval just emptied
            ref[p[2]] = p[0]
            p[2] = -1
        # The embedding phase would also set ref of the tree edge here;
        # the test itself never reads ref of a tree edge.

    entered = [False] * n
    pos = [0] * n
    for root in roots:
        entered[root] = True
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            e = parent[v]
            out_v = out[v]
            i = pos[v]
            while i < len(out_v):
                ei = out_v[i]
                w = head[ei]
                if parent[w] != ei:  # back edge
                    bottom[ei] = pairs[-1] if pairs else None
                    lowpt_edge[ei] = ei
                    pairs.append([-1, -1, ei, ei])
                elif not entered[w]:  # tree edge, integrated when w is done
                    bottom[ei] = pairs[-1] if pairs else None
                    entered[w] = True
                    stack.append(w)
                    break
                if lowpt[ei] < hv:  # ei has return edges below v
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return False
                i += 1
            else:
                stack.pop()
                if e >= 0:
                    remove_back_edges(tail[e])
            pos[v] = i
    return True


def _planar_on(verts, edges: Sequence[Tuple[int, int]]) -> bool:
    """Whether ``edges`` on the vertex numbers ``verts`` form a planar
    graph: False past 3V-6 edges on more than 2 vertices, else
    ``_is_planar`` on the graph relabelled to 0..V-1 in number order."""
    if len(verts) > 2 and len(edges) > 3 * len(verts) - 6:
        return False
    idx = {v: i for i, v in enumerate(sorted(verts))}
    return _is_planar(len(verts), [(idx[u], idx[v]) for u, v in edges])


def _path_stays_planar(path, b: int, bedges, bverts, adj, forbidden) -> bool:
    """Whether the kept graph stays planar with (a, b) added, where
    ``path`` pairs the blocks B1..Bk from b to a with the vertices c1..ck
    they were entered from (see ``_block_path``; ck = a).

    With c0 = b, that holds exactly when every Bi plus the virtual edge
    (c(i-1), ci) is planar: each is a minor of the union plus (a, b),
    and their embeddings glue back along the virtual edges, which can be
    drawn on the outer face.  A pair already kept adds nothing.  A pair
    once found non-planar stays so, because the kept graph only grows:
    it goes into ``forbidden`` and fails later paths with no test.  The
    blocks are tested smallest first, each by ``_planar_on``, which
    holds it to 3V-6 before any left-right test; when the closed
    neighbourhoods of the pair cover less than the block, a minor of the
    block plus the pair is tested first: the block's subgraph
    induced on them, one vertex per component of the rest of the block,
    joined to the neighbourhood vertices that component touches, and the
    pair, last.  A minor of a planar graph is planar, so its reject is
    exact.
    """
    tests = []
    x = b
    for blk, y in path:
        if y not in adj[x]:
            pair = (x, y) if x < y else (y, x)
            if pair in forbidden:
                return False
            tests.append((len(bedges[blk]), blk, pair))
        x = y
    for _, blk, (x, y) in sorted(tests):
        verts = bverts[blk]
        near = ({x, y} | adj[x] | adj[y]) & verts
        if len(near) < len(verts):
            edges = [(u, w) for u in sorted(near) for w in sorted(adj[u] & near) if u < w]
            minor, rest = set(near), verts - near
            while rest:  # contract one component of the rest onto c
                c = rest.pop()
                stack, touched = [c], set()
                while stack:
                    for w in adj[stack.pop()]:
                        if w in rest:
                            rest.remove(w)
                            stack.append(w)
                        elif w in near:
                            touched.add(w)
                minor.add(c)
                edges += [(c, w) for w in touched]
            edges.append((x, y))
            if not _planar_on(minor, edges):
                forbidden.add((x, y))
                return False
        if not _planar_on(verts, bedges[blk] + [(x, y)]):
            forbidden.add((x, y))
            return False
    return True


def maximal_planar_subgraph(graph: ProfitGraph) -> ProfitGraph:
    """Greedy maximal planar subgraph, richest edges first.

    Edges are tried in (profit descending, id pair) order and kept while
    the running graph stays planar, so planar inputs come back whole.
    A graph is planar exactly when each of its blocks (biconnected
    components) is, and adding (a, b) merges only the blocks on the
    block-cut-forest path from a to b.  An edge that joins two components
    (a bridge) is kept without a test.  Otherwise each block on the path
    is tested alone with one virtual edge between the cut vertices where
    the path enters and leaves it (see ``_path_stays_planar``): pairs
    already rejected fail at once, and a minor of the block around the
    pair is tried before the whole block, which fails past 3V-6 untested.
    The test is the boolean left-right test ``_is_planar`` on the graph
    relabelled to 0..V-1 in id order.  The bookkeeping runs on vertex
    numbers given once in id order, so sorting numbers sorts ids, and no
    set order (nor the test's work) follows the string hash seed.
    The result is the same as testing the whole running graph after
    every edge.
    """
    names = sorted(graph.vertices)
    num = {v: i for i, v in enumerate(names)}
    ranked = _ranked(graph)
    kept = ProfitGraph(graph.vertices)
    bedges: Dict[int, List[Tuple[int, int]]] = {}  # block -> its edges
    bverts: Dict[int, set] = {}  # block -> its vertices
    vblocks: List[set] = [set() for _ in names]  # vertex -> its blocks
    adj: List[set] = [set() for _ in names]  # vertex -> its kept neighbours
    forbidden: set = set()  # pairs (x, y), x < y, that no longer fit
    for new, (a, b, p) in enumerate(ranked):
        ia, ib = num[a], num[b]
        path = _block_path(vblocks, bverts, ia, ib)
        if path is None:
            edges, verts = [(ia, ib)], {ia, ib}
        else:
            if not _path_stays_planar(path, ib, bedges, bverts, adj, forbidden):
                continue
            merged = [blk for blk, _ in path]
            edges = [e for blk in merged for e in bedges[blk]]
            edges.append((ia, ib))
            verts = set().union(*(bverts[blk] for blk in merged))
            for blk in merged:
                del bedges[blk], bverts[blk]
            for v in verts:
                vblocks[v].difference_update(merged)
        bedges[new], bverts[new] = edges, verts
        for v in verts:
            vblocks[v].add(new)
        adj[ia].add(ib)
        adj[ib].add(ia)
        kept.add_edge(a, b, p)
    return kept
