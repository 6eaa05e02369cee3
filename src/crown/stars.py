"""Star packing via generalized assignment, and star-forest partitions.

The star solver places the center box at the origin and auctions the
leaves: up to four become corner boxes touching the center at its corner
points, the rest compete for the four sides in a GAP instance whose bins
are the sides (top/bottom capacity = center width, left/right capacity =
center height).  Trees split into 2 star forests, planar graphs into at
most 6, and the best per-forest layout is kept.

networkx is imported inside the two functions that call it, so importing
this module does not load it.
"""

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
    pack_components,
    rat,
    realized_profit,
    singleton_layout,
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

    def edges(self) -> List[Tuple[str, str]]:
        return [(s.center, leaf) for s in self.stars for leaf in s.leaves]


# solve_star runs one GAP solve per corner subset of up to 4 pool leaves,
# Theta(pool**4) in all; a 12-leaf pool takes under a second, a 20-leaf
# one several.  Larger pools need a corner_candidates cap.
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
    negative corner cap."""
    if corner_candidates is not None and corner_candidates < 0:
        raise ParameterError(f"corner_candidates must be >= 0, got {corner_candidates}")
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

    return sorted(sorted(range(n), key=rank)[:cap])


def solve_star(inst: StarInstance, eps, corner_candidates: Optional[int] = None) -> Layout:
    """Best-corner-choice GAP packing of a star; realizes the chosen edges.

    Enumerates corner subsets of up to 4 leaves (smallest-index-tuple wins
    ties), packs the rest into the four side bins with gap_sequential, and
    returns the most profitable layout.  Leaves that end up unassigned are
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

    best = None
    for corners in subsets:
        corner_value = sum(
            (inst.profits[inst.leaves[i].id] for i in corners), Fraction(0)
        )
        rest = [i for i in range(len(inst.leaves)) if i not in corners]
        gi = GapInstance(
            (c.w, c.w, c.h, c.h),
            tuple(
                GapItem(
                    inst.leaves[i].id,
                    (inst.leaves[i].w, inst.leaves[i].w, inst.leaves[i].h, inst.leaves[i].h),
                    (inst.profits[inst.leaves[i].id],) * 4,
                )
                for i in rest
            ),
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


def partition_planar(graph: ProfitGraph) -> List[StarForest]:
    """Partition a planar graph's edges into at most 6 star forests.

    Forests (acyclic graphs) go straight to the 2-forest tree split.
    Otherwise the embedding is triangulated and a canonical ordering
    3-colors the edges: when vertex v_k arrives with contour neighbors
    w_p..w_q, edge (v_k,w_p) is class 0, (v_k,w_q) class 1, the middle
    edges and the base (v_1,v_2) class 2.  Class 0/1 edges give each v_k
    one edge toward an earlier vertex, class 2 gives each covered vertex
    one edge toward a later one, so every class is a forest; restricting
    to the real edge set keeps that.  Each class then splits in two.
    """
    import networkx as nx
    from networkx.algorithms.planar_drawing import get_canonical_ordering, triangulate_embedding

    real = [(a, b) for a, b, _ in graph.edges()]
    if not real:
        return []
    # networkx's canonical ordering pops from node sets, so string labels
    # would make the split depend on the per-process hash seed; integers
    # hash to themselves and keep it reproducible.
    names = sorted(graph.vertices)
    idx = {v: i for i, v in enumerate(names)}
    g = nx.Graph()
    g.add_nodes_from(range(len(names)))
    g.add_edges_from((idx[a], idx[b]) for a, b in real)
    if nx.is_forest(g):
        return [f for f in partition_tree(real) if f.stars]
    is_planar, emb = nx.check_planarity(g)
    if not is_planar:
        raise NotPlanarError("input graph is not planar")
    emb_t, outer = triangulate_embedding(emb, True)
    ordering = get_canonical_ordering(emb_t, outer)

    classes: Tuple[set, set, set] = (set(), set(), set())
    v1, v2 = names[ordering[0][0]], names[ordering[1][0]]
    classes[2].add(ProfitGraph.key(v1, v2))
    for vk, contour in ordering[2:]:
        classes[0].add(ProfitGraph.key(names[vk], names[contour[0]]))
        classes[1].add(ProfitGraph.key(names[vk], names[contour[-1]]))
        for wi in contour[1:-1]:
            classes[2].add(ProfitGraph.key(names[wi], names[vk]))

    out: List[StarForest] = []
    for cls in classes:
        kept = sorted(e for e in cls if graph.has_edge(*e))
        out.extend(f for f in partition_tree(kept) if f.stars)
    return out


def solve_star_forest(
    forest: StarForest,
    boxes: Mapping[str, BoxSpec],
    graph: ProfitGraph,
    eps,
    corner_candidates: Optional[int] = None,
) -> Layout:
    """solve_star per star, side by side; boxes in no star ride along."""
    components: List[Layout] = []
    used = set()
    for star in forest.stars:
        used.add(star.center)
        used.update(star.leaves)
        inst = StarInstance(
            boxes[star.center],
            tuple(boxes[l] for l in star.leaves),
            {l: graph.profit(star.center, l) for l in star.leaves},
        )
        components.append(solve_star(inst, eps, corner_candidates))
    for v in sorted(boxes):
        if v not in used:
            components.append(singleton_layout(boxes[v]))
    return pack_components(components)


def max_crown_stars(
    graph: ProfitGraph,
    boxes: Mapping[str, BoxSpec],
    eps,
    corner_candidates: Optional[int] = None,
) -> Layout:
    """Best star-forest layout of a tree or planar graph.

    The partition has k forests (2 for forests, at most 6 in general), so
    the best one carries at least 1/k of the realizable profit and the
    star solver keeps its GAP share of that.  Raises ParameterError for
    eps outside (0, 1) or a negative ``corner_candidates``, and
    TooLargeError for a star whose corner pool is too large (see
    solve_star).
    """
    _check_star_params(eps, corner_candidates)
    forests = partition_planar(graph)
    if not forests:
        return pack_components([singleton_layout(boxes[v]) for v in sorted(boxes)])
    best_lay = None
    best_val = None
    for forest in forests:
        lay = solve_star_forest(forest, boxes, graph, eps, corner_candidates)
        val = realized_profit(lay, graph)
        if best_val is None or val > best_val:
            best_val, best_lay = val, lay
    return best_lay


def _block_path(vblocks, bverts, a: str, b: str) -> Optional[List[int]]:
    """Blocks on the block-cut-forest path from a to b; None when b is in
    another component.  The path is unique, so breadth-first search finds
    it; only cut vertices (in two or more blocks) lead on to new blocks."""
    via: Dict[int, str] = {}  # block -> the vertex it was entered from
    prev: Dict[str, Optional[int]] = {a: None}  # vertex -> block it was reached through
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for blk in vblocks[v]:
            if blk in via:
                continue
            via[blk] = v
            if b in bverts[blk]:
                path = [blk]
                while prev[v] is not None:
                    path.append(prev[v])
                    v = via[prev[v]]
                return path
            for u in bverts[blk]:
                if u not in prev and len(vblocks[u]) > 1:
                    prev[u] = blk
                    queue.append(u)
    return None


def maximal_planar_subgraph(graph: ProfitGraph) -> ProfitGraph:
    """Greedy maximal planar subgraph, richest edges first.

    Edges are tried in (profit descending, id pair) order and kept while
    the running graph stays planar, so planar inputs come back whole.
    A graph is planar exactly when each of its blocks (biconnected
    components) is, and adding (a, b) merges only the blocks on the
    block-cut-forest path from a to b.  So each edge is tested against
    that union of blocks alone, rejected without a test when the union
    would exceed 3V-6 edges, and kept without a test when it joins two
    components (a bridge).  The result is the same as testing the whole
    running graph after every edge.
    """
    import networkx as nx

    ranked = sorted(graph.edges(), key=lambda e: (-e[2], e[0], e[1]))
    kept = ProfitGraph(graph.vertices)
    bedges: Dict[int, List[Tuple[str, str]]] = {}  # block -> its edges
    bverts: Dict[int, set] = {}  # block -> its vertices
    vblocks: Dict[str, set] = {v: set() for v in graph.vertices}  # vertex -> its blocks
    for new, (a, b, p) in enumerate(ranked):
        path = _block_path(vblocks, bverts, a, b)
        if path is None:
            edges, verts = [(a, b)], {a, b}
        else:
            edges = [e for blk in path for e in bedges[blk]]
            edges.append((a, b))
            verts = set().union(*(bverts[blk] for blk in path))
            if len(edges) > 3 * len(verts) - 6 or not nx.check_planarity(nx.Graph(edges))[0]:
                continue
            for blk in path:
                del bedges[blk], bverts[blk]
            for v in verts:
                vblocks[v].difference_update(path)
        bedges[new], bverts[new] = edges, verts
        for v in verts:
            vblocks[v].add(new)
        kept.add_edge(a, b, p)
    return kept
