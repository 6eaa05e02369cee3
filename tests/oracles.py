"""Exhaustive oracles and random instance generators for the test suite.

Everything in here is deliberately dumb: plain enumeration over small
search spaces, written without looking at the library's algorithms so the
two can disagree.  The integer placement searches are complete for
integer dimensions because any real layout can be rounded to an integer
one with the same contact set (the contact structure is a system of
difference constraints with integer offsets, and such systems have
integer solutions whenever they have any).
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from crown.errors import TooLargeError
from crown.gap import GapAssignment, GapInstance
from crown.geometry import BoxSpec, ProfitGraph
from crown.hier import EmbeddedDag
from crown.stars import StarInstance
from crown.triangulation import TriangulationInstance

IRect = Tuple[int, int, int, int]  # x1, y1, x2, y2


# ---------------------------------------------------------------------------
# knapsack / GAP


def knapsack_brute(items: Sequence[Tuple[Fraction, Fraction]], capacity) -> Fraction:
    """Optimal knapsack value over all subsets (items as (size, value))."""
    best = Fraction(0)
    for r in range(len(items) + 1):
        for sub in combinations(items, r):
            if sum(s for s, _ in sub) <= capacity:
                value = sum((v for _, v in sub), Fraction(0))
                if value > best:
                    best = value
    return best


def gap_brute(inst: GapInstance) -> Fraction:
    """Optimal GAP value: every item goes to one bin or nowhere."""
    caps = list(inst.capacities)
    items = list(inst.items)
    assert len(items) <= 10 and len(caps) <= 4, "gap_brute is for tiny instances"
    best = Fraction(0)

    def go(i: int, value: Fraction) -> None:
        nonlocal best
        if i == len(items):
            if value > best:
                best = value
            return
        it = items[i]
        go(i + 1, value)
        for b in range(len(caps)):
            if it.sizes[b] <= caps[b]:
                caps[b] -= it.sizes[b]
                go(i + 1, value + it.values[b])
                caps[b] += it.sizes[b]

    go(0, Fraction(0))
    return best


# gap_exact refuses instances beyond these sizes: its subset DP is
# O(bins * 3**items).
EXACT_MAX_ITEMS = 12
EXACT_MAX_BINS = 4


def gap_exact(inst: GapInstance) -> GapAssignment:
    """Optimal assignment over all item->bin-or-none maps (guarded sizes)."""
    n = len(inst.items)
    nbins = len(inst.capacities)
    if n > EXACT_MAX_ITEMS or nbins > EXACT_MAX_BINS:
        raise TooLargeError(
            f"gap_exact accepts at most {EXACT_MAX_ITEMS} items and "
            f"{EXACT_MAX_BINS} bins (got {n} items, {nbins} bins)"
        )
    full = 1 << n

    # Per bin: size and value of every item subset, by lowest-bit recursion.
    feas_val: List[List] = []
    for b in range(nbins):
        sizes = [Fraction(0)] * full
        values = [Fraction(0)] * full
        for mask in range(1, full):
            low = mask & -mask
            i = low.bit_length() - 1
            rest = mask ^ low
            sizes[mask] = sizes[rest] + inst.items[i].sizes[b]
            values[mask] = values[rest] + inst.items[i].values[b]
        cap = inst.capacities[b]
        feas_val.append([values[m] if sizes[m] <= cap else None for m in range(full)])

    NEG = None
    f = [NEG] * full
    f[0] = Fraction(0)
    choice: List[List[int]] = []
    for b in range(nbins):
        fv = feas_val[b]
        g = [NEG] * full
        pick = [0] * full
        for s in range(full):
            base = f[s]
            if base is not None and (g[s] is None or base > g[s]):
                g[s] = base
                pick[s] = 0
            t = s
            while t:
                if fv[t] is not None:
                    rest = f[s ^ t]
                    if rest is not None:
                        cand = rest + fv[t]
                        if g[s] is None or cand > g[s]:
                            g[s] = cand
                            pick[s] = t
                t = (t - 1) & s
        f = g
        choice.append(pick)

    best_mask = max(range(full), key=lambda s: (f[s] is not None, f[s] or 0, -s))
    value = f[best_mask]
    masks = [0] * nbins
    s = best_mask
    for b in range(nbins - 1, -1, -1):
        t = choice[b][s]
        masks[b] = t
        s ^= t
    by_bin = tuple(
        tuple(inst.items[i].id for i in range(n) if masks[b] >> i & 1)
        for b in range(nbins)
    )
    assigned = 0
    for m in masks:
        assigned |= m
    unassigned = tuple(inst.items[i].id for i in range(n) if not assigned >> i & 1)
    return GapAssignment(by_bin, unassigned, value)


# ---------------------------------------------------------------------------
# stars


def star_opt(inst: StarInstance) -> Fraction:
    """Exact optimum of the corner-plus-side-bins placement family.

    Up to four leaves ride free on the center's corner points; the rest
    make segment contact along a side and consume its capacity (widths
    along top/bottom, heights along left/right).  Solved by bitmask
    enumeration: a leaf set fits a side pair iff it splits into two
    halves each within the single-side capacity.
    """
    n = len(inst.leaves)
    assert n <= 10, "star_opt is exponential in the leaf count"
    w0, h0 = inst.center.w, inst.center.h
    p = [inst.profits[l.id] for l in inst.leaves]
    w = [l.w for l in inst.leaves]
    h = [l.h for l in inst.leaves]
    full = 1 << n
    zero = Fraction(0)
    sw, sh, sp = [zero] * full, [zero] * full, [zero] * full
    for m in range(1, full):
        i = (m & -m).bit_length() - 1
        r = m & (m - 1)
        sw[m] = sw[r] + w[i]
        sh[m] = sh[r] + h[i]
        sp[m] = sp[r] + p[i]

    def two_bins(total, cap) -> List[bool]:
        ok = [False] * full
        for m in range(full):
            sub = m
            while True:
                if total[sub] <= cap and total[m ^ sub] <= cap:
                    ok[m] = True
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & m
        return ok

    packw = two_bins(sw, w0)
    packh = two_bins(sh, h0)
    # best height-packable sub-subset of every mask (the rest is discarded)
    besth = [zero] * full
    for m in range(1, full):
        b = sp[m] if packh[m] else zero
        mm = m
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            if besth[m ^ (1 << i)] > b:
                b = besth[m ^ (1 << i)]
        besth[m] = b

    best = zero
    for r in range(min(4, n) + 1):
        for corner in combinations(range(n), r):
            cmask = sum(1 << i for i in corner)
            rem = (full - 1) ^ cmask
            base = sp[cmask]
            tb = rem
            while True:
                if packw[tb]:
                    v = base + sp[tb] + besth[rem ^ tb]
                    if v > best:
                        best = v
                if tb == 0:
                    break
                tb = (tb - 1) & rem
    return best


def maximal_planar_subgraph_brute(graph: ProfitGraph) -> ProfitGraph:
    """The greedy maximal planar subgraph, one whole-graph planarity test
    per edge in (profit descending, id pair) order."""
    ranked = sorted(graph.edges(), key=lambda e: (-e[2], e[0], e[1]))
    g = nx.Graph()
    g.add_nodes_from(sorted(graph.vertices))
    kept = ProfitGraph(graph.vertices)
    for a, b, p in ranked:
        g.add_edge(a, b)
        if nx.check_planarity(g)[0]:
            kept.add_edge(a, b, p)
        else:
            g.remove_edge(a, b)
    return kept


# ---------------------------------------------------------------------------
# shared integer placement machinery


def _overlap(r: IRect, s: IRect) -> bool:
    return r[0] < s[2] and s[0] < r[2] and r[1] < s[3] and s[1] < r[3]


def _touches(r: IRect, s: IRect) -> bool:
    """Closed intersection nonempty; callers exclude overlaps first."""
    return max(r[0], s[0]) <= min(r[2], s[2]) and max(r[1], s[1]) <= min(r[3], s[3])


def _touch_spots(anchor: IRect, cw: int, ch: int) -> List[Tuple[int, int]]:
    """Integer lower-left corners where a cw x ch box touches `anchor`."""
    x1, y1, x2, y2 = anchor
    spots = set()
    for x in range(x1 - cw, x2 + 1):
        spots.add((x, y2))
        spots.add((x, y1 - ch))
    for y in range(y1 - ch, y2 + 1):
        spots.add((x2, y))
        spots.add((x1 - cw, y))
    return sorted(spots)


def _int_dims(boxes: Mapping[str, BoxSpec]) -> Dict[str, Tuple[int, int]]:
    dims = {}
    for i, b in boxes.items():
        assert b.w.denominator == 1 and b.h.denominator == 1, "oracle needs integers"
        dims[i] = (int(b.w), int(b.h))
    return dims


# ---------------------------------------------------------------------------
# trees


def _component_fits(
    order: Sequence[str], parent: Mapping[str, str], dims: Mapping[str, Tuple[int, int]]
) -> bool:
    """Can this tree component be placed so every parent edge is a contact?

    DFS over all integer placements, each vertex anchored to spots
    touching its (already placed) tree parent; other contacts may appear
    for free and are harmless.
    """
    root = order[0]
    rw, rh = dims[root]
    placed: Dict[str, IRect] = {root: (0, 0, rw, rh)}

    def go(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        vw, vh = dims[v]
        for x, y in _touch_spots(placed[parent[v]], vw, vh):
            rect = (x, y, x + vw, y + vh)
            if any(_overlap(rect, r) for r in placed.values()):
                continue
            placed[v] = rect
            if go(k + 1):
                return True
            del placed[v]
        return False

    return go(1)


def tree_opt(graph: ProfitGraph, boxes: Mapping[str, BoxSpec]) -> Fraction:
    """Geometric optimum for a forest: richest realizable edge subset.

    Any layout realizes some subset of the tree edges and earns exactly
    that subset's profit, so maximizing over realizable subsets is exact.
    Subsets are tried richest first; a subset is realizable iff each of
    its connected components is (components never interact: they can be
    packed far apart).
    """
    edge_list = [(a, b) for a, b, _ in graph.edges()]
    assert len(edge_list) <= 7, "tree_opt enumerates edge subsets"
    profits = [graph.profit(a, b) for a, b in edge_list]
    dims = _int_dims(boxes)
    cache: Dict[frozenset, bool] = {}

    def comp_ok(comp_edges: Tuple[Tuple[str, str], ...]) -> bool:
        key = frozenset(comp_edges)
        if key not in cache:
            adj: Dict[str, List[str]] = {}
            for a, b in comp_edges:
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            root = min(adj)
            order, parent, seen = [root], {}, {root}
            qi = 0
            while qi < len(order):
                for u in sorted(adj[order[qi]]):
                    if u not in seen:
                        seen.add(u)
                        parent[u] = order[qi]
                        order.append(u)
                qi += 1
            cache[key] = _component_fits(order, parent, dims)
        return cache[key]

    def components(mask: int) -> List[Tuple[Tuple[str, str], ...]]:
        chosen = [edge_list[i] for i in range(len(edge_list)) if mask >> i & 1]
        group: Dict[str, int] = {}

        def find(v: str) -> str:
            while group.setdefault(v, v) != v:
                group[v] = group[group[v]]
                v = group[v]
            return v

        for a, b in chosen:
            group[find(a)] = find(b)
        bucket: Dict[str, List[Tuple[str, str]]] = {}
        for a, b in chosen:
            bucket.setdefault(find(a), []).append((a, b))
        return [tuple(es) for es in bucket.values()]

    masks = sorted(
        range(1 << len(edge_list)),
        key=lambda m: -sum((profits[i] for i in range(len(edge_list)) if m >> i & 1), Fraction(0)),
    )
    for mask in masks:
        if all(comp_ok(comp) for comp in components(mask)):
            return sum(
                (profits[i] for i in range(len(edge_list)) if mask >> i & 1), Fraction(0)
            )
    return Fraction(0)


# ---------------------------------------------------------------------------
# hierarchies


def hier_feasible(dag: EmbeddedDag, boxes: Mapping[str, BoxSpec], delta: int = 1) -> bool:
    """Brute-force feasibility for an embedded hierarchy, integer dims.

    Tops are forced: sink top 0, child top = parent bottom (a clash means
    infeasible).  x values are searched over integers, anchored by the
    edge that discovered each vertex; a placement must keep interiors
    disjoint, give every edge an x-overlap >= delta, and show every
    vertex's predecessors left to right in rotation order.
    """
    dims = _int_dims(boxes)
    sink = dag.sink()
    ins: Dict[str, List[str]] = {v: [] for v in dag.vertices}
    for u, v in dag.edges:
        ins[v].append(u)

    top: Dict[str, int] = {sink: 0}
    order = [sink]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        bottom = top[v] - dims[v][1]
        for u in sorted(ins[v]):
            if u in top:
                if top[u] != bottom:
                    return False
            else:
                top[u] = bottom
                order.append(u)
    if len(top) != len(dag.vertices):  # unreachable with a validated dag
        return False

    # BFS placement order over the undirected edges, each vertex anchored
    # to the neighbor that discovered it.
    nbrs: Dict[str, Set[str]] = {v: set() for v in dag.vertices}
    for u, v in dag.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    anchor: Dict[str, str] = {}
    order2 = [sink]
    seen = {sink}
    qi = 0
    while qi < len(order2):
        v = order2[qi]
        qi += 1
        for u in sorted(nbrs[v]):
            if u not in seen:
                seen.add(u)
                anchor[u] = v
                order2.append(u)

    pred_order = {v: dag.predecessors(v) for v in dag.vertices}
    pos: Dict[str, int] = {}

    def span(v: str) -> Tuple[int, int, int, int]:
        x = pos[v]
        w, h = dims[v]
        return (x, top[v] - h, x + w, top[v])

    def consistent(v: str) -> bool:
        rv = span(v)
        for u in pos:
            if u != v and _overlap(rv, span(u)):
                return False
        for a, b in dag.edges:
            if v in (a, b) and a in pos and b in pos:
                ra, rb = span(a), span(b)
                if min(ra[2], rb[2]) - max(ra[0], rb[0]) < delta:
                    return False
        for w_, preds in pred_order.items():
            for p, q in zip(preds, preds[1:]):
                if v in (p, q) and p in pos and q in pos:
                    if pos[p] + dims[p][0] > pos[q]:
                        return False
        return True

    def go(k: int) -> bool:
        if k == len(order2):
            return True
        v = order2[k]
        u = anchor[v]
        for x in range(pos[u] - dims[v][0] + delta, pos[u] + dims[u][0] - delta + 1):
            pos[v] = x
            if consistent(v) and go(k + 1):
                return True
            del pos[v]
        return False

    pos[sink] = 0
    return go(1)


# ---------------------------------------------------------------------------
# triangulations


def tri_realizable(inst: TriangulationInstance, respect_roles: bool = True) -> bool:
    """Exhaustive integer placement: can every edge become a contact?

    Vertices are placed most-constrained first; each candidate spot comes
    from one placed neighbor and must touch all of them without overlaps.
    Extra (non-edge) contacts are allowed, as in the problem definition.

    With `respect_roles` (the default) an edge between an outer box and an
    inner one must be realized in the stated direction: the north box
    touches its inner neighbors with its bottom edge, east with its left
    edge, and so on.  That matches what the outer labels of an instance
    assert.  Without it any contact counts, which is a strictly weaker
    question: a graph can be realizable with the outer boxes in scrambled
    positions (point contacts make pinwheel arrangements possible) while
    no layout with honest walls exists.
    """
    ids = sorted(inst.boxes)
    dims = _int_dims(inst.boxes)
    nbrs = {v: set(inst.neighbors(v)) for v in ids}
    outer = set(inst.outer)
    vn, ve, vs, vw = inst.outer

    def role_ok(o: str, orect: IRect, irect: IRect) -> bool:
        if o == vn:
            return orect[1] == irect[3]  # north bottom on inner top
        if o == vs:
            return orect[3] == irect[1]
        if o == ve:
            return orect[0] == irect[2]
        return orect[2] == irect[0]

    order: List[str] = []
    chosen: Set[str] = set()
    while len(order) < len(ids):
        rest = [v for v in ids if v not in chosen]
        rest.sort(key=lambda v: (-len(nbrs[v] & chosen), -len(nbrs[v]), v))
        order.append(rest[0])
        chosen.add(rest[0])

    placed: Dict[str, IRect] = {}

    def contact_fine(v: str, rect: IRect, u: str) -> bool:
        if not _touches(rect, placed[u]):
            return False
        if not respect_roles:
            return True
        if v in outer and u not in outer:
            return role_ok(v, rect, placed[u])
        if u in outer and v not in outer:
            return role_ok(u, placed[u], rect)
        return True

    def go(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        vw_, vh_ = dims[v]
        around = [u for u in order[:k] if u in nbrs[v]]
        for x, y in _touch_spots(placed[around[0]], vw_, vh_):
            rect = (x, y, x + vw_, y + vh_)
            if any(_overlap(rect, r) for r in placed.values()):
                continue
            if any(not contact_fine(v, rect, u) for u in around):
                continue
            placed[v] = rect
            if go(k + 1):
                return True
            del placed[v]
        return False

    v0 = order[0]
    placed[v0] = (0, 0, dims[v0][0], dims[v0][1])
    return go(1)


# ---------------------------------------------------------------------------
# random instances


def rand_frac(rng: random.Random, lo: int = 1, hi: int = 12, dens=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.randrange(lo, hi + 1), rng.choice(dens))


def rand_boxes(rng: random.Random, ids: Sequence[str], hi: int = 8) -> Dict[str, BoxSpec]:
    return {
        i: BoxSpec(i, rand_frac(rng, 1, hi), rand_frac(rng, 1, hi)) for i in ids
    }


def rand_int_boxes(rng: random.Random, ids: Sequence[str], hi: int = 3) -> Dict[str, BoxSpec]:
    return {
        i: BoxSpec(i, rng.randrange(1, hi + 1), rng.randrange(1, hi + 1)) for i in ids
    }


def rand_degree_graph(rng: random.Random, n: int, dmax: int) -> ProfitGraph:
    """Random simple graph with max degree <= dmax and rational profits."""
    ids = [f"b{i:02d}" for i in range(n)]
    g = ProfitGraph(ids)
    pairs = list(combinations(ids, 2))
    rng.shuffle(pairs)
    deg = {i: 0 for i in ids}
    for a, b in pairs:
        if deg[a] < dmax and deg[b] < dmax and rng.random() < 0.8:
            g.add_edge(a, b, rand_frac(rng))
            deg[a] += 1
            deg[b] += 1
    return g


def rand_clustered_graph(rng: random.Random, n_max: int) -> ProfitGraph:
    """Random graph of n_max/3..n_max vertices: 1-3 groups plus a few
    isolated vertices, edges only inside a group at one of four densities
    up to complete, profits 0..3 so ties are common."""
    ids = [f"g{i:02d}" for i in range(rng.randrange(n_max // 3, n_max + 1))]
    rng.shuffle(ids)
    groups = rng.choice((1, 1, 2, 3))
    # group -1 holds the isolated vertices
    group = {v: -1 if rng.random() < 0.1 else rng.randrange(groups) for v in ids}
    density = rng.choice((0.2, 0.5, 0.8, 1.0))
    g = ProfitGraph(ids)
    for a, b in combinations(ids, 2):
        if group[a] == group[b] != -1 and rng.random() < density:
            g.add_edge(a, b, rng.randrange(4))
    return g


def rand_tree(rng: random.Random, n: int) -> List[Tuple[str, str]]:
    """Random tree on t0..t{n-1} by uniform attachment."""
    ids = [f"t{i}" for i in range(n)]
    return [(rng.choice(ids[:i]), ids[i]) for i in range(1, n)]


def rand_star_instance(rng: random.Random, leaves: int) -> StarInstance:
    center = BoxSpec("hub", rand_frac(rng, 2, 10), rand_frac(rng, 2, 10))
    leaf_boxes = tuple(
        BoxSpec(f"l{i}", rand_frac(rng, 1, 8), rand_frac(rng, 1, 8))
        for i in range(leaves)
    )
    profits = {b.id: rand_frac(rng) for b in leaf_boxes}
    return StarInstance(center, leaf_boxes, profits)


def rand_embedded_dag(
    rng: random.Random, n: int, dim_hi: int = 3
) -> Tuple[EmbeddedDag, Dict[str, BoxSpec]]:
    """Random valid embedded single-sink DAG with integer dims.

    Vertex i >= 1 points to one or two earlier vertices, so vertex 0 is
    the unique sink and every vertex reaches it; rotations put the
    outgoing block before the incoming block, both shuffled, which is
    always bimodal.
    """
    ids = [f"v{i}" for i in range(n)]
    edges: List[Tuple[str, str]] = []
    for i in range(1, n):
        k = 1 if i == 1 else rng.choice((1, 1, 2))
        for parent in rng.sample(ids[:i], k):
            edges.append((ids[i], parent))
    outs: Dict[str, List[str]] = {v: [] for v in ids}
    ins: Dict[str, List[str]] = {v: [] for v in ids}
    for u, v in edges:
        outs[u].append(v)
        ins[v].append(u)
    rotation = {}
    for v in ids:
        o, i_ = list(outs[v]), list(ins[v])
        rng.shuffle(o)
        rng.shuffle(i_)
        rotation[v] = tuple(o + i_)
    dag = EmbeddedDag(tuple(ids), tuple(edges), rotation)
    return dag, rand_int_boxes(rng, ids, dim_hi)


def rand_guillotine_dual(
    rng: random.Random, inner: int, perturb: bool
) -> TriangulationInstance:
    """Dual of a random guillotine tiling of a 4x4 square, framed N/E/S/W.

    With `perturb` false the boxes get the exact tile dimensions (so the
    instance is realizable by construction); with it true the dims are
    redrawn uniformly from 1..4, which may or may not stay realizable.
    The rotation system always comes from the true tiling geometry.
    """
    four = Fraction(4)
    tiles: List[Tuple[Fraction, Fraction, Fraction, Fraction]] = [
        (Fraction(0), Fraction(0), four, four)
    ]
    while len(tiles) < inner:
        i = rng.randrange(len(tiles))
        x1, y1, x2, y2 = tiles.pop(i)
        vertical_ok = x2 - x1 >= 2
        horizontal_ok = y2 - y1 >= 2
        if not vertical_ok and not horizontal_ok:
            tiles.append((x1, y1, x2, y2))
            break
        if vertical_ok and (not horizontal_ok or rng.random() < 0.5):
            cut = Fraction(rng.randrange(int(x1) + 1, int(x2)))
            tiles += [(x1, y1, cut, y2), (cut, y1, x2, y2)]
        else:
            cut = Fraction(rng.randrange(int(y1) + 1, int(y2)))
            tiles += [(x1, y1, x2, cut), (x1, cut, x2, y2)]

    rects = {f"t{i}": t for i, t in enumerate(tiles)}
    big = Fraction(10)
    rects["N"] = (-big, four, four + big, four + 1)
    rects["S"] = (-big, Fraction(-1), four + big, Fraction(0))
    rects["E"] = (four, Fraction(0), four + 1, four)
    rects["W"] = (Fraction(-1), Fraction(0), Fraction(0), four)

    def seg(a1, a2, b1, b2):
        return min(a2, b2) - max(a1, b1) > 0

    nbrs: Dict[str, List[str]] = {v: [] for v in rects}
    ids = sorted(rects)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            r, s = rects[a], rects[b]
            shared = (
                (r[2] == s[0] or s[2] == r[0]) and seg(r[1], r[3], s[1], s[3])
            ) or ((r[3] == s[1] or s[3] == r[1]) and seg(r[0], r[2], s[0], s[2]))
            if shared:
                nbrs[a].append(b)
                nbrs[b].append(a)
    for a, b in (("N", "E"), ("E", "S"), ("S", "W"), ("W", "N")):
        if b not in nbrs[a]:
            nbrs[a].append(b)
            nbrs[b].append(a)

    def ccw_key(v, u):
        # walk the boundary of v counterclockwise: right edge bottom-up,
        # top edge right-to-left, left edge top-down, bottom left-to-right
        rv, ru = rects[v], rects[u]
        if ru[0] >= rv[2]:
            return (0, max(rv[1], ru[1]))
        if ru[1] >= rv[3]:
            return (1, -max(rv[0], ru[0]))
        if ru[2] <= rv[0]:
            return (2, -max(rv[1], ru[1]))
        return (3, max(rv[0], ru[0]))

    rotation = {v: tuple(sorted(nbrs[v], key=lambda u: ccw_key(v, u))) for v in rects}
    boxes = {}
    for v, (x1, y1, x2, y2) in rects.items():
        if v in "NS":
            w, h = four, Fraction(1)
        elif v in "EW":
            w, h = Fraction(1), four
        else:
            w, h = x2 - x1, y2 - y1
        if perturb:
            w = Fraction(rng.randrange(1, 5))
            h = Fraction(rng.randrange(1, 5))
        boxes[v] = BoxSpec(v, w, h)
    return TriangulationInstance(boxes, rotation, ("N", "E", "S", "W"))
