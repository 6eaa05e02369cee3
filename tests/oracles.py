"""Exhaustive oracles and random instance generators for the test suite.

Everything in here is deliberately dumb: plain enumeration over small
search spaces, written without looking at the library's algorithms so the
two can disagree.  The integer placement searches are complete for
integer dimensions because any real layout can be rounded to an integer
one with the same contact set (the contact structure is a system of
difference constraints with integer offsets, and such systems have
integer solutions whenever they have any).
"""

import math
import random
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from crown.cycles import (
    _cover_components,
    decompose_cycle_covers,
    layout_cycle,
    layout_path,
)
from crown.errors import (
    DuplicateIdError,
    HierInfeasibleError,
    InvalidInstanceError,
    NotPlanarError,
    OverlapError,
    ParameterError,
    TooLargeError,
    TriangulationInfeasibleError,
)
from crown.gap import MAX_KNAPSACK_TOP, GapAssignment, GapInstance, GapItem, check_eps
from crown.geometry import (
    BoxSpec,
    Contact,
    Layout,
    ProfitGraph,
    _classify,
    detect_contacts,
    on_unit,
    pack_components,
    rat,
)
from crown.hier import EmbeddedDag
from crown.stars import (
    _CORNER_OFFSETS,
    MAX_CORNER_POOL,
    StarForest,
    StarInstance,
    _block_path,
    _check_star_params,
    _corner_pool,
    _is_planar,
    _planar_on,
    _ranked,
    partition_tree,
)
from crown.pipeline import ASPECT, WordStats, _round_root
from crown.serialize import _boxes, _require, parse_frac
from crown.svg import _escape, fill_color
from crown.triangulation import TriangulationInstance, validate_instance

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
                go(i + 1, value + it.value)
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
            values[mask] = values[rest] + inst.items[i].value
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


def solve_star_fraction(inst: StarInstance, eps, corner_candidates: Optional[int] = None) -> Layout:
    """``stars.solve_star`` on Fraction sizes and profits, solving every
    corner subset with ``gap_sequential_unpruned``."""
    eps = _check_star_params(eps, corner_candidates)
    c = inst.center
    pool = _corner_pool(inst, corner_candidates)
    if len(pool) > MAX_CORNER_POOL:
        raise TooLargeError(
            f"corner enumeration accepts at most {MAX_CORNER_POOL} candidate "
            f"leaves (got {len(pool)}); cap it with corner_candidates"
        )
    subsets = sorted(
        s for r in range(min(4, len(pool)) + 1) for s in combinations(pool, r)
    )

    # One GAP item per leaf, shared by every corner subset.
    side_bins = (c.w, c.w, c.h, c.h)
    items = [
        GapItem(leaf.id, (leaf.w, leaf.w, leaf.h, leaf.h), inst.profits[leaf.id])
        for leaf in inst.leaves
    ]
    best = None
    for corners in subsets:
        corner_value = sum(
            (inst.profits[inst.leaves[i].id] for i in corners), Fraction(0)
        )
        gi = GapInstance(
            side_bins, tuple(item for i, item in enumerate(items) if i not in corners)
        )
        asg = gap_sequential_unpruned(gi, eps)
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


def tree_path_from_one_end(adj: List[Dict[int, int]], a: int, b: int) -> List[int]:
    """Edge ids on the path between a and b in a forest given as vertex ->
    {neighbour: edge id}, from b back to a; a and b must share a tree.
    A breadth-first search from a alone, the oracle for ``stars._tree_path``."""
    via: Dict[int, Optional[Tuple[int, int]]] = {a: None}  # vertex -> (previous vertex, edge)
    queue = deque([a])
    while b not in via:
        v = queue.popleft()
        for w, e in adj[v].items():
            if w not in via:
                via[w] = (v, e)
                queue.append(w)
    path = []
    while via[b] is not None:
        b, e = via[b]
        path.append(e)
    return path


def tree_path_two_ended(adj: List[Dict[int, int]], a: int, b: int) -> List[int]:
    """Edge ids on the path from b to a in a forest given as vertex ->
    {neighbour: edge id}; a and b must share a tree.

    Searches breadth first from both ends, a level at a time from the
    smaller frontier, until a vertex is reached from both; the tree path
    is unique, so the meeting vertex splits it.
    """
    via = ({a: None}, {b: None})  # per end: vertex -> (vertex toward that end, edge)
    fronts = [[a], [b]]
    meet = a if a == b else None
    while meet is None:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        seen, other = via[side], via[1 - side]
        level = []
        for v in fronts[side]:
            for w, e in adj[v].items():
                if w not in seen:
                    seen[w] = (v, e)
                    if w in other:
                        meet = w
                        break
                    level.append(w)
            if meet is not None:
                break
        fronts[side] = level
    path = []
    v = meet
    while via[1][v] is not None:  # meet back to b, reversed below
        v, e = via[1][v]
        path.append(e)
    path.reverse()
    v = meet
    while via[0][v] is not None:
        v, e = via[0][v]
        path.append(e)
    return path


def partition_planar_union_find(graph: ProfitGraph) -> List[StarForest]:
    """``stars.partition_planar`` with a union-find per forest telling
    when an edge fits, vertex -> {neighbour: edge} dicts and the
    two-ended search above for the tree paths."""
    names = sorted(graph.vertices)
    num = {v: i for i, v in enumerate(names)}
    ranked = _ranked(graph)
    ends = [(num[a], num[b]) for a, b, _ in ranked]
    if not _is_planar(len(names), ends):
        raise NotPlanarError("input graph is not planar")
    home = [-1] * len(ends)  # edge -> its forest
    adj = [[{} for _ in names] for _ in range(3)]  # forest -> vertex -> {neighbour: edge}
    roots = [list(range(len(names))) for _ in range(3)]  # forest -> union-find parent

    def find(f: int, v: int) -> int:
        up = roots[f]
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    for new in range(len(ends)):
        came: Dict[int, Optional[int]] = {new: None}  # edge -> edge it makes room for
        queue = deque([new])
        sink = None
        while sink is None:
            e = queue.popleft()
            a, b = ends[e]
            others = [f for f in range(3) if f != home[e]]
            sink = next((f for f in others if find(f, a) != find(f, b)), None)
            if sink is None:
                for f in others:
                    for h in tree_path_two_ended(adj[f], a, b):
                        if h not in came:
                            came[h] = e
                            queue.append(h)
        roots[sink][find(sink, a)] = find(sink, b)
        f = sink
        while e is not None:
            a, b = ends[e]
            old = home[e]
            if old >= 0:
                del adj[old][a][b], adj[old][b][a]
            adj[f][a][b] = adj[f][b][a] = e
            home[e] = f
            e, f = came[e], old

    out: List[StarForest] = []
    for f in range(3):
        edges = [(names[a], names[b]) for e, (a, b) in enumerate(ends) if home[e] == f]
        out.extend(half for half in partition_tree(edges) if half.stars)
    return out


def is_planar_nx(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """networkx's planarity verdict on vertices 0..n-1 and ``edges``."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.check_planarity(g)[0]


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
# reference implementations of the library's integer hot loops


def maximal_planar_subgraph_union(graph: ProfitGraph) -> ProfitGraph:
    """``stars.maximal_planar_subgraph`` with one left-right test per edge
    on the whole union of the blocks on the a-b path (after the 3V-6
    bound on that union), relabelled to 0..V-1 in id order."""
    names = sorted(graph.vertices)
    num = {v: i for i, v in enumerate(names)}
    ranked = sorted(graph.edges(), key=lambda e: (-e[2], e[0], e[1]))
    kept = ProfitGraph(graph.vertices)
    bedges: Dict[int, List[Tuple[int, int]]] = {}  # block -> its edges
    bverts: Dict[int, set] = {}  # block -> its vertices
    vblocks: List[set] = [set() for _ in names]  # vertex -> its blocks
    for new, (a, b, p) in enumerate(ranked):
        ia, ib = num[a], num[b]
        path = _block_path(vblocks, bverts, ia, ib)
        if path is None:
            edges, verts = [(ia, ib)], {ia, ib}
        else:
            path = [blk for blk, _ in path]
            edges = [e for blk in path for e in bedges[blk]]
            edges.append((ia, ib))
            verts = set().union(*(bverts[blk] for blk in path))
            if len(edges) > 3 * len(verts) - 6:
                continue
            idx = {v: i for i, v in enumerate(sorted(verts))}
            if not _is_planar(len(verts), [(idx[u], idx[v]) for u, v in edges]):
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


def path_stays_planar_near(path, b: int, bedges, bverts, adj, forbidden) -> bool:
    """``stars._path_stays_planar`` with the block's subgraph induced on
    the pair's closed neighbourhoods, plus the pair, as the pre-test in
    place of the contracted minor."""
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
            edges.append((x, y))
            if not _planar_on(near, edges):
                forbidden.add((x, y))
                return False
        if not _planar_on(verts, bedges[blk] + [(x, y)]):
            forbidden.add((x, y))
            return False
    return True


def knapsack_fptas_unpruned(
    items: Sequence[Tuple[Fraction, Fraction]], capacity, eps
) -> Tuple[int, ...]:
    """``gap.knapsack_fptas`` extending every reachable state, including
    those that no longer fit, with values scaled by ``Fraction`` products."""
    capacity = rat(capacity)
    eps = check_eps(eps)
    if capacity < 0:
        raise ParameterError("capacity must be non-negative")

    usable = [
        (idx, rat(s), rat(v))
        for idx, (s, v) in enumerate(items)
        if rat(s) <= capacity
    ]
    if not usable:
        return ()
    v_max = max(v for _, _, v in usable)
    if v_max == 0:
        return ()
    n = len(usable)

    # Integer sizes: clear denominators once per call.
    den = on_unit([capacity, *(s for _, s, _ in usable)])[0]
    cap_i = int(capacity * den)
    scale = n / (eps * v_max)  # 1/K
    scaled = [(idx, int(s * den), int(v * scale)) for idx, s, v in usable]

    top = sum(sv for _, _, sv in scaled)
    if top > MAX_KNAPSACK_TOP:
        raise TooLargeError(
            f"knapsack table of {top} scaled values exceeds {MAX_KNAPSACK_TOP}"
            f" (n={n}, eps={eps})"
        )
    best_size: List = [None] * (top + 1)
    best_set: List = [None] * (top + 1)
    best_size[0] = 0
    best_set[0] = ()
    reach = 0
    for idx, size_i, val_i in scaled:
        for sv in range(reach, -1, -1):
            if best_size[sv] is None:
                continue
            nv = sv + val_i
            ns = best_size[sv] + size_i
            cur = best_size[nv]
            if cur is not None and ns > cur:
                continue
            cand = best_set[sv] + (idx,)
            if cur is None or ns < cur or cand < best_set[nv]:
                best_size[nv] = ns
                best_set[nv] = cand
        reach = min(top, reach + val_i)

    for sv in range(top, 0, -1):
        if best_size[sv] is not None and best_size[sv] <= cap_i:
            return best_set[sv]
    return ()


def gap_sequential_unpruned(inst: GapInstance, eps) -> GapAssignment:
    """``gap.gap_sequential`` over ``knapsack_fptas_unpruned``, with the
    positive-value test on Fraction comparisons."""
    n = len(inst.items)
    where: List[int] = [-1] * n
    for b, cap in enumerate(inst.capacities):
        pool_ids = [i for i in range(n) if where[i] < 0 and inst.items[i].value > 0]
        pool = [(inst.items[i].sizes[b], inst.items[i].value) for i in pool_ids]
        for j in knapsack_fptas_unpruned(pool, cap, eps):
            where[pool_ids[j]] = b
    by_bin = tuple(
        tuple(inst.items[i].id for i in range(n) if where[i] == b)
        for b in range(len(inst.capacities))
    )
    unassigned = tuple(inst.items[i].id for i in range(n) if where[i] < 0)
    value = sum((inst.items[i].value for i in range(n) if where[i] >= 0), Fraction(0))
    return GapAssignment(by_bin, unassigned, value)


def random_baseline_fraction(
    graph: ProfitGraph, boxes: Mapping[str, BoxSpec], seed: int
) -> Layout:
    """``pipeline.random_baseline`` with the overlap test on Fractions."""
    rng = random.Random(seed)
    order = sorted(boxes.values(), key=lambda b: (-(b.w * b.h), b.id))
    lay = Layout()
    placed: List[Tuple[Fraction, Fraction, Fraction, Fraction]] = []
    if not order:
        return lay
    pitch = max(max(b.w for b in order), max(b.h for b in order)) / 4
    for b in order:
        theta0 = rng.random() * 2 * math.pi
        k = 0
        while True:
            theta = k * math.pi / 16
            radius = float(pitch) * theta / (2 * math.pi)
            cx = Fraction(
                round((radius * math.cos(theta0 + theta)) * 64), 64
            )
            cy = Fraction(
                round((radius * math.sin(theta0 + theta)) * 64), 64
            )
            x1, y1 = cx - b.w / 2, cy - b.h / 2
            x2, y2 = x1 + b.w, y1 + b.h
            if all(
                x2 <= px1 or px2 <= x1 or y2 <= py1 or py2 <= y1
                for px1, px2, py1, py2 in placed
            ):
                lay.place(b, x1, y1)
                placed.append((x1, x2, y1, y2))
                break
            k += 1
    return lay


def max_crown_cycles_every_cover(graph: ProfitGraph, boxes: Mapping[str, BoxSpec]) -> Layout:
    """``cycles.max_crown_cycles`` on all ceil(max_degree/2) covers, each
    summed in Fractions; the first cover of the largest profit wins."""
    decomposition = decompose_cycle_covers(graph)
    components: List[Layout] = []
    if decomposition.covers:
        profits = [
            sum((graph.profit(a, b) for a, b in cover), Fraction(0))
            for cover in decomposition.covers
        ]
        chosen = decomposition.covers[profits.index(max(profits))]
        for kind, order in _cover_components(chosen):
            seq = [boxes[v] for v in order]
            components.append(layout_cycle(seq) if kind == "cycle" else layout_path(seq))
    return pack_components(components, boxes)


def max_degree(graph: ProfitGraph) -> int:
    """The largest vertex degree of ``graph``, 0 without vertices."""
    return max(graph.degrees().values(), default=0)


def line_events(module, fn, *args) -> int:
    """Line events in ``module``'s source file while ``fn(*args)`` runs: a
    work count that does not depend on the machine's speed."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename == module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return events


def solve_x_fraction(
    widths: Mapping[str, Fraction],
    edges: Sequence[Tuple[str, str]],
    order: Sequence[Tuple[str, str]],
    delta,
    anchor: str,
) -> Dict[str, Fraction]:
    """``hier.solve_x``'s distances and verdicts by Bellman-Ford passes on
    Fractions.  An infeasible system raises with witness None: which
    negative cycle ``solve_x`` names is its own queue's choice."""
    delta = rat(delta)
    for v in (*(v for pair in (*edges, *order) for v in pair), anchor):
        if v not in widths:
            raise ParameterError(f"vertex {v!r} has no width")
    cons: List[Tuple[str, str, Fraction]] = []
    for i, j in edges:
        cons.append((i, j, rat(widths[i]) - delta))
        cons.append((j, i, rat(widths[j]) - delta))
    for a, b in order:
        cons.append((b, a, -rat(widths[a])))

    dist: Dict[str, Optional[Fraction]] = {v: None for v in widths}
    dist[anchor] = Fraction(0)
    for _ in range(len(dist)):
        relaxed = False
        for u, v, c in cons:
            if dist[u] is not None and (dist[v] is None or dist[u] + c < dist[v]):
                dist[v] = dist[u] + c
                relaxed = True
        if not relaxed:
            missing = sorted(v for v, d in dist.items() if d is None)
            if missing:
                raise ParameterError(f"vertices {missing} unconstrained from anchor {anchor!r}")
            return dict(dist)
    # A relaxation in the n-th pass means a negative cycle.
    raise HierInfeasibleError("solve_x", None)


Rect = Tuple[Fraction, Fraction, Fraction, Fraction]  # x1, y1, x2, y2


def _overlaps(r: Rect, s: Rect) -> bool:
    return r[0] < s[2] and s[0] < r[2] and r[1] < s[3] and s[1] < r[3]


def _rect_convex(rects: Sequence[Rect]) -> bool:
    """Union meets every horizontal and vertical line in one interval."""
    for axis in (0, 1):
        cuts = sorted({r[axis] for r in rects} | {r[axis + 2] for r in rects})
        for a, b in zip(cuts, cuts[1:]):
            spans = sorted(
                (r[1 - axis], r[3 - axis])
                for r in rects
                if r[axis] <= a and b <= r[axis + 2]
            )
            if not spans:
                continue
            hi = spans[0][1]
            for lo2, hi2 in spans[1:]:
                if lo2 > hi:
                    return False
                hi = max(hi, hi2)
    return True


def _concavities(placed: Mapping[str, Rect]) -> List[Tuple[int, int, str, str]]:
    """Corners that can host the next box: (x, y, wall id, floor id).

    A concavity is a bottom-right or top-left corner of a placed
    rectangle, not the top-right corner of any, whose up-right quadrant
    is locally free, propped by a wall (right edge through it) and a
    floor (top edge through it).
    """
    rects = placed.values()
    candidates = set()
    for x1, y1, x2, y2 in rects:
        candidates.add((x2, y1))
        candidates.add((x1, y2))
    out = []
    for qx, qy in sorted(candidates):
        if any((r[2], r[3]) == (qx, qy) for r in rects):
            continue
        if any(r[0] <= qx < r[2] and r[1] <= qy < r[3] for r in rects):
            continue
        wall = [i for i, r in placed.items() if r[2] == qx and r[0] < qx and r[1] <= qy < r[3]]
        floor = [i for i, r in placed.items() if r[3] == qy and r[1] < qy and r[0] <= qx < r[2]]
        if len(wall) == 1 and len(floor) == 1:
            out.append((qx, qy, wall[0], floor[0]))
    return out


def realize_triangulation_fraction(inst: TriangulationInstance) -> Layout:
    """``triangulation.realize_triangulation`` on Fraction rectangles,
    rebuilding the staircase from every placed rectangle at each step:
    concavities, overlaps and convexity come from full scans, not from
    the library's boundary list."""
    violation = validate_instance(inst)
    if violation is not None:
        raise InvalidInstanceError(f"{violation.kind}: {violation.detail}")
    vn, ve, vs, vw = inst.outer
    adj = {v: set(inst.rotation[v]) for v in inst.rotation}
    inner = sorted(set(inst.rotation) - set(inst.outer))

    span = sum((b.w + b.h for b in inst.boxes.values()), Fraction(1))
    placed = {
        vw: (-span, Fraction(0), Fraction(0), span),
        vs: (Fraction(0), -span, span, Fraction(0)),
    }
    unplaced = set(inner)

    while unplaced:
        progressed = False
        for qx, qy, wall, floor in _concavities(placed):
            common = sorted((adj[wall] & adj[floor] & unplaced))
            if not common:
                continue
            cand = inst.boxes[common[0]]
            rect = (qx, qy, qx + cand.w, qy + cand.h)
            if any(_overlaps(rect, r) for r in placed.values()):
                continue
            if not _rect_convex(list(placed.values()) + [rect]):
                continue
            placed[common[0]] = rect
            unplaced.discard(common[0])
            progressed = True
            break
        if not progressed:
            raise TriangulationInfeasibleError("stuck", sorted(unplaced))

    concs = _concavities(placed)
    ex = max((q[0] for q in concs if q[1] == 0), default=None)
    ey = max((q[1] for q in concs if q[0] == 0), default=None)
    if len(concs) != 2 or ex is None or ey is None or ex <= 0 or ey <= 0:
        raise TriangulationInfeasibleError("not-rectangle", [q[:2] for q in concs])

    bn, be, bs, bw = (inst.boxes[v] for v in (vn, ve, vs, vw))
    too_small = [
        side
        for side, ok in (
            (vn, bn.w >= ex),
            (vs, bs.w >= ex),
            (ve, be.h >= ey),
            (vw, bw.h >= ey),
        )
        if not ok
    ]
    if too_small:
        raise TriangulationInfeasibleError("outer-too-small", too_small)

    lay = Layout()
    for v in inner:
        x1, y1, _, _ = placed[v]
        lay.place(inst.boxes[v], x1, y1)
    lay.place(bw, -bw.w, 0)
    lay.place(bs, ex - bs.w, -bs.h)
    lay.place(bn, 0, ey)
    lay.place(be, ex, ey - be.h)
    return lay


GRID = Fraction(1, 64)


def layout_extent(layout: Layout, box_id: str) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """(x1, x2, y1, y2) of the closed rectangle."""
    box = layout.boxes[box_id]
    x, y = layout.pos[box_id]
    return (x, x + box.w, y, y + box.h)


def layout_bbox(layout: Layout) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """``geometry.int_bbox`` on Fraction extents."""
    if not layout.pos:
        z = Fraction(0)
        return (z, z, z, z)
    exts = [layout_extent(layout, i) for i in layout.pos]
    return (
        min(e[0] for e in exts),
        max(e[1] for e in exts),
        min(e[2] for e in exts),
        max(e[3] for e in exts),
    )


def pack_components_fraction(layouts) -> Layout:
    """``geometry.pack_components`` with the bounding boxes on Fractions."""
    merged = Layout()
    cursor = Fraction(0)
    for component in layouts:
        if not component.pos:
            continue
        x1, x2, y1, _ = layout_bbox(component)
        dx = cursor - x1
        for i, (x, y) in component.pos.items():
            if i in merged.boxes:
                raise DuplicateIdError(i)
            merged.boxes[i] = component.boxes[i]
            merged.pos[i] = (x + dx, y - y1)
        cursor += x2 - x1 + 1
    return merged


def detect_contacts_fraction(layout: Layout) -> List[Contact]:
    """``geometry.detect_contacts`` with the sweep on Fraction extents."""
    ids = sorted(layout.pos)
    exts = {i: layout_extent(layout, i) for i in ids}
    order = sorted(ids, key=lambda i: (exts[i][0], i))
    active: List[str] = []
    contacts: List[Contact] = []
    for cur in order:
        cx1, cx2, cy1, cy2 = exts[cur]
        keep = []
        for other in active:
            ox1, ox2, oy1, oy2 = exts[other]
            if ox2 < cx1:
                continue
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


def snap64_fraction(q: Fraction) -> Fraction:
    """``svg._snap`` (counted in 64ths) by Fraction division and ``round``."""
    return Fraction(round(q / GRID), 1) * GRID


def dec_fraction(q: Fraction) -> str:
    """``svg._dec64`` of ``svg._snap`` on Fractions."""
    q = snap64_fraction(q)
    sign = "-" if q < 0 else ""
    n = abs(q.numerator) * (1000000 // q.denominator)
    whole, frac = divmod(n, 1000000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")


def render_svg_fraction(lay: Layout, labels: Optional[Mapping[str, str]] = None) -> str:
    """``svg.render_svg`` with every number computed on Fractions."""
    labels = labels or {}
    x1, x2, y1, y2 = layout_bbox(lay)
    w = x2 - x1
    h = y2 - y1
    mx = max(w * Fraction(5, 100), GRID)
    my = max(h * Fraction(5, 100), GRID)
    vb_x = snap64_fraction(x1 - mx)
    vb_y = snap64_fraction(-(y2 + my))
    vb_w = snap64_fraction(w + 2 * mx)
    vb_h = snap64_fraction(h + 2 * my)
    stroke = max(snap64_fraction(min(vb_w, vb_h) / 200), GRID)
    dec = dec_fraction
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{dec(vb_x)} {dec(vb_y)} {dec(vb_w)} {dec(vb_h)}" '
        'font-family="sans-serif">'
    ]
    for bid in lay.ids():
        b = lay.boxes[bid]
        x, y = lay.pos[bid]
        parts.append(
            f'  <rect x="{dec(x)}" y="{dec(-(y + b.h))}" '
            f'width="{dec(b.w)}" height="{dec(b.h)}" '
            f'fill="{fill_color(bid)}" fill-opacity="0.85" '
            f'stroke="#333333" stroke-width="{dec(stroke)}"/>'
        )
    for bid in lay.ids():
        b = lay.boxes[bid]
        x, y = lay.pos[bid]
        label = labels.get(bid, bid)
        font = max(snap64_fraction(b.h * Fraction(7, 10)), GRID)
        parts.append(
            f'  <text x="{dec(x + b.w / 2)}" y="{dec(-(y + b.h / 2))}" '
            f'font-size="{dec(font)}" text-anchor="middle" '
            f'dominant-baseline="central" fill="#1a1a1a">'
            f"{_escape(label)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def box_dimensions_fraction(stats: WordStats, words: Sequence[str]) -> Dict[str, BoxSpec]:
    """``pipeline.box_dimensions`` with heights and widths as Fractions."""
    BASE_H = Fraction(2)
    MIN_H = Fraction(1, 2)

    def round64(q: Fraction) -> Fraction:
        return Fraction(math.floor(q * 64 + Fraction(1, 2)), 64)

    if not words:
        return {}
    max_freq = max(stats.freq[s] for s in words)
    out: Dict[str, BoxSpec] = {}
    for s in words:
        n64 = _round_root(
            64 * BASE_H.numerator,
            stats.freq[s] * max_freq,
            BASE_H.denominator * max_freq,
        )
        h = min(max(Fraction(n64, 64), MIN_H), BASE_H)
        w = max(round64(h * ASPECT * len(stats.label[s])), GRID)
        out[s] = BoxSpec(s, w, h)
    return out


# ---------------------------------------------------------------------------
# layout documents (the library writes them; only tests read them back)


def parse_layout(doc) -> Layout:
    """Rebuild the Layout; stored contact/profit fields are not trusted.
    Ids, dimensions and duplicates are checked for every box before any
    position is read."""
    boxes = _boxes(doc, "layout")
    lay = Layout()
    for i, (spec, entry) in enumerate(zip(boxes.values(), doc["boxes"])):
        where = f"layout.boxes[{i}]"
        x = parse_frac(_require(entry, "x", None, where), f"{where}.x")
        y = parse_frac(_require(entry, "y", None, where), f"{where}.y")
        lay.place(spec, x, y)
    detect_contacts(lay)  # raises OverlapError on an invalid layout
    return lay


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
    nbrs = {v: set(inst.rotation.get(v, ())) for v in ids}
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


COPRIME_DENS = (1, 2, 3, 5, 7, 11, 13)


def rand_layout(
    rng: random.Random, n: int, overlaps: bool = True, scale: Fraction = Fraction(1)
) -> Layout:
    """n boxes seated one by one, each against an earlier one: on a side
    at a random offset, corner to corner (NE on SW, or NW on SE), or, now
    and then, anywhere.  Every number draws its own denominator from
    COPRIME_DENS, the first box sits at negative coordinates, and the
    whole layout is multiplied by ``scale``.  With ``overlaps`` false a
    seat that overlaps an earlier box is redrawn (up to 20 times, then
    the box is left out)."""

    def frac(lo: int, hi: int) -> Fraction:
        d = rng.choice(COPRIME_DENS)
        return Fraction(rng.randint(lo * d, hi * d), d)

    seats: List[Tuple[str, Fraction, Fraction, Fraction, Fraction]] = []
    for i in range(n):
        w, h = frac(1, 4), frac(1, 4)
        for _ in range(20):
            if not seats:
                x, y = frac(-6, -1), frac(-6, -1)
            else:
                _, px, py, pw, ph = rng.choice(seats)
                x, y = {
                    "E": lambda: (px + pw, py + frac(-3, 3)),
                    "W": lambda: (px - w, py + frac(-3, 3)),
                    "N": lambda: (px + frac(-3, 3), py + ph),
                    "S": lambda: (px + frac(-3, 3), py - h),
                    "NE": lambda: (px + pw, py + ph),
                    "SW": lambda: (px - w, py - h),
                    "NW": lambda: (px - w, py + ph),
                    "SE": lambda: (px + pw, py - h),
                    "any": lambda: (frac(-6, 6), frac(-6, 6)),
                }[rng.choice(("E", "W", "N", "S", "NE", "SW", "NW", "SE", "any"))]()
            if overlaps or all(
                x >= qx + qw or qx >= x + w or y >= qy + qh or qy >= y + h
                for _, qx, qy, qw, qh in seats
            ):
                seats.append((f"b{i}", x, y, w, h))
                break
    lay = Layout()
    for bid, x, y, w, h in seats:
        lay.place(BoxSpec(bid, w * scale, h * scale), x * scale, y * scale)
    return lay


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


def rand_sparse_graph(rng: random.Random, n: int, m: int, dmax: int) -> ProfitGraph:
    """Random simple graph on n vertices with m edges and max degree <= dmax,
    drawn pair by pair, so m must stay well below n * dmax / 2."""
    ids = [f"v{i:05d}" for i in range(n)]
    g = ProfitGraph(ids)
    deg = dict.fromkeys(ids, 0)
    while m:
        a, b = rng.sample(ids, 2)
        if deg[a] < dmax and deg[b] < dmax and not g.has_edge(a, b):
            g.add_edge(a, b, rng.randrange(1, 4))
            deg[a] += 1
            deg[b] += 1
            m -= 1
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


def rand_hub_graph(rng: random.Random, hub_degrees: Sequence[int]) -> ProfitGraph:
    """Hubs of exactly the given degrees over a sparse rest: the hubs
    alone need all ceil(max_degree/2) colours of the cycle-cover
    colouring, while each other vertex has at most two arcs a side.

    Each hub joins a random sample of the rest (and, now and then, the
    other hub); the rest is two random partial matchings.  A path or
    cycle of 3-6 vertices is a component of its own, and 1-3 vertices are
    isolated.  Other degrees stay at most 4, so the largest hub sets k,
    and a hub of even degree 2k has exactly k arcs out and k in once
    oriented.  Names are shuffled, so hubs land anywhere in the sorted
    vertex order.
    """
    n_rest = max(hub_degrees) + rng.randrange(0, 20)
    n_far = rng.randrange(3, 7)
    names = [f"v{i:03d}" for i in range(len(hub_degrees) + n_rest + n_far + rng.randrange(1, 4))]
    rng.shuffle(names)
    hubs = names[: len(hub_degrees)]
    rest = names[len(hubs) : len(hubs) + n_rest]
    far = names[len(hubs) + n_rest : len(hubs) + n_rest + n_far]
    g = ProfitGraph(names)
    for _ in range(2):  # two random partial matchings: rest degrees <= 2
        order = rng.sample(rest, len(rest))
        for u, v in zip(order[::2], order[1::2]):
            if rng.random() < 0.6:
                g.add_edge(u, v, rng.randrange(1, 4))
    for u, v in zip(far, far[1:]):
        g.add_edge(u, v, rng.randrange(1, 4))
    if rng.random() < 0.5:
        g.add_edge(far[0], far[-1], 1)
    joined = len(hubs) == 2 and rng.random() < 0.5
    if joined:
        g.add_edge(hubs[0], hubs[1], 2)
    for hub, d in zip(hubs, hub_degrees):
        for v in rng.sample(rest, d - joined):
            g.add_edge(hub, v, rng.randrange(1, 4))
    return g


def _small_block(rng: random.Random) -> Tuple[int, List[Tuple[int, int]]]:
    """A K5, K3,3, wheel of 4-6 spokes or triangle on 0..n-1, as (n, edges)."""
    kind = rng.choice(("k5", "k33", "wheel", "triangle"))
    if kind == "k5":
        return 5, list(combinations(range(5), 2))
    if kind == "k33":
        return 6, [(a, b) for a in range(3) for b in range(3, 6)]
    if kind == "wheel":
        rim = rng.randrange(4, 7)
        return rim + 1, [(0, i) for i in range(1, rim + 1)] + [
            (i, i % rim + 1) for i in range(1, rim + 1)
        ]
    return 3, [(0, 1), (1, 2), (0, 2)]


def rand_block_graph(rng: random.Random) -> ProfitGraph:
    """2-6 small dense blocks (see ``_small_block``) glued at cut vertices
    into a chain or a tree, plus 1-8 cross edges between random vertices.

    A chain glues each block to a vertex of the one before, a tree to any
    earlier vertex.  Cross edges then span several blocks, so the greedy
    meets block paths of three or more blocks, pairs that keep failing,
    and rejects decided next to the pair.  Profits are 0..2 (many ties)
    or all distinct, and cross edges come last half the time, once the
    blocks have formed.  Names are shuffled, so the id order does not
    follow the construction.
    """
    edges: List[Tuple[int, int]] = []
    n = 0
    chain = rng.random() < 0.5
    prev: List[int] = []
    for _ in range(rng.randrange(2, 7)):
        size, block = _small_block(rng)
        if n:
            glue = rng.choice(prev if chain else range(n))
            label = [glue] + list(range(n, n + size - 1))
            n += size - 1
        else:
            label = list(range(size))
            n = size
        perm = label[:]
        rng.shuffle(perm)
        edges.extend((perm[a], perm[b]) for a, b in block)
        prev = label
    have = {frozenset(e) for e in edges}
    cross = []
    for _ in range(rng.randrange(1, 9)):
        a, b = rng.sample(range(n), 2)
        if frozenset((a, b)) not in have:
            have.add(frozenset((a, b)))
            cross.append((a, b))
    names = [f"v{i:02d}" for i in range(n + rng.randrange(2))]
    rng.shuffle(names)
    if rng.random() < 0.5:
        profits = [rng.randrange(3) for _ in edges + cross]
    else:
        profits = rng.sample(range(1, 1000), len(edges) + len(cross))
    if rng.random() < 0.5:  # cross edges last
        profits.sort(reverse=True)
    g = ProfitGraph(names)
    for (a, b), p in zip(edges + cross, profits):
        g.add_edge(names[a], names[b], p)
    return g


def rand_tree(rng: random.Random, n: int) -> List[Tuple[str, str]]:
    """Random tree on t0..t{n-1} by uniform attachment."""
    ids = [f"t{i}" for i in range(n)]
    return [(rng.choice(ids[:i]), ids[i]) for i in range(1, n)]


def rand_stacked_triangulation(rng: random.Random, n: int) -> List[Tuple[str, str]]:
    """Random stacked triangulation on s0..s{n-1}, n >= 3: each new vertex
    goes into a random face of the triangulation so far and joins its
    three corners, which gives 3n - 6 edges."""
    ids = [f"s{i}" for i in range(n)]
    edges = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[0], ids[2])]
    faces = [(0, 1, 2)] * 2  # the inside and the outside of the first triangle
    for v in range(3, n):
        corners = faces.pop(rng.randrange(len(faces)))
        edges += [(ids[u], ids[v]) for u in corners]
        a, b, c = corners
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return edges


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
    rng: random.Random, inner: int, perturb: bool, side: int = 4
) -> TriangulationInstance:
    """Dual of a random guillotine tiling of a side x side square, cut on
    integers into at most `inner` tiles, framed N/E/S/W.

    A tile too thin to cut, or a cut that would end at a tile corner and
    so make four tiles meet in a point, is passed over; the draw stops at
    `inner` tiles or after 32 * `inner` tries.

    With `perturb` false the boxes get the exact tile dimensions (so the
    instance is realizable by construction); with it true the dims are
    redrawn uniformly from 1..side, which may or may not stay realizable.
    The rotation system always comes from the true tiling geometry.
    """
    edge = Fraction(side)
    tiles: List[Tuple[Fraction, Fraction, Fraction, Fraction]] = [
        (Fraction(0), Fraction(0), edge, edge)
    ]
    corners: Set[Tuple[Fraction, Fraction]] = set()
    for _ in range(32 * inner):
        if len(tiles) >= inner:
            break
        i = rng.randrange(len(tiles))
        x1, y1, x2, y2 = tiles[i]
        vertical_ok = x2 - x1 >= 2
        horizontal_ok = y2 - y1 >= 2
        if not vertical_ok and not horizontal_ok:
            continue
        if vertical_ok and (not horizontal_ok or rng.random() < 0.5):
            cut = Fraction(rng.randrange(int(x1) + 1, int(x2)))
            ends = {(cut, y1), (cut, y2)}
            halves = [(x1, y1, cut, y2), (cut, y1, x2, y2)]
        else:
            cut = Fraction(rng.randrange(int(y1) + 1, int(y2)))
            ends = {(x1, cut), (x2, cut)}
            halves = [(x1, y1, x2, cut), (x1, cut, x2, y2)]
        if ends & corners:
            continue  # the cut would end at a tile corner: a 4-way junction
        corners |= ends
        tiles.pop(i)
        tiles += halves

    rects = {f"t{i}": t for i, t in enumerate(tiles)}
    big = Fraction(10)
    rects["N"] = (-big, edge, edge + big, edge + 1)
    rects["S"] = (-big, Fraction(-1), edge + big, Fraction(0))
    rects["E"] = (edge, Fraction(0), edge + 1, edge)
    rects["W"] = (Fraction(-1), Fraction(0), Fraction(0), edge)

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
            w, h = edge, Fraction(1)
        elif v in "EW":
            w, h = Fraction(1), edge
        else:
            w, h = x2 - x1, y2 - y1
        if perturb:
            w = Fraction(rng.randrange(1, side + 1))
            h = Fraction(rng.randrange(1, side + 1))
        boxes[v] = BoxSpec(v, w, h)
    return TriangulationInstance(boxes, rotation, ("N", "E", "S", "W"))
