"""Exact solver for hierarchies: an embedded single-sink DAG of boxes.

Every edge points from a child up to its parent and must be realized as a
vertical contact (child top touching parent bottom, x-overlap at least
delta).  The y-coordinates are forced by propagation from the sink; the
x-coordinates come from a difference-constraint system built by sweeping
a horizontal line downward and keeping the alive boxes ordered.

Rotation convention: ``rotation[v]`` lists the neighbors of v in
counterclockwise order.  The incoming block (which is contiguous when the
embedding is bimodal), read in that ccw order, gives the left-to-right
order of v's predecessors below it.  For a vertex with no outgoing edge
(the sink) the list is taken as already starting at the leftmost child.
"""

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import HierInfeasibleError, ParameterError
from .geometry import BoxSpec, Layout, on_unit, rat, require_boxes


@dataclass(frozen=True)
class EmbeddedDag:
    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    rotation: Mapping[str, Tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(
            self, "rotation", {v: tuple(r) for v, r in self.rotation.items()}
        )
        ins: Dict[str, List[str]] = {v: [] for v in self.vertices}  # one entry per edge
        outs: Dict[str, List[str]] = {v: [] for v in self.vertices}
        if len(ins) != len(self.vertices):
            twice = next(v for v, n in Counter(self.vertices).items() if n > 1)
            raise ParameterError(f"vertex {twice!r} is repeated")
        for e in self.edges:
            try:
                u, v = e
                outs[u].append(v)
                ins[v].append(u)
            except (ValueError, KeyError):
                raise ParameterError(f"edge {e!r} is not a pair of vertices") from None
        for v in self.rotation:
            if v not in ins:
                raise ParameterError(f"rotation at {v!r}, which is not a vertex")
        object.__setattr__(self, "_in", ins)
        object.__setattr__(self, "_out", outs)
        object.__setattr__(self, "_ins", {v: set(us) for v, us in ins.items()})

    def sink(self) -> str:
        sinks = [v for v in self.vertices if not self._out[v]]
        if len(sinks) != 1:
            raise ParameterError(f"expected exactly one sink, found {sinks}")
        return sinks[0]

    def predecessors(self, v: str) -> List[str]:
        """In-neighbors of v, left to right per the rotation convention."""
        ins = self._ins.get(v, ())
        rot = self.rotation.get(v, ())
        k = len(rot)
        start = 0
        for i in range(k):
            if rot[i] in ins and rot[(i - 1) % k] not in ins:
                start = i
                break
        block = [rot[(start + i) % k] for i in range(k)]
        return [u for u in block if u in ins][: len(ins)]


@dataclass(frozen=True)
class EmbeddingViolation:
    kind: str  # rotation | cycle | sink | bimodal
    vertex: Optional[str]
    detail: str


def validate_embedding(dag: EmbeddedDag) -> Optional[EmbeddingViolation]:
    """First structural violation, or None when the input is usable.

    Checks, in order: rotation lists match the incident edges, the edge
    set is acyclic, there is exactly one sink, and at each vertex the
    incoming and outgoing edges are contiguous in the rotation.  Every
    vertex then reaches the sink, so that needs no check of its own.
    """
    for v in sorted(dag.vertices):
        if sorted(dag.rotation.get(v, ())) != sorted(dag._in[v] + dag._out[v]):
            return EmbeddingViolation(
                "rotation", v, f"rotation at {v!r} does not list its neighbors"
            )

    indeg = {v: len(dag._in[v]) for v in dag.vertices}
    work = sorted(v for v in dag.vertices if not indeg[v])
    while work:
        v = work.pop()
        for w in dag._out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                work.append(w)
    if any(indeg.values()):  # a vertex on or past a cycle keeps an in-edge
        culprit = min(v for v in dag.vertices if indeg[v] > 0)
        return EmbeddingViolation("cycle", culprit, f"directed cycle through {culprit!r}")

    sinks = sorted(v for v in dag.vertices if not dag._out[v])
    if len(sinks) != 1:
        return EmbeddingViolation(
            "sink", sinks[0] if sinks else None, f"expected one sink, found {sinks}"
        )
    # Every vertex reaches the sink: out-walks of an acyclic graph end at a sink.

    for v in sorted(dag.vertices):
        rot = dag.rotation.get(v, ())
        labels = [u in dag._ins[v] for u in rot]
        flips = sum(1 for i in range(len(labels)) if labels[i] != labels[i - 1])
        if flips > 2:
            return EmbeddingViolation(
                "bimodal", v, f"incoming edges not contiguous around {v!r}"
            )
    return None


def assign_y(dag: EmbeddedDag, heights: Mapping[str, Fraction]) -> Dict[str, Tuple[Fraction, Fraction]]:
    """Forced (top, bottom) per box: sink top 0, child top = parent bottom.

    Raises HierInfeasibleError("assign_y", [box, top_a, top_b]) when two
    parents force different tops on one box, and ParameterError names
    the first vertex with no height.
    """
    missing = [v for v in dag.vertices if v not in heights]
    if missing:
        raise ParameterError(f"vertex {missing[0]!r} has no height")
    sink = dag.sink()
    top: Dict[str, Fraction] = {sink: Fraction(0)}
    queue = [sink]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        bottom = top[v] - rat(heights[v])
        for u in sorted(dag._ins[v]):
            if u in top:
                if top[u] != bottom:
                    raise HierInfeasibleError("assign_y", [u, top[u], bottom])
            else:
                top[u] = bottom
                queue.append(u)
    return {v: (top[v], top[v] - rat(heights[v])) for v in dag.vertices}


def sweep_order(
    dag: EmbeddedDag, y: Mapping[str, Tuple[Fraction, Fraction]]
) -> List[Tuple[str, str]]:
    """Left-of constraints from the downward sweep.

    The alive list starts as [sink]; at each bottom level every ended box
    is replaced, in list order, by its not-yet-alive predecessors in
    embedding order.  After each event the consecutive pairs of the new
    list are emitted (first occurrence only) as (a, b) meaning
    r_a <= l_b, then the consecutive pairs of each ended box's
    predecessors that the list did not hold: a predecessor shared with a
    box to the left must come first, and when it does not, the two pairs
    contradict and solve_x reports the cycle.  ParameterError names the
    first vertex with no (top, bottom) in ``y``.
    """
    missing = [v for v in dag.vertices if v not in y]
    if missing:
        raise ParameterError(f"vertex {missing[0]!r} has no level")
    sink = dag.sink()
    lst = [sink]
    entered = {sink}
    constraints: List[Tuple[str, str]] = []
    seen = set()
    for level in sorted({y[v][1] for v in dag.vertices}, reverse=True):
        # A level where no alive box ends keeps lst and emits only seen pairs.
        nxt: List[str] = []
        pred_pairs: List[Tuple[str, str]] = []
        for v in lst:
            if y[v][1] != level:
                nxt.append(v)
                continue
            preds = dag.predecessors(v)
            pred_pairs.extend(zip(preds, preds[1:]))
            for u in preds:
                if u not in entered:
                    entered.add(u)
                    nxt.append(u)
        lst = nxt
        for a, b in [*zip(lst, lst[1:]), *pred_pairs]:
            if (a, b) not in seen:
                seen.add((a, b))
                constraints.append((a, b))
    return constraints


def solve_x(
    widths: Mapping[str, Fraction],
    edges: Sequence[Tuple[str, str]],
    order: Sequence[Tuple[str, str]],
    delta,
    anchor: str,
) -> Dict[str, Fraction]:
    """Left coordinates satisfying contact-overlap and ordering constraints.

    Everything is a difference constraint after substituting r = l + w:
    an edge (i, j) needs l_j - l_i <= w_i - delta and l_i - l_j <=
    w_j - delta; an order pair (a, b) needs l_a - l_b <= -w_a.  Solved by
    shortest paths from the anchor (l_anchor = 0), which a queue
    (Bellman-Ford-Tarjan, ``_queue_distances``) finds.  The first negative
    cycle the queue closes is the witness: HierInfeasibleError("solve_x",
    [descriptors around that cycle, in walk order]).  An endpoint or
    anchor with no width, or a vertex the anchor does not reach, raises
    ParameterError.

    The shortest paths run on integers over vertex numbers (the order of
    ``widths``): every cost is counted in units of 1/unit, unit = lcm of
    the denominators of delta and the widths.  Scaling by a positive
    integer keeps every comparison, so distances are those of the same
    search on Fractions.
    """
    delta = rat(delta)
    widths = {v: rat(w) for v, w in widths.items()}
    unit, (delta_u, *w_u) = on_unit([delta, *widths.values()])
    index = {v: k for k, v in enumerate(widths)}
    out: List[List[Tuple[int, int, Tuple[str, str, str]]]] = [[] for _ in index]
    try:
        for i, j in edges:
            a, b = index[i], index[j]
            out[a].append((b, w_u[a] - delta_u, ("edge", i, j)))
            out[b].append((a, w_u[b] - delta_u, ("edge", i, j)))
        for i, j in order:
            a, b = index[i], index[j]
            out[b].append((a, -w_u[a], ("order", i, j)))
        source = index[anchor]
    except KeyError as err:
        raise ParameterError(f"vertex {err.args[0]!r} has no width") from None
    dist = _queue_distances(out, source)
    missing = sorted(v for v, d in zip(widths, dist) if d is None)
    if missing:
        raise ParameterError(f"vertices {missing} unconstrained from anchor {anchor!r}")
    return {v: Fraction(d, unit) for v, d in zip(widths, dist)}


def _queue_distances(out: List[List[Tuple[int, int, Tuple]]], source: int) -> List[Optional[int]]:
    """Distances from ``source`` over the arcs ``out[u] = [(v, cost, why),
    ...]``, None where it does not reach.  Bellman-Ford-Tarjan: a FIFO
    queue over a shortest-path tree of tight arcs.  Before v takes a
    shorter distance through u, v's subtree leaves the tree and the queue,
    as its distances came through v's old one.  Meeting u there (or
    u == v) closes a negative cycle, the tree path from v down to u and
    then (u, v): its tree arcs are tight, so it costs d[u] + c - d[v] < 0.
    Raises HierInfeasibleError("solve_x", [the arcs' ``why``, in walk
    order]).
    """
    n = len(out)
    dist: List[Optional[int]] = [None] * n
    parent: List[Optional[int]] = [None] * n  # stale once out of the tree
    link: List[Optional[Tuple]] = [None] * n  # why of the tree arc into v
    kids: List[List[int]] = [[] for _ in range(n)]  # may hold stale entries
    queued = [False] * n
    dist[source] = 0
    queued[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if not queued[u]:  # left the queue with a disassembled subtree
            continue
        queued[u] = False
        du = dist[u]
        for v, c, why in out[u]:
            dv = dist[v]
            if dv is not None and du + c >= dv:
                continue
            stack = [v]
            while stack:
                w = stack.pop()
                if w == u:
                    cycle = [why]
                    while w != v:
                        cycle.append(link[w])
                        w = parent[w]
                    raise HierInfeasibleError("solve_x", cycle[::-1])
                for x in kids[w]:
                    if parent[x] == w:
                        queued[x] = False
                        stack.append(x)
                kids[w].clear()
            dist[v] = du + c
            parent[v] = u
            link[v] = why
            kids[u].append(v)
            if not queued[v]:
                queued[v] = True
                queue.append(v)
    return dist


def default_delta(boxes: Mapping[str, BoxSpec]) -> Fraction:
    return min(b.w for b in boxes.values()) / 1000


def solve_hier(dag: EmbeddedDag, boxes: Mapping[str, BoxSpec], delta=None) -> Layout:
    """Layout realizing every DAG edge as a vertical contact (overlap >= delta).

    Raises HierInfeasibleError with stage "embedding", "assign_y" or
    "solve_x" and the sub-step's witness when no such layout exists, and
    ParameterError when delta is not positive or a vertex has no box.
    """
    if delta is not None:
        delta = rat(delta)
        if delta <= 0:
            raise ParameterError(f"delta must be positive, got {delta}")
    require_boxes(dag.vertices, boxes)
    violation = validate_embedding(dag)
    if violation is not None:
        raise HierInfeasibleError("embedding", violation)
    if delta is None:  # a valid embedding has a sink, so boxes is not empty
        delta = default_delta(boxes)

    y = assign_y(dag, {v: boxes[v].h for v in dag.vertices})
    order = sweep_order(dag, y)
    left = solve_x(
        {v: boxes[v].w for v in dag.vertices}, dag.edges, order, delta, dag.sink()
    )

    lay = Layout()
    for v in dag.vertices:
        lay.place(boxes[v], left[v], y[v][1])
    return lay
