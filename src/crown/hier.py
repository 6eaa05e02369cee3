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

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import HierInfeasibleError, ParameterError, XInfeasibleError, YConflictError
from .geometry import BoxSpec, Layout, rat


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
        known = set(self.vertices)
        for u, v in self.edges:
            if u not in known or v not in known:
                raise ParameterError(f"edge ({u!r}, {v!r}) references unknown vertex")

    def sink(self) -> str:
        outs = {u for u, _ in self.edges}
        sinks = [v for v in self.vertices if v not in outs]
        if len(sinks) != 1:
            raise ParameterError(f"expected exactly one sink, found {sinks}")
        return sinks[0]

    def predecessors(self, v: str) -> List[str]:
        """In-neighbors of v, left to right per the rotation convention."""
        ins = {u for u, w in self.edges if w == v}
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
    kind: str  # rotation | cycle | sink | reach | bimodal
    vertex: Optional[str]
    detail: str


def validate_embedding(dag: EmbeddedDag) -> Optional[EmbeddingViolation]:
    """First structural violation, or None when the input is usable.

    Checks, in order: rotation lists match the incident edges, the edge
    set is acyclic, there is exactly one sink, every vertex reaches it,
    and at each vertex the incoming and outgoing edges are contiguous in
    the rotation.
    """
    incident: Dict[str, List[str]] = {v: [] for v in dag.vertices}
    for u, v in dag.edges:
        incident[u].append(v)
        incident[v].append(u)
    for v in sorted(dag.vertices):
        if sorted(dag.rotation.get(v, ())) != sorted(incident[v]):
            return EmbeddingViolation(
                "rotation", v, f"rotation at {v!r} does not list its neighbors"
            )

    outs: Dict[str, List[str]] = {v: [] for v in dag.vertices}
    indeg = {v: 0 for v in dag.vertices}
    for u, v in dag.edges:
        outs[u].append(v)
        indeg[v] += 1
    queue = sorted(v for v in dag.vertices if indeg[v] == 0)
    seen = 0
    work = list(queue)
    while work:
        v = work.pop()
        seen += 1
        for w in outs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                work.append(w)
    if seen != len(dag.vertices):
        culprit = min(v for v in dag.vertices if indeg[v] > 0)
        return EmbeddingViolation("cycle", culprit, f"directed cycle through {culprit!r}")

    sinks = sorted(v for v in dag.vertices if not outs[v])
    if len(sinks) != 1:
        return EmbeddingViolation(
            "sink", sinks[0] if sinks else None, f"expected one sink, found {sinks}"
        )
    sink = sinks[0]

    reach = {sink}
    frontier = [sink]
    ins: Dict[str, List[str]] = {v: [] for v in dag.vertices}
    for u, v in dag.edges:
        ins[v].append(u)
    while frontier:
        v = frontier.pop()
        for u in ins[v]:
            if u not in reach:
                reach.add(u)
                frontier.append(u)
    if len(reach) != len(dag.vertices):
        culprit = min(set(dag.vertices) - reach)
        return EmbeddingViolation("reach", culprit, f"{culprit!r} cannot reach the sink")

    edge_set = set(dag.edges)
    for v in sorted(dag.vertices):
        rot = dag.rotation.get(v, ())
        labels = [(u, v) in edge_set for u in rot]
        flips = sum(1 for i in range(len(labels)) if labels[i] != labels[i - 1])
        if flips > 2:
            return EmbeddingViolation(
                "bimodal", v, f"incoming edges not contiguous around {v!r}"
            )
    return None


def assign_y(dag: EmbeddedDag, heights: Mapping[str, Fraction]) -> Dict[str, Tuple[Fraction, Fraction]]:
    """Forced (top, bottom) per box: sink top 0, child top = parent bottom."""
    sink = dag.sink()
    ins: Dict[str, List[str]] = {v: [] for v in dag.vertices}
    for u, v in dag.edges:
        ins[v].append(u)
    top: Dict[str, Fraction] = {sink: Fraction(0)}
    queue = [sink]
    while queue:
        v = queue.pop(0)
        bottom = top[v] - rat(heights[v])
        for u in sorted(ins[v]):
            if u in top:
                if top[u] != bottom:
                    raise YConflictError(u, top[u], bottom)
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
    r_a <= l_b.
    """
    sink = dag.sink()
    lst = [sink]
    entered = {sink}
    constraints: List[Tuple[str, str]] = []
    seen = set()
    for level in sorted({y[v][1] for v in dag.vertices}, reverse=True):
        ending = [v for v in lst if y[v][1] == level]
        if not ending:
            continue
        nxt: List[str] = []
        for v in lst:
            if y[v][1] != level:
                nxt.append(v)
                continue
            for u in dag.predecessors(v):
                if u not in entered:
                    entered.add(u)
                    nxt.append(u)
        lst = nxt
        for a, b in zip(lst, lst[1:]):
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
    shortest paths from the anchor (l_anchor = 0); a negative cycle is
    returned as the list of constraints around it.
    """
    delta = rat(delta)
    cons: List[Tuple[str, str, Fraction, Tuple]] = []
    for i, j in edges:
        cons.append((i, j, rat(widths[i]) - delta, ("edge", i, j)))
        cons.append((j, i, rat(widths[j]) - delta, ("edge", i, j)))
    for a, b in order:
        cons.append((b, a, -rat(widths[a]), ("order", a, b)))

    dist: Dict[str, Optional[Fraction]] = {v: None for v in widths}
    pred: Dict[str, int] = {}
    dist[anchor] = Fraction(0)
    n = len(dist)

    def relax_pass() -> Optional[str]:
        hit = None
        for idx, (u, v, c, _) in enumerate(cons):
            if dist[u] is not None and (dist[v] is None or dist[u] + c < dist[v]):
                dist[v] = dist[u] + c
                pred[v] = idx
                hit = v
        return hit

    last = None
    for _ in range(n):
        last = relax_pass()
        if last is None:
            missing = sorted(v for v, d in dist.items() if d is None)
            if missing:
                raise ParameterError(f"vertices {missing} unconstrained from anchor {anchor!r}")
            return dict(dist)
    # A relaxation in the n-th pass means a negative cycle.  Any cycle of
    # predecessor pointers has negative weight, so keep relaxing until the
    # pointers close one, then report the constraints around it.
    for _ in range(4 * n + 4):
        cyc = _pred_cycle(last, pred, cons, n)
        if cyc is not None:
            raise XInfeasibleError(cyc)
        last = relax_pass() or last
    raise XInfeasibleError([cons[pred[last]][3]])  # pragma: no cover


def _pred_cycle(v: str, pred: Dict[str, int], cons, n: int):
    """Constraint descriptors around a predecessor-pointer cycle, if any."""
    x = v
    for _ in range(n):
        if x not in pred:
            return None
        x = cons[pred[x]][0]
    at: Dict[str, int] = {}
    trail: List[int] = []
    while x in pred:
        if x in at:
            return [cons[i][3] for i in trail[at[x] :][::-1]]
        at[x] = len(trail)
        trail.append(pred[x])
        x = cons[pred[x]][0]
    return None


def default_delta(boxes: Mapping[str, BoxSpec]) -> Fraction:
    return min(b.w for b in boxes.values()) / 1000


def solve_hier(dag: EmbeddedDag, boxes: Mapping[str, BoxSpec], delta=None) -> Layout:
    """Layout realizing every DAG edge as a vertical contact (overlap >= delta).

    Raises HierInfeasibleError with stage "embedding", "assign_y" or
    "solve_x" and the sub-step's witness when no such layout exists, and
    ParameterError when delta is not positive.
    """
    if delta is not None:
        delta = rat(delta)
        if delta <= 0:
            raise ParameterError(f"delta must be positive, got {delta}")
    violation = validate_embedding(dag)
    if violation is not None:
        raise HierInfeasibleError("embedding", violation)
    if delta is None:  # a valid embedding has a sink, so boxes is not empty
        delta = default_delta(boxes)

    try:
        y = assign_y(dag, {v: boxes[v].h for v in dag.vertices})
    except YConflictError as err:
        raise HierInfeasibleError("assign_y", err) from err

    order = sweep_order(dag, y)
    try:
        left = solve_x(
            {v: boxes[v].w for v in dag.vertices}, dag.edges, order, delta, dag.sink()
        )
    except XInfeasibleError as err:
        raise HierInfeasibleError("solve_x", err) from err

    lay = Layout()
    for v in dag.vertices:
        lay.place(boxes[v], left[v], y[v][1])
    return lay
