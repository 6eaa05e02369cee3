"""Decision and realization for box contact systems over 4-sided triangulations.

The input is a plane graph whose outer face is the quadrangle N, E, S, W
(clockwise), internally triangulated, with no separating triangle (every
triangle bounds a face).  Realization grows a staircase from the corner
between two sentinel rays standing in for the W and S boxes: at each
step a concavity of the placed region admits at most one unplaced box
(the common neighbor of the two rectangles forming the corner), and a
placement is applicable when the region stays rectilinearly convex.  At
the end the inner boxes must tile a rectangle that the four outer boxes
can wrap.

The placed region is kept as its up-right boundary, a list of points
from the W ray's top-left corner to the S ray's bottom-right one.  It
stays a staircase: the rays cover x <= 0 and y <= 0 beside the quadrant
and each placement keeps the union orthogonally convex, so the placed
part of the quadrant is a down-set.  A box on an inner corner therefore
never overlaps, and keeps the union convex exactly when the wall above
the corner and the floor right of it are long enough.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import InvalidInstanceError, TriangulationInfeasibleError
from .geometry import BoxSpec, Layout, on_unit

@dataclass(frozen=True)
class TriangulationInstance:
    boxes: Mapping[str, BoxSpec]
    rotation: Mapping[str, Tuple[str, ...]]
    outer: Tuple[str, str, str, str]  # N, E, S, W in clockwise order

    def __post_init__(self):
        object.__setattr__(self, "boxes", dict(self.boxes))
        object.__setattr__(
            self, "rotation", {v: tuple(r) for v, r in self.rotation.items()}
        )
        object.__setattr__(self, "outer", tuple(self.outer))
        # keyed by every box and rotation key: a box with no rotation has no neighbour
        adj = {v: set(self.rotation.get(v, ())) for v in {**self.boxes, **self.rotation}}
        object.__setattr__(self, "_adj", adj)

    def edges(self) -> List[Tuple[str, str]]:
        return sorted({(min(u, v), max(u, v)) for v, us in self._adj.items() for u in us})


@dataclass(frozen=True)
class InstanceViolation:
    kind: str  # boxes | rotation | connected | planar | outer | faces | separating
    detail: str


def _trace_faces(
    rotation: Mapping[str, Tuple[str, ...]], nbrs: Mapping[str, List[str]]
) -> List[List[str]]:
    """Orbits of the face-tracing map; each orbit listed by visited vertex
    and started from its least dart (u, v), u in ``nbrs`` order and v in
    ``nbrs[u]``."""
    nxt = {}
    for v, rot in rotation.items():
        for i, u in enumerate(rot):
            nxt[(u, v)] = (v, rot[(i + 1) % len(rot)])
    faces = []
    seen = set()
    for dart in ((u, v) for u, vs in nbrs.items() for v in vs):
        if dart in seen:
            continue
        face = []
        d = dart
        while d not in seen:
            seen.add(d)
            face.append(d[0])
            d = nxt[d]
        faces.append(face)
    return faces


def validate_instance(inst: TriangulationInstance) -> Optional[InstanceViolation]:
    """First structural violation, or None when the instance is well formed."""
    adj = inst._adj
    verts = sorted(adj)
    if len(set(inst.outer)) != 4 or any(v not in adj for v in inst.outer):
        return InstanceViolation("outer", f"outer cycle {inst.outer} must be 4 distinct vertices")
    for v in verts:
        if v not in inst.boxes:
            return InstanceViolation("boxes", f"no box for vertex {v!r}")
        rot = inst.rotation.get(v, ())
        if len(adj[v]) != len(rot) or v in adj[v]:
            return InstanceViolation("rotation", f"rotation at {v!r} repeats or loops")
        for u in rot:
            if u not in adj or v not in adj[u]:
                return InstanceViolation("rotation", f"edge {v!r}-{u!r} is one-sided")

    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(verts):
        return InstanceViolation("connected", "graph is not connected")

    nbrs = {v: sorted(adj[v]) for v in verts}
    n_edges = sum(len(rot) for rot in inst.rotation.values()) // 2  # each edge listed at both ends
    faces = _trace_faces(inst.rotation, nbrs)
    if len(verts) - n_edges + len(faces) != 2:
        return InstanceViolation("planar", "rotation system is not a plane embedding")

    ring = inst.outer + inst.outer
    rings = {r[i : i + 4] for r in (ring, ring[::-1]) for i in range(4)}  # both directions
    outer_faces = [f for f in faces if tuple(f) in rings]
    if len(outer_faces) != 1:
        return InstanceViolation("outer", f"outer cycle {inst.outer} bounds {len(outer_faces)} faces")
    inner = [f for f in faces if f is not outer_faces[0]]
    for f in inner:
        # three darts of a loopless graph visit three distinct vertices
        if len(f) != 3:
            return InstanceViolation("faces", f"inner face {f} is not a triangle")

    face_tris: Set[frozenset] = {frozenset(f) for f in inner}
    for a in verts:
        for b in (b for b in nbrs[a] if b > a):
            for c in (c for c in nbrs[b] if c > b and c in adj[a]):
                if frozenset((a, b, c)) not in face_tris:
                    return InstanceViolation("separating", f"triangle ({a}, {b}, {c}) bounds no face")
    return None


def _concavities(
    stair: Sequence[Tuple[int, int, Optional[str]]], tops: Set[Tuple[int, int]]
) -> List[Tuple[int, int, int, str, str]]:
    """Inner corners (a vertical step, then a horizontal one) that can
    host a box, left to right: (index, x, y, wall id, floor id).  A placed
    box's top-right corner never can."""
    return [
        (i, x, y, stair[i - 1][2], floor)
        for i, (x, y, floor) in enumerate(stair[1:-1], 1)
        if stair[i - 1][0] == x and stair[i + 1][1] == y and (x, y) not in tops
    ]


def _place(
    stair: List[Tuple[int, int, Optional[str]]], tops: Set[Tuple[int, int]], i: int, v: str, w: int, h: int
) -> bool:
    """Splice the w x h box ``v`` into the inner corner ``stair[i]`` and
    note its top-right corner, unless the wall above the corner is under
    h high or the floor right of it under w long (the union would stop
    being convex)."""
    qx, qy, _ = stair[i]
    # b: the topmost wall point at or below qy + h; d: the first point
    # past the floor, or the first floor point at or right of qx + w
    b = i
    while stair[b - 1][0] == qx and stair[b - 1][1] <= qy + h:
        b -= 1
    d = i + 1
    while stair[d][1] == qy and stair[d][0] < qx + w:
        d += 1
    if not (stair[b - 1][0] == qx or stair[b][1] == qy + h) or stair[d][1] != qy:
        return False
    # the floor point at qx + w keeps the owner of the floor piece under it
    right = [] if stair[d][0] == qx + w else [(qx + w, qy, stair[d - 1][2])]
    stair[b:d] = [(qx, qy + h, v), (qx + w, qy + h, v)] + right
    tops.add((qx + w, qy + h))
    return True


def realize_triangulation(inst: TriangulationInstance) -> Layout:
    """Layout realizing every edge, or a staged infeasibility.

    Stages: "stuck" (some inner box can never be placed), "not-rectangle"
    (inner boxes do not close up to a rectangle), "outer-too-small" (the
    frame boxes cannot wrap the inner rectangle).

    The staircase is a list of points (x, y, owner), the owner's edge
    running on to the next point, beside the set of placed boxes'
    top-right corners.  It runs on integers: coordinates are counted in
    units of 1/unit, unit = lcm of the denominators of every box
    dimension, and turn back into Fractions only in the layout and the
    witnesses.
    """
    violation = validate_instance(inst)
    if violation is not None:
        raise InvalidInstanceError(f"{violation.kind}: {violation.detail}")
    vn, ve, vs, vw = inst.outer
    inner = sorted(set(inst._adj) - set(inst.outer))

    unit, counts = on_unit(d for b in inst.boxes.values() for d in (b.w, b.h))
    dims = dict(zip(inst.boxes, zip(counts[::2], counts[1::2])))
    span = sum(w + h for w, h in dims.values()) + unit
    stair = [(-span, span, vw), (0, span, vw), (0, 0, vs), (span, 0, vs), (span, -span, None)]
    tops: Set[Tuple[int, int]] = set()
    corner: Dict[str, Tuple[int, int]] = {}
    unplaced = set(inner)

    while unplaced:
        for i, qx, qy, wall, floor in _concavities(stair, tops):
            v = min(inst._adj[wall] & inst._adj[floor] & unplaced, default=None)
            if v is not None and _place(stair, tops, i, v, *dims[v]):
                corner[v] = (qx, qy)
                unplaced.discard(v)
                break
        else:
            raise TriangulationInfeasibleError("stuck", sorted(unplaced))

    concs = _concavities(stair, tops)
    ex = max((q[1] for q in concs if q[2] == 0), default=None)
    ey = max((q[2] for q in concs if q[1] == 0), default=None)
    if len(concs) != 2 or ex is None or ey is None or ex <= 0 or ey <= 0:
        raise TriangulationInfeasibleError(
            "not-rectangle", [(Fraction(x, unit), Fraction(y, unit)) for _, x, y, _, _ in concs]
        )
    ex, ey = Fraction(ex, unit), Fraction(ey, unit)

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
        x, y = corner[v]
        lay.place(inst.boxes[v], Fraction(x, unit), Fraction(y, unit))
    lay.place(bw, -bw.w, 0)
    lay.place(bs, ex - bs.w, -bs.h)
    lay.place(bn, 0, ey)
    lay.place(be, ex, ey - be.h)
    return lay
