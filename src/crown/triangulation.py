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
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import InvalidInstanceError, TriangulationInfeasibleError
from .geometry import BoxSpec, Layout, denominator_lcm

Rect = Tuple[int, int, int, int]  # x1, y1, x2, y2 in units of 1/unit


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

    def edges(self) -> List[Tuple[str, str]]:
        out = set()
        for v, rot in self.rotation.items():
            for u in rot:
                out.add((u, v) if u < v else (v, u))
        return sorted(out)


@dataclass(frozen=True)
class InstanceViolation:
    kind: str  # boxes | rotation | connected | planar | outer | faces | separating
    detail: str


def _trace_faces(rotation: Mapping[str, Tuple[str, ...]]) -> List[List[str]]:
    """Orbits of the face-tracing map; each orbit listed by visited vertex."""
    nxt = {}
    for v, rot in rotation.items():
        for i, u in enumerate(rot):
            nxt[(u, v)] = (v, rot[(i + 1) % len(rot)])
    faces = []
    seen = set()
    for dart in sorted(nxt):
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


def _cyclic_match(seq: Sequence[str], target: Sequence[str]) -> bool:
    if len(seq) != len(target):
        return False
    doubled = list(seq) + list(seq)
    fwd = list(target)
    rev = list(target)[::-1]
    return any(
        doubled[i : i + len(seq)] in (fwd, rev) for i in range(len(seq))
    )


def validate_instance(inst: TriangulationInstance) -> Optional[InstanceViolation]:
    """First structural violation, or None when the instance is well formed."""
    verts = sorted(inst.rotation)
    if len(set(inst.outer)) != 4 or any(v not in inst.rotation for v in inst.outer):
        return InstanceViolation("outer", f"outer cycle {inst.outer} must be 4 distinct vertices")
    for v in verts:
        if v not in inst.boxes:
            return InstanceViolation("boxes", f"no box for vertex {v!r}")
        rot = inst.rotation[v]
        if len(set(rot)) != len(rot) or v in rot:
            return InstanceViolation("rotation", f"rotation at {v!r} repeats or loops")
        for u in rot:
            if u not in inst.rotation or v not in inst.rotation[u]:
                return InstanceViolation("rotation", f"edge {v!r}-{u!r} is one-sided")

    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in inst.rotation[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(verts):
        return InstanceViolation("connected", "graph is not connected")

    n_edges = len(inst.edges())
    faces = _trace_faces(inst.rotation)
    if len(verts) - n_edges + len(faces) != 2:
        return InstanceViolation("planar", "rotation system is not a plane embedding")

    outer_faces = [f for f in faces if _cyclic_match(f, inst.outer)]
    if len(outer_faces) != 1:
        return InstanceViolation("outer", f"outer cycle {inst.outer} bounds {len(outer_faces)} faces")
    inner = [f for f in faces if f is not outer_faces[0]]
    for f in inner:
        if len(f) != 3 or len(set(f)) != 3:
            return InstanceViolation("faces", f"inner face {f} is not a triangle")

    face_tris: Set[frozenset] = {frozenset(f) for f in inner}
    adj = {v: set(inst.rotation[v]) for v in verts}
    for a, b, c in itertools.combinations(verts, 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            if frozenset((a, b, c)) not in face_tris:
                return InstanceViolation("separating", f"triangle ({a}, {b}, {c}) bounds no face")
    return None


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


def realize_triangulation(inst: TriangulationInstance) -> Layout:
    """Layout realizing every edge, or a staged infeasibility.

    Stages: "stuck" (some inner box can never be placed), "not-rectangle"
    (inner boxes do not close up to a rectangle), "outer-too-small" (the
    frame boxes cannot wrap the inner rectangle).

    The staircase runs on integers: coordinates are counted in units of
    1/unit, unit = lcm of the denominators of every box dimension, and
    turn back into Fractions only in the layout and the witnesses.
    """
    violation = validate_instance(inst)
    if violation is not None:
        raise InvalidInstanceError(f"{violation.kind}: {violation.detail}")
    vn, ve, vs, vw = inst.outer
    adj = {v: set(inst.rotation[v]) for v in inst.rotation}
    inner = sorted(set(inst.rotation) - set(inst.outer))

    unit = denominator_lcm(d for b in inst.boxes.values() for d in (b.w, b.h))
    dims = {v: (int(b.w * unit), int(b.h * unit)) for v, b in inst.boxes.items()}
    span = sum(w + h for w, h in dims.values()) + unit
    placed: Dict[str, Rect] = {vw: (-span, 0, 0, span), vs: (0, -span, span, 0)}
    unplaced = set(inner)

    while unplaced:
        progressed = False
        for qx, qy, wall, floor in _concavities(placed):
            common = sorted((adj[wall] & adj[floor] & unplaced))
            if not common:
                continue
            w, h = dims[common[0]]
            rect = (qx, qy, qx + w, qy + h)
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
        raise TriangulationInfeasibleError(
            "not-rectangle", [(Fraction(x, unit), Fraction(y, unit)) for x, y, _, _ in concs]
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
        x1, y1, _, _ = placed[v]
        lay.place(inst.boxes[v], Fraction(x1, unit), Fraction(y1, unit))
    lay.place(bw, -bw.w, 0)
    lay.place(bs, ex - bs.w, -bs.h)
    lay.place(bn, 0, ey)
    lay.place(be, ex, ey - be.h)
    return lay
