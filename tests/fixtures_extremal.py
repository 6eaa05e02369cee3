"""Extremal contact placements and reduction-style instance generators.

These are test fixtures: the boundary cases of the paper's bounds and
hardness proofs, exercised by tests/test_extremal.py and acceptance
criteria 7 and 8.  No crown command runs them.

place_extremal arranges n boxes of arbitrary positive dimensions so the
layout has exactly 2n-2 contacts, the maximum possible.  Four boxes meet
at a corner point; every later box is seated along the line through that
point so it adds exactly two contacts.  Degenerate dimension patterns
(equal channel ends) are repaired by a small debt automaton: a forced
triple contact is paid back by a later single-contact seat, and the last
box can fall back to a niche on the far left or a corner hang, both of
which work for any dimensions.

The generators build the star and tree instances whose exact
realizability encodes Partition and 3-Partition; a witness layout is
attached when a valid certificate is supplied, and realizes checks it.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from crown.errors import DuplicateIdError, InvalidInstanceError
from crown.geometry import BoxSpec, Layout, ProfitGraph, detect_contacts, rat


def contact_pairs(layout: Layout) -> set:
    """The id pairs ``(a, b)``, ``a < b``, of the layout's contacts."""
    return {(c.a, c.b) for c in detect_contacts(layout)}


def realizes(layout: Layout, graph: ProfitGraph) -> bool:
    """True iff every graph edge is a contact.  Every vertex must be placed."""
    for v in graph.vertices:
        if v not in layout.pos:
            raise ValueError(f"no box placed for vertex {v!r}")
    touching = contact_pairs(layout)
    return all((a, b) in touching for a, b, _ in graph.edges())


def _check_ids(boxes: Sequence[BoxSpec]) -> None:
    seen = set()
    for b in boxes:
        if b.id in seen:
            raise DuplicateIdError(b.id)
        seen.add(b.id)


def place_extremal(boxes: Sequence[BoxSpec]) -> Layout:
    """Layout with exactly 2n-2 contacts (2n-3 for n in {2, 3}).

    The count is recomputed from the finished layout and asserted, so a
    return value is always a verified extremal placement.
    """
    _check_ids(boxes)
    n = len(boxes)
    if n <= 1:
        raise ValueError(f"need at least 2 boxes, got {n}")
    lay = Layout()
    if n == 2:
        a, b = boxes
        lay.place(a, Fraction(0), Fraction(0))
        lay.place(b, a.w, Fraction(0))
        assert len(detect_contacts(lay)) == 1
        return lay
    if n == 3:
        # three boxes around the origin: two edge contacts plus the
        # corner contact between the SW and NE boxes, 3 = 2n-3 total
        a, b, c = boxes
        lay.place(a, -a.w, Fraction(0))
        lay.place(b, -b.w, -b.h)
        lay.place(c, Fraction(0), Fraction(0))
        assert len(detect_contacts(lay)) == 3
        return lay

    head = list(boxes[: 5 if n >= 5 else 4])
    order = {b.id: i for i, b in enumerate(head)}
    by_h = sorted(head, key=lambda b: (-b.h, order[b.id]))
    b1, b2 = by_h[0], by_h[1]
    rest = [b for b in head if b.id not in (b1.id, b2.id)]
    by_w = sorted(rest, key=lambda b: (-b.w, order[b.id]))
    b3, b4 = by_w[0], by_w[1]
    leftover = [b for b in by_w[2:]]

    # four corners meeting at the origin: two tallest on the left, the
    # two widest of the rest opening the channels to the right
    lay.place(b1, -b1.w, Fraction(0))
    lay.place(b2, -b2.w, -b2.h)
    lay.place(b3, Fraction(0), Fraction(0))
    lay.place(b4, Fraction(0), -b4.h)

    ch: Dict[str, Dict[str, Fraction]] = {
        "top": {"end": b3.w, "start": Fraction(0), "h": b3.h},
        "bot": {"end": b4.w, "start": Fraction(0), "h": b4.h},
    }

    def seat(side: str, b: BoxSpec, x: Fraction) -> None:
        lay.place(b, x, Fraction(0) if side == "top" else -b.h)
        ch[side]["start"] = x
        ch[side]["end"] = x + b.w
        ch[side]["h"] = b.h

    queue = leftover + list(boxes[5:])
    debt = False
    for k, b in enumerate(queue):
        is_last = k == len(queue) - 1
        s_name = "top" if ch["top"]["end"] <= ch["bot"]["end"] else "bot"
        o_name = "bot" if s_name == "top" else "top"
        s_end = ch[s_name]["end"]
        o_end = ch[o_name]["end"]
        o_start = ch[o_name]["start"]
        tie = s_end == o_end
        if debt:
            if not tie:
                # single contact: a seat floated off its own channel,
                # touching only the opposite channel's last box
                seat(s_name, b, s_end + (o_end - s_end) / 2)
                debt = False
            elif is_last:
                # single contact: corner hang below the bottom channel
                bl = ch["bot"]
                lay.place(b, bl["end"], -bl["h"] - b.h)
                debt = False
            else:
                seat(s_name, b, s_end)  # tie: two contacts, debt carries
        elif not tie and s_end == o_start:
            if is_last:
                # flush seat would make three contacts; use the niche on
                # the far left of the corner cluster instead (always two)
                if b2.w > b1.w:
                    lay.place(b, -b1.w - b.w, Fraction(0))
                elif b1.w > b2.w:
                    lay.place(b, -b2.w - b.w, -b.h)
                else:
                    lay.place(b, -b1.w - b.w, -b.h / 2)
            else:
                seat(s_name, b, s_end)  # three contacts, to be paid back
                debt = True
        else:
            seat(s_name, b, s_end)  # the regular case: two contacts
    assert not debt
    assert len(detect_contacts(lay)) == 2 * n - 2
    return lay


def gen_power_squares(n: int) -> List[BoxSpec]:
    """Squares of sides 2^1 .. 2^n."""
    if n < 1:
        raise InvalidInstanceError(f"need n >= 1, got {n}")
    return [BoxSpec(f"s{i}", Fraction(2**i), Fraction(2**i)) for i in range(1, n + 1)]


@dataclass(frozen=True)
class GadgetInstance:
    boxes: Tuple[BoxSpec, ...]
    graph: ProfitGraph
    witness: Optional[Layout] = None

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if self.witness is not None:
            assert realizes(self.witness, self.graph)


def _star_graph(center: str, leaves: Sequence[str]) -> ProfitGraph:
    g = ProfitGraph()
    for leaf in leaves:
        g.add_edge(center, leaf, Fraction(1))
    return g


def gen_partition_star_instance(
    values: Sequence[int], partition: Optional[Tuple[Sequence[int], Sequence[int]]] = None
) -> GadgetInstance:
    """Star whose exact realization packs `values` into two equal halves.

    The center is a (B/2, delta) sliver, delta = min(values)/2; the four
    (B, B) squares can only seal the center's short sides and corners,
    so the small squares must split between the top and bottom edges.
    `partition` is a pair of index sequences; when it is a balanced
    partition the returned instance carries the witness layout.
    """
    if not values or any(v <= 0 or v != int(v) for v in values):
        raise InvalidInstanceError("values must be positive integers")
    total = Fraction(sum(values))
    delta = Fraction(min(values), 2)
    center = BoxSpec("c", total / 2, delta)
    quads = [BoxSpec(f"q{k}", total, total) for k in range(1, 5)]
    smalls = [BoxSpec(f"v{i}", rat(v), rat(v)) for i, v in enumerate(values, 1)]
    graph = _star_graph("c", [b.id for b in quads + smalls])

    witness = None
    if partition is not None:
        lo, hi = (sorted(part) for part in partition)
        if sorted(list(lo) + list(hi)) != list(range(len(values))):
            raise InvalidInstanceError("partition must split the value indices")
        if sum(values[i] for i in lo) * 2 != sum(values):
            raise InvalidInstanceError("partition is not balanced")
        witness = Layout()
        witness.place(center, Fraction(0), Fraction(0))
        x = Fraction(0)
        for i in lo:
            witness.place(smalls[i], x, delta)
            x += smalls[i].w
        x = Fraction(0)
        for i in hi:
            witness.place(smalls[i], x, -smalls[i].h)
            x += smalls[i].w
        witness.place(quads[0], -total, delta - total)
        witness.place(quads[1], total / 2, Fraction(0))
        witness.place(quads[2], -total, delta)
        witness.place(quads[3], total / 2, -total)
    return GadgetInstance(tuple([center] + quads + smalls), graph, witness)


def gen_3partition_tree_instance(
    S: Sequence[int],
    m: int,
    B: int,
    partition: Optional[Sequence[Sequence[int]]] = None,
) -> GadgetInstance:
    """Tree whose exact realization groups S into m triples summing to B.

    The spine vertex c is a (K, 1/2) sliver, K = (m+1)B + m + 1.  Boxes
    v_i (one per element), separators u_j with their pockets b_j, l_j,
    r_j, end caps d_1, d_2 and five (K, K) squares a_1..a_5 sealing c's
    long sides force the v's into B-wide slots along c's top edge.
    `partition` is a sequence of m index triples; a valid one yields the
    witness layout.
    """
    if len(S) != 3 * m or m < 1:
        raise InvalidInstanceError(f"need exactly 3m elements, got {len(S)} for m={m}")
    if sum(S) != m * B:
        raise InvalidInstanceError(f"elements must sum to m*B = {m * B}, got {sum(S)}")
    for s in S:
        if not Fraction(B, 4) < Fraction(s) < Fraction(B, 2):
            raise InvalidInstanceError(f"element {s} outside (B/4, B/2) = ({B}/4, {B}/2)")
    K = Fraction((m + 1) * B + m + 1)
    half = Fraction(1, 2)
    bB = Fraction(B)

    c = BoxSpec("c", K, half)
    vs = [BoxSpec(f"v{i}", rat(s), bB) for i, s in enumerate(S, 1)]
    us = [BoxSpec(f"u{j}", Fraction(1), bB) for j in range(m + 1)]
    bs = [BoxSpec(f"b{j}", Fraction(1), bB) for j in range(m + 1)]
    ls = [BoxSpec(f"l{j}", bB / 2, bB) for j in range(m + 1)]
    rs = [BoxSpec(f"r{j}", bB / 2, bB) for j in range(m + 1)]
    aa = [BoxSpec(f"a{k}", K, K) for k in range(1, 6)]
    ds = [BoxSpec(f"d{k}", bB / 2, bB) for k in (1, 2)]

    graph = ProfitGraph()
    for b in vs + us + aa + ds:
        graph.add_edge("c", b.id, Fraction(1))
    for j in range(m + 1):
        graph.add_edge(us[j].id, bs[j].id, Fraction(1))
        graph.add_edge(us[j].id, ls[j].id, Fraction(1))
        graph.add_edge(us[j].id, rs[j].id, Fraction(1))

    witness = None
    if partition is not None:
        flat = sorted(i for tri in partition for i in tri)
        if flat != list(range(len(S))) or len(partition) != m:
            raise InvalidInstanceError("partition must be m disjoint index triples")
        for tri in partition:
            if sum(S[i] for i in tri) != B:
                raise InvalidInstanceError(f"triple {tuple(tri)} does not sum to B={B}")
        witness = Layout()
        witness.place(c, Fraction(0), -half)
        witness.place(ds[0], Fraction(0), Fraction(0))
        x = bB / 2
        u_at = []
        for j in range(m + 1):
            witness.place(us[j], x, Fraction(0))
            u_at.append(x)
            x += 1
            if j < m:
                for i in partition[j]:
                    witness.place(vs[i], x, Fraction(0))
                    x += vs[i].w
        assert x == K - bB / 2
        witness.place(ds[1], x, Fraction(0))
        for j in range(m + 1):
            witness.place(ls[j], u_at[j] - bB / 2, bB)
            witness.place(bs[j], u_at[j], bB)
            witness.place(rs[j], u_at[j] + 1, bB)
        witness.place(aa[0], Fraction(0), -half - K)
        witness.place(aa[1], -K, -half)
        witness.place(aa[2], K, -half)
        witness.place(aa[3], -K, -half - K)
        witness.place(aa[4], K, -half - K)
    return GadgetInstance(tuple([c] + vs + us + bs + ls + rs + aa + ds), graph, witness)
