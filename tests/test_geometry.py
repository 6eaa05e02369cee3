"""Contact detection and layout plumbing.

The contact conventions live in one place (geometry._classify) and every
other module leans on them, so these tests pin the exact semantics:
orientation, point contacts, overlap rejection, and the pack helper.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.errors import DuplicateIdError, OverlapError
from crown.geometry import (
    BoxSpec,
    Layout,
    ProfitGraph,
    contact_pairs,
    detect_contacts,
    pack_components,
    rat,
    realized_profit,
    singleton_layout,
)


def box(i, w, h):
    return BoxSpec(i, rat(w), rat(h))


def lay(*rows):
    out = Layout()
    for i, w, h, x, y in rows:
        out.place(box(i, w, h), rat(x), rat(y))
    return out


def test_rat_accepts_exact_types_only():
    assert rat(3) == Fraction(3)
    assert rat("7/2") == Fraction(7, 2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)


def test_boxspec_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        box("a", 0, 1)
    with pytest.raises(ValueError):
        box("a", 2, -1)


def test_side_by_side_is_horizontal_contact():
    contacts = detect_contacts(lay(("a", 2, 3, 0, 0), ("b", 1, 1, 2, 1)))
    assert len(contacts) == 1
    c = contacts[0]
    assert (c.a, c.b, c.orientation) == ("a", "b", "h")
    assert c.coord == 2
    assert (c.lo, c.hi) == (1, 2)


def test_stacked_is_vertical_contact():
    contacts = detect_contacts(lay(("a", 2, 1, 0, 0), ("b", 3, 1, 1, 1)))
    assert len(contacts) == 1
    c = contacts[0]
    assert (c.orientation, c.coord) == ("v", 1)
    assert (c.lo, c.hi) == (1, 2)


def test_point_contact_orientation():
    # NE corner of a meets SW corner of b: counts as horizontal.
    ne = detect_contacts(lay(("a", 1, 1, 0, 0), ("b", 1, 1, 1, 1)))
    assert len(ne) == 1 and ne[0].orientation == "h"
    assert ne[0].lo == ne[0].hi
    # NW/SE corner meet is vertical.
    nw = detect_contacts(lay(("a", 1, 1, 1, 0), ("b", 1, 1, 0, 1)))
    assert len(nw) == 1 and nw[0].orientation == "v"


def test_disjoint_boxes_no_contact():
    assert detect_contacts(lay(("a", 1, 1, 0, 0), ("b", 1, 1, 5, 5))) == []


def test_overlap_raises_with_sorted_pair():
    with pytest.raises(OverlapError) as err:
        detect_contacts(lay(("q", 2, 2, 0, 0), ("p", 2, 2, 1, 1)))
    assert (err.value.a, err.value.b) == ("p", "q")


def test_contact_pair_normalization():
    contacts = detect_contacts(lay(("z", 1, 1, 0, 0), ("a", 1, 1, 1, 0)))
    assert (contacts[0].a, contacts[0].b) == ("a", "z")


def test_realized_profit_counts_only_contact_edges():
    g = ProfitGraph(
        ["a", "b", "c"],
        {("a", "b"): Fraction(2), ("b", "c"): Fraction(5), ("a", "c"): Fraction(11)},
    )
    l = lay(("a", 1, 1, 0, 0), ("b", 1, 1, 1, 0), ("c", 1, 1, 5, 5))
    assert realized_profit(l, g) == 2


def test_pack_components_keeps_parts_apart():
    a = lay(("a", 2, 2, 0, 0), ("b", 2, 2, 2, 0))
    c = lay(("c", 1, 1, 0, 0))
    packed = pack_components([a, c])
    pairs = contact_pairs(packed)
    assert ("a", "b") in pairs
    assert all("c" not in p for p in pairs)


def test_pack_components_rejects_duplicate_ids():
    with pytest.raises(DuplicateIdError):
        pack_components([singleton_layout(box("x", 1, 1)), singleton_layout(box("x", 2, 2))])


coords = st.integers(min_value=0, max_value=6)
dims = st.integers(min_value=1, max_value=4)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(coords, coords, dims, dims),
        min_size=2,
        max_size=6,
    )
)
def test_contacts_match_closed_intersection(rows):
    l = Layout()
    for i, (x, y, w, h) in enumerate(rows):
        l.place(box(f"b{i}", w, h), rat(x), rat(y))
    try:
        contacts = detect_contacts(l)
    except OverlapError:
        return
    seen = set()
    for c in contacts:
        seen.add((c.a, c.b))
        (ax, ay), (bx, by) = l.pos[c.a], l.pos[c.b]
        aw, ah = l.boxes[c.a].w, l.boxes[c.a].h
        bw, bh = l.boxes[c.b].w, l.boxes[c.b].h
        ix1, ix2 = max(ax, bx), min(ax + aw, bx + bw)
        iy1, iy2 = max(ay, by), min(ay + ah, by + bh)
        assert ix1 <= ix2 and iy1 <= iy2
        assert ix1 == ix2 or iy1 == iy2  # boundary, not area
        if c.orientation == "h":
            assert c.coord == ix1 == ix2
            assert (c.lo, c.hi) == (iy1, iy2)
        else:
            assert c.coord == iy1 == iy2
            assert (c.lo, c.hi) == (ix1, ix2)
    # completeness: any touching pair not reported would be a miss
    ids = sorted(l.pos)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            (ax, ay), (bx, by) = l.pos[a], l.pos[b]
            aw, ah = l.boxes[a].w, l.boxes[a].h
            bw, bh = l.boxes[b].w, l.boxes[b].h
            touch = (
                max(ax, bx) <= min(ax + aw, bx + bw)
                and max(ay, by) <= min(ay + ah, by + bh)
            )
            assert touch == ((a, b) in seen)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_pack_components_never_creates_cross_contacts(n1, n2):
    first = Layout()
    for i in range(n1):
        first.place(box(f"a{i}", 1, 1), rat(i), rat(0))
    second = Layout()
    for i in range(n2):
        second.place(box(f"b{i}", 1, 2), rat(0), rat(2 * i))
    packed = pack_components([first, second])
    for a, b in contact_pairs(packed):
        assert a[0] == b[0], f"cross-component contact {a}-{b}"
