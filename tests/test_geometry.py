"""Contact detection and layout plumbing.

The contact conventions live in one place (geometry._classify) and every
other module leans on them, so these tests pin the exact semantics:
orientation, point contacts, overlap rejection, and the pack helper.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.cycles import max_crown_cycles
from crown.errors import DuplicateIdError, OverlapError, ParameterError
from crown.geometry import (
    MAX_EXPONENT,
    BoxSpec,
    Layout,
    ProfitGraph,
    detect_contacts,
    on_unit,
    pack_components,
    rat,
    realized_profit,
)
from crown.stars import max_crown_stars

from fixtures_extremal import contact_pairs
from oracles import COPRIME_DENS, detect_contacts_fraction, pack_components_fraction, rand_layout


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
    for bad in ("x", "1/0", ""):
        with pytest.raises(ParameterError, match="not an exact rational"):
            rat(bad)


@pytest.mark.parametrize(
    "text", ["Infinity", "-Infinity", "NaN", "sNaN", "1e9999999", "-2e-9999999", f"1e{MAX_EXPONENT + 1}"]
)
def test_rat_refuses_a_decimal_not_finite_or_past_the_exponent_limit(text):
    # rat refuses every Decimal by its type, before reading its value
    with pytest.raises(ParameterError, match="not an exact rational"):
        rat(Decimal(text))


def test_on_unit_unit_is_one_on_integers_and_empty_input():
    assert on_unit([])[0] == 1
    assert on_unit([3, -7, Fraction(8, 4)])[0] == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=1000), max_size=12))
def test_on_unit_unit_matches_math_lcm(values):
    unit = on_unit(values)[0]
    assert unit == math.lcm(*(v.denominator for v in values))
    assert all((v * unit).denominator == 1 for v in values)


def test_on_unit_of_nothing_is_unit_one():
    assert on_unit([]) == (1, [])
    assert on_unit(iter([Fraction(3, 4), 2, Fraction(-1, 6)])) == (12, [9, 24, -2])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-10**6, max_value=10**6) | st.fractions(max_denominator=1000),
        max_size=12,
    )
)
def test_on_unit_counts_every_value_on_the_lcm(values):
    # ints, Fractions and mixes of both: one count per value, in order
    unit, counts = on_unit(values)
    assert unit == math.lcm(*(v.denominator for v in values))
    assert len(counts) == len(values)
    for count, value in zip(counts, values):
        assert type(count) is int and Fraction(count, unit) == value


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
    packed = pack_components([a, c], {})
    pairs = contact_pairs(packed)
    assert ("a", "b") in pairs
    assert all("c" not in p for p in pairs)


def test_pack_components_rejects_duplicate_ids():
    with pytest.raises(DuplicateIdError):
        pack_components([lay(("x", 1, 1, 0, 0)), lay(("x", 2, 2, 0, 0))], {})


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
    packed = pack_components([first, second], {})
    for a, b in contact_pairs(packed):
        assert a[0] == b[0], f"cross-component contact {a}-{b}"


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pack_components_matches_the_fraction_oracle(seed):
    # Components with pairwise-coprime denominators, negative coordinates
    # and now and then an empty one, or none at all.  The box map holds
    # boxes no component places, under ids that sort among the placed
    # ones, and some boxes a component already places.  The oracle packs
    # the unplaced ones as one-box layouts after the components, in id
    # order: the same boxes at the same places, none placed twice.
    rng = random.Random(seed)
    components = []
    for c in range(rng.randrange(5)):
        part = rand_layout(rng, rng.randrange(5),
                           scale=Fraction(1, rng.choice(COPRIME_DENS)))
        renamed = Layout()
        for i, b in part.boxes.items():
            renamed.place(BoxSpec(f"c{c}{i}", b.w, b.h), *part.pos[i])
        components.append(renamed)
    placed = [b for part in components for b in part.boxes.values()]
    loose = [
        BoxSpec(f"{rng.choice('bcd')}{k}", Fraction(rng.randint(1, 40), rng.choice(COPRIME_DENS)), 1)
        for k in range(rng.randrange(5))
    ]
    chosen = rng.sample(placed, rng.randint(0, len(placed))) + loose
    rng.shuffle(chosen)
    boxes = {b.id: b for b in chosen}
    got = pack_components(components, boxes)
    singles = [lay((b.id, b.w, b.h, 0, 0)) for b in sorted(loose, key=lambda b: b.id)]
    want = pack_components_fraction(components + singles)
    assert got.boxes == want.boxes and got.pos == want.pos


@pytest.mark.parametrize("solve", [
    lambda g, boxes: max_crown_stars(g, boxes, Fraction(1, 2)),
    max_crown_cycles,
], ids=["stars", "cycles"])
def test_edgeless_graphs_place_every_box(solve):
    # Two vertices without edges and a box outside the graph: every box
    # in id order, 1 apart, bottoms on y = 0.
    boxes = {"c": box("c", 1, 3), "a": box("a", 2, 1), "b": box("b", "1/2", 2)}
    got = solve(ProfitGraph("ab"), boxes)
    assert got.boxes == boxes
    assert got.pos == {"a": (0, 0), "b": (3, 0), "c": (Fraction(9, 2), 0)}


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_integer_sweep_matches_the_fraction_sweep(seed):
    # Seats on sides and corners (NE/SW and NW/SE point contacts), negative
    # coordinates, pairwise-coprime denominators and, in most draws,
    # overlaps: the same Contacts, or OverlapError on the same pair.
    rng = random.Random(seed)
    lay = rand_layout(rng, rng.randrange(10), overlaps=rng.random() < 0.7,
                      scale=Fraction(rng.choice((1, 1000)), rng.choice(COPRIME_DENS)))
    try:
        want = detect_contacts_fraction(lay)
    except OverlapError as exc:
        with pytest.raises(OverlapError) as got:
            detect_contacts(lay)
        assert (got.value.a, got.value.b) == (exc.a, exc.b)
        return
    assert detect_contacts(lay) == want
    graph = ProfitGraph(lay.pos)
    ids = sorted(lay.pos)
    for a in ids:
        for b in ids:
            if a < b and rng.random() < 0.5:
                graph.add_edge(a, b, Fraction(rng.randrange(5), rng.choice(COPRIME_DENS)))
    touching = {(c.a, c.b) for c in want}
    assert realized_profit(lay, graph) == sum(
        (p for a, b, p in graph.edges() if (a, b) in touching), Fraction(0)
    )
