"""Contact-count extremal placement and the hardness gadgets."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.errors import InvalidInstanceError
from crown.geometry import BoxSpec, Layout, ProfitGraph, detect_contacts, rat

from fixtures_extremal import (
    gen_3partition_tree_instance,
    gen_partition_star_instance,
    gen_power_squares,
    place_extremal,
    realizes,
)


def rand_boxes(rng, n):
    return [
        BoxSpec(f"s{i}", Fraction(rng.randrange(1, 9)), Fraction(rng.randrange(1, 9)))
        for i in range(n)
    ]


def count(lay):
    return len(detect_contacts(lay))


def test_contact_counts_at_small_sizes():
    rng = random.Random(3)
    assert count(place_extremal(rand_boxes(rng, 4))) == 6
    assert count(place_extremal(rand_boxes(rng, 5))) == 8
    assert count(place_extremal(rand_boxes(rng, 12))) == 22


def test_power_squares_dims():
    sides = [b.w for b in gen_power_squares(3)]
    assert sides == [2, 4, 8]
    assert all(b.w == b.h for b in gen_power_squares(5))


def _forest(edges):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def test_power_squares_orientation_graphs_are_forests():
    lay = place_extremal(gen_power_squares(6))
    contacts = detect_contacts(lay)
    assert len(contacts) == 10
    for oo in ("h", "v"):
        assert _forest([(c.a, c.b) for c in contacts if c.orientation == oo])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=30))
def test_extremal_contact_count_formula(seed, n):
    # two or three boxes max out one contact lower: 2n-3
    lay = place_extremal(rand_boxes(random.Random(seed), n))
    assert count(lay) == (2 * n - 2 if n >= 4 else 2 * n - 3)


def test_extremal_rejects_single_box():
    with pytest.raises(ValueError):
        place_extremal(rand_boxes(random.Random(0), 1))


def lay(*rows):
    out = Layout()
    for i, w, h, x, y in rows:
        out.place(BoxSpec(i, rat(w), rat(h)), rat(x), rat(y))
    return out


def test_realizes_requires_every_vertex_placed():
    g = ProfitGraph(["a", "b", "c"], {("a", "b"): Fraction(1)})
    partial = lay(("a", 1, 1, 0, 0), ("b", 1, 1, 1, 0))
    with pytest.raises(ValueError):
        realizes(partial, g)


def test_realizes_ignores_extra_contacts():
    g = ProfitGraph(["a", "b", "c"], {("a", "b"): Fraction(1)})
    full = lay(("a", 1, 1, 0, 0), ("b", 1, 1, 1, 0), ("c", 1, 1, 2, 0))
    # b-c touch without an edge; a-b is the only required contact
    assert realizes(full, g)
    apart = lay(("a", 1, 1, 0, 0), ("b", 1, 1, 5, 5), ("c", 1, 1, 2, 0))
    assert not realizes(apart, g)


def test_partition_gadget_with_witness():
    # partition is given by value indices: {2} vs {1, 1}
    inst = gen_partition_star_instance((1, 1, 2), partition=((2,), (0, 1)))
    assert inst.witness is not None
    assert realizes(inst.witness, inst.graph)
    detect_contacts(inst.witness)


def test_partition_gadget_trivial_split():
    inst = gen_partition_star_instance((1, 1), partition=((0,), (1,)))
    assert inst.witness is not None
    assert realizes(inst.witness, inst.graph)


def test_partition_gadget_refuses_bad_split():
    inst = gen_partition_star_instance((3, 1, 1, 1))
    assert inst.witness is None


def test_3partition_gadget():
    inst = gen_3partition_tree_instance(
        (6, 7, 7, 6, 7, 7), m=2, B=20, partition=((0, 1, 2), (3, 4, 5))
    )
    assert inst.witness is not None
    # full construction: c, n element boxes, four guides per separator
    # (u, b, l, r for j = 0..m), five big squares, two fillers
    n, m = 6, 2
    assert len(inst.boxes) == n + 4 * (m + 1) + 8
    assert realizes(inst.witness, inst.graph)
    detect_contacts(inst.witness)
    # the anchor row spans the full frame width K
    widths = {b.id: b.w for b in inst.boxes}
    K = (m + 1) * 20 + m + 1
    assert widths["c"] == K
    # element + separator + filler widths tile the row exactly
    row = sum(w for i, w in widths.items() if i[0] in "vud" and i != "c")
    assert row == K


def test_3partition_rejects_out_of_range_elements():
    with pytest.raises(InvalidInstanceError):
        gen_3partition_tree_instance((10, 5, 5, 5, 5, 10), m=2, B=20)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_partition_gadget_random_yes_instances(seed):
    rng = random.Random(seed)
    k = rng.randrange(1, 4)
    half = [rng.randrange(1, 9) for _ in range(k)]
    values = half + half  # mirrored halves guarantee a balanced split
    idx = (tuple(range(k)), tuple(range(k, 2 * k)))
    inst = gen_partition_star_instance(tuple(values), partition=idx)
    assert inst.witness is not None
    assert realizes(inst.witness, inst.graph)
    detect_contacts(inst.witness)
