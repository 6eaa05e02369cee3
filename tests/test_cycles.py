"""Cycle and path layouts plus the cycle-cover decomposition."""

import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crown import cycles
from crown.cycles import (
    _balanced_orientation,
    _colour_arcs,
    decompose_cycle_covers,
    layout_cycle,
    layout_path,
    max_crown_cycles,
)
from crown.errors import CycleTooShortError, ParameterError
from crown.geometry import BoxSpec, ProfitGraph, detect_contacts, rat, realized_profit
from crown.pipeline import document_instance, load_corpus

from fixtures_extremal import contact_pairs
from oracles import (
    line_events,
    max_crown_cycles_every_cover,
    max_degree,
    rand_clustered_graph,
    rand_degree_graph,
    rand_hub_graph,
    rand_sparse_graph,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def boxes_of(dims):
    return [BoxSpec(f"b{i}", rat(w), rat(h)) for i, (w, h) in enumerate(dims)]


def cycle_pairs(n):
    return {tuple(sorted((f"b{i}", f"b{(i + 1) % n}"))) for i in range(n)}


def test_three_equal_boxes_close_the_cycle():
    lay = layout_cycle(boxes_of([(2, 1), (2, 1), (2, 1)]))
    assert contact_pairs(lay) >= cycle_pairs(3)


def test_one_wide_box_cycle():
    lay = layout_cycle(boxes_of([(1, 1), (1, 1), (1, 1), (1, 1), (10, 1)]))
    assert contact_pairs(lay) >= cycle_pairs(5)


def test_ten_cycle_all_contacts():
    rng = random.Random(5)
    dims = [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(10)]
    lay = layout_cycle(boxes_of(dims))
    assert contact_pairs(lay) >= cycle_pairs(10)


def test_cycle_needs_three_boxes():
    with pytest.raises(CycleTooShortError):
        layout_cycle(boxes_of([(1, 1), (2, 2)]))


def test_path_contact_counts():
    assert contact_pairs(layout_path(boxes_of([(1, 1)]))) == set()
    assert len(contact_pairs(layout_path(boxes_of([(1, 1), (2, 3)])))) == 1
    dims = [(i + 1, 1) for i in range(6)]
    pairs = contact_pairs(layout_path(boxes_of(dims)))
    assert {tuple(sorted((f"b{i}", f"b{i+1}"))) for i in range(5)} <= pairs


def ring(ids):
    return ProfitGraph(
        ids, {(ids[i], ids[(i + 1) % len(ids)]): Fraction(1) for i in range(len(ids))}
    )


def complete(ids):
    return ProfitGraph(
        ids, {(u, v): Fraction(1) for i, u in enumerate(ids) for v in ids[i + 1 :]}
    )


def test_decompose_single_cycle():
    g = ring(["a", "b", "c", "d"])
    cover = decompose_cycle_covers(g)
    assert len(cover.covers) == 1
    assert sorted(tuple(sorted(e)) for e in cover.covers[0]) == sorted(
        (a, b) for a, b, _ in g.edges()
    )


def _check_partition(cover, g):
    seen = []
    for c in cover.covers:
        deg = {}
        for u, v in c:
            seen.append(ProfitGraph.key(u, v))
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert all(d <= 2 for d in deg.values())
    assert sorted(seen) == sorted(ProfitGraph.key(u, v) for u, v, _ in g.edges())


def test_decompose_k4():
    g = complete(["a", "b", "c", "d"])
    cover = decompose_cycle_covers(g)
    assert len(cover.covers) == 2
    _check_partition(cover, g)


def test_decompose_k5():
    g = complete(["a", "b", "c", "d", "e"])
    cover = decompose_cycle_covers(g)
    assert len(cover.covers) == 2
    assert all(len(c) == 5 for c in cover.covers)
    _check_partition(cover, g)


def test_decompose_large_graph():
    # A 1,200-cycle with one random chord per vertex: a trail of its
    # orientation runs longer than the interpreter's recursion limit.
    rng = random.Random(1)
    ids = [f"v{i:04d}" for i in range(1200)]
    g = ring(ids)
    for v in ids:
        u = rng.choice(ids)
        if u != v:
            g.add_edge(u, v, Fraction(1))
    cover = decompose_cycle_covers(g)
    assert len(cover.covers) == math.ceil(max_degree(g) / 2)
    _check_partition(cover, g)


def unit_boxes(ids):
    return {v: BoxSpec(v, Fraction(1), Fraction(1)) for v in ids}


def test_max_crown_cycles_triangle_full():
    g = ring(["a", "b", "c"])
    lay = max_crown_cycles(g, unit_boxes(["a", "b", "c"]))
    assert realized_profit(lay, g) == 3


def test_max_crown_cycles_names_the_first_vertex_without_box():
    g = ProfitGraph("abc", {("a", "b"): 1, ("b", "c"): 1})
    with pytest.raises(ParameterError, match="'c'"):
        max_crown_cycles(g, unit_boxes(["a", "b"]))
    with pytest.raises(ParameterError, match="'a'"):
        max_crown_cycles(g, unit_boxes(["b"]))
    with pytest.raises(ParameterError, match="'b'"):
        max_crown_cycles(ProfitGraph("ba"), unit_boxes(["a"]))  # no edges


def test_max_crown_cycles_k4():
    g = complete(["a", "b", "c", "d"])
    lay = max_crown_cycles(g, unit_boxes(["a", "b", "c", "d"]))
    assert realized_profit(lay, g) >= 3


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_max_crown_cycles_bound_and_no_overlap(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 21)
    g = rand_degree_graph(rng, n, 4)
    if not g.edges():
        return
    boxes = {
        v: BoxSpec(v, Fraction(rng.randrange(1, 7)), Fraction(rng.randrange(1, 7)))
        for v in g.vertices
    }
    lay = max_crown_cycles(g, boxes)
    detect_contacts(lay)  # raises on overlap
    assert set(lay.pos) == set(g.vertices)
    bound = g.total_profit() / math.ceil(max_degree(g) / 2)
    assert realized_profit(lay, g) >= bound


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_decompose_bound_matches_max_degree(seed):
    rng = random.Random(seed)
    g = rand_degree_graph(rng, rng.randrange(4, 26), rng.choice((3, 4, 5, 6)))
    if not g.edges():
        return
    cover = decompose_cycle_covers(g)
    assert len(cover.covers) == math.ceil(max_degree(g) / 2)  # no cover is empty
    _check_partition(cover, g)


def components(g):
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b, _ in g.edges():
        parent[find(a)] = find(b)
    return len({find(v) for v in g.vertices})


def test_hub_graphs_reach_odd_degrees_and_many_components():
    for seed in range(20):
        for hubs in ([10 + seed], [11 + seed, 15], [40, 40 - seed % 2]):
            g = rand_hub_graph(random.Random(seed), hubs)
            degrees = sorted(g.degrees().values())
            assert max_degree(g) == max(hubs)
            assert degrees[-len(hubs) - 1] <= 4  # the hubs alone need k colours
            assert any(d % 2 for d in degrees)  # edges to the orientation's extra vertex
            assert any(d and d % 2 == 0 for d in degrees)
            assert 0 in degrees  # isolated vertices
            assert components(g) >= 3  # trails start in several components


HUB_DEGREES = st.lists(st.integers(10, 40), min_size=1, max_size=2)


@settings(max_examples=100, deadline=None)
@given(HUB_DEGREES, st.integers(0, 10**6))
@example([12], 0)
@example([40, 39], 1)
@example([13, 10], 2)
def test_decompose_matches_per_edge_on_hub_graphs(hub_degrees, seed):
    g = rand_hub_graph(random.Random(seed), hub_degrees)
    cover = decompose_cycle_covers(g)
    assert len(cover.covers) == math.ceil(max_degree(g) / 2)
    assert all(cover.covers)
    _check_partition(cover, g)


def test_decompose_keeps_its_contract_on_the_corpus():
    for k in (50, 100):
        for doc_id, text in load_corpus(CORPUS):
            _, g, _ = document_instance(text, k)
            cover = decompose_cycle_covers(g)
            assert len(cover.covers) == math.ceil(max_degree(g) / 2), (doc_id, k)
            assert all(cover.covers), (doc_id, k)
            _check_partition(cover, g)


def drawn_graph(data):
    """A hub graph or a bounded-degree graph, drawn from ``data``."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans()):
        return rand_hub_graph(rng, data.draw(HUB_DEGREES))
    return rand_degree_graph(rng, rng.randrange(4, 26), rng.choice((3, 4, 5, 6)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_orientation_splits_each_degree_in_half(data):
    g = drawn_graph(data)
    arcs = _balanced_orientation(g)
    assert sorted(ProfitGraph.key(*arc) for arc in arcs) == [(a, b) for a, b, _ in g.edges()]
    out, into = Counter(t for t, _ in arcs), Counter(h for _, h in arcs)
    for v, d in g.degrees().items():
        assert out[v] <= math.ceil(d / 2) and into[v] <= math.ceil(d / 2), v


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans())
def test_colouring_gives_no_vertex_two_arcs_of_a_colour_on_one_side(data, balanced):
    g = drawn_graph(data)
    if balanced:
        arcs = _balanced_orientation(g)
    else:  # any orientation: the colouring needs no balance
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        arcs = [(a, b) if rng.random() < 0.5 else (b, a) for a, b, _ in g.edges()]
    k = max([*Counter(t for t, _ in arcs).values(), *Counter(h for _, h in arcs).values()], default=0)
    if balanced:
        assert k == math.ceil(max_degree(g) / 2)
    colours = _colour_arcs(arcs)
    assert len(colours) == len(arcs)
    assert all(0 <= c < k for c in colours)
    for side in (0, 1):
        ends = [(arc[side], c) for arc, c in zip(arcs, colours)]
        assert len(set(ends)) == len(ends)


def test_decompose_work_grows_linearly():
    # 4x the vertices and edges at max degree 16 may cost at most 6x the
    # work.  Hubs are left out: the free-colour pick is O(deg).
    small, large = (
        line_events(
            cycles, decompose_cycle_covers, rand_sparse_graph(random.Random(n), n, 3 * n, 16)
        )
        for n in (250, 1000)
    )
    assert large <= 6 * small, (small, large)


def tied_graph(seed, same):
    """A clustered graph with profits 0..3, or ``same`` on every edge, so
    that covers often tie for the best, and boxes for its vertices."""
    g = rand_clustered_graph(random.Random(seed), 16)
    if same is not None:
        g = ProfitGraph(g.vertices, {(a, b): same for a, b, _ in g.edges()})
    return g, {v: BoxSpec(v, Fraction(1 + int(v[1:]) % 3), Fraction(1)) for v in g.vertices}


SAME = [None, Fraction(0), Fraction(1), Fraction(2, 3)]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(SAME))
def test_max_crown_cycles_picks_the_cover_of_every_cover_search(seed, same):
    g, boxes = tied_graph(seed, same)
    assert max_crown_cycles(g, boxes) == max_crown_cycles_every_cover(g, boxes)


def test_tied_graphs_tie_for_the_best_cover():
    # the draws above reach a tie for the best cover between two or more
    # covers, where the earlier must win
    ties = 0
    for seed in range(40):
        for same in SAME:
            g, _ = tied_graph(seed, same)
            profits = [sum(g.profit(a, b) for a, b in c) for c in decompose_cycle_covers(g).covers]
            ties += profits.count(max(profits, default=0)) > 1
    assert ties >= 40


@pytest.mark.parametrize("k", [50, 100])
def test_max_crown_cycles_picks_the_cover_of_every_cover_search_on_the_corpus(k):
    for doc_id, text in load_corpus(CORPUS):
        boxes, g, _ = document_instance(text, k)
        box_map = {b.id: b for b in boxes}
        assert max_crown_cycles(g, box_map) == max_crown_cycles_every_cover(g, box_map), doc_id
