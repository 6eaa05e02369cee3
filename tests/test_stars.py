"""Star packing, star-forest partitions, and the planar pipeline."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.errors import NotATreeError, TooLargeError
from crown.geometry import BoxSpec, ProfitGraph, rat, realized_profit, realizes
from crown.stars import (
    MAX_CORNER_POOL,
    StarInstance,
    max_crown_stars,
    maximal_planar_subgraph,
    partition_planar,
    partition_tree,
    solve_star,
    solve_star_forest,
)

from oracles import (
    maximal_planar_subgraph_brute,
    rand_clustered_graph,
    rand_star_instance,
    star_opt,
)

EPS = Fraction(1, 10)
ALPHA = (1 - EPS) / (2 - EPS)  # 9/19


def star(center_dims, leaf_dims, profits=None):
    c = BoxSpec("c", rat(center_dims[0]), rat(center_dims[1]))
    leaves = tuple(
        BoxSpec(f"l{i}", rat(w), rat(h)) for i, (w, h) in enumerate(leaf_dims)
    )
    if profits is None:
        profits = {l.id: Fraction(1) for l in leaves}
    return StarInstance(c, leaves, profits)


def graph_of(inst):
    return ProfitGraph(
        [inst.center.id] + [l.id for l in inst.leaves],
        {(inst.center.id, l.id): inst.profits[l.id] for l in inst.leaves},
    )


def test_single_narrow_leaf_gets_full_profit():
    inst = star((4, 2), [(1, 1)])
    lay = solve_star(inst, EPS)
    assert realized_profit(lay, graph_of(inst)) == 1


def test_four_big_leaves_take_the_corners():
    inst = star((2, 1), [(5, 5), (5, 5), (5, 5), (5, 5)])
    lay = solve_star(inst, EPS)
    # none of them fits a side bin, yet all four can be realized
    assert realized_profit(lay, graph_of(inst)) == 4


def test_mixed_leaves_all_realized():
    inst = star(
        (2, 1),
        [(5, 5), (5, 5), (5, 5), (5, 5), (1, 1), (1, 1), (2, 2)],
    )
    lay = solve_star(inst, EPS)
    assert realized_profit(lay, graph_of(inst)) == 7


def test_star_layout_has_no_overlaps():
    inst = star((3, 2), [(2, 2), (1, 3), (4, 1), (2, 2), (1, 1)])
    lay = solve_star(inst, EPS)
    # detect_contacts doubles as the no-overlap certificate
    from crown.geometry import detect_contacts

    detect_contacts(lay)
    assert set(lay.pos) == {"c", "l0", "l1", "l2", "l3", "l4"}


def test_uncapped_corner_enumeration_is_guarded():
    inst = star((4, 4), [(1, 1)] * (MAX_CORNER_POOL + 1))
    with pytest.raises(TooLargeError):
        solve_star(inst, EPS)
    with pytest.raises(TooLargeError):
        max_crown_stars(graph_of(inst), {b.id: b for b in (inst.center, *inst.leaves)}, EPS)
    # a cap keeps the pool small, so the same star solves
    lay = solve_star(inst, EPS, corner_candidates=4)
    assert set(lay.pos) == {"c", *(l.id for l in inst.leaves)}


def test_partition_tree_path():
    forests = partition_tree([("a", "b"), ("b", "c"), ("c", "d")])
    f0 = {(s.center, s.leaves) for s in forests[0].stars}
    f1 = {(s.center, s.leaves) for s in forests[1].stars}
    assert f0 == {("a", ("b",)), ("c", ("d",))}
    assert f1 == {("b", ("c",))}


def test_partition_tree_star_all_in_first_forest():
    edges = [("hub", f"x{i}") for i in range(5)]
    forests = partition_tree(edges)
    assert len(forests[0].stars) == 1
    assert forests[0].stars[0].center == "hub"
    assert len(forests[0].stars[0].leaves) == 5
    assert forests[1].stars == ()


@pytest.mark.parametrize(
    "edges",
    [
        [("a", "b"), ("b", "c"), ("a", "c")],  # triangle
        [("a", "b"), ("b", "c"), ("c", "b")],  # repeated edge
        [("a", "b"), ("b", "b")],  # self-loop
    ],
    ids=["triangle", "repeated-edge", "self-loop"],
)
def test_partition_tree_rejects_non_forest(edges):
    with pytest.raises(NotATreeError):
        partition_tree(edges)


def test_partition_tree_two_components_in_component_center_order():
    # trees a-y-z-w and m-n-p plus m-q, rooted at a and m; the "z" star of the
    # first component comes before the "m" star of the second
    edges = [("n", "p"), ("m", "n"), ("z", "w"), ("y", "z"), ("a", "y"), ("m", "q")]
    f0, f1 = partition_tree(edges)
    assert [(s.center, s.leaves) for s in f0.stars] == [
        ("a", ("y",)), ("z", ("w",)), ("m", ("n", "q")),
    ]
    assert [(s.center, s.leaves) for s in f1.stars] == [("y", ("z",)), ("n", ("p",))]


def test_partition_planar_tree_gives_two_forests():
    g = ProfitGraph("abcd", {("a", "b"): rat(1), ("b", "c"): rat(1), ("c", "d"): rat(1)})
    forests = partition_planar(g)
    assert len(forests) == 2
    got = sorted(
        (s.center, leaf) for f in forests for s in f.stars for leaf in s.leaves
    )
    assert len(got) == 3


def test_partition_planar_k4_partitions_all_edges():
    vs = "abcd"
    g = ProfitGraph(vs, {(u, v): rat(1) for i, u in enumerate(vs) for v in vs[i + 1 :]})
    forests = partition_planar(g)
    covered = []
    for f in forests:
        for s in f.stars:
            # stars within one forest are vertex-disjoint
            for leaf in s.leaves:
                covered.append(ProfitGraph.key(s.center, leaf))
        seen = set()
        for s in f.stars:
            for v in (s.center,) + s.leaves:
                assert v not in seen
                seen.add(v)
    assert sorted(covered) == sorted(
        ProfitGraph.key(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]
    )


def test_partition_planar_empty():
    assert partition_planar(ProfitGraph()) == []


def unit_boxes(ids):
    return {v: BoxSpec(v, Fraction(1), Fraction(1)) for v in ids}


def test_max_crown_stars_path():
    g = ProfitGraph("abc", {("a", "b"): rat(1), ("b", "c"): rat(1)})
    lay = max_crown_stars(g, unit_boxes("abc"), EPS)
    assert realized_profit(lay, g) >= 1


def test_max_crown_stars_k4_bound():
    vs = "abcd"
    g = ProfitGraph(vs, {(u, v): rat(1) for i, u in enumerate(vs) for v in vs[i + 1 :]})
    lay = max_crown_stars(g, unit_boxes(vs), EPS)
    assert realized_profit(lay, g) >= g.total_profit() / 6


def test_max_crown_stars_single_edge_full():
    g = ProfitGraph("ab", {("a", "b"): rat(7)})
    lay = max_crown_stars(g, unit_boxes("ab"), EPS)
    assert realized_profit(lay, g) == 7


def test_solve_star_forest_places_every_vertex():
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    g = ProfitGraph("abcde", {e: rat(1) for e in edges})
    forests = partition_tree(edges)
    boxes = unit_boxes("abcde")
    lay = solve_star_forest(forests[0], boxes, g, EPS)
    assert set(lay.pos) == set("abcde")  # singletons packed too


def test_maximal_planar_subgraph_keeps_planar_input():
    g = ProfitGraph("abcd", {("a", "b"): rat(2), ("c", "d"): rat(3)})
    sub = maximal_planar_subgraph(g)
    assert sorted(sub.edges()) == sorted(g.edges())


def test_maximal_planar_subgraph_k5():
    vs = "abcde"
    g = ProfitGraph(vs, {(u, v): rat(1) for i, u in enumerate(vs) for v in vs[i + 1 :]})
    sub = maximal_planar_subgraph(g)
    assert len(sub.edges()) == 9  # K5 minus one edge is maximal planar


def test_maximal_planar_subgraph_k33():
    left, right = "abc", "xyz"
    g = ProfitGraph(left + right, {(u, v): rat(1) for u in left for v in right})
    sub = maximal_planar_subgraph(g)
    assert len(sub.edges()) == 8


def complete(vs):
    return {(u, v): rat(1) for i, u in enumerate(vs) for v in vs[i + 1 :]}


def test_maximal_planar_subgraph_k5s_sharing_a_cut_vertex():
    # a reject inside one K5 must not cost the other K5 an edge
    left, right = "cabde", "cvwxy"
    g = ProfitGraph(left + right, {**complete(left), **complete(right)})
    sub = maximal_planar_subgraph(g)
    assert len(sub.edges()) == 18
    for side in (left, right):
        assert sum(1 for a, b, _ in sub.edges() if a in side and b in side) == 9


def test_maximal_planar_subgraph_k33_bridge_triangle():
    left, right = "abc", "xyz"
    edges = {(u, v): rat(1) for u in left for v in right}
    edges.update(complete("pqr"))
    edges[("c", "p")] = rat(1)
    sub = maximal_planar_subgraph(ProfitGraph(left + right + "pqr", edges))
    kept = {(a, b) for a, b, _ in sub.edges()}
    assert len(kept) == 8 + 1 + 3
    assert {("c", "p"), ("p", "q"), ("p", "r"), ("q", "r")} <= kept


def test_maximal_planar_subgraph_keeps_forest():
    edges = {
        ("a", "b"): rat(3), ("a", "c"): rat(1), ("c", "d"): rat(2), ("c", "e"): rat(1),
        ("f", "g"): rat(1), ("g", "h"): rat(5), ("i", "j"): rat(2),
    }
    g = ProfitGraph("abcdefghijk", edges)
    sub = maximal_planar_subgraph(g)
    assert sub.edges() == g.edges()
    assert sub.vertices == g.vertices


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_maximal_planar_subgraph_matches_whole_graph_greedy(seed):
    import random

    g = rand_clustered_graph(random.Random(seed), 12)
    sub = maximal_planar_subgraph(g)
    ref = maximal_planar_subgraph_brute(g)
    assert sub.edges() == ref.edges()
    assert sub.vertices == ref.vertices


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_star_meets_oracle_bound(data):
    import random

    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    leaves = data.draw(st.integers(min_value=1, max_value=7))
    inst = rand_star_instance(random.Random(seed), leaves)
    lay = solve_star(inst, EPS)
    got = realized_profit(lay, graph_of(inst))
    assert got >= ALPHA * star_opt(inst)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_max_crown_stars_respects_graph(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    ids = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[(ids[j], ids[i])] = Fraction(rng.randrange(1, 9), rng.choice((1, 2)))
    g = ProfitGraph(ids, edges)
    boxes = {
        v: BoxSpec(v, Fraction(rng.randrange(1, 6)), Fraction(rng.randrange(1, 6)))
        for v in ids
    }
    lay = max_crown_stars(g, boxes, EPS)
    from crown.geometry import detect_contacts

    detect_contacts(lay)  # no overlaps
    assert set(lay.pos) == set(ids)
    assert realized_profit(lay, g) > 0
