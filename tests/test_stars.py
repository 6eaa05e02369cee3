"""Star packing, star-forest partitions, and the planar pipeline."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crown
from crown import stars
from crown.errors import NotATreeError, NotPlanarError, ParameterError, TooLargeError
from crown.gap import gap_sequential
from crown.geometry import BoxSpec, ProfitGraph, rat, realized_profit
from crown.pipeline import document_instance, load_corpus
from crown.stars import (
    MAX_CORNER_POOL,
    Star,
    StarForest,
    StarInstance,
    _is_planar,
    max_crown_stars,
    maximal_planar_subgraph,
    partition_planar,
    partition_tree,
    solve_star,
    solve_star_forest,
)

from oracles import (
    is_planar_nx,
    maximal_planar_subgraph_brute,
    maximal_planar_subgraph_union,
    partition_planar_union_find,
    path_stays_planar_near,
    rand_block_graph,
    rand_clustered_graph,
    rand_guillotine_dual,
    rand_stacked_triangulation,
    rand_star_instance,
    rand_tree,
    solve_star_fraction,
    star_opt,
    tree_path_from_one_end,
)

EPS = Fraction(1, 10)
ALPHA = (1 - EPS) / (2 - EPS)  # 9/19
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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
    assert partition_planar(ProfitGraph("abc")) == []


@pytest.mark.parametrize("vertices", ["ab", "abc"], ids=["two-vertex", "one-edge"])
def test_partition_planar_one_edge(vertices):
    g = ProfitGraph(vertices, {("b", "a"): rat(1)})
    assert partition_planar(g) == [StarForest((Star("a", ("b",)),))]


def planar_draw(kind: str, seed: int, tied: bool) -> ProfitGraph:
    """A planar graph of one of three kinds, with tied (0..2) or distinct
    profits."""
    rng = random.Random(seed)
    if kind == "guillotine-dual":
        inst = rand_guillotine_dual(rng, rng.randrange(1, 17), perturb=False)
        vertices, edges = sorted(inst.boxes), inst.edges()
    elif kind == "stacked":
        edges = rand_stacked_triangulation(rng, rng.randrange(3, 60))
        vertices = sorted({v for e in edges for v in e})
    else:
        kept = maximal_planar_subgraph(rand_clustered_graph(rng, 24))
        vertices, edges = sorted(kept.vertices), [(a, b) for a, b, _ in kept.edges()]
    if tied:
        profits = [rng.randrange(3) for _ in edges]
    else:
        profits = rng.sample(range(1, 10 * len(edges) + 2), len(edges))
    return ProfitGraph(vertices, dict(zip(edges, profits)))


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["guillotine-dual", "stacked", "planar-subgraph"]),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_partition_planar_splits_planar_graphs_into_six_star_forests(kind, seed, tied):
    g = planar_draw(kind, seed, tied)
    classes = []

    def recording(edges):  # NotATreeError unless the class is a forest
        classes.append(list(edges))
        return partition_tree(edges)

    with mock.patch.object(stars, "partition_tree", recording):
        forests = partition_planar(g)
    assert len(classes) <= 3
    assert forests == [f for cls in classes for f in partition_tree(cls) if f.stars]
    assert len(forests) <= 6
    landed = Counter(
        ProfitGraph.key(s.center, leaf) for f in forests for s in f.stars for leaf in s.leaves
    )
    assert set(landed.values()) <= {1}
    assert set(landed) == {ProfitGraph.key(a, b) for a, b, _ in g.edges()}
    for f in forests:
        used = [v for s in f.stars for v in (s.center, *s.leaves)]
        assert len(used) == len(set(used))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_partition_planar_keeps_the_tree_split_of_a_forest(seed, tied):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    edges = [e for e in rand_tree(rng, n) if rng.random() < 0.85]
    profits = [rng.randrange(3) if tied else rng.randrange(1, 10**6) for _ in edges]
    g = ProfitGraph([f"t{i}" for i in range(n)], dict(zip(edges, profits)))
    assert partition_planar(g) == [f for f in partition_tree(edges) if f.stars]


def random_forest(rng, n):
    """A random recursive forest on n shuffled vertices, about a sixth of
    its edges dropped and edge ids shuffled, as parent links (vertex ->
    (parent, edge id) or None at a root) and as vertex -> {neighbour:
    edge id}."""
    order = rng.sample(range(n), n)
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, n) if rng.random() < 0.85]
    ids = rng.sample(range(len(pairs)), len(pairs))
    up = [None] * n
    adj = [{} for _ in range(n)]
    for e, (parent, v) in zip(ids, pairs):
        up[v] = (parent, e)
        adj[parent][v] = adj[v][parent] = e
    return up, adj


def tree_root(up, v):
    while up[v] is not None:
        v = up[v][0]
    return v


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_tree_path_matches_the_one_ended_search(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 80)
    up, adj = random_forest(rng, n)
    for _ in range(30):
        a = b = rng.randrange(n)
        if rng.random() < 0.5:
            b = rng.randrange(n)  # mostly in another tree
        for _ in range(rng.randrange(12)):  # a random walk stays in b's tree
            b = rng.choice(list(adj[b]) or [b])
        if tree_root(up, a) == tree_root(up, b):
            assert stars._tree_path(up, a, b) == tree_path_from_one_end(adj, a, b)
        else:
            assert stars._tree_path(up, a, b) is None


@lru_cache(maxsize=None)
def corpus_planar(k):
    return [(doc_id, maximal_planar_subgraph(g)) for doc_id, g in corpus_graphs(k)]


def stacked_graph(n):
    rng = random.Random(n)
    edges = rand_stacked_triangulation(rng, n)
    return ProfitGraph([f"s{i}" for i in range(n)], {e: rng.randrange(1, 10) for e in edges})


@pytest.mark.parametrize(
    "source, size",
    [("corpus", 50), ("corpus", 100), ("stacked", 300), ("stacked", 1000), ("stacked", 3000)],
)
def test_partition_planar_matches_the_union_find_oracle(source, size):
    graphs = corpus_planar(size) if source == "corpus" else [("stacked", stacked_graph(size))]
    for name, g in graphs:
        assert partition_planar(g) == partition_planar_union_find(g), name


def test_partition_planar_walks_grow_near_linearly(monkeypatch):
    # Every step of a tree-path walk or a re-rooting reads a parent link;
    # on stacked triangulations 4x the vertices may cost at most 6x the
    # reads (4.6x at these sizes).
    reads = [0]

    class Counted:
        def __init__(self, up):
            self.up = up

        def __getitem__(self, v):
            reads[0] += 1
            return self.up[v]

        def __setitem__(self, v, link):
            self.up[v] = link

    for name in ("_tree_path", "_link"):
        walk = getattr(stars, name)
        monkeypatch.setattr(stars, name, lambda up, *args, walk=walk: walk(Counted(up), *args))
    counts = []
    for n in (500, 2000):
        reads[0] = 0
        partition_planar(stacked_graph(n))
        counts.append(reads[0])
    assert counts[1] <= 6 * counts[0], counts


def unit_boxes(ids):
    return {v: BoxSpec(v, Fraction(1), Fraction(1)) for v in ids}


@pytest.mark.parametrize(
    "edges",
    [
        {(u, v): rat(1) for i, u in enumerate("abcde") for v in "abcde"[i + 1 :]},
        {(u, v): rat(1) for u in "abc" for v in "xyz"},
    ],
    ids=["k5", "k33"],
)
def test_non_planar_graph_raises_not_planar(edges):
    g = ProfitGraph(edges=edges)
    with pytest.raises(NotPlanarError):
        partition_planar(g)
    with pytest.raises(NotPlanarError):
        max_crown_stars(g, unit_boxes(g.vertices), EPS)


def test_max_crown_stars_path():
    g = ProfitGraph("abc", {("a", "b"): rat(1), ("b", "c"): rat(1)})
    lay = max_crown_stars(g, unit_boxes("abc"), EPS)
    assert realized_profit(lay, g) >= 1


def test_max_crown_stars_keeps_the_first_of_tied_forests():
    # the path splits into the stars a-b and b-c, each realizing profit 1
    g = ProfitGraph("abc", {("a", "b"): rat(1), ("b", "c"): rat(1)})
    boxes = unit_boxes("abc")
    forests = partition_planar(g)
    first, second = (solve_star_forest(f, boxes, g, EPS) for f in forests)
    assert realized_profit(first, g) == realized_profit(second, g) == 1
    assert first != second
    assert max_crown_stars(g, boxes, EPS) == first


def test_max_crown_stars_names_the_first_vertex_without_box():
    g = ProfitGraph("abc", {("a", "b"): rat(1), ("b", "c"): rat(1)})
    with pytest.raises(ParameterError, match="'c'"):
        max_crown_stars(g, unit_boxes("ab"), "1/2")
    with pytest.raises(ParameterError, match="'a'"):
        max_crown_stars(g, unit_boxes("b"), "1/2")
    with pytest.raises(ParameterError, match="'b'"):
        max_crown_stars(ProfitGraph("ba"), unit_boxes("a"), "1/2")  # no edges


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


def test_solve_star_forest_rejects_a_vertex_without_box():
    g = ProfitGraph("abc", {("a", "b"): rat(1), ("b", "c"): rat(1)})
    forest = StarForest((Star("b", ("c",)),))
    with pytest.raises(ParameterError, match="'c'"):
        solve_star_forest(forest, unit_boxes("ab"), g, EPS)


def test_solve_star_forest_rejects_a_star_edge_not_in_the_graph():
    g = ProfitGraph("abc", {("a", "b"): rat(1), ("b", "c"): rat(1)})
    forest = StarForest((Star("a", ("c",)),))
    with pytest.raises(ParameterError, match="'a'-'c'"):
        solve_star_forest(forest, unit_boxes("abc"), g, EPS)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_maximal_planar_subgraph_matches_whole_graph_greedy_on_block_graphs(seed):
    g = rand_block_graph(random.Random(seed))
    sub = maximal_planar_subgraph(g)
    assert sub.edges() == maximal_planar_subgraph_brute(g).edges()
    assert sub.vertices == g.vertices


def test_block_graphs_reach_every_shortcut(monkeypatch):
    # rand_block_graph draws must exercise what the per-block decision
    # skips or decides early: block paths of three or more blocks, paths
    # failed by a pair already rejected (no test runs and no new pair gets
    # forbidden), and rejects on a minor, a vertex set that is no block's,
    # some of which the pair's neighbourhood alone would have passed.
    seen = Counter()
    stays, planar_on = stars._path_stays_planar, stars._planar_on
    state = {}

    def spy_path(path, b, bedges, bverts, adj, forbidden):
        state.update(verts=bverts, adj=adj)
        before, tests = len(forbidden), seen["tests"]
        ok = stays(path, b, bedges, bverts, adj, forbidden)
        seen["long path"] += len(path) >= 3
        seen["forbidden"] += not ok and len(forbidden) == before and seen["tests"] == tests
        return ok

    def spy_test(verts, edges):
        seen["tests"] += 1
        ok = planar_on(verts, edges)
        if not ok and all(verts is not v for v in state["verts"].values()):
            seen["minor reject"] += 1
            x, y = edges[-1]  # the pair comes last
            near = verts & ({x, y} | state["adj"][x] | state["adj"][y])
            induced = [(u, w) for u, w in edges if u in near and w in near]
            seen["contraction needed"] += planar_on(near, induced)
        return ok

    monkeypatch.setattr(stars, "_path_stays_planar", spy_path)
    monkeypatch.setattr(stars, "_planar_on", spy_test)
    for seed in range(40):
        maximal_planar_subgraph(rand_block_graph(random.Random(seed)))
    assert seen["long path"] >= 20
    assert seen["forbidden"] >= 3
    assert seen["minor reject"] >= 10
    assert seen["contraction needed"] >= 5


def test_block_path_enters_each_block_at_its_cut_vertex(monkeypatch):
    # Each block on a path comes with the one vertex it shares with the
    # next block, and the last block with a: the cut vertices that
    # _path_stays_planar reads and no longer derives.
    block_path = stars._block_path
    seen = Counter()

    def spy(vblocks, bverts, a, b):
        path = block_path(vblocks, bverts, a, b)
        if path is not None:
            (first, _), (last, end) = path[0], path[-1]
            assert b in bverts[first] and a in bverts[last] and end == a
            for (blk, y), (nxt, _) in zip(path, path[1:]):
                assert bverts[blk] & bverts[nxt] == {y}
            seen["steps"] += len(path) - 1
        return path

    monkeypatch.setattr(stars, "_block_path", spy)
    for seed in range(40):
        maximal_planar_subgraph(rand_block_graph(random.Random(seed)))
    for _, g in corpus_graphs(50):
        maximal_planar_subgraph(g)
    assert seen["steps"] >= 2000


def minor_rejects_are_block_rejects(monkeypatch, graphs):
    """Run maximal_planar_subgraph on ``graphs`` while checking every
    call of the block decision against ``path_stays_planar_near``, the
    neighbourhood pre-test it replaced (same verdict, same forbidden
    pairs), and every reject on a minor against the whole block plus the
    pair.  Returns the number of minor rejects."""
    stays, planar_on = stars._path_stays_planar, stars._planar_on
    state = {}
    rejects = []

    def spy_path(path, b, bedges, bverts, adj, forbidden):
        state.update(path=path, bedges=bedges, bverts=bverts)
        old = set(forbidden)
        want = path_stays_planar_near(path, b, bedges, bverts, adj, old)
        assert stays(path, b, bedges, bverts, adj, forbidden) == want
        assert forbidden == old
        return want

    def spy_test(verts, edges):
        ok = planar_on(verts, edges)
        bverts = state["bverts"]
        if not ok and all(verts is not v for v in bverts.values()):
            x, y = edges[-1]
            (blk,) = [blk for blk, _ in state["path"] if {x, y} <= bverts[blk]]
            assert not planar_on(bverts[blk], state["bedges"][blk] + [(x, y)])
            rejects.append((x, y))
        return ok

    monkeypatch.setattr(stars, "_path_stays_planar", spy_path)
    monkeypatch.setattr(stars, "_planar_on", spy_test)
    for g in graphs:
        maximal_planar_subgraph(g)
    return len(rejects)


def test_minor_rejects_are_block_rejects_on_block_graphs(monkeypatch):
    graphs = [rand_block_graph(random.Random(seed)) for seed in range(200)]
    assert minor_rejects_are_block_rejects(monkeypatch, graphs) >= 100


def test_minor_rejects_are_block_rejects_on_the_corpus(monkeypatch):
    graphs = [g for _, g in corpus_graphs(50)]
    assert minor_rejects_are_block_rejects(monkeypatch, graphs) >= 500


@lru_cache(maxsize=None)
def corpus_graphs(k):
    docs = load_corpus(CORPUS)
    assert len(docs) == 13
    return [(doc_id, document_instance(text, k)[1]) for doc_id, text in docs]


@pytest.mark.parametrize("k", [50, 100])
def test_maximal_planar_subgraph_matches_union_on_the_corpus(k):
    for doc_id, g in corpus_graphs(k):
        assert maximal_planar_subgraph(g).edges() == maximal_planar_subgraph_union(g).edges(), doc_id


def test_maximal_planar_subgraph_tests_few_edges_on_the_corpus(monkeypatch):
    # One left-right test per edge on the whole union of the blocks on the
    # path handed _is_planar 786,775 edges over the corpus at k=100.
    handed = []
    test = stars._is_planar
    monkeypatch.setattr(stars, "_is_planar", lambda n, edges: handed.append(len(edges)) or test(n, edges))
    for _, g in corpus_graphs(100):
        maximal_planar_subgraph(g)
    assert sum(handed) <= 0.3 * 786_775


K5 = list(combinations(range(5), 2))
K33 = [(a, b) for a in range(3) for b in range(3, 6)]


def shuffled(rng, n, edges):
    """``edges`` under a random vertex permutation, in random order with
    random endpoint order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]) for a, b in edges]
    rng.shuffle(out)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_is_planar_matches_networkx_on_clustered_graphs(seed):
    rng = random.Random(seed)
    g = rand_clustered_graph(rng, 14)
    idx = {v: i for i, v in enumerate(sorted(g.vertices))}
    n = len(idx)
    edges = shuffled(rng, n, [(idx[a], idx[b]) for a, b, _ in g.edges()])
    assert _is_planar(n, edges) == is_planar_nx(n, edges)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_is_planar_matches_networkx_at_the_planarity_boundary(seed):
    # A greedy maximal planar subgraph is planar, and adding any edge it
    # rejected is not: the hardest cases for the left-right test.
    rng = random.Random(seed)
    g = rand_clustered_graph(rng, 14)
    kept = maximal_planar_subgraph_brute(g)
    idx = {v: i for i, v in enumerate(sorted(g.vertices))}
    n = len(idx)
    planar = [(idx[a], idx[b]) for a, b, _ in kept.edges()]
    rejected = sorted(set(g.edges()) - set(kept.edges()))
    cases = [planar] + [planar + [(idx[a], idx[b])] for a, b, _ in rejected]
    for edges in cases:
        edges = shuffled(rng, n, edges)
        assert _is_planar(n, edges) == is_planar_nx(n, edges)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([K5, K33]),
    st.booleans(),
)
def test_is_planar_matches_networkx_on_kuratowski_subdivisions(seed, base, delete):
    # Each edge of K5 or K3,3 becomes a path of 1-3 edges; deleting any
    # one of those edges leaves a planar graph.  Pendant trees hang on top.
    rng = random.Random(seed)
    n = 6 if base is K33 else 5
    edges = []
    for a, b in base:
        for _ in range(rng.randrange(3)):
            edges.append((a, n))
            a, n = n, n + 1
        edges.append((a, b))
    if delete:
        edges.pop(rng.randrange(len(edges)))
    for _ in range(rng.randrange(8)):
        edges.append((rng.randrange(n), n))
        n += 1
    edges = shuffled(rng, n, edges)
    assert _is_planar(n, edges) == is_planar_nx(n, edges) == delete


def ladder(length):
    """The 2 x length grid: rails 0..length-1 and length..2*length-1, rung
    i joining i and length+i; the rails come first, so the depth-first
    search runs down one rail and back along the other."""
    top = [(i, i + 1) for i in range(length - 1)]
    bottom = [(length + i, length + i + 1) for i in range(length - 1)]
    rungs = [(i, length + i) for i in range(length)]
    return top + bottom + rungs


def test_is_planar_has_no_recursion_limit():
    length = 2 * sys.getrecursionlimit()
    n = 2 * length
    edges = ladder(length)
    assert _is_planar(n, edges)
    # A K3,3 subdivision whose branch vertices 0 and length-1 are joined by
    # the whole top rail; the other four branch vertices are new.
    a1, b1, a2, a3, b2, b3 = 0, length - 1, n, n + 1, n + 2, n + 3
    spliced = edges + [
        (a1, b2), (a1, b3), (a2, b1), (a2, b2), (a2, b3), (a3, b1), (a3, b2), (a3, b3)
    ]
    assert not _is_planar(n + 4, spliced)


@pytest.mark.parametrize(
    "verts, edges, planar",
    [
        ({4}, [], True),
        ({3, 8}, [(3, 8)], True),
        (set(range(5)), [(a, b) for a in range(5) for b in range(a + 1, 5)], False),
    ],
    ids=["one-vertex", "one-edge", "k5"],
)
def test_planar_on_small_graphs_and_k5(verts, edges, planar):
    # 3V - 6 is negative below 3 vertices, so the edge bound must not apply there
    assert stars._planar_on(verts, edges) is planar


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


# Sides with the denominators of box sizes: leaves from 1/64 up to 12
# and centers from 1 to 6, so that some leaves fit one side or none.
DENS = (1, 2, 3, 4, 5, 6, 7, 64)


def sides(lo, hi):
    """Rationals over one of DENS, at least 1/64, in [lo, hi]."""
    return st.sampled_from(DENS).flatmap(
        lambda d: st.integers(max(1, lo * d), hi * d).map(lambda k: Fraction(k, d))
    )


profits = st.builds(
    Fraction, st.integers(min_value=0, max_value=9), st.sampled_from((1, 2, 3, 5, 7, 10))
)


@st.composite
def star_cases(draw):
    leaves = draw(st.integers(min_value=0, max_value=9))
    inst = StarInstance(
        BoxSpec("c", draw(sides(1, 6)), draw(sides(1, 6))),
        tuple(BoxSpec(f"l{i}", draw(sides(0, 12)), draw(sides(0, 12))) for i in range(leaves)),
        {f"l{i}": draw(profits) for i in range(leaves)},
    )
    cap = draw(st.none() | st.integers(min_value=0, max_value=4))
    # The unpruned oracle's table grows with leaves^2 / eps, times the
    # leaves^4 corner subsets when the pool is uncapped.
    pool = leaves if cap is None else min(cap, leaves)
    least = max(1, leaves * leaves * (1 + pool) ** 2 // 64)
    eps = Fraction(draw(st.integers(min_value=least, max_value=999)), 1000)
    return inst, eps, cap


@settings(max_examples=200, deadline=None)
@given(star_cases())
def test_solve_star_matches_fraction_oracle(case):
    inst, eps, cap = case
    got = solve_star(inst, eps, cap)
    want = solve_star_fraction(inst, eps, cap)
    assert list(got.pos.items()) == list(want.pos.items())
    assert list(got.boxes.items()) == list(want.boxes.items())


@pytest.mark.parametrize(
    "inst, solves",
    [
        # No corners already earns all 3: every corner subset's bound ties it.
        (star((4, 4), [(1, 1)] * 3), 1),
        # Four leaves fit no side: (), (0,), (0, 1), (0, 1, 2) and
        # (0, 1, 2, 3) each raise the bound past the best so far.
        (star((2, 1), [(5, 5)] * 4), 5),
        # The two unit leaves count toward every subset's bound.
        (star((2, 2), [(1, 1), (5, 5), (1, 1)], {"l0": 2, "l1": 3, "l2": 2}), 2),
        # l1 fits the top only, and still counts: (0,) must be solved, or
        # (0, 1) wins with the same value and both leaves on corners.
        (star((2, 2), [(5, 5), (1, 5)], {"l0": 1, "l1": 4}), 2),
    ],
    ids=["ties", "no-side", "two-fit", "one-side"],
)
def test_corner_bound_skips_subsets_that_cannot_win(inst, solves):
    calls = []

    def counting(gi, eps):
        calls.append(gi)
        return gap_sequential(gi, eps)

    with mock.patch.object(stars, "gap_sequential", counting):
        lay = solve_star(inst, EPS)
    assert len(calls) == solves
    assert list(lay.pos.items()) == list(solve_star_fraction(inst, EPS).pos.items())


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


def test_planarity_tests_do_not_follow_the_hash_seed():
    # Each block and each neighbourhood is numbered in id order, with its
    # edges in a fixed order, so the graphs handed to _is_planar, and with
    # them the stage's work, are the same in every process whatever
    # PYTHONHASHSEED is; so is the star-forest partition of the result.
    code = (
        "import json, random\n"
        "from crown import stars\n"
        "from crown.geometry import ProfitGraph\n"
        "rng = random.Random(3)\n"
        "ids = [f'v{i:02d}' for i in range(30)]\n"
        "g = ProfitGraph(ids)\n"
        "for i, a in enumerate(ids):\n"
        "    for b in ids[:i]:\n"
        "        if rng.random() < 0.4:\n"
        "            g.add_edge(a, b, rng.randint(1, 5))\n"
        "calls, test = [], stars._is_planar\n"
        "stars._is_planar = lambda n, edges: calls.append([n, edges]) or test(n, edges)\n"
        "kept = stars.maximal_planar_subgraph(g)\n"
        "print(json.dumps(calls))\n"
        "print(stars.partition_planar(kept))\n"
    )
    src = str(Path(crown.__file__).resolve().parent.parent)
    runs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert len(json.loads(runs[0].splitlines()[0])) > 10
    assert runs[0] == runs[1]
