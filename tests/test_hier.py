"""Hierarchy solver: y-assignment, sweep ordering, x-feasibility."""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crown import hier
from crown.errors import HierInfeasibleError, ParameterError
from crown.geometry import BoxSpec, detect_contacts, on_unit, rat
from crown.hier import (
    EmbeddedDag,
    EmbeddingViolation,
    assign_y,
    default_delta,
    solve_hier,
    solve_x,
    sweep_order,
    validate_embedding,
)

from oracles import hier_feasible, line_events, rand_embedded_dag, solve_x_fraction


def dag_of(edges, rotation):
    vs = tuple(sorted({v for e in edges for v in e}))
    return EmbeddedDag(vs, tuple(edges), rotation)


def boxes_of(dims):
    return {v: BoxSpec(v, rat(w), rat(h)) for v, (w, h) in dims.items()}


def test_assign_y_single_edge():
    dag = dag_of([("c", "s")], {"s": ("c",), "c": ("s",)})
    y = assign_y(dag, {"s": Fraction(1), "c": Fraction(2)})
    assert y["s"] == (0, -1)
    assert y["c"] == (-1, -3)


def test_assign_y_chain():
    dag = dag_of([("b", "a"), ("c", "b")], {"a": ("b",), "b": ("a", "c"), "c": ("b",)})
    y = assign_y(dag, {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)})
    assert [y[v][0] for v in "abc"] == [0, -1, -2]


def test_assign_y_diamond_conflict():
    # two parents at different depths force incompatible tops for d
    edges = [("b", "a"), ("c", "a"), ("d", "b"), ("d", "c")]
    rotation = {
        "a": ("b", "c"),
        "b": ("a", "d"),
        "c": ("a", "d"),
        "d": ("b", "c"),
    }
    dag = dag_of(edges, rotation)
    heights = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(2), "d": Fraction(1)}
    with pytest.raises(HierInfeasibleError) as err:
        assign_y(dag, heights)
    assert (err.value.stage, err.value.witness) == ("assign_y", ["d", -2, -3])


def test_sweep_single_edge_no_pairs():
    dag = dag_of([("c", "s")], {"s": ("c",), "c": ("s",)})
    y = assign_y(dag, {"s": Fraction(1), "c": Fraction(1)})
    assert sweep_order(dag, y) == []


def test_sweep_orders_predecessors_left_to_right():
    edges = [("p", "s"), ("q", "s")]
    rotation = {"s": ("p", "q"), "p": ("s",), "q": ("s",)}
    dag = dag_of(edges, rotation)
    y = assign_y(dag, {v: Fraction(1) for v in "pqs"})
    assert ("p", "q") in sweep_order(dag, y)


def test_sweep_level_without_an_alive_box_adds_nothing():
    # c's bottom, -3/2, is a level where no alive box ends (c enters at
    # -3): the list stays [p, q] and its pair is not emitted again
    dag = dag_of(
        [("p", "s"), ("q", "s"), ("c", "p")],
        {"s": ("p", "q"), "p": ("s", "c"), "q": ("s",), "c": ("p",)},
    )
    y = {"s": (0, -1), "p": (-1, -3), "q": (-1, -2), "c": (-3, Fraction(-3, 2))}
    assert sweep_order(dag, y) == [("p", "q")]


def test_solve_x_single_edge_feasible():
    x = solve_x(
        {"s": Fraction(1), "c": Fraction(1)},
        [("c", "s")],
        [],
        Fraction(1, 4),
        "s",
    )
    assert x["s"] == 0
    # overlap of at least delta
    lo = max(x["s"], x["c"])
    hi = min(x["s"] + 1, x["c"] + 1)
    assert hi - lo >= Fraction(1, 4)


def test_solve_x_two_preds_too_wide():
    # two unit preds under a unit sink cannot both overlap by 3/4
    with pytest.raises(HierInfeasibleError) as err:
        solve_x(
            {"s": Fraction(1), "p": Fraction(1), "q": Fraction(1)},
            [("p", "s"), ("q", "s")],
            [("p", "q")],
            Fraction(3, 4),
            "s",
        )
    assert err.value.stage == "solve_x"


def test_solve_x_witness_is_the_cycle_its_relaxation_order_finds():
    # two negative cycles, a <-> b and c <-> d, both reachable from s; the
    # queue pops s's children in edge order, so b (hung from a) pops
    # before d (hung from c) and closes a <-> b, whichever pairs come first
    widths = {"s": Fraction(4), "a": Fraction(1), "b": Fraction(2),
              "c": Fraction(1), "d": Fraction(3)}
    edges = [("a", "s"), ("c", "s"), ("b", "s"), ("d", "s")]
    ab = [("a", "b"), ("b", "a")]
    cd = [("c", "d"), ("d", "c")]
    for order in (ab + cd, cd + ab):
        with pytest.raises(HierInfeasibleError) as err:
            solve_x(widths, edges, order, Fraction(1, 2), "s")
        assert err.value.stage == "solve_x"
        assert err.value.witness == [("order", "b", "a"), ("order", "a", "b")]


def test_validate_embedding_catches_unknown_vertex():
    dag = EmbeddedDag(("a", "b"), (("b", "a"),), {"a": ("b",), "b": ("a", "zz")})
    v = validate_embedding(dag)
    assert v is not None and v.kind == "rotation"


@pytest.mark.parametrize(
    "edges, rotation, want",
    [
        (
            [("a", "b")],
            {"a": ("b",), "b": ()},
            ("rotation", "b", "rotation at 'b' does not list its neighbors"),
        ),
        (
            [("a", "b"), ("b", "c"), ("c", "a")],
            {"a": ("b", "c"), "b": ("a", "c"), "c": ("a", "b")},
            ("cycle", "a", "directed cycle through 'a'"),
        ),
        (
            [("c", "a"), ("c", "b")],
            {"a": ("c",), "b": ("c",), "c": ("a", "b")},
            ("sink", "a", "expected one sink, found ['a', 'b']"),
        ),
        # m's rotation alternates in (p, q) and out (t, s) edges
        (
            [("p", "m"), ("q", "m"), ("m", "t"), ("m", "s"), ("t", "s")],
            {"m": ("p", "t", "q", "s"), "p": ("m",), "q": ("m",), "t": ("m", "s"), "s": ("m", "t")},
            ("bimodal", "m", "incoming edges not contiguous around 'm'"),
        ),
    ],
    ids=["rotation", "cycle", "sink", "bimodal"],
)
def test_validate_embedding_names_each_violation(edges, rotation, want):
    assert validate_embedding(dag_of(edges, rotation)) == EmbeddingViolation(*want)


def test_a_doubled_edge_is_listed_twice_at_each_end():
    # edge (c, s) given twice: each end's rotation lists the other twice,
    # and the boxes land where the single edge puts them
    edges = [("c", "s"), ("c", "s")]
    once = dag_of(edges, {"c": ("s",), "s": ("c",)})
    assert validate_embedding(once) == EmbeddingViolation(
        "rotation", "c", "rotation at 'c' does not list its neighbors"
    )
    twice = dag_of(edges, {"c": ("s", "s"), "s": ("c", "c")})
    assert validate_embedding(twice) is None
    single = dag_of(edges[:1], {"c": ("s",), "s": ("c",)})
    boxes = boxes_of({"c": (1, 1), "s": (2, 1)})
    assert solve_hier(twice, boxes).pos == solve_hier(single, boxes).pos


@st.composite
def small_digraphs(draw):
    """A loopless digraph on 1..6 vertices, each rotation a drawn
    permutation of the vertex's incident edges.  Half the draws point
    every edge to a later vertex, so that many are acyclic."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    forward = draw(st.booleans())
    pairs = [(a, b) for a in vs for b in vs if (a < b if forward else a != b)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    rotation = {
        v: tuple(draw(st.permutations([b if a == v else a for a, b in edges if v in (a, b)])))
        for v in vs
    }
    return EmbeddedDag(tuple(vs), tuple(edges), rotation)


@settings(max_examples=300, deadline=None)
@given(small_digraphs())
def test_valid_embeddings_reach_their_sink(dag):
    # why validate_embedding has no reach check: acyclic with one sink
    # already means every vertex reaches it
    if validate_embedding(dag) is not None:
        return
    reach = {dag.sink()}
    frontier = list(reach)
    while frontier:
        v = frontier.pop()
        for u, w in dag.edges:
            if w == v and u not in reach:
                reach.add(u)
                frontier.append(u)
    assert reach == set(dag.vertices)


def test_validate_embedding_ok():
    dag = dag_of([("c", "s"), ("d", "c")], {"s": ("c",), "c": ("s", "d"), "d": ("c",)})
    assert validate_embedding(dag) is None


def test_solve_hier_single_edge():
    dag = dag_of([("c", "s")], {"s": ("c",), "c": ("s",)})
    lay = solve_hier(dag, boxes_of({"s": (1, 1), "c": (1, 1)}), Fraction(1, 4))
    pairs = {(ct.a, ct.b, ct.orientation) for ct in detect_contacts(lay)}
    assert ("c", "s", "v") in pairs


def test_solve_hier_names_the_first_vertex_without_box():
    dag = EmbeddedDag(("a", "b"), (("a", "b"),), {"a": ("b",), "b": ("a",)})
    with pytest.raises(ParameterError, match="'b'"):
        solve_hier(dag, boxes_of({"a": (1, 1)}))
    with pytest.raises(ParameterError, match="'a'"):
        solve_hier(dag, {}, 1)


def test_solve_hier_infeasible_two_wide_preds():
    edges = [("p", "s"), ("q", "s")]
    rotation = {"s": ("p", "q"), "p": ("s",), "q": ("s",)}
    dag = dag_of(edges, rotation)
    boxes = boxes_of({"s": (1, 1), "p": (1, 1), "q": (1, 1)})
    with pytest.raises(HierInfeasibleError):
        solve_hier(dag, boxes, Fraction(3, 4))


def test_solve_hier_contact_slack():
    # every edge must end up a vertical contact with overlap >= delta
    edges = [("p", "s"), ("q", "s"), ("r", "p")]
    rotation = {"s": ("p", "q"), "p": ("s", "r"), "q": ("s",), "r": ("p",)}
    dag = dag_of(edges, rotation)
    boxes = boxes_of({"s": (4, 1), "p": (2, 2), "q": (2, 1), "r": (3, 1)})
    delta = Fraction(1, 2)
    lay = solve_hier(dag, boxes, delta)
    by_pair = {}
    for ct in detect_contacts(lay):
        by_pair[(ct.a, ct.b)] = ct
    for child, parent in edges:
        ct = by_pair[tuple(sorted((child, parent)))]
        assert ct.orientation == "v"
        assert ct.hi - ct.lo >= delta


def test_default_delta_positive():
    boxes = boxes_of({"a": (3, 1), "b": ("1/2", 2)})
    assert default_delta(boxes) > 0


def test_feasibility_monotone_in_delta():
    edges = [("p", "s"), ("q", "s")]
    rotation = {"s": ("p", "q"), "p": ("s",), "q": ("s",)}
    dag = dag_of(edges, rotation)
    boxes = boxes_of({"s": (3, 1), "p": (2, 1), "q": (2, 1)})

    def feasible(d):
        try:
            solve_hier(dag, boxes, d)
            return True
        except HierInfeasibleError:
            return False

    results = [feasible(Fraction(k, 4)) for k in range(1, 9)]
    # once infeasible, stays infeasible as delta grows
    assert results == sorted(results, reverse=True)


def closed_walk_weights(witness, widths, delta):
    """Weights of every closed walk that orients the witness constraints in
    list order: an edge (i, j) is the arc i -> j of weight w_i - delta or
    j -> i of weight w_j - delta, an order pair (a, b) the arc b -> a of
    weight -w_a (shortest-path form of l_v <= l_u + weight)."""

    def arcs(desc):
        kind, a, b = desc
        if kind == "edge":
            return [(a, b, widths[a] - delta), (b, a, widths[b] - delta)]
        return [(b, a, -widths[a])]

    def walks(at, rest, total, start):
        if not rest:
            return [total] if at == start else []
        return [
            w
            for u, v, c in arcs(rest[0])
            if u == at
            for w in walks(v, rest[1:], total + c, start)
        ]

    return [
        w for u, _, _ in arcs(witness[0]) for w in walks(u, witness, Fraction(0), u)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(9).via("a seed whose verdict is solve_x")
@example(65002).via("a predecessor shared with the left box comes last in embedding order")
def test_solve_hier_matches_grid_oracle(seed):
    rng = random.Random(seed)
    dag, boxes = rand_embedded_dag(rng, rng.randrange(2, 6))
    want = hier_feasible(dag, boxes, 1)
    try:
        lay = solve_hier(dag, boxes, Fraction(1))
        got = True
    except HierInfeasibleError as err:
        got = False
        failure = err
    assert got == want
    if got:
        detect_contacts(lay)  # no overlaps
    elif failure.stage == "solve_x":
        # the negative cycle is a certificate: constraints of this
        # instance that chain into a closed walk of negative weight
        y = assign_y(dag, {v: boxes[v].h for v in dag.vertices})
        constraints = {("edge", *e) for e in dag.edges} | {
            ("order", *p) for p in sweep_order(dag, y)
        }
        assert failure.witness and set(failure.witness) <= constraints
        widths = {v: boxes[v].w for v in dag.vertices}
        assert any(w < 0 for w in closed_walk_weights(failure.witness, widths, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_solve_hier_output_slack(seed):
    rng = random.Random(seed)
    dag, boxes = rand_embedded_dag(rng, rng.randrange(2, 7))
    try:
        lay = solve_hier(dag, boxes, Fraction(1))
    except HierInfeasibleError:
        return
    contacts = {(c.a, c.b): c for c in detect_contacts(lay)}
    for child, parent in dag.edges:
        c = contacts[tuple(sorted((child, parent)))]
        assert c.orientation == "v" and c.hi - c.lo >= 1


def off_grid(rng, hi):
    """A Fraction in (0, hi] with a denominator from 1..7 or 64."""
    d = rng.choice((1, 2, 3, 4, 5, 6, 7, 64))
    return Fraction(rng.randrange(1, hi * d + 1), d)


def x_outcome(widths, edges, order, delta, anchor):
    """solve_x and its Fraction reference on the same input must give the
    same left coordinates (as Fractions), the same stage, or the same
    ParameterError; solve_x's witness must be a certificate: constraints
    of the instance that chain into a closed walk of negative weight.
    Returns "ok", the stage or "parameter"."""
    results = []
    for solver in (solve_x, solve_x_fraction):
        try:
            results.append(("ok", solver(widths, edges, order, delta, anchor)))
        except HierInfeasibleError as err:
            results.append((err.stage, err.witness))
        except ParameterError as err:
            results.append(("parameter", str(err)))
    got, want = results
    assert got[0] == want[0]
    if got[0] == "solve_x":
        constraints = {("edge", *e) for e in edges} | {("order", *p) for p in order}
        assert got[1] and set(got[1]) <= constraints
        assert any(w < 0 for w in closed_walk_weights(got[1], widths, rat(delta)))
    else:
        assert got == want
    if got[0] == "ok":
        assert all(type(x) is Fraction for x in got[1].values())
    return got[0]


def random_x_outcome(seed):
    """x_outcome on a random hierarchy with off-grid widths and delta; the
    order pairs come from the sweep, or are drawn at random when the
    heights clash in assign_y."""
    rng = random.Random(seed)
    dag, boxes = rand_embedded_dag(rng, rng.randrange(2, 10))
    widths = {v: off_grid(rng, 6) for v in dag.vertices}
    delta = off_grid(rng, 2)
    try:
        order = sweep_order(dag, assign_y(dag, {v: b.h for v, b in boxes.items()}))
    except HierInfeasibleError:
        order = [tuple(rng.sample(dag.vertices, 2)) for _ in range(rng.randrange(4))]
    return x_outcome(widths, dag.edges, order, delta, dag.sink())


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_solve_x_matches_fraction_reference(seed):
    random_x_outcome(seed)


def test_fraction_reference_draws_reach_both_verdicts():
    assert {random_x_outcome(seed) for seed in range(20)} == {"ok", "solve_x"}


def random_system_outcome(seed):
    """x_outcome on an arbitrary system over at most 7 vertices, or 39 on
    one draw in ten: edges and order pairs drawn at random, self-pairs
    included, any anchor.  Most draws hold a negative cycle; one in eight
    names a vertex with no width as an edge or order endpoint or as the
    anchor."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(rng.randrange(1, 40 if rng.randrange(10) == 0 else 8))]
    widths = {v: off_grid(rng, 6) for v in vs}

    def pairs():
        return [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randrange(2 * len(vs) + 1))]

    args = [widths, pairs(), pairs(), off_grid(rng, 4), rng.choice(vs)]
    if rng.randrange(8) == 0:
        where = rng.choice((1, 2, 4))
        if where == 4:
            args[4] = "q"
        else:
            args[where].insert(rng.randrange(len(args[where]) + 1), rng.choice(
                [("q", rng.choice(vs)), (rng.choice(vs), "q")]))
    return x_outcome(*args)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_solve_x_matches_fraction_reference_on_any_system(seed):
    # the draws of up to 39 vertices let the tree path in a witness run
    # several levels deep
    random_system_outcome(seed)


def test_arbitrary_systems_are_mostly_negative_cycles():
    outcomes = [random_system_outcome(seed) for seed in range(100)]
    assert set(outcomes) == {"ok", "solve_x", "parameter"}
    assert outcomes.count("solve_x") > 50


@pytest.mark.parametrize(
    "widths, edges, order, anchor",
    [
        ({"a": 1}, [("a", "q")], [], "a"),
        ({"a": 1}, [], [("q", "a")], "a"),
        ({"a": 1}, [], [], "q"),
        ({}, [], [], "z"),
    ],
    ids=["edge-endpoint", "order-endpoint", "anchor", "anchor-no-widths"],
)
def test_fraction_reference_refuses_a_vertex_with_no_width(widths, edges, order, anchor):
    # both solvers raise the same ParameterError, compared by x_outcome
    assert x_outcome(widths, edges, order, Fraction(1, 10), anchor) == "parameter"


@pytest.mark.parametrize(
    "widths, order, anchor, want",
    [
        ({"s": 1, "a": 1}, [("a", "s"), ("a", "a")], "s", "solve_x"),
        ({v: 1 for v in "sabcd"},
         [("a", "s"), ("b", "a"), ("c", "b"), ("d", "c"), ("a", "d")], "s", "solve_x"),
        ({v: 1 for v in "stabc"}, [("t", "s"), ("a", "b"), ("b", "a")], "s", "parameter"),
    ],
    ids=["order-self-pair", "cycle-closes-three-levels-down", "unreached-negative-cycle"],
)
def test_solve_x_queue_paths_match_the_reference(widths, order, anchor, want):
    # An order pair (a, b) is the arc b -> a of cost -w_a.  The self-pair
    # is a negative self-arc; the chain s -> a -> b -> c -> d puts d three
    # tree levels below a before d -> a closes the cycle; a <-> b is
    # negative but neither it nor c hangs from s.
    assert x_outcome(widths, [], order, Fraction(1, 4), anchor) == want


def layered_hierarchy(rng, rows, cols):
    """A feasible hierarchy: a sink over ``rows`` rows of ``cols`` boxes,
    each row tiling [0, 4 * cols) at random integer cuts and of one
    height, each box a child of every box of the row above it overlaps
    (by at least 1)."""
    width = 4 * cols
    layers = [[(0, width)]]
    for _ in range(rows):
        cuts = [0, *sorted(rng.sample(range(1, width), cols - 1)), width]
        layers.append(list(zip(cuts, cuts[1:])))
    name = {(r, x): f"r{r}x{x[0]}" for r, row in enumerate(layers) for x in row}
    edges, kids, parents = [], {v: [] for v in name.values()}, {v: [] for v in name.values()}
    for r in range(1, len(layers)):
        for x in layers[r]:
            for p in layers[r - 1]:
                if p[0] < x[1] and x[0] < p[1]:
                    edges.append((name[r, x], name[r - 1, p]))
                    kids[name[r - 1, p]].append(name[r, x])
                    parents[name[r, x]].append(name[r - 1, p])
    # ccw: the children left to right below, then the parents right to left
    rotation = {v: (*kids[v], *parents[v][::-1]) for v in name.values()}
    dag = EmbeddedDag(tuple(name.values()), tuple(edges), rotation)
    heights = [rng.randrange(1, 4) for _ in layers]
    boxes = {v: BoxSpec(v, x[1] - x[0], heights[r]) for (r, x), v in name.items()}
    return dag, boxes


def test_solve_x_queue_pops_grow_near_linearly(monkeypatch):
    # Each queue pop scans one vertex's arcs; on layered hierarchies 4x
    # the boxes may cost at most 6x the pops.
    pops = [0]

    class Counted(deque):
        def popleft(self):
            pops[0] += 1
            return super().popleft()

    monkeypatch.setattr(hier, "deque", Counted)
    counts = []
    for side in (10, 20):
        dag, boxes = layered_hierarchy(random.Random(side), side, side)
        pops[0] = 0
        solve_hier(dag, boxes, Fraction(1))
        counts.append(pops[0])
    assert counts[1] <= 6 * counts[0], counts


def solve_x_fails(dag, boxes):
    with pytest.raises(HierInfeasibleError) as err:
        solve_hier(dag, boxes, Fraction(3, 2))
    assert err.value.stage == "solve_x"


def test_solve_x_infeasible_work_grows_near_linearly():
    # At delta 3/2 a box of width 1 cannot overlap its parent enough, so
    # the queue closes a negative cycle; 4x the boxes may cost at most 6x
    # the line events in hier.py, witness included.
    small, large = (
        line_events(hier, solve_x_fails, *layered_hierarchy(random.Random(side), side, side))
        for side in (10, 20)
    )
    assert large <= 6 * small, (small, large)


def test_solve_x_exact_past_a_64_bit_unit():
    # children of widths 1/p for the first 30 primes side by side under
    # one sink: the common unit is their product, far past 2**64
    primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
    kids = [f"c{p:03d}" for p in primes]
    widths = {"s": Fraction(2), **{k: Fraction(1, p) for k, p in zip(kids, primes)}}
    edges = [(k, "s") for k in kids]
    order = list(zip(kids, kids[1:]))
    delta = Fraction(1, 127)
    assert len(primes) == 30 and on_unit([delta, *widths.values()])[0] > 2**64
    assert x_outcome(widths, edges, order, delta, "s") == "ok"
    left = solve_x(widths, edges, order, delta, "s")
    for a, b in order:
        assert left[a] + widths[a] <= left[b]
    for k in kids:
        overlap = min(left[k] + widths[k], 2) - max(left[k], 0)
        assert overlap >= delta
