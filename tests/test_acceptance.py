"""Acceptance suite: ten end-to-end criteria with explicit budgets.

Each test checks one guarantee at its stated tolerance (exact rational
comparisons unless noted), times itself against the budget, and records
a [PASS]/[FAIL] line that the conftest hook prints after the run.

Contact checks over many large layouts go through an integer rescaling
of the coordinates (least common denominator), which is exact and much
faster than Fraction-by-Fraction pair tests.
"""

import math
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

from crown.cycles import layout_cycle, max_crown_cycles
from crown.errors import HierInfeasibleError, TriangulationInfeasibleError
from crown.geometry import BoxSpec, ProfitGraph, detect_contacts, realized_profit
from crown.hier import EmbeddedDag, solve_hier
from crown.pipeline import document_instance, load_corpus, random_baseline
from crown.serialize import dag_to_doc, dumps_doc, instance_to_doc, triangulation_to_doc
from crown.stars import max_crown_stars, maximal_planar_subgraph, solve_star
from crown.triangulation import (
    TriangulationInstance,
    realize_triangulation,
    validate_instance,
)

from fixtures_extremal import (
    gen_3partition_tree_instance,
    gen_partition_star_instance,
    gen_power_squares,
    place_extremal,
    realizes,
)
from oracles import (
    hier_feasible,
    max_degree,
    rand_degree_graph,
    rand_embedded_dag,
    rand_guillotine_dual,
    rand_int_boxes,
    rand_star_instance,
    rand_tree,
    star_opt,
    tree_opt,
    tri_realizable,
)

EPS = Fraction(1, 10)
ALPHA = (1 - EPS) / (2 - EPS)
REPO = Path(__file__).resolve().parent.parent


# -- exact integer-grid contact checking ---------------------------------

def int_rects(lay):
    den = 1
    for v, (x, y) in lay.pos.items():
        b = lay.boxes[v]
        den = lcm(den, x.denominator, y.denominator, b.w.denominator, b.h.denominator)
    out = {}
    for v, (x, y) in lay.pos.items():
        b = lay.boxes[v]
        x1, y1 = int(x * den), int(y * den)
        out[v] = (x1, y1, x1 + int(b.w * den), y1 + int(b.h * den))
    return out


def touches(r, s):
    ix1, ix2 = max(r[0], s[0]), min(r[2], s[2])
    iy1, iy2 = max(r[1], s[1]), min(r[3], s[3])
    if ix1 > ix2 or iy1 > iy2:
        return None
    if ix1 < ix2 and iy1 < iy2:
        return "overlap"
    if ix1 == ix2 and iy1 == iy2:  # point: NE/SW meet is horizontal
        ne_sw = (r[2], r[3]) == (s[0], s[1]) or (s[2], s[3]) == (r[0], r[1])
        return "h" if ne_sw else "v"
    return "h" if ix1 == ix2 else "v"


def contact_list(rects):
    """All touching pairs with orientations; raises on interior overlap."""
    items = sorted(rects.items(), key=lambda kv: (kv[1][0], kv[0]))
    found = []
    for i, (a, ra) in enumerate(items):
        for b, rb in items[i + 1 :]:
            if rb[0] > ra[2]:
                break
            t = touches(ra, rb)
            if t == "overlap":
                raise AssertionError(f"overlap {a}-{b}")
            if t is not None:
                found.append((a, b, t))
    return found


def is_forest(edges):
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


# -- criteria -------------------------------------------------------------

def test_criterion_1_cycle_cover_bound(criterion):
    rng = random.Random(101)
    start = time.monotonic()
    worst = Fraction(10)
    for _ in range(200):
        g = rand_degree_graph(rng, rng.randrange(4, 51), rng.randrange(2, 9))
        while not g.edges():
            g = rand_degree_graph(rng, rng.randrange(4, 51), rng.randrange(2, 9))
        boxes = {
            v: BoxSpec(v, Fraction(rng.randrange(1, 9)), Fraction(rng.randrange(1, 9)))
            for v in g.vertices
        }
        lay = max_crown_cycles(g, boxes)
        rects = int_rects(lay)
        got = sum(
            (p for a, b, p in g.edges() if touches(rects[a], rects[b]) not in (None, "overlap")),
            Fraction(0),
        )
        contact_list(rects)  # overlap guard
        bound = g.total_profit() / math.ceil(max_degree(g) / 2)
        worst = min(worst, got / bound)
        assert got >= bound
    elapsed = time.monotonic() - start
    criterion(
        1,
        elapsed < 10,
        f"200 graphs, realized >= total/ceil(max_deg/2) exactly; "
        f"worst margin {float(worst):.2f}x, {elapsed:.1f}s (budget 10s)",
    )
    assert elapsed < 10


def test_criterion_2_cycle_layouts(criterion):
    rng = random.Random(202)
    start = time.monotonic()
    for _ in range(10_000):
        n = rng.randrange(3, 51)
        boxes = [
            BoxSpec(
                f"b{i}",
                Fraction(rng.randrange(1, 13), rng.choice((1, 2))),
                Fraction(rng.randrange(1, 13), rng.choice((1, 2))),
            )
            for i in range(n)
        ]
        lay = layout_cycle(boxes)
        rects = int_rects(lay)
        contact_list(rects)  # no overlaps anywhere
        for i in range(n):
            a, b = f"b{i}", f"b{(i + 1) % n}"
            assert touches(rects[a], rects[b]) in ("h", "v"), (n, i)
    elapsed = time.monotonic() - start
    criterion(
        2,
        elapsed < 30,
        f"10000 cycles n in [3,50], all edges realized, no overlaps, "
        f"{elapsed:.1f}s (budget 30s)",
    )
    assert elapsed < 30


def test_criterion_3_star_approximation(criterion):
    rng = random.Random(303)
    start = time.monotonic()
    ratios = []
    for _ in range(100):
        inst = rand_star_instance(rng, rng.randrange(1, 10))
        g = ProfitGraph(
            [inst.center.id] + [l.id for l in inst.leaves],
            {(inst.center.id, l.id): inst.profits[l.id] for l in inst.leaves},
        )
        got = realized_profit(solve_star(inst, EPS), g)
        best = star_opt(inst)
        ratios.append(got / best)
        assert got >= ALPHA * best
    elapsed = time.monotonic() - start
    mean = sum(ratios, Fraction(0)) / len(ratios)
    criterion(
        3,
        elapsed < 60,
        f"100 stars <=9 leaves, value >= (1-eps)/(2-eps) x oracle; empirical "
        f"ratio min {float(min(ratios)):.3f} mean {float(mean):.3f}, "
        f"{elapsed:.1f}s (budget 60s)",
    )
    assert elapsed < 60


def test_criterion_4_tree_max_crown(criterion):
    rng = random.Random(404)
    start = time.monotonic()
    worst = Fraction(10)
    for _ in range(50):
        n = rng.randrange(2, 7)
        edges = rand_tree(rng, n)
        g = ProfitGraph(
            [f"t{i}" for i in range(n)],
            {e: Fraction(rng.randrange(1, 9), rng.choice((1, 2, 3))) for e in edges},
        )
        boxes = rand_int_boxes(rng, [f"t{i}" for i in range(n)], hi=3)
        lay = max_crown_stars(g, boxes, EPS)
        got = realized_profit(lay, g)
        best = tree_opt(g, boxes)
        worst = min(worst, got / best)
        assert got >= ALPHA / 2 * best
    elapsed = time.monotonic() - start
    criterion(
        4,
        elapsed < 300,
        f"50 trees n<=6 int dims<=3, realized >= (alpha/2) x placement oracle; "
        f"worst ratio {float(worst):.3f}, {elapsed:.1f}s (budget 300s)",
    )
    assert elapsed < 300


def test_criterion_5_hier_exactness(criterion):
    rng = random.Random(505)
    start = time.monotonic()
    feasible = 0
    for _ in range(100):
        dag, boxes = rand_embedded_dag(rng, rng.randrange(2, 6))
        want = hier_feasible(dag, boxes, 1)
        try:
            lay = solve_hier(dag, boxes, Fraction(1))
            got = True
        except HierInfeasibleError:
            got = False
        assert got == want
        if got:
            feasible += 1
            contacts = {(c.a, c.b): c for c in detect_contacts(lay)}
            for child, parent in dag.edges:
                c = contacts[tuple(sorted((child, parent)))]
                assert c.orientation == "v" and c.hi - c.lo >= 1
    elapsed = time.monotonic() - start
    criterion(
        5,
        elapsed < 120,
        f"100 embedded DAGs n<=5, verdict matches integer-grid oracle "
        f"({feasible} feasible), contacts vertical with overlap >= delta, "
        f"{elapsed:.1f}s (budget 120s)",
    )
    assert elapsed < 120


WHEEL_ROTATION = {
    "N": ("E", "t0", "W"),
    "E": ("S", "t0", "N"),
    "S": ("W", "t0", "E"),
    "W": ("N", "t0", "S"),
    "t0": ("N", "E", "S", "W"),
}


def test_criterion_6_triangulation(criterion):
    start = time.monotonic()
    # (a) the five-box dual: inner square wrapped by four walls
    inst = TriangulationInstance(
        {
            v: BoxSpec(v, Fraction(w), Fraction(h))
            for v, (w, h) in {
                "N": (4, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)
            }.items()
        },
        WHEEL_ROTATION,
        ("N", "E", "S", "W"),
    )
    lay = realize_triangulation(inst)
    pairs = {tuple(sorted((a, b))) for a, b, _ in contact_list(int_rects(lay))}
    assert sum(1 for e in inst.edges() if e in pairs) == 8

    # (b) verdict agreement with the exhaustive placement oracle
    rng = random.Random(606)
    checked = agreed = 0
    while checked < 25:
        cand = rand_guillotine_dual(rng, rng.choice((1, 2, 2, 3)), perturb=rng.random() < 0.5)
        if cand is None or validate_instance(cand) is not None:
            continue
        want = tri_realizable(cand)
        try:
            out = realize_triangulation(cand)
            got = True
            assert set(cand.edges()) <= {
                tuple(sorted((a, b))) for a, b, _ in contact_list(int_rects(out))
            }
        except TriangulationInfeasibleError:
            got = False
        assert got == want
        checked += 1
        agreed += 1
    elapsed = time.monotonic() - start
    criterion(
        6,
        elapsed < 120,
        f"5-vertex dual realizes all 8 edges; verdict matches exhaustive "
        f"oracle on {agreed}/25 generated instances (<=7 vertices, dims <= 4), "
        f"{elapsed:.1f}s (budget 120s)",
    )
    assert elapsed < 120


def test_criterion_7_extremal_counts(criterion):
    rng = random.Random(707)
    start = time.monotonic()
    for n in range(5, 51):
        for _ in range(20):
            boxes = [
                BoxSpec(
                    f"s{i}",
                    Fraction(rng.randrange(1, 9)),
                    Fraction(rng.randrange(1, 9)),
                )
                for i in range(n)
            ]
            rects = int_rects(place_extremal(boxes))
            assert len(contact_list(rects)) == 2 * n - 2, n
        squares = gen_power_squares(n)
        contacts = contact_list(int_rects(place_extremal(squares)))
        assert len(contacts) == 2 * n - 2
        for oo in ("h", "v"):
            assert is_forest([(a, b) for a, b, o in contacts if o == oo]), (n, oo)
    elapsed = time.monotonic() - start
    criterion(
        7,
        elapsed < 10,
        f"n in [5,50] x 20 dimension sets: exactly 2n-2 contacts; power-square "
        f"orientation graphs are forests, {elapsed:.1f}s (budget 10s)",
    )
    assert elapsed < 10


def test_criterion_8_gadget_witnesses(criterion):
    rng = random.Random(808)
    start = time.monotonic()
    for _ in range(10):
        k = rng.randrange(1, 5)
        half = [rng.randrange(1, 9) for _ in range(k)]
        inst = gen_partition_star_instance(
            tuple(half + half),
            partition=(tuple(range(k)), tuple(range(k, 2 * k))),
        )
        assert inst.witness is not None
        assert realizes(inst.witness, inst.graph)
        detect_contacts(inst.witness)
    for _ in range(10):
        m = rng.choice((2, 3))
        B = 20
        groups = []
        for _ in range(m):
            a = rng.randrange(6, 9)
            b = rng.randrange(max(6, B - a - 9), min(9, B - a - 6) + 1)
            groups.append((a, b, B - a - b))
        S = [s for grp in groups for s in grp]
        partition = tuple(
            tuple(range(3 * j, 3 * j + 3)) for j in range(m)
        )
        inst = gen_3partition_tree_instance(tuple(S), m=m, B=B, partition=partition)
        assert inst.witness is not None
        assert realizes(inst.witness, inst.graph)
        detect_contacts(inst.witness)
    elapsed = time.monotonic() - start
    criterion(
        8,
        elapsed < 5,
        f"10 balanced-split and 10 triple-partition witnesses pass realizes + "
        f"no-overlap, {elapsed:.1f}s (budget 5s)",
    )
    assert elapsed < 5


def test_criterion_9_corpus_experiment(criterion):
    start = time.monotonic()
    docs = load_corpus(REPO / "corpus")
    assert len(docs) >= 10
    cc = sf = rnd = Fraction(0)
    for doc_id, text in docs:
        assert len(text.split()) >= 400, doc_id
        boxes, graph, _ = document_instance(text, k=50)
        bx = {b.id: b for b in boxes}
        total = graph.total_profit()
        cc += realized_profit(max_crown_cycles(graph, bx), graph) / total
        sf += realized_profit(
            max_crown_stars(maximal_planar_subgraph(graph), bx, Fraction(1, 2), 0),
            graph,
        ) / total
        rnd += realized_profit(random_baseline(graph, bx, seed=0), graph) / total
    n = len(docs)
    cc, sf, rnd = cc / n, sf / n, rnd / n
    elapsed = time.monotonic() - start
    criterion(
        9,
        cc > sf > rnd and cc >= 2 * rnd and elapsed < 120,
        f"{n} documents, k=50: means cycle-cover {float(100 * cc):.1f}% > "
        f"star-forest {float(100 * sf):.1f}% > random {float(100 * rnd):.1f}%, "
        f"cycle-cover >= 2x random, {elapsed:.1f}s (budget 120s)",
    )
    assert cc > sf > rnd
    assert cc >= 2 * rnd
    assert elapsed < 120


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "crown.cli", *args],
        cwd=cwd,
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_determinism(criterion, tmp_path):
    start = time.monotonic()
    boxes = [BoxSpec(v, Fraction(1 + i), Fraction(2)) for i, v in enumerate("abcd")]
    graph = ProfitGraph(
        "abcd",
        {("a", "b"): Fraction(1), ("b", "c"): Fraction(2), ("c", "d"): Fraction(3, 2)},
    )
    inst = tmp_path / "inst.json"
    inst.write_text(dumps_doc(instance_to_doc(boxes, graph)), encoding="utf-8")

    dag = EmbeddedDag(
        ("s", "p", "q"),
        (("p", "s"), ("q", "s")),
        {"s": ("p", "q"), "p": ("s",), "q": ("s",)},
    )
    dag_boxes = {
        "s": BoxSpec("s", Fraction(6), Fraction(1)),
        "p": BoxSpec("p", Fraction(2), Fraction(1)),
        "q": BoxSpec("q", Fraction(2), Fraction(1)),
    }
    dag_path = tmp_path / "dag.json"
    dag_path.write_text(dumps_doc(dag_to_doc(dag, dag_boxes)), encoding="utf-8")

    tri = TriangulationInstance(
        {
            v: BoxSpec(v, Fraction(w), Fraction(h))
            for v, (w, h) in {
                "N": (4, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)
            }.items()
        },
        WHEEL_ROTATION,
        ("N", "E", "S", "W"),
    )
    tri_path = tmp_path / "tri.json"
    tri_path.write_text(dumps_doc(triangulation_to_doc(tri)), encoding="utf-8")

    mini = tmp_path / "corpus"
    mini.mkdir()
    for name in sorted(p.name for p in (REPO / "corpus").iterdir())[:2]:
        shutil.copy(REPO / "corpus" / name, mini / name)

    identical = True
    for args, flag, name in (
        (["layout", str(inst), "--algo", "random", "--seed", "11"], "--svg", "r.svg"),
        (["layout", str(inst), "--algo", "star-forest"], "--svg", "s.svg"),
        (["layout", str(inst), "--algo", "cycle-cover"], "--svg", "c.svg"),
        (["hier", str(dag_path), "--delta", "1/2"], "--svg", "h.svg"),
        (["tri", str(tri_path)], "--svg", "t.svg"),
        (["bench", str(mini)], "--csv", "b.csv"),
    ):
        args = args + [flag, str(tmp_path / name)]
        runs = []
        for _ in range(2):
            out = _run_cli(args, REPO)
            runs.append((out, (tmp_path / name).read_bytes()))
        if runs[0] != runs[1]:
            identical = False
    elapsed = time.monotonic() - start
    criterion(
        10,
        identical,
        f"layout (all 3 algos), hier, tri, bench reruns byte-identical "
        f"(stdout + SVG or CSV), {elapsed:.1f}s",
    )
    assert identical
