"""The workloads, the layer calls the traced run wraps, and the metric
names both runs print.

A workload builds its inputs from the seed (set-up), runs one *item* of
user work at a time, from input to emitted bytes (timed), and checks
each item's output independently afterwards (not timed).  Layer calls go
through module attributes (``stars.max_crown_stars(...)``) so the traced
run can rebind them.
"""

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from crown import cycles, gap, geometry, hier, pipeline, serialize, stars, svg, triangulation
from crown.errors import HierInfeasibleError, TriangulationInfeasibleError

import check
import gen

# name -> unit; the untraced run prints END_TO_END, the traced run PER_LAYER.
END_TO_END = {
    "setup_s": "s",
    "ref_items_per_s": "1/s",
    "ref_item_ms.p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "stars.maximal_planar_subgraph.calls": "count",
    "stars.maximal_planar_subgraph.s": "s",
    "stars.planar.tested": "count",
    "stars.planar.kept": "count",
    "stars.planar.kept_ratio": "ratio",
    "pipeline.random_baseline.s": "s",
    "pipeline.document_instance.s": "s",
    "cycles.max_crown_cycles.self_s": "s",
    "cycles.decompose_cycle_covers.s": "s",
    "cycles.covers": "count",
    "gap.knapsack_fptas.calls": "count",
    "gap.knapsack_fptas.s": "s",
    "gap.knapsack_fptas.items": "count",
    "gap.knapsack_fptas.chosen": "count",
    "gap.gap_sequential.calls": "count",
    "gap.gap_sequential.self_s": "s",
    "stars.solve_star.calls": "count",
    "stars.solve_star.self_s": "s",
    "stars.partition_planar.s": "s",
    "stars.partition_planar.forests": "count",
    "stars.max_crown_stars.self_s": "s",
    "geometry.realized_profit.calls": "count",
    "geometry.realized_profit.s": "s",
    "hier.validate_embedding.s": "s",
    "hier.assign_y.s": "s",
    "hier.sweep_order.s": "s",
    "hier.solve_x.s": "s",
    "hier.sweep_order.pairs": "count",
    "hier.verdict.ok": "count",
    "hier.verdict.assign_y": "count",
    "hier.verdict.solve_x": "count",
    "triangulation.validate_instance.s": "s",
    "triangulation.realize_triangulation.self_s": "s",
    "triangulation.verdict.ok": "count",
    "triangulation.verdict.outer-too-small": "count",
    "serialize.parse.s": "s",
    "serialize.emit.s": "s",
    "serialize.bytes_out": "count",
    "svg.render_svg.s": "s",
    "svg.bytes": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Item:
    id: str
    text: str  # the input as the user hands it over
    kind: str
    expect: str = "ok"  # verdict known by construction
    truth: dict = field(default_factory=dict)  # plain instance data for the checker


@dataclass
class Result:
    emitted: list  # texts, in emission order
    verdict: str = "ok"
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared steps (benchmark functions, so the traced run can wrap them)


def parse_doc(text, parse):
    return parse(serialize.loads_doc(text))


def emit_layout(lay, graph):
    return serialize.dumps_doc(serialize.layout_to_doc(lay, graph))


def emit_failure(exc):
    witness = exc.witness
    if hasattr(witness, "witness"):
        witness = witness.witness
    elif hasattr(witness, "box_id"):
        witness = [witness.box_id, *witness.values]
    report = {"error": "infeasible", "stage": exc.stage, "witness": witness}
    return json.dumps(report, default=str, sort_keys=True) + "\n"


def _unit_graph(vertices, edges):
    graph = geometry.ProfitGraph(vertices)
    for a, b in edges:
        graph.add_edge(a, b, 1)
    return graph


def _plain_boxes(boxes):
    return {b.id: (b.w, b.h) for b in boxes}


def _count(key, fn):
    return lambda args, out: {key: fn(args, out)}


_bench = sys.modules[__name__]

# (module, attribute, span name, counters).  Nested calls are caught where
# the caller looks them up, e.g. solve_star calls ``stars.gap_sequential``.
TARGETS = (
    (_bench, "parse_doc", "serialize.parse", None),
    (_bench, "emit_layout", "serialize.emit", _count("serialize.bytes_out", lambda a, o: len(o.encode()))),
    (_bench, "emit_failure", "serialize.emit", _count("serialize.bytes_out", lambda a, o: len(o.encode()))),
    (pipeline, "document_instance", "pipeline.document_instance", None),
    (pipeline, "random_baseline", "pipeline.random_baseline", None),
    (cycles, "max_crown_cycles", "cycles.max_crown_cycles", None),
    (cycles, "decompose_cycle_covers", "cycles.decompose_cycle_covers",
     _count("cycles.covers", lambda a, o: len(o.covers))),
    (stars, "maximal_planar_subgraph", "stars.maximal_planar_subgraph",
     lambda a, o: {"stars.planar.tested": len(a[0].edges()), "stars.planar.kept": len(o.edges())}),
    (stars, "max_crown_stars", "stars.max_crown_stars", None),
    (stars, "partition_planar", "stars.partition_planar",
     _count("stars.partition_planar.forests", lambda a, o: len(o))),
    (stars, "solve_star", "stars.solve_star", None),
    (stars, "gap_sequential", "gap.gap_sequential", None),
    (gap, "knapsack_fptas", "gap.knapsack_fptas",
     lambda a, o: {"gap.knapsack_fptas.items": len(a[0]), "gap.knapsack_fptas.chosen": len(o)}),
    (geometry, "realized_profit", "geometry.realized_profit", None),
    (stars, "realized_profit", "geometry.realized_profit", None),
    (serialize, "realized_profit", "geometry.realized_profit", None),
    (hier, "solve_hier", "hier.solve_hier", None),
    (hier, "validate_embedding", "hier.validate_embedding", None),
    (hier, "assign_y", "hier.assign_y", None),
    (hier, "sweep_order", "hier.sweep_order", _count("hier.sweep_order.pairs", lambda a, o: len(o))),
    (hier, "solve_x", "hier.solve_x", None),
    (triangulation, "realize_triangulation", "triangulation.realize_triangulation", None),
    (triangulation, "validate_instance", "triangulation.validate_instance", None),
    (svg, "render_svg", "svg.render_svg", _count("svg.bytes", lambda a, o: len(o.encode()))),
)


class Workload:
    name = ""
    expected_spans = ()

    def __init__(self, root, seed, quick=False):
        self.root = root
        self.seed = seed
        self.quick = quick

    def build(self):
        """Inputs for one pass, from the seed alone."""
        raise NotImplementedError

    def run(self, item):
        """One item of user work: input text to emitted texts."""
        raise NotImplementedError

    def check(self, item, result):
        """Raise ValueError unless the output is right; return a summary row."""
        raise NotImplementedError

    def quality(self, rows):
        """Exact output-quality figures over one pass's summary rows."""
        return {}

    def verdicts(self, items, results):
        """Per-layer verdict counts of one pass."""
        return {}


def _mean_pct(rows, key):
    values = [row[key] for row in rows if key in row]  # rows of failed items are missing
    return float(100 * sum(values, Fraction(0)) / len(values)) if values else float("nan")


class CloudK100(Workload):
    name = "cloud-k100"
    expected_spans = (
        "pipeline.document_instance", "cycles.max_crown_cycles", "cycles.decompose_cycle_covers",
        "stars.maximal_planar_subgraph", "stars.max_crown_stars", "stars.partition_planar",
        "stars.solve_star", "gap.gap_sequential", "gap.knapsack_fptas",
        "pipeline.random_baseline", "geometry.realized_profit", "serialize.emit", "svg.render_svg",
    )
    algos = ("cycle-cover", "star-forest", "random")
    eps = Fraction(1, 2)  # the corpus experiment's defaults
    corners = 0

    @property
    def k(self):
        return 40 if self.quick else 100

    def build(self):
        docs = pipeline.load_corpus(self.root / "corpus")
        if not docs:
            raise FileNotFoundError(f"no documents under {self.root / 'corpus'}")
        return [Item(doc_id, text, "document") for doc_id, text in docs[: 2 if self.quick else None]]

    def run(self, item):
        boxes, graph, labels = pipeline.document_instance(item.text, self.k)
        box_map = {b.id: b for b in boxes}
        planar = stars.maximal_planar_subgraph(graph)
        layouts = (
            cycles.max_crown_cycles(graph, box_map),
            stars.max_crown_stars(planar, box_map, self.eps, self.corners),
            pipeline.random_baseline(graph, box_map, self.seed),
        )
        realized = [geometry.realized_profit(lay, graph) for lay in layouts]
        emitted = []
        for lay in layouts:
            emitted += [emit_layout(lay, graph), svg.render_svg(lay, labels)]
        return Result(emitted, facts={"boxes": boxes, "graph": graph, "realized": realized})

    def check(self, item, result):
        boxes = _plain_boxes(result.facts["boxes"])
        edges = result.facts["graph"].edges()
        total = sum((p for _, _, p in edges), Fraction(0))
        row = {"vertices": len(boxes), "edges": len(edges)}
        for i, algo in enumerate(self.algos):
            got = check.profit_layout(result.emitted[2 * i], boxes, edges, result.facts["realized"][i])
            check.svg_boxes(result.emitted[2 * i + 1], len(boxes))
            if algo == "cycle-cover":
                check.cycle_cover_bound(got, edges)
            row[algo] = got / total
        row["max_degree"] = check.max_degree(edges)
        return row

    def quality(self, rows):
        return {f"profit_pct.{algo}": _mean_pct(rows, algo) for algo in self.algos}


# Leaf counts of the hubs in each instance of a pass.  The seed draws box
# sizes, profits and grandchildren, never the schedule.  Knapsack work
# grows with about the cube of a hub's leaf count, and one instance's cost
# moves by up to a fifth from seed to seed, so a pass holds many mid-sized
# instances (120-330 ms each) rather than a few large ones, whose median
# moves by a tenth or more between seeds.  An odd-length round repeated three times gives every pair both a
# tree and a fan.  Hubs stop at 34 leaves; one 80-leaf hub alone took 4-7 s.
HUB_SCHEDULE = ((20, 28), (24, 28), (20, 32), (26, 30), (24, 32), (28, 28), (22, 34)) * 3


class StarsHub(Workload):
    """Hub trees and planar fans through max_crown_stars; almost all GAP."""

    name = "stars-hub"
    expected_spans = (
        "serialize.parse", "stars.max_crown_stars", "stars.partition_planar", "stars.solve_star",
        "gap.gap_sequential", "gap.knapsack_fptas", "geometry.realized_profit",
        "serialize.emit", "svg.render_svg",
    )
    eps = Fraction(1, 4)  # the CLI defaults
    corners = 4

    def build(self):
        rng = Random(self.seed)
        schedule = ((6, 6), (8, 6)) if self.quick else HUB_SCHEDULE
        items = []
        for i, sizes in enumerate(schedule):
            name = f"s{i:02d}"
            kind = "planar" if i % 2 else "tree"
            boxes, graph = gen.hub_instance(rng, name, sizes, kind == "planar")
            text = serialize.dumps_doc(serialize.instance_to_doc(boxes, graph))
            truth = {"boxes": _plain_boxes(boxes), "edges": graph.edges(), "hubs": sizes}
            items.append(Item(name, text, kind, truth=truth))
        return items

    def run(self, item):
        inst = parse_doc(item.text, serialize.parse_instance)
        lay = stars.max_crown_stars(inst.graph, inst.box_map(), self.eps, self.corners)
        return Result([emit_layout(lay, inst.graph), svg.render_svg(lay, inst.labels)])

    def check(self, item, result):
        boxes, edges = item.truth["boxes"], item.truth["edges"]
        got = check.profit_layout(result.emitted[0], boxes, edges)
        check.svg_boxes(result.emitted[1], len(boxes))
        total = sum((p for _, _, p in edges), Fraction(0))
        return {
            "kind": item.kind, "vertices": len(boxes), "edges": len(edges),
            "max_degree": check.max_degree(edges), "leaves_per_hub": list(item.truth["hubs"]),
            "star-forest": got / total,
        }

    def quality(self, rows):
        return {"profit_pct.star-forest": _mean_pct(rows, "star-forest")}


# (size, verdict) per item of a pass.  Item costs run from milliseconds
# (assign_y verdicts) to 0.45 s, and one item's cost moves by up to a
# tenth from seed to seed, so a median over scattered costs jumps between
# neighbours that differ by a sixth.  The schedule therefore puts
# ten items below and ten above a cluster of nine 300-box hierarchies
# (about 0.2 s each), and the median falls inside the cluster.
# Hierarchies span 100-400 boxes, infeasible x-placements (Bellman-Ford
# runs every round) stop at 200 and duals at 60 tiles to keep the pass
# short.
DAG_SCHEDULE = (
    # below the cluster
    (100, "ok"), (150, "ok"), (200, "ok"),
    (150, "assign_y"), (250, "assign_y"), (350, "assign_y"), (120, "solve_x"),
    # the cluster
    *((300, "ok"),) * 9,
    # above it
    (350, "ok"), (400, "ok"), (150, "solve_x"), (180, "solve_x"), (200, "solve_x"),
)
TILE_SCHEDULE = (
    (30, "ok"), (40, "ok"), (40, "outer-too-small"),  # below the cluster
    (50, "ok"), (55, "ok"), (60, "ok"), (55, "outer-too-small"), (60, "outer-too-small"),
)


class ExactSolvers(Workload):
    """Hierarchies and floorplan duals whose verdicts are known."""

    name = "exact-solvers"
    expected_spans = (
        "serialize.parse", "hier.solve_hier", "hier.validate_embedding", "hier.assign_y",
        "hier.sweep_order", "hier.solve_x", "triangulation.realize_triangulation",
        "triangulation.validate_instance", "serialize.emit", "svg.render_svg",
    )

    def build(self):
        rng = Random(self.seed)
        dags = ((20, "ok"), (12, "assign_y"), (16, "solve_x")) if self.quick else DAG_SCHEDULE
        tiles = ((6, "ok"), (8, "outer-too-small")) if self.quick else TILE_SCHEDULE
        items = []
        for i, (n, cause) in enumerate(dags):
            name = f"d{i:02d}"
            dag, boxes, expect = gen.drawn_dag(rng, n, name, cause)
            text = serialize.dumps_doc(serialize.dag_to_doc(dag, boxes))
            truth = {"boxes": _plain_boxes(boxes.values()), "edges": list(dag.edges)}
            items.append(Item(name, text, "hierarchy", expect, truth))
        for i, (n, cause) in enumerate(tiles):
            name = f"f{i:02d}"
            inst, expect = gen.floorplan_dual(rng, n, name, cause)
            text = serialize.dumps_doc(serialize.triangulation_to_doc(inst))
            pairs = {(min(u, v), max(u, v)) for v, rot in inst.rotation.items() for u in rot}
            truth = {"boxes": _plain_boxes(inst.boxes.values()), "edges": sorted(pairs)}
            items.append(Item(name, text, "triangulation", expect, truth))
        return items

    def run(self, item):
        if item.kind == "hierarchy":
            dag, boxes = parse_doc(item.text, serialize.parse_dag)
            try:
                lay = hier.solve_hier(dag, boxes)
            except HierInfeasibleError as exc:
                return Result([emit_failure(exc)], exc.stage)
            graph = _unit_graph(dag.vertices, dag.edges)
        else:
            inst = parse_doc(item.text, serialize.parse_triangulation)
            try:
                lay = triangulation.realize_triangulation(inst)
            except TriangulationInfeasibleError as exc:
                return Result([emit_failure(exc)], exc.stage)
            graph = _unit_graph(inst.boxes, inst.edges())
        return Result([emit_layout(lay, graph), svg.render_svg(lay)])

    def check(self, item, result):
        boxes, edges = item.truth["boxes"], item.truth["edges"]
        if result.verdict != item.expect:
            raise ValueError(f"verdict {result.verdict!r}, built to be {item.expect!r}")
        if result.verdict == "ok":
            if item.kind == "hierarchy":
                check.hier_layout(result.emitted[0], boxes, edges)
            else:
                check.contact_layout(result.emitted[0], boxes, edges)
            check.svg_boxes(result.emitted[1], len(boxes))
        elif json.loads(result.emitted[0])["stage"] != result.verdict:
            raise ValueError("failure report names another stage")
        return {"kind": f"{item.kind}:{item.expect}", "vertices": len(boxes), "edges": len(edges),
                "max_degree": check.max_degree(edges)}

    def verdicts(self, items, results):
        counts = {}
        for item, res in zip(items, results):
            if item.kind not in ("hierarchy", "triangulation"):
                continue
            layer = "hier" if item.kind == "hierarchy" else "triangulation"
            key = f"{layer}.verdict.{res.verdict}"
            counts[key] = counts.get(key, 0) + 1
        return counts


WORKLOADS = {w.name: w for w in (CloudK100, StarsHub, ExactSolvers)}
