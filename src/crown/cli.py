"""Command line entry point.

Four subcommands: ``layout`` (profit-graph instances), ``hier``
(embedded DAGs), ``tri`` (plane triangulations) and ``bench`` (corpus
experiment).  Errors are reported as one-line JSON on stderr; exit code
2 means a malformed input, command line or parameter, or a file that
cannot be read or written; 3 means the instance was valid but has no
layout.
"""

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .cycles import max_crown_cycles
from .errors import (
    CrownError,
    FormatError,
    HierInfeasibleError,
    InvalidInstanceError,
    TriangulationInfeasibleError,
)
from .geometry import ProfitGraph, realized_profit
from .hier import solve_hier
from .pipeline import (
    document_instance,
    load_corpus,
    load_stopwords,
    random_baseline,
)
from .serialize import (
    dumps_doc,
    frac_str,
    layout_to_doc,
    loads_doc,
    parse_dag,
    parse_instance,
    parse_triangulation,
)
from .stars import max_crown_stars, maximal_planar_subgraph
from .svg import render_svg
from .triangulation import realize_triangulation

EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3

ALGORITHMS = ("star-forest", "cycle-cover", "random")


def _jsonable(value):
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def _fail(code: int, kind: str, detail: str, stage=None, witness=None) -> int:
    report = {"error": kind, "detail": detail}
    if stage is not None:
        report["stage"] = stage
    if witness is not None:
        report["witness"] = _jsonable(witness)
    print(json.dumps(report), file=sys.stderr)
    return code


def _read_doc(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    return loads_doc(text)


def _emit(doc: dict, layout, labels, out_path, svg_path) -> None:
    # The SVG goes first so that a failed write leaves stdout empty.
    if svg_path:
        Path(svg_path).write_text(
            render_svg(layout, labels), encoding="utf-8"
        )
    text = dumps_doc(doc)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _frac_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")


def _lay_out(algo: str, graph, boxes, args):
    """Run one of ALGORITHMS with the --eps, --corners and --seed flags."""
    if algo == "cycle-cover":
        return max_crown_cycles(graph, boxes)
    if algo == "star-forest":
        planar = maximal_planar_subgraph(graph)
        return max_crown_stars(planar, boxes, args.eps, args.corners)
    return random_baseline(graph, boxes, args.seed)


def cmd_layout(args) -> int:
    try:
        inst = parse_instance(_read_doc(args.instance))
    except FormatError as exc:
        return _fail(EXIT_MALFORMED, "format", str(exc))
    lay = _lay_out(args.algo, inst.graph, inst.box_map(), args)
    _emit(
        layout_to_doc(lay, inst.graph), lay, inst.labels, args.out, args.svg
    )
    return 0


def _unit_graph(vertices, edges) -> ProfitGraph:
    graph = ProfitGraph(vertices=vertices)
    for u, v in edges:
        graph.add_edge(u, v, 1)
    return graph


def cmd_hier(args) -> int:
    try:
        dag, boxes = parse_dag(_read_doc(args.dag))
    except FormatError as exc:
        return _fail(EXIT_MALFORMED, "format", str(exc))
    try:
        lay = solve_hier(dag, boxes, args.delta)
    except HierInfeasibleError as exc:
        return _fail(
            EXIT_INFEASIBLE, "infeasible", str(exc), exc.stage, exc.witness
        )
    graph = _unit_graph(dag.vertices, dag.edges)
    _emit(layout_to_doc(lay, graph), lay, None, args.out, args.svg)
    return 0


def cmd_tri(args) -> int:
    try:
        inst = parse_triangulation(_read_doc(args.instance))
    except FormatError as exc:
        return _fail(EXIT_MALFORMED, "format", str(exc))
    try:
        lay = realize_triangulation(inst)
    except InvalidInstanceError as exc:
        return _fail(EXIT_MALFORMED, "invalid-instance", str(exc))
    except TriangulationInfeasibleError as exc:
        return _fail(
            EXIT_INFEASIBLE, "infeasible", str(exc), exc.stage, exc.witness
        )
    graph = _unit_graph(inst.boxes, inst.edges())
    _emit(layout_to_doc(lay, graph), lay, None, args.out, args.svg)
    return 0


def _pct_1dp(realized: Fraction, total: Fraction) -> str:
    tenths = math.floor(realized * 1000 / total + Fraction(1, 2))
    return f"{tenths // 10}.{tenths % 10}"


def _bench_document(doc_id, text, args, stopwords):
    boxes, graph, _labels = document_instance(text, args.k, stopwords)
    total = graph.total_profit()
    if total == 0:
        return None
    box_map = {b.id: b for b in boxes}
    rows = []
    for algo in args.algos:
        start = time.perf_counter()
        lay = _lay_out(algo, graph, box_map, args)
        millis = int((time.perf_counter() - start) * 1000)
        realized = realized_profit(lay, graph)
        rows.append(
            {
                "doc_id": doc_id,
                "algorithm": algo,
                "k": args.k,
                "realized": frac_str(realized),
                "total": frac_str(total),
                "pct": _pct_1dp(realized, total),
                "millis": millis,
                "_ratio": realized / total,
            }
        )
    return rows


def cmd_bench(args) -> int:
    for algo in args.algos:
        if algo not in ALGORITHMS:
            return _fail(EXIT_MALFORMED, "format", f"unknown algorithm {algo!r}")
    stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    docs = load_corpus(args.corpus)
    if not docs:
        return _fail(EXIT_MALFORMED, "format", f"no documents in {args.corpus}")
    all_rows, skipped = [], []
    for doc_id, text in docs:
        rows = _bench_document(doc_id, text, args, stopwords)
        if rows is None:
            skipped.append(doc_id)
        else:
            all_rows.extend(rows)
    if not all_rows:
        return _fail(
            EXIT_MALFORMED, "empty", "every document has no profits", witness=skipped
        )
    for doc_id in skipped:
        print(f"warning: {doc_id}: no profits, skipped", file=sys.stderr)
    # The CSV goes first so that a failed write leaves stdout empty.
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(
                handle,
                fieldnames=[
                    "doc_id",
                    "algorithm",
                    "k",
                    "realized",
                    "total",
                    "pct",
                    "millis",
                ],
                extrasaction="ignore",
            )
            writer.writeheader()
            writer.writerows(all_rows)
    n_docs = len({r["doc_id"] for r in all_rows})
    print(f"mean realized profit, k={args.k}, {n_docs} documents")
    for algo in args.algos:
        ratios = [r["_ratio"] for r in all_rows if r["algorithm"] == algo]
        mean = sum(ratios, Fraction(0)) / len(ratios)
        print(f"  {algo:<12} {_pct_1dp(mean, Fraction(1)):>6}%")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as the one-line JSON failure, exit 2."""

    def error(self, message):
        sys.exit(_fail(EXIT_MALFORMED, "usage", f"{self.prog}: {message}"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crown",
        description="Contact representations of rectangles with profits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="lay out a profit-graph instance")
    p_layout.add_argument("instance", help="instance JSON file")
    p_layout.add_argument("--algo", choices=ALGORITHMS, default="cycle-cover")
    p_layout.add_argument(
        "--eps", type=_frac_arg, default=Fraction(1, 4),
        help="knapsack accuracy for star packing (default 1/4)",
    )
    p_layout.add_argument(
        "--corners", type=int, default=4,
        help="corner candidates per star (default 4)",
    )
    p_layout.add_argument("--seed", type=int, default=0)
    p_layout.add_argument("--svg", metavar="PATH")
    p_layout.add_argument("-o", "--out", metavar="PATH")
    p_layout.set_defaults(func=cmd_layout)

    p_hier = sub.add_parser("hier", help="lay out an embedded DAG")
    p_hier.add_argument("dag", help="DAG JSON file")
    p_hier.add_argument(
        "--delta", type=_frac_arg, default=None,
        help="minimum contact overlap (default: min width / 1000)",
    )
    p_hier.add_argument("--svg", metavar="PATH")
    p_hier.add_argument("-o", "--out", metavar="PATH")
    p_hier.set_defaults(func=cmd_hier)

    p_tri = sub.add_parser("tri", help="realize a plane triangulation")
    p_tri.add_argument("instance", help="triangulation JSON file")
    p_tri.add_argument("--svg", metavar="PATH")
    p_tri.add_argument("-o", "--out", metavar="PATH")
    p_tri.set_defaults(func=cmd_tri)

    p_bench = sub.add_parser("bench", help="run the corpus benchmark")
    p_bench.add_argument("corpus", help="directory of .txt documents")
    p_bench.add_argument("--k", type=int, choices=(50, 100), default=50)
    p_bench.add_argument(
        "--algos",
        type=lambda s: tuple(s.split(",")),
        default=ALGORITHMS,
        help="comma-separated algorithm list",
    )
    p_bench.add_argument("--eps", type=_frac_arg, default=Fraction(1, 2))
    p_bench.add_argument(
        "--corners", type=int, default=0,
        help="corner candidates per star (default 0: sides only)",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--stopwords", metavar="PATH")
    p_bench.add_argument("--csv", metavar="PATH")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CrownError as exc:
        return _fail(EXIT_MALFORMED, type(exc).__name__, str(exc))
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_MALFORMED, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
