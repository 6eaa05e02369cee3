"""Command line entry point.

Four subcommands: ``layout`` (profit-graph instances), ``hier``
(embedded DAGs), ``tri`` (plane triangulations) and ``bench`` (corpus
experiment).  The commands raise; ``main`` alone turns an error into
one JSON line on stderr and an exit code: 2 means a malformed input,
command line or parameter, a file that cannot be read or written, or a
number too long to write; 3 means the instance was valid but has no
layout, and the report carries the failing ``stage`` and its ``witness``.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .cycles import max_crown_cycles
from .errors import (
    CrownError,
    FormatError,
    HierInfeasibleError,
    InvalidInstanceError,
    TooLargeError,
    TriangulationInfeasibleError,
)
from .geometry import ProfitGraph, rat, realized_profit
from .hier import solve_hier
from .pipeline import document_instance, load_corpus, random_baseline
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


def _plain(value):
    """``json.dumps``'s hook for a witness: a Fraction as ``frac_str``
    writes it, a dataclass as the dict of its fields."""
    if isinstance(value, Fraction):
        return frac_str(value)
    return dataclasses.asdict(value)  # a TypeError for any other type, as json expects


def _fail(code: int, kind: str, detail: str, stage=None, witness=None) -> int:
    report = {"error": kind, "detail": detail}
    if stage is not None:
        report["stage"] = stage
    if witness is not None:
        report["witness"] = witness
    print(json.dumps(report, default=_plain), file=sys.stderr)
    return code


def _read_doc(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UnicodeError(f"{path}: {exc}") from exc
    return loads_doc(text)


def _write_files(outputs) -> None:
    """Write each ``(path, text)`` as UTF-8 to a temporary file beside its path,
    then move them all into place; a failure removes the temporary files."""
    temps = []
    try:
        for i, (path, text) in enumerate(outputs):
            temp = f"{path}.{os.getpid()}-{i}.tmp"
            with open(temp, "xb") as handle:
                temps.append(temp)
                handle.write(text.encode("utf-8"))
        for temp, (path, _) in zip(temps, outputs):
            os.replace(temp, path)
    except UnicodeEncodeError as exc:
        raise UnicodeError(f"{path}: {exc}") from exc
    except OSError as exc:
        if exc.filename == temp:  # name the target, not its temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
    finally:
        for temp in temps:
            Path(temp).unlink(missing_ok=True)


def _emit(doc: dict, layout, labels, out_path, svg_path) -> None:
    text = dumps_doc(doc)
    svg = render_svg(layout, labels) if svg_path else None
    _write_files([(path, body) for path, body in ((svg_path, svg), (out_path, text)) if path])
    if not out_path:
        sys.stdout.write(text)


def _frac_arg(text: str) -> Fraction:
    try:
        return rat(text)
    except CrownError:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")


def _lay_out(algo: str, graph, boxes, args):
    """Run one of ALGORITHMS with the eps, corners and seed of ``args``."""
    if algo == "cycle-cover":
        return max_crown_cycles(graph, boxes)
    if algo == "star-forest":
        planar = maximal_planar_subgraph(graph)
        return max_crown_stars(planar, boxes, args.eps, args.corners)
    return random_baseline(graph, boxes, args.seed)


def cmd_layout(args) -> int:
    inst = parse_instance(_read_doc(args.instance))
    lay = _lay_out(args.algo, inst.graph, inst.box_map(), args)
    _emit(
        layout_to_doc(lay, inst.graph), lay, inst.labels, args.out, args.svg
    )
    return 0


def cmd_hier(args) -> int:
    dag, boxes = parse_dag(_read_doc(args.dag))
    lay = solve_hier(dag, boxes, args.delta)
    graph = ProfitGraph(dag.vertices, dict.fromkeys(dag.edges, 1))
    _emit(layout_to_doc(lay, graph), lay, None, args.out, args.svg)
    return 0


def cmd_tri(args) -> int:
    inst = parse_triangulation(_read_doc(args.instance))
    lay = realize_triangulation(inst)
    graph = ProfitGraph(inst.boxes, dict.fromkeys(inst.edges(), 1))
    _emit(layout_to_doc(lay, graph), lay, None, args.out, args.svg)
    return 0


def _pct_1dp(realized: Fraction, total: Fraction) -> str:
    tenths = math.floor(realized * 1000 / total + Fraction(1, 2))
    return f"{tenths // 10}.{tenths % 10}"


def _bench_document(doc_id, text, args):
    """One ``(doc_id, algorithm, realized, total)`` per algorithm, or None."""
    boxes, graph, _labels = document_instance(text, args.k)
    total = graph.total_profit()
    if total == 0:
        return None
    box_map = {b.id: b for b in boxes}
    return [
        (doc_id, algo, realized_profit(_lay_out(algo, graph, box_map, args), graph), total)
        for algo in ALGORITHMS
    ]


def cmd_bench(args) -> int:
    docs = load_corpus(args.corpus)
    unread = sorted(
        {path.stem for path in Path(args.corpus).glob("*.txt")}
        - {doc_id for doc_id, _ in docs}
    )
    if not docs:
        return _fail(
            EXIT_MALFORMED,
            "format",
            f"no documents in {args.corpus}",
            witness=unread or None,
        )
    all_rows, skipped = [], []
    for doc_id, text in docs:
        rows = _bench_document(doc_id, text, args)
        if rows is None:
            skipped.append(doc_id)
        else:
            all_rows.extend(rows)
    if not all_rows:
        return _fail(
            EXIT_MALFORMED, "empty", "every document has no profits", witness=skipped
        )
    if args.csv:
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(("doc_id", "algorithm", "k", "realized", "total", "pct"))
        writer.writerows(
            (doc_id, algo, args.k, frac_str(r), frac_str(t), _pct_1dp(r, t))
            for doc_id, algo, r, t in all_rows
        )
        _write_files([(args.csv, text.getvalue())])
    for doc_id in unread:
        print(f"warning: {doc_id}: unreadable or empty, skipped", file=sys.stderr)
    for doc_id in skipped:
        print(f"warning: {doc_id}: no profits, skipped", file=sys.stderr)
    n_docs = len({doc_id for doc_id, *_ in all_rows})
    print(f"mean realized profit, k={args.k}, {n_docs} documents")
    for algo in ALGORITHMS:
        ratios = [realized / total for _, a, realized, total in all_rows if a == algo]
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
    p_bench.add_argument("--csv", metavar="PATH")
    # The corpus experiment's fixed settings, behind the README's percentages.
    p_bench.set_defaults(func=cmd_bench, eps=Fraction(1, 2), corners=0, seed=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HierInfeasibleError, TriangulationInfeasibleError) as exc:
        try:  # json.dumps raises before printing: a witness too long to write is exit 2
            return _fail(EXIT_INFEASIBLE, "infeasible", str(exc), exc.stage, exc.witness)
        except TooLargeError as big:
            return _fail(EXIT_MALFORMED, type(big).__name__, str(big))
    except FormatError as exc:
        return _fail(EXIT_MALFORMED, "format", str(exc))
    except InvalidInstanceError as exc:
        return _fail(EXIT_MALFORMED, "invalid-instance", str(exc))
    except CrownError as exc:
        return _fail(EXIT_MALFORMED, type(exc).__name__, str(exc))
    except (OSError, UnicodeError) as exc:
        return _fail(EXIT_MALFORMED, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
