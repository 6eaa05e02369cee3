"""End-to-end checks of the command line interface."""

import csv
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from crown.cli import main
from crown.geometry import BoxSpec, ProfitGraph, rat, realized_profit
from crown.serialize import (
    dag_to_doc,
    dumps_doc,
    instance_to_doc,
    loads_doc,
    parse_frac,
    triangulation_to_doc,
)
from crown.hier import EmbeddedDag
from crown.stars import max_crown_stars, maximal_planar_subgraph
from crown.triangulation import TriangulationInstance

REPO = Path(__file__).resolve().parent.parent


def write_instance(path, boxes, graph):
    path.write_text(dumps_doc(instance_to_doc(boxes, graph)), encoding="utf-8")


def triangle_instance(path):
    boxes = [BoxSpec(v, rat(1), rat(1)) for v in "abc"]
    graph = ProfitGraph(
        "abc", {("a", "b"): rat(1), ("b", "c"): rat(1), ("a", "c"): rat(1)}
    )
    write_instance(path, boxes, graph)
    return graph


def test_layout_cycle_cover_realizes_triangle(tmp_path, capsys):
    inst = tmp_path / "triangle.json"
    triangle_instance(inst)
    assert main(["layout", str(inst), "--algo", "cycle-cover"]) == 0
    doc = loads_doc(capsys.readouterr().out)
    assert parse_frac(doc["realized_profit"], "r") == parse_frac(
        doc["total_profit"], "t"
    )


def test_layout_star_forest_matches_library(tmp_path, capsys):
    hub = [BoxSpec("hub", rat(2), rat(2))] + [
        BoxSpec(f"l{i}", rat(1), rat(1)) for i in range(6)
    ]
    graph = ProfitGraph(
        [b.id for b in hub], {("hub", f"l{i}"): rat(1) for i in range(6)}
    )
    inst = tmp_path / "star.json"
    write_instance(inst, hub, graph)
    assert main(["layout", str(inst), "--algo", "star-forest"]) == 0
    doc = loads_doc(capsys.readouterr().out)
    got = parse_frac(doc["realized_profit"], "r")

    lay = max_crown_stars(
        maximal_planar_subgraph(graph),
        {b.id: b for b in hub},
        Fraction(1, 4),
        4,
    )
    assert got == realized_profit(lay, graph)


def test_layout_random_is_reproducible(tmp_path):
    inst = tmp_path / "triangle.json"
    triangle_instance(inst)
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for svg, out in ((svg1, out1), (svg2, out2)):
        code = subprocess.run(
            [
                sys.executable,
                "-m",
                "crown.cli",
                "layout",
                str(inst),
                "--algo",
                "random",
                "--seed",
                "7",
                "--svg",
                str(svg),
                "-o",
                str(out),
            ],
            cwd=REPO,
        ).returncode
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()
    assert svg1.read_text(encoding="utf-8").startswith("<svg")


def test_hier_y_conflict_exits_3(tmp_path, capsys):
    edges = (("b", "a"), ("c", "a"), ("d", "b"), ("d", "c"))
    rotation = {
        "a": ("b", "c"),
        "b": ("a", "d"),
        "c": ("a", "d"),
        "d": ("b", "c"),
    }
    dag = EmbeddedDag(("a", "b", "c", "d"), edges, rotation)
    boxes = {
        "a": BoxSpec("a", rat(4), rat(1)),
        "b": BoxSpec("b", rat(2), rat(1)),
        "c": BoxSpec("c", rat(2), rat(2)),  # height clash under d
        "d": BoxSpec("d", rat(3), rat(1)),
    }
    path = tmp_path / "dag.json"
    path.write_text(dumps_doc(dag_to_doc(dag, boxes)), encoding="utf-8")
    assert main(["hier", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "assign_y"


def test_hier_feasible_chain(tmp_path, capsys):
    dag = EmbeddedDag(("c", "s"), (("c", "s"),), {"s": ("c",), "c": ("s",)})
    boxes = {
        "s": BoxSpec("s", rat(2), rat(1)),
        "c": BoxSpec("c", rat(2), rat(1)),
    }
    path = tmp_path / "dag.json"
    path.write_text(dumps_doc(dag_to_doc(dag, boxes)), encoding="utf-8")
    assert main(["hier", str(path), "--delta", "1/2"]) == 0
    doc = loads_doc(capsys.readouterr().out)
    assert parse_frac(doc["realized_profit"], "r") == 1


def test_tri_infeasible_exits_3(tmp_path, capsys):
    inst = TriangulationInstance(
        {
            v: BoxSpec(v, rat(w), rat(h))
            for v, (w, h) in {
                "N": (1, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)
            }.items()
        },
        {
            "N": ("E", "t0", "W"),
            "E": ("S", "t0", "N"),
            "S": ("W", "t0", "E"),
            "W": ("N", "t0", "S"),
            "t0": ("N", "E", "S", "W"),
        },
        ("N", "E", "S", "W"),
    )
    path = tmp_path / "tri.json"
    path.write_text(dumps_doc(triangulation_to_doc(inst)), encoding="utf-8")
    assert main(["tri", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "outer-too-small"


def test_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}', encoding="utf-8")
    assert main(["layout", str(bad)]) == 2
    capsys.readouterr()


def test_bench_csv_schema(tmp_path, capsys):
    mini = tmp_path / "corpus"
    mini.mkdir()
    for name in ("beekeeping.txt", "tides.txt"):
        shutil.copy(REPO / "corpus" / name, mini / name)
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", str(mini), "--csv", str(out_csv)]) == 0
    stdout = capsys.readouterr().out
    assert "mean realized profit" in stdout
    with out_csv.open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and list(rows[0]) == [
        "doc_id", "algorithm", "k", "realized", "total", "pct", "millis"
    ]
    algos = {r["algorithm"] for r in rows}
    assert algos == {"star-forest", "cycle-cover", "random"}
    for r in rows:
        assert r["k"] == "50"
        float(r["pct"])  # one-decimal percentage string


def test_bench_rejects_unknown_algorithm(tmp_path, capsys):
    mini = tmp_path / "corpus"
    mini.mkdir()
    shutil.copy(REPO / "corpus" / "tides.txt", mini / "tides.txt")
    assert main(["bench", str(mini), "--algos", "frobnicate"]) == 2
    capsys.readouterr()


def chain_dag(path):
    dag = EmbeddedDag(("c", "s"), (("c", "s"),), {"s": ("c",), "c": ("s",)})
    boxes = {v: BoxSpec(v, rat(2), rat(1)) for v in "cs"}
    path.write_text(dumps_doc(dag_to_doc(dag, boxes)), encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["layout", "{tri}", "--algo", "star-forest", "--eps", "2"],
        ["layout", "{tri}", "--algo", "star-forest", "--eps", "0"],
        ["layout", "{tri}", "--algo", "star-forest", "--corners", "-1"],
        ["hier", "{dag}", "--delta", "0"],
        ["hier", "{dag}", "--delta", "-1"],
    ],
)
def test_bad_parameter_exits_2(tmp_path, argv):
    tri, dag = tmp_path / "triangle.json", tmp_path / "dag.json"
    triangle_instance(tri)
    chain_dag(dag)
    argv = [a.format(tri=tri, dag=dag) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "crown.cli", *argv],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert json.loads(lines[0])["error"] == "ParameterError"


@pytest.mark.parametrize(
    "argv",
    [
        ["layout", "{tri}", "-o", "{missing}/x.json"],
        ["layout", "{tri}", "--svg", "{missing}/x.svg"],
        ["bench", "{corpus}", "--csv", "{missing}/x.csv"],
        ["bench", "{corpus}", "--stopwords", "{missing}/stop.txt"],
        ["bench", "{corpus}", "--stopwords", "{latin1}"],
        ["bench", "{flat}"],
        ["layout", "{tri}", "--eps", "1/0"],
        ["bench", "{corpus}", "--k", "7"],
        ["frobnicate"],
    ],
)
def test_cli_failure_is_one_json_line(tmp_path, capsys, argv):
    tri = tmp_path / "triangle.json"
    triangle_instance(tri)
    corpus, flat = tmp_path / "corpus", tmp_path / "flat"
    corpus.mkdir()
    (corpus / "doc.txt").write_text(
        "alpha beta gamma. alpha beta. beta gamma delta.\n", encoding="utf-8"
    )
    flat.mkdir()
    (flat / "doc.txt").write_text("alpha. beta. gamma.\n", encoding="utf-8")
    latin1 = tmp_path / "stop.txt"
    latin1.write_bytes("caf\xe9\n".encode("latin-1"))
    paths = dict(
        tri=tri, corpus=corpus, flat=flat, latin1=latin1, missing=tmp_path / "missing"
    )
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) >= {"error", "detail"}
