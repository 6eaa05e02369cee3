"""End-to-end checks of the command line interface."""

import csv
import json
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
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

from oracles import rand_guillotine_dual

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
    # d hangs from b (bottom -2) and from c (bottom -3)
    assert err["witness"] == ["d", "-2/1", "-3/1"]


def test_hier_feasible_chain(tmp_path, capsys):
    path = tmp_path / "dag.json"
    chain_dag(path)
    assert main(["hier", str(path), "--delta", "1/2"]) == 0
    doc = loads_doc(capsys.readouterr().out)
    assert parse_frac(doc["realized_profit"], "r") == 1


def test_hier_solve_x_witness_is_the_negative_cycle(tmp_path, capsys):
    # unit boxes cannot overlap by 2: l_s - l_c <= -1 and l_c - l_s <= -1
    path = tmp_path / "dag.json"
    chain_dag(path, side=1)
    assert main(["hier", str(path), "--delta", "2"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "solve_x"
    assert err["witness"] == [["edge", "c", "s"], ["edge", "c", "s"]]


def test_hier_empty_dag_exits_3(tmp_path):
    # the default delta is derived from the boxes, of which there are none
    path = tmp_path / "dag.json"
    path.write_text('{"boxes": [], "edges": [], "rotation": {}}', encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "crown.cli", "hier", str(path)],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["stage"] == "embedding"
    assert report["witness"] == {
        "kind": "sink",
        "vertex": None,
        "detail": "expected one sink, found []",
    }


def wheel_instance(path, north_width):
    """A framed wheel: one tile t0 inside N/E/S/W; feasible iff N is 4 wide."""
    inst = TriangulationInstance(
        {
            v: BoxSpec(v, rat(w), rat(h))
            for v, (w, h) in {
                "N": (north_width, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)
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
    path.write_text(dumps_doc(triangulation_to_doc(inst)), encoding="utf-8")


def test_tri_infeasible_exits_3(tmp_path, capsys):
    path = tmp_path / "tri.json"
    wheel_instance(path, 1)
    assert main(["tri", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "outer-too-small"
    assert err["witness"] == ["N"]


@pytest.mark.parametrize(
    "inner,stage,witness",
    [
        (2, "stuck", ["t1"]),
        (
            5,
            "not-rectangle",
            [["0/1", "5/1"], ["2/1", "4/1"], ["3/1", "2/1"], ["6/1", "0/1"]],
        ),
    ],
)
def test_tri_stage_witness(tmp_path, capsys, inner, stage, witness):
    path = tmp_path / "tri.json"
    inst = rand_guillotine_dual(random.Random(0), inner, perturb=True)
    path.write_text(dumps_doc(triangulation_to_doc(inst)), encoding="utf-8")
    assert main(["tri", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["stage"], err["witness"]) == (stage, witness)


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
        "doc_id", "algorithm", "k", "realized", "total", "pct"
    ]
    algos = {r["algorithm"] for r in rows}
    assert algos == {"star-forest", "cycle-cover", "random"}
    for r in rows:
        assert r["k"] == "50"
        float(r["pct"])  # one-decimal percentage string


def test_bench_warns_about_skipped_documents(tmp_path, capsys):
    mini = tmp_path / "corpus"
    mini.mkdir()
    shutil.copy(REPO / "corpus" / "tides.txt", mini / "tides.txt")
    (mini / "blank.txt").write_text("  \n", encoding="utf-8")
    assert main(["bench", str(mini)]) == 0
    captured = capsys.readouterr()
    assert "mean realized profit, k=50, 1 documents" in captured.out
    assert captured.err == "warning: blank: unreadable or empty, skipped\n"


def one_failure(capsys, argv):
    """main's exit code and its one JSON failure line, with stdout empty."""
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    return code, json.loads(line)


@pytest.mark.parametrize(
    "edit, report",
    [
        # "lost" has no rotation entry, so no neighbour: the graph is not connected
        (
            lambda doc: doc["boxes"].append({"id": "lost", "w": "1/1", "h": "1/1"}),
            {"error": "invalid-instance", "detail": "connected: graph is not connected"},
        ),
        (
            lambda doc: doc["outer"].update(N="zz"),
            {"error": "format", "detail": "triangulation.outer.N: unknown id 'zz'"},
        ),
    ],
    ids=["box-without-rotation", "outer-unknown-id"],
)
def test_tri_document_fault_exits_2(tmp_path, capsys, edit, report):
    path = tmp_path / "tri.json"
    wheel_instance(path, 4)
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert one_failure(capsys, ["tri", path]) == (2, report)


@pytest.mark.parametrize("content", [None, "caf\xe9".encode("latin-1")], ids=["missing", "latin-1"])
@pytest.mark.parametrize("command", ["layout", "hier", "tri"])
def test_unreadable_input_is_an_io_error(tmp_path, capsys, command, content):
    doc = tmp_path / "doc.json"
    if content is not None:
        doc.write_bytes(content)
    code, report = one_failure(capsys, [command, doc])
    assert (code, report["error"]) == (2, "io")
    assert str(doc) in report["detail"]


@pytest.mark.parametrize(
    "change, detail",
    [
        ({"profits": [{"a": "a", "b": "a", "p": "1/1"}]}, "instance.profits[0]: self-loop"),
        ({"profits": [{"a": "a", "b": "b", "p": "1/1"}] * 2}, "instance.profits[1]: duplicate edge"),
        ({"profits": [{"a": "a", "b": "b", "p": "-1/2"}]}, "instance.profits[0]: negative profit"),
        ({"labels": {"z": "zed"}}, "instance.labels: unknown box id 'z'"),
        ({"labels": {"a": 1}}, "instance.labels['a']: not a string"),
        (None, "top-level JSON value must be an object"),
    ],
    ids=["self-loop", "duplicate-edge", "negative-profit", "unknown-label", "label-not-str", "not-object"],
)
def test_document_fault_is_a_format_error_that_names_its_place(tmp_path, capsys, change, detail):
    inst = tmp_path / "inst.json"
    triangle_instance(inst)
    doc = json.loads(inst.read_text(encoding="utf-8"))
    inst.write_text(json.dumps([doc] if change is None else {**doc, **change}), encoding="utf-8")
    code, report = one_failure(capsys, ["layout", inst])
    assert (code, report["error"]) == (2, "format")
    assert report["detail"].startswith(detail), report


def test_failed_run_leaves_no_output_file(tmp_path, capsys):
    inst, svg = tmp_path / "inst.json", tmp_path / "out.svg"
    triangle_instance(inst)
    argv = ["layout", inst, "--svg", svg, "-o", tmp_path / "missing" / "x.json"]
    assert one_failure(capsys, argv)[1]["error"] == "io"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]
    svg.write_bytes(b"old")
    assert one_failure(capsys, argv)[1]["error"] == "io"
    assert svg.read_bytes() == b"old"


@pytest.mark.parametrize(
    "flag, target", [("-o", "missing/x.json"), ("--svg", "missing/x.svg"), ("-o", "dir")]
)
def test_failed_write_names_the_target_not_its_temporary_file(tmp_path, capsys, flag, target):
    inst = tmp_path / "inst.json"
    triangle_instance(inst)
    (tmp_path / "dir").mkdir()
    code, report = one_failure(capsys, ["layout", inst, flag, tmp_path / target])
    assert (code, report["error"]) == (2, "io")
    assert report["detail"].endswith(f": {str(tmp_path / target)!r}"), report


def test_failed_replace_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    triangle_instance(inst)

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    argv = ["layout", inst, "--svg", tmp_path / "out.svg", "-o", tmp_path / "out.json"]
    assert one_failure(capsys, argv) == (2, {"error": "io", "detail": f"cannot replace {tmp_path / 'out.svg'}"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def chain_dag(path, side=2):
    """Child c under sink s, both `side` wide and 1 tall."""
    dag = EmbeddedDag(("c", "s"), (("c", "s"),), {"s": ("c",), "c": ("s",)})
    boxes = {v: BoxSpec(v, rat(side), rat(1)) for v in "cs"}
    path.write_text(dumps_doc(dag_to_doc(dag, boxes)), encoding="utf-8")


def test_cli_runs_with_networkx_blocked(tmp_path):
    # networkx is a test oracle only: with its import made to fail, a
    # star-forest layout and the corpus bench still exit 0.
    tri, out, mini = tmp_path / "triangle.json", tmp_path / "out.json", tmp_path / "corpus"
    triangle_instance(tri)
    mini.mkdir()
    shutil.copy(REPO / "corpus" / "tides.txt", mini / "tides.txt")
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from crown.cli import main\n"
        "tri, out, corpus = sys.argv[1:]\n"
        "rcs = [main(['layout', tri, '--algo', 'star-forest', '-o', out]), main(['bench', corpus])]\n"
        "print(rcs)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tri), str(out), str(mini)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.stdout.endswith("[0, 0]\n"), proc.stderr
    assert "star-forest" in proc.stdout
    assert out.read_text(encoding="utf-8").startswith("{")


@pytest.mark.parametrize(
    "argv",
    [
        ["hier", "{dag}"],
        ["tri", "{wheel}"],
        ["layout", "{tri}", "--algo", "cycle-cover"],
        ["layout", "{tri}", "--algo", "random"],
        ["layout", "{tri}", "--algo", "star-forest"],
    ],
    ids=["hier", "tri", "cycle-cover", "random", "star-forest"],
)
def test_networkx_loads_only_for_star_forests(tmp_path, argv):
    # Star forests were once the only subcommand that loaded networkx; the
    # 3-forest matroid partition needs none, so no subcommand loads it now.
    tri, dag, wheel = tmp_path / "triangle.json", tmp_path / "dag.json", tmp_path / "tri.json"
    triangle_instance(tri)
    chain_dag(dag)
    wheel_instance(wheel, 4)
    argv = [a.format(tri=tri, dag=dag, wheel=wheel) for a in argv]
    out = tmp_path / "out.json"
    code = (
        "import sys\n"
        "from crown.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, 'networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "-o", str(out)],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "0 False\n", proc.stderr
    assert out.read_text(encoding="utf-8").startswith("{")


def test_maximal_planar_subgraph_does_not_load_networkx():
    code = (
        "import sys\n"
        "from crown.geometry import ProfitGraph\n"
        "from crown.stars import maximal_planar_subgraph\n"
        "vs = 'abcde'\n"
        "g = ProfitGraph(vs, {(u, v): 1 for i, u in enumerate(vs) for v in vs[i + 1 :]})\n"
        "print(len(maximal_planar_subgraph(g).edges()), 'networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "9 False\n", proc.stderr


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "crown.cli", *map(str, argv)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,  # a hang fails the test instead of stalling the suite
    )


def assert_one_failure_line(proc, error):
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert json.loads(lines[0])["error"] == error


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
    assert_one_failure_line(run_cli(*argv), "ParameterError")


@pytest.mark.parametrize("where, error", [("flag", "usage"), ("document", "format")])
def test_huge_exponent_exits_2_at_once(tmp_path, where, error):
    # Fraction("1e99999999") alone computes 10**99999999, for minutes
    dag = tmp_path / "dag.json"
    chain_dag(dag)
    if where == "flag":
        argv = ["hier", dag, "--delta", "1e99999999"]
    else:
        doc = json.loads(dag.read_text(encoding="utf-8"))
        doc["boxes"][0]["w"] = "1e99999999"
        dag.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["hier", dag]
    assert_one_failure_line(run_cli(*argv), error)


@pytest.mark.parametrize("depth", [1000, 100_000])
@pytest.mark.parametrize("command", ["layout", "hier", "tri"])
def test_deeply_nested_json_is_a_format_error(tmp_path, command, depth):
    # The JSON decoder recurses once per level and hits the interpreter's
    # recursion limit near 1,000 levels.
    doc = tmp_path / "deep.json"
    doc.write_text('{"boxes": ' + "[" * depth + "]" * depth + ', "edges": []}', encoding="utf-8")
    assert_one_failure_line(run_cli(command, doc), "format")


def long_rational(rng):
    """A rational whose numerator and denominator have 300 digits each."""
    return Fraction(rng.randrange(10**299, 10**300), rng.randrange(10**299, 10**300))


def long_cycle_instance(path):
    """40 boxes with 300-digit sides on a 40-cycle of unit profits.  Every
    input number can be written; sums of sides along a layout cannot."""
    rng = random.Random(0)
    ids = [f"b{i:02d}" for i in range(40)]
    boxes = [BoxSpec(v, long_rational(rng), long_rational(rng)) for v in ids]
    graph = ProfitGraph(ids, {(ids[i], ids[(i + 1) % 40]): 1 for i in range(40)})
    write_instance(path, boxes, graph)


def long_chains_dag(path):
    """Two 20-box chains under one sink that meet at one child, with
    300-digit heights: the child's two tops clash and are too long to write."""
    rng = random.Random(1)
    chains = [[f"{c}{i:02d}" for i in range(20)] for c in "ab"]
    edges = [(c[0], "s") for c in chains] + [("d", c[-1]) for c in chains]
    rotation = {"s": tuple(c[0] for c in chains), "d": tuple(c[-1] for c in chains)}
    for c in chains:
        edges += [(c[i + 1], c[i]) for i in range(19)]
        line = ["s", *c, "d"]
        rotation.update({v: (line[i], line[i + 2]) for i, v in enumerate(c)})
    vertices = ("s", *chains[0], *chains[1], "d")
    boxes = {v: BoxSpec(v, rat(50 if v == "s" else 2), long_rational(rng)) for v in vertices}
    path.write_text(
        dumps_doc(dag_to_doc(EmbeddedDag(vertices, tuple(edges), rotation), boxes)),
        encoding="utf-8",
    )


@pytest.mark.parametrize("algo", ["cycle-cover", "star-forest"])
def test_layout_too_long_to_write_exits_2(tmp_path, algo):
    # Past the interpreter's int-to-str digit limit this was exit 1.
    inst = tmp_path / "long.json"
    long_cycle_instance(inst)
    assert_one_failure_line(run_cli("layout", inst, "--algo", algo), "TooLargeError")


def test_random_layout_of_long_numbers_is_written(tmp_path):
    # The spiral keeps each box on its own 1/64 grid point, so positions
    # stay as long as the sides.
    inst = tmp_path / "long.json"
    long_cycle_instance(inst)
    proc = run_cli("layout", inst, "--algo", "random")
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(loads_doc(proc.stdout)["boxes"]) == 40


def test_infeasible_witness_too_long_to_write_exits_2(tmp_path):
    # The assign_y witness is encoded before the exit code is chosen; it
    # used to raise inside main's except clause.
    dag = tmp_path / "dag.json"
    long_chains_dag(dag)
    assert_one_failure_line(run_cli("hier", dag), "TooLargeError")


@pytest.mark.parametrize("command", ["layout", "hier", "tri"])
def test_json_int_too_long_to_read_is_a_format_error(tmp_path, command):
    doc = tmp_path / "long.json"
    doc.write_text('{"boxes": [{"id": "a", "w": ' + "1" * 5000 + ', "h": 1}]}', encoding="utf-8")
    assert_one_failure_line(run_cli(command, doc), "format")


@pytest.mark.parametrize(
    "box_id, labels",
    [("a\ud800", None), ("a", {"a": "x\u0001y"})],
    ids=["lone-surrogate-id", "control-character-label"],
)
def test_svg_of_any_json_string_is_well_formed(tmp_path, box_id, labels):
    # A lone surrogate is valid JSON but not UTF-8, and a C0 control is
    # valid JSON but not XML 1.0: both become U+FFFD in the SVG.
    inst, svg = tmp_path / "inst.json", tmp_path / "out.svg"
    boxes, graph = [BoxSpec(box_id, rat(1), rat(1))], ProfitGraph([box_id])
    inst.write_text(dumps_doc(instance_to_doc(boxes, graph, labels)), encoding="utf-8")
    proc = run_cli("layout", inst, "--svg", svg)
    assert (proc.returncode, proc.stderr) == (0, "")
    text = ET.fromstring(svg.read_bytes()).find("{http://www.w3.org/2000/svg}text").text
    assert text == ("a\ufffd" if labels is None else "x\ufffdy")


def undecodable_corpus(tmp_path):
    """tides.txt and a copy named z<0xFF>.txt, whose name reads back as a
    lone surrogate that the UTF-8 CSV cannot hold, in a row after the
    tides rows."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(REPO / "corpus" / "tides.txt", corpus / "tides.txt")
    shutil.copy(REPO / "corpus" / "tides.txt", os.fsencode(corpus) + b"/z\xff.txt")
    return corpus


def test_bench_csv_of_an_undecodable_file_name_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    proc = run_cli("bench", undecodable_corpus(tmp_path), "--csv", out)
    assert_one_failure_line(proc, "io")
    assert str(out) in json.loads(proc.stderr)["detail"]  # names the file it could not write
    assert not out.exists()  # not even the header and the tides rows


def test_bench_csv_that_fails_to_encode_keeps_the_old_file(tmp_path):
    out = tmp_path / "x.csv"
    out.write_bytes(b"doc_id\r\nold\r\n")
    assert_one_failure_line(run_cli("bench", undecodable_corpus(tmp_path), "--csv", out), "io")
    assert out.read_bytes() == b"doc_id\r\nold\r\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["layout", "{tri}", "-o", "{missing}/x.json"],
        ["layout", "{tri}", "--svg", "{missing}/x.svg"],
        ["bench", "{corpus}", "--csv", "{missing}/x.csv"],
        ["bench", "{warned}", "--csv", "{missing}/x.csv"],  # warns, then fails
        ["bench", "{corpus}", "--csv", "{corpus}"],  # a directory
        ["bench", "{flat}"],
        ["layout", "{tri}", "--eps", "1/0"],
        ["bench", "{corpus}", "--k", "7"],
        ["frobnicate"],
        ["bench", "{unread}"],
        ["bench", "{corpus}", "--eps", "1/4"],  # bench runs at fixed settings
        ["bench", "{corpus}", "--algos", "random"],  # and every algorithm
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
    warned = tmp_path / "warned"  # one good and one empty document
    warned.mkdir()
    (warned / "coffee.txt").write_text((corpus / "doc.txt").read_text(), encoding="utf-8")
    (warned / "empty.txt").write_text("", encoding="utf-8")
    unread = tmp_path / "unread"  # one empty and one non-UTF-8 document
    unread.mkdir()
    (unread / "a.txt").write_text("", encoding="utf-8")
    (unread / "b.txt").write_bytes("caf\xe9 au lait.\n".encode("latin-1"))
    paths = dict(
        tri=tri,
        corpus=corpus,
        flat=flat,
        unread=unread,
        warned=warned,
        missing=tmp_path / "missing",
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
