"""Fuzzing the CLI contract: exit 0, 2 or 3, and one JSON line on failure.

Each example takes a valid instance, DAG or triangulation document,
applies a few random edits (replace a value at any depth, delete a key
or list entry) and random flag values, runs ``main`` in-process and
checks the contract.  An exception escaping ``main`` fails the test
just as a traceback would.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crown.cli import main
from crown.cycles import max_crown_cycles
from crown.geometry import BoxSpec, ProfitGraph, rat
from crown.hier import EmbeddedDag
from crown.serialize import dag_to_doc, instance_to_doc, triangulation_to_doc
from crown.triangulation import TriangulationInstance


def _instance_doc() -> dict:
    boxes = {
        "hub": BoxSpec("hub", rat(2), rat(2)),
        **{v: BoxSpec(v, rat(1), rat("1/2")) for v in "abcd"},
    }
    graph = ProfitGraph(
        list(boxes),
        {("hub", v): rat(i + 1) for i, v in enumerate("abcd")} | {("a", "b"): rat("1/3")},
    )
    witness = max_crown_cycles(graph, boxes)
    return instance_to_doc(
        list(boxes.values()), graph, {v: v.upper() for v in boxes}, witness
    )


def _dag_doc() -> dict:
    dag = EmbeddedDag(
        ("s", "a", "b", "c"),
        (("a", "s"), ("b", "s"), ("c", "a"), ("c", "b")),
        {"s": ("a", "b"), "a": ("s", "c"), "b": ("s", "c"), "c": ("a", "b")},
    )
    boxes = {
        "s": BoxSpec("s", rat(4), rat(1)),
        "a": BoxSpec("a", rat(2), rat(1)),
        "b": BoxSpec("b", rat(2), rat(1)),
        "c": BoxSpec("c", rat(3), rat(1)),
    }
    return dag_to_doc(dag, boxes)


def _triangulation_doc() -> dict:
    dims = {"N": (4, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)}
    inst = TriangulationInstance(
        {v: BoxSpec(v, rat(w), rat(h)) for v, (w, h) in dims.items()},
        {
            "N": ("E", "t0", "W"),
            "E": ("S", "t0", "N"),
            "S": ("W", "t0", "E"),
            "W": ("N", "t0", "S"),
            "t0": ("N", "E", "S", "W"),
        },
        ("N", "E", "S", "W"),
    )
    return triangulation_to_doc(inst)


BASE = {"layout": _instance_doc(), "hier": _dag_doc(), "tri": _triangulation_doc()}
IDS = ["hub", "a", "b", "c", "s", "N", "E", "S", "W", "t0", ""]

# Rationals as the documents and flags spell them, valid or not.  Tiny
# positive eps values are left out on purpose: the knapsack table grows
# as 1/eps.
RATIONALS = ["0", "1", "2", "-1", "1/2", "1/3", "-1/2", "3/1", "1/0", "x", "1e3", " 1 "]

leaf_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(IDS + RATIONALS),
    st.text(max_size=4),
)
# Mostly plausible ids and rationals, so that edits get past the schema
# checks and reach the solvers; sometimes any JSON value.
json_values = st.one_of(
    st.sampled_from(IDS + RATIONALS),
    st.integers(min_value=-3, max_value=10),
    st.recursive(
        leaf_values,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.sampled_from(IDS + ["id", "w", "h", "p"]), inner, max_size=3),
        ),
        max_leaves=6,
    ),
)


def _slots(node, out):
    """Every (container, key) position in a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutate(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = _slots(doc, [])
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(json_values)
    return doc


FLAGS = {
    "layout": [
        ("--algo", st.sampled_from(["cycle-cover", "star-forest", "random", "nope"])),
        ("--eps", st.sampled_from(RATIONALS)),
        ("--corners", st.sampled_from(["-1", "0", "1", "4", "13", "x"])),
        ("--seed", st.sampled_from(["-5", "0", "7", "1.5"])),
    ],
    "hier": [("--delta", st.sampled_from(RATIONALS))],
    "tri": [],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(BASE))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_contract_holds_on_mutated_input(command, data):
    mutate = data.draw(st.booleans(), label="mutate document")
    doc = _mutate(data.draw, BASE[command]) if mutate else BASE[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, str(path)]
        for flag, values in FLAGS[command]:
            if data.draw(st.booleans(), label=flag):
                argv += [flag, data.draw(values, label=flag)]
        if data.draw(st.booleans(), label="--svg"):
            argv += ["--svg", str(Path(tmp) / data.draw(st.sampled_from(["a.svg", "no/a.svg"])))]
        code, out, err = _run(argv)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        report = json.loads(lines[0])
        assert set(report) >= {"error", "detail"}
