"""The library's surface: what ``import crown`` loads and how constructors
reject bad parameters."""

import ast
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import crown
from crown.errors import CrownError
from crown.gap import GapInstance, GapItem, knapsack_fptas
from crown.geometry import BoxSpec, ProfitGraph
from crown.hier import EmbeddedDag, assign_y, solve_x, sweep_order
from crown.pipeline import (
    box_dimensions,
    document_instance,
    preprocess,
    random_baseline,
    top_stems,
)
from crown.stars import StarInstance, max_crown_stars, solve_star

SUBMODULES = [
    "cycles", "errors", "gap", "geometry", "hier",
    "pipeline", "serialize", "stars", "svg", "triangulation",
]


def test_import_loads_the_submodules_and_exposes_only_them():
    # A fresh interpreter, so modules other tests imported do not count.
    # The library needs no networkx: that is a test oracle only.
    code = (
        "import json, sys, crown; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith('crown.')),"
        "sorted(n for n in vars(crown) if not n.startswith('_')),"
        "sorted(m for m in sys.modules if m.split('.')[0] == 'networkx')]))"
    )
    src = str(Path(crown.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, public, networkx = json.loads(proc.stdout)
    assert loaded == [f"crown.{m}" for m in SUBMODULES]
    assert public == SUBMODULES
    assert networkx == []


def _unit(bid):
    return BoxSpec(bid, 1, 1)


SINKLESS = EmbeddedDag(("a", "b"), (), {})  # two sinks, no edge
CHAIN = EmbeddedDag(("a", "s"), (("a", "s"),), {"a": ("s",), "s": ("a",)})
TEXT = "alpha beta gamma. alpha beta. beta gamma delta.\n"


@pytest.mark.parametrize(
    "build",
    [
        lambda: BoxSpec("a", 0, 1),
        lambda: BoxSpec("a", 1, Fraction(-1, 2)),
        lambda: BoxSpec("a", "x", 1),
        lambda: BoxSpec("a", "1/0", 1),
        lambda: BoxSpec("a", "1e99999999", 1),
        lambda: BoxSpec("a", None, 1),
        lambda: BoxSpec("a", Decimal("1.5"), 1),
        lambda: knapsack_fptas([(1, 1)], 1, "x"),
        lambda: knapsack_fptas([(1, 1)], 1, [1]),
        lambda: ProfitGraph.key("a", "a"),
        lambda: ProfitGraph().add_edge("a", "a", 1),
        lambda: ProfitGraph().add_edge("a", "b", -1),
        lambda: ProfitGraph().add_edge("a", "b", b"1/2"),
        lambda: ProfitGraph("ab", {("a", "b"): -1}),
        lambda: GapItem("i", (-1,), 1),
        lambda: GapItem("i", (1,), -1),
        lambda: GapInstance((1, 1), (GapItem("i", (1,), 1),)),
        lambda: StarInstance(_unit("c"), (_unit("c"),), {"c": 1}),
        lambda: StarInstance(_unit("c"), (_unit("l"),), {}),
        lambda: EmbeddedDag(("a",), (("a", "b"),), {}),
        lambda: SINKLESS.sink(),
        lambda: assign_y(SINKLESS, {"a": 1, "b": 1}),
        lambda: sweep_order(SINKLESS, {"a": (0, 1), "b": (0, 1)}),
        lambda: solve_x({"a": 1, "b": 1}, SINKLESS.edges, (), Fraction(1, 2), "a"),
        lambda: solve_x({"a": 1}, [("a", "q")], (), Fraction(1, 10), "a"),
        lambda: solve_x({}, (), (), Fraction(1, 10), "z"),
        lambda: max_crown_stars(
            ProfitGraph("ab", {("a", "b"): 1}), {"a": _unit("a"), "b": _unit("b")},
            Fraction(1, 4), "2",
        ),
        lambda: solve_star(
            StarInstance(_unit("c"), (_unit("l"),), {"l": 1}), Fraction(1, 4), 1.5
        ),
        lambda: top_stems(preprocess(TEXT), 1.5),
        lambda: document_instance(TEXT, "5"),
        lambda: assign_y(CHAIN, {}),
        lambda: sweep_order(CHAIN, {}),
        lambda: knapsack_fptas([(1,)], 1, Fraction(1, 4)),
        lambda: knapsack_fptas([1], 1, Fraction(1, 4)),
        lambda: box_dimensions(preprocess("alpha beta"), ["zz"]),
        lambda: random_baseline(ProfitGraph(), {}, None),
        lambda: random_baseline(ProfitGraph(), {}, 0.5),
        lambda: random_baseline(ProfitGraph(), {}, [1]),
        lambda: random_baseline(ProfitGraph(), {}, True),
        lambda: BoxSpec("a", True, True),
        lambda: solve_star(
            StarInstance(_unit("c"), (_unit("l"),), {"l": 1}), Fraction(1, 4), True
        ),
        lambda: max_crown_stars(
            ProfitGraph("ab", {("a", "b"): 1}), {"a": _unit("a"), "b": _unit("b")},
            Fraction(1, 4), True,
        ),
        lambda: top_stems(preprocess(TEXT), True),
        lambda: EmbeddedDag(("a", "b"), (("a", "b", "c"),), {}),
        lambda: EmbeddedDag(("a", "b", "a"), (("a", "b"),), {}),
        lambda: EmbeddedDag(("a", "b"), (("a", "b"),), {"z": ()}),
    ],
    ids=[
        "box-zero-width", "box-negative-height", "box-bad-string",
        "box-zero-denominator", "box-huge-exponent", "box-none", "box-decimal",
        "knapsack-bad-eps", "knapsack-list-eps", "key-self-loop",
        "edge-self-loop", "edge-negative-profit", "edge-bytes-profit", "graph-negative-profit",
        "item-negative-size", "item-negative-value",
        "gap-wrong-arity", "star-leaf-is-center", "star-leaf-without-profit",
        "dag-unknown-vertex", "dag-sink", "dag-assign-y", "dag-sweep-order",
        "dag-solve-x-unanchored", "dag-solve-x-unknown-endpoint",
        "dag-solve-x-unknown-anchor", "max-stars-str-corners",
        "solve-star-float-corners",
        "top-stems-float-k", "document-str-k", "dag-assign-y-no-height",
        "dag-sweep-order-no-level", "knapsack-short-item", "knapsack-int-item",
        "box-dimensions-unknown-word", "baseline-none-seed", "baseline-float-seed",
        "baseline-list-seed", "baseline-bool-seed", "box-bool",
        "solve-star-bool-corners", "max-stars-bool-corners", "top-stems-bool-k",
        "dag-edge-not-a-pair", "dag-repeated-vertex", "dag-rotation-at-no-vertex",
    ],
)
def test_bad_parameters_raise_crown_errors(build):
    with pytest.raises(CrownError) as info:
        build()
    assert isinstance(info.value, ValueError)


def _float_uses(node) -> bool:
    """A float literal, a float(...) call, math.pi/cos/sin or a .random() call."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name) and node.value.id == "math"
                and node.attr in ("pi", "cos", "sin"))
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Name) and func.id == "float") or (
            isinstance(func, ast.Attribute) and func.attr == "random"
        )
    return False


def _unit_conversion(node) -> bool:
    """``x.numerator * (u // ... x.denominator ...)``, in either order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for num, div in ((node.left, node.right), (node.right, node.left)):
        if (isinstance(num, ast.Attribute) and num.attr == "numerator"
                and isinstance(div, ast.BinOp) and isinstance(div.op, ast.FloorDiv)):
            x = ast.dump(num.value)
            if any(isinstance(d, ast.Attribute) and d.attr == "denominator"
                   and ast.dump(d.value) == x for d in ast.walk(div.right)):
                return True
    return False


def _keyed_edge_sort(node) -> bool:
    """``sorted(<x>.edges(), key=...)``."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted"
            and node.args and any(k.arg == "key" for k in node.keywords)):
        return False
    target = node.args[0]
    return isinstance(target, ast.Call) and getattr(target.func, "attr", None) == "edges"


def _indented_dumps(node) -> bool:
    """A ``json.dumps(..., indent=...)`` call, or ``dump``, or either by
    its bare name."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    return name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords)


def _slash_split(node) -> bool:
    """A ``.partition("/")`` call."""
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "partition"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "/")


def _layout_write(node) -> bool:
    """An item assignment to ``<x>.pos[...]`` or ``<x>.boxes[...]``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(t, ast.Subscript) and getattr(t.value, "attr", None) in ("pos", "boxes")
        for target in targets for t in ast.walk(target)
    )


def _file_write(node) -> bool:
    """A ``.write_text``, ``.write_bytes`` or ``os.replace`` call, or an
    ``open`` call whose constant mode writes."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name == "replace":
        return getattr(getattr(node.func, "value", None), "id", None) == "os"
    modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
    return name == "open" and any(
        isinstance(m, ast.Constant) and set(str(m.value)) & set("wxa+") for m in modes
    )


def _self_call(node) -> bool:
    """A function that calls itself by name, or a method by ``self.<name>``."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return any(
        isinstance(call, ast.Call) and (
            getattr(call.func, "id", None) == node.name
            or (getattr(call.func, "attr", None) == node.name
                and getattr(call.func.value, "id", None) in ("self", "cls"))
        )
        for call in ast.walk(node)
    )


def _frozen_write(node) -> bool:
    """A function other than ``__post_init__`` that calls ``object.__setattr__``."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return node.name != "__post_init__" and any(
        isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "__setattr__"
        and getattr(call.func.value, "id", None) == "object"
        for call in ast.walk(node)
    )


# (rule, predicate, the top-level definitions allowed to match it).
SOURCE_RULES = [
    # The spiral of the random baseline is the one float path left; an
    # exact spiral empties its set.
    ("floats", _float_uses, {"pipeline.random_baseline"}),
    # Rationals become whole counts of 1/unit in one place.
    ("on-unit", _unit_conversion, {"geometry.on_unit"}),
    # stars._ranked sorts on on_unit counts; a key on the Fraction profits
    # elsewhere would be a second, slower ranking.
    ("ranked", _keyed_edge_sort, {"stars._ranked"}),
    # serialize.dumps_doc writes the indented text itself; json.dumps with
    # an indent runs the pure-Python encoder.
    ("dumps-doc", _indented_dumps, set()),
    # Outside text becomes a rational in one reader, with one fast path.
    ("rat", _slash_split, {"geometry.rat"}),
    # A box enters a layout only through Layout.place, which refuses a
    # duplicate id.
    ("layout-write", _layout_write, {"geometry.Layout"}),
    # Output files are written all or none, by one writer.
    ("file-write", _file_write, {"cli._write_files"}),
    # Trails, alternating paths and searches run on explicit stacks, so a
    # long one never meets the interpreter's recursion limit.  One writer
    # recurses, only as deep as the document it writes.
    ("recursion", _self_call, {"serialize._write"}),
    # A frozen instance derives its indexes once, in __post_init__; a later
    # write would leave them stale.
    ("frozen-write", _frozen_write, set()),
]


@pytest.mark.parametrize(
    "predicate, allowed",
    [rule[1:] for rule in SOURCE_RULES],
    ids=[rule[0] for rule in SOURCE_RULES],
)
def test_source_rule(predicate, allowed):
    offenders = []
    for path in sorted(Path(crown.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            if scope in allowed:
                continue
            offenders += [
                f"{path.name}:{node.lineno} in {scope}"
                for node in ast.walk(top) if predicate(node)
            ]
    assert offenders == []
