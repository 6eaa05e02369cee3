"""The library's surface: what ``import crown`` loads and how constructors
reject bad parameters."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import crown
from crown.errors import CrownError
from crown.gap import GapInstance, GapItem
from crown.geometry import BoxSpec, ProfitGraph
from crown.hier import EmbeddedDag
from crown.stars import StarInstance

SUBMODULES = [
    "cycles", "errors", "extremal", "gap", "geometry", "hier",
    "pipeline", "serialize", "stars", "svg", "triangulation",
]


def test_import_loads_the_submodules_and_exposes_only_them():
    # A fresh interpreter, so modules other tests imported do not count.
    code = (
        "import json, sys, crown; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith('crown.')),"
        "sorted(n for n in vars(crown) if not n.startswith('_'))]))"
    )
    src = str(Path(crown.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, public = json.loads(proc.stdout)
    assert loaded == [f"crown.{m}" for m in SUBMODULES]
    assert public == SUBMODULES


def _unit(bid):
    return BoxSpec(bid, 1, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: BoxSpec("a", 0, 1),
        lambda: BoxSpec("a", 1, Fraction(-1, 2)),
        lambda: ProfitGraph.key("a", "a"),
        lambda: ProfitGraph().add_edge("a", "a", 1),
        lambda: ProfitGraph().add_edge("a", "b", -1),
        lambda: ProfitGraph("ab", {("a", "b"): -1}),
        lambda: GapItem("i", (1, 1), (1,)),
        lambda: GapItem("i", (-1,), (1,)),
        lambda: GapItem("i", (1,), (-1,)),
        lambda: GapInstance((1, 1), (GapItem("i", (1,), (1,)),)),
        lambda: StarInstance(_unit("c"), (_unit("c"),), {"c": 1}),
        lambda: StarInstance(_unit("c"), (_unit("l"),), {}),
        lambda: EmbeddedDag(("a",), (("a", "b"),), {}),
    ],
    ids=[
        "box-zero-width", "box-negative-height", "key-self-loop",
        "edge-self-loop", "edge-negative-profit", "graph-negative-profit",
        "item-misaligned", "item-negative-size", "item-negative-value",
        "gap-wrong-arity", "star-leaf-is-center", "star-leaf-without-profit",
        "dag-unknown-vertex",
    ],
)
def test_bad_parameters_raise_crown_errors(build):
    with pytest.raises(CrownError) as info:
        build()
    assert isinstance(info.value, ValueError)
