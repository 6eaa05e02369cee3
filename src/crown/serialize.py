"""JSON documents for instances, layouts, DAGs and plane triangulations.

Rationals travel as exact ``"p/q"`` strings with an explicit denominator.
Every emitter writes fields in a fixed order, so an instance, DAG or
triangulation document we produced parses and re-serializes to the same
bytes.  Layouts are written, not read.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import FormatError, ParameterError, TooLargeError
from .geometry import BoxSpec, Layout, ProfitGraph, contact_profit, detect_contacts, rat
from .hier import EmbeddedDag
from .triangulation import TriangulationInstance

_escape = json.encoder.encode_basestring_ascii


def frac_str(value: Fraction) -> str:
    """``"p/q"``; TooLargeError when p or q has more digits than the
    interpreter writes (``sys.get_int_max_str_digits()``)."""
    n, d = value.as_integer_ratio()
    try:
        return f"{n}/{d}"
    except ValueError:
        raise TooLargeError(
            f"a rational of {max(abs(n), d).bit_length()} bits is too long to write"
        ) from None


def parse_frac(value, where: str) -> Fraction:
    if isinstance(value, str):
        try:
            return rat(value)
        except ParameterError:
            raise FormatError(f"{where}: bad rational {value!r}") from None
    if type(value) is int:
        return Fraction(value)
    raise FormatError(f"{where}: expected a \"p/q\" string, got {value!r}")


def _require(doc, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected an object")
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise FormatError(f"{where}: field {key!r} has wrong type")
    return value


def _box_spec(entry, where: str) -> BoxSpec:
    bid = _require(entry, "id", str, where)
    w = parse_frac(_require(entry, "w", None, where), f"{where}.w")
    h = parse_frac(_require(entry, "h", None, where), f"{where}.h")
    try:
        return BoxSpec(bid, w, h)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}")


def _boxes(doc, where: str) -> Dict[str, BoxSpec]:
    """The ``boxes`` list as an id -> spec dict, in document order."""
    boxes: Dict[str, BoxSpec] = {}
    for i, entry in enumerate(_require(doc, "boxes", list, where)):
        spec = _box_spec(entry, f"{where}.boxes[{i}]")
        if spec.id in boxes:
            raise FormatError(f"{where}.boxes[{i}]: duplicate id {spec.id!r}")
        boxes[spec.id] = spec
    return boxes


def _rotation(doc, boxes: Mapping[str, BoxSpec], where: str) -> Dict[str, Tuple[str, ...]]:
    """The ``rotation`` object: each known vertex to a list of known ids."""
    rotation: Dict[str, Tuple[str, ...]] = {}
    for v, row in _require(doc, "rotation", dict, where).items():
        if v not in boxes:
            raise FormatError(f"{where}.rotation: unknown vertex {v!r}")
        if not isinstance(row, list) or not all(
            isinstance(u, str) and u in boxes for u in row
        ):
            raise FormatError(f"{where}.rotation[{v!r}]: bad neighbor list")
        rotation[v] = tuple(row)
    return rotation


def _box_doc(box: BoxSpec) -> dict:
    return {"id": box.id, "w": frac_str(box.w), "h": frac_str(box.h)}


# ---------------------------------------------------------------------------
# layouts


def layout_to_doc(lay: Layout, graph: ProfitGraph) -> dict:
    """Canonical layout document: boxes sorted by id, contacts recomputed
    by one sweep, which also gives the realized profit."""
    boxes = []
    for bid in lay.ids():
        x, y = lay.pos[bid]
        boxes.append({**_box_doc(lay.boxes[bid]), "x": frac_str(x), "y": frac_str(y)})
    found = detect_contacts(lay)
    contacts = [
        {
            "a": c.a,
            "b": c.b,
            "orientation": c.orientation,
            "degenerate": c.degenerate,
        }
        for c in found
    ]
    return {
        "boxes": boxes,
        "contacts": contacts,
        "realized_profit": frac_str(contact_profit(found, graph)),
        "total_profit": frac_str(graph.total_profit()),
    }


# ---------------------------------------------------------------------------
# instances (boxes + profit graph, optional labels)


@dataclass(frozen=True)
class InstanceDoc:
    boxes: Tuple[BoxSpec, ...]
    graph: ProfitGraph
    labels: Dict[str, str]

    def box_map(self) -> Dict[str, BoxSpec]:
        return {b.id: b for b in self.boxes}


def instance_to_doc(
    boxes: Sequence[BoxSpec],
    graph: ProfitGraph,
    labels: Optional[Mapping[str, str]] = None,
) -> dict:
    doc = {
        "boxes": [_box_doc(b) for b in boxes],
        "profits": [
            {"a": a, "b": b, "p": frac_str(p)} for a, b, p in graph.edges()
        ],
    }
    if labels:
        doc["labels"] = {bid: labels[bid] for bid in sorted(labels)}
    return doc


def parse_instance(doc) -> InstanceDoc:
    boxes = _boxes(doc, "instance")
    graph = ProfitGraph(vertices=boxes)
    for i, entry in enumerate(_require(doc, "profits", list, "instance")):
        where = f"instance.profits[{i}]"
        a = _require(entry, "a", str, where)
        b = _require(entry, "b", str, where)
        p = parse_frac(_require(entry, "p", None, where), f"{where}.p")
        if a not in boxes or b not in boxes:
            raise FormatError(f"{where}: unknown box id")
        if a == b:
            raise FormatError(f"{where}: self-loop on {a!r}")
        if graph.has_edge(a, b):
            raise FormatError(f"{where}: duplicate edge {ProfitGraph.key(a, b)}")
        if p < 0:
            raise FormatError(f"{where}: negative profit")
        graph.add_edge(a, b, p)
    labels: Dict[str, str] = {}
    if "labels" in doc:
        raw = _require(doc, "labels", dict, "instance")
        for bid, label in raw.items():
            if bid not in boxes:
                raise FormatError(f"instance.labels: unknown box id {bid!r}")
            if not isinstance(label, str):
                raise FormatError(f"instance.labels[{bid!r}]: not a string")
            labels[bid] = label
    return InstanceDoc(tuple(boxes.values()), graph, labels)


# ---------------------------------------------------------------------------
# embedded DAGs (edges directed child -> parent, toward the sink)


def dag_to_doc(dag: EmbeddedDag, boxes: Mapping[str, BoxSpec]) -> dict:
    return {
        "boxes": [_box_doc(boxes[v]) for v in dag.vertices],
        "edges": [[u, v] for u, v in dag.edges],
        "rotation": {v: list(dag.rotation.get(v, ())) for v in dag.vertices},
    }


def parse_dag(doc) -> Tuple[EmbeddedDag, Dict[str, BoxSpec]]:
    boxes = _boxes(doc, "dag")
    edges: List[Tuple[str, str]] = []
    for i, entry in enumerate(_require(doc, "edges", list, "dag")):
        where = f"dag.edges[{i}]"
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(e, str) for e in entry)
        ):
            raise FormatError(f"{where}: expected [child, parent]")
        u, v = entry
        if u not in boxes or v not in boxes:
            raise FormatError(f"{where}: unknown vertex")
        edges.append((u, v))
    rotation = _rotation(doc, boxes, "dag")
    return EmbeddedDag(tuple(boxes), tuple(edges), rotation), boxes


# ---------------------------------------------------------------------------
# plane triangulations with a labeled outer 4-cycle


def triangulation_to_doc(inst: TriangulationInstance) -> dict:
    order = sorted(inst.boxes)
    return {
        "boxes": [_box_doc(inst.boxes[v]) for v in order],
        "rotation": {v: list(inst.rotation.get(v, ())) for v in order},
        "outer": {
            "N": inst.outer[0],
            "E": inst.outer[1],
            "S": inst.outer[2],
            "W": inst.outer[3],
        },
    }


def parse_triangulation(doc) -> TriangulationInstance:
    boxes = _boxes(doc, "triangulation")
    rotation = _rotation(doc, boxes, "triangulation")
    outer_doc = _require(doc, "outer", dict, "triangulation")
    sides = []
    for side in ("N", "E", "S", "W"):
        vid = _require(outer_doc, side, str, "triangulation.outer")
        if vid not in boxes:
            raise FormatError(f"triangulation.outer.{side}: unknown id {vid!r}")
        sides.append(vid)
    return TriangulationInstance(boxes, rotation, tuple(sides))


# ---------------------------------------------------------------------------
# document <-> text


def dumps_doc(doc: dict) -> str:
    """Fixed rendering (2-space indent, trailing newline) for byte-stable
    output files: the text of ``json.dumps(doc, indent=2,
    ensure_ascii=True)`` plus a newline.  It writes what the emitters
    produce, str, bool, int and lists and str-keyed dicts of these, and
    raises TypeError on anything else.  (``json.dumps`` with an indent
    runs the pure-Python encoder, about twice as slow.)"""
    out: List[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: List[str]) -> None:
    """Append ``value`` to ``out``; ``newline`` is a newline plus the
    indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _escape(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"cannot write a {type(value).__name__}")


def loads_doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise FormatError(f"not valid JSON: {exc}")
    except RecursionError:  # the decoder recurses once per nesting level
        raise FormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    return doc
