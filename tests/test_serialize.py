"""JSON round-trips for layouts, instances, DAGs, and triangulations."""

import fractions
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown import geometry, serialize
from crown.errors import FormatError
from crown.geometry import MAX_EXPONENT, BoxSpec, Layout, ProfitGraph, rat, realized_profit
from crown.hier import EmbeddedDag
from crown.serialize import (
    dag_to_doc,
    dumps_doc,
    frac_str,
    instance_to_doc,
    layout_to_doc,
    loads_doc,
    parse_dag,
    parse_frac,
    parse_instance,
    parse_triangulation,
    triangulation_to_doc,
)
from crown.triangulation import TriangulationInstance

from oracles import parse_layout


def test_frac_str_always_carries_denominator():
    assert frac_str(Fraction(7)) == "7/1"
    assert frac_str(Fraction(6, 4)) == "3/2"
    assert frac_str(Fraction(-1, 3)) == "-1/3"


def test_parse_frac_round_trip():
    for q in (Fraction(7), Fraction(3, 2), Fraction(-1, 3), Fraction(0)):
        assert parse_frac(frac_str(q), "x") == q
    # hand-written files may use bare or decimal forms
    assert parse_frac("7", "x") == 7
    assert parse_frac("1.5", "x") == Fraction(3, 2)


def test_parse_frac_rejects_junk():
    for bad in ("", "1/0", "a/b", None, [1]):
        with pytest.raises(FormatError):
            parse_frac(bad, "x")


def parse_frac_reference(value: str, where: str) -> Fraction:
    """parse_frac on a string without its fast path: Fraction(str), which
    also refuses an exponent past MAX_EXPONENT (found by the grammar of the
    fractions module, not by crown's pattern)."""
    try:
        match = fractions._RATIONAL_FORMAT.match(value)
        if match and match["exp"] and abs(int(match["exp"])) > MAX_EXPONENT:
            raise ValueError("exponent too large")
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"{where}: bad rational {value!r}")


# Pieces that int() or Fraction(str) treat specially: "_", whitespace,
# signs, decimals, exponents and Arabic-Indic digits.
FRAC_PIECES = st.sampled_from(
    [*"0123456789", "00", "_", " ", "\t", "\n", "+", "-", ".", "e", "E", "/",
     "\u0660", "\u0663", "\u0669", "\u00b2"]
)
DIGITS = st.text("0123456789", min_size=1, max_size=30)
AROUND = st.sampled_from(["", "", " ", "\n", "+", "-", "_", "0", "\u0663", "e"])
FRAC_STRINGS = st.one_of(
    st.lists(FRAC_PIECES, max_size=12).map("".join),
    st.builds("{}/{}".format, DIGITS, DIGITS),
    st.builds("{}{}{}/{}{}{}".format, AROUND, DIGITS, AROUND, AROUND, DIGITS, AROUND),
    st.builds("{}/{}".format, DIGITS, st.sampled_from(["0", "00", "000"])),
    st.builds(
        "{}{}/{}".format,
        st.sampled_from(["", "-", "+", " "]),
        st.integers(4290, 4310).map(lambda n: "7" * n),
        st.sampled_from(["3", "0", "3 ", "1_0"]),
    ),
    st.text(max_size=10),
)


@settings(max_examples=400, deadline=None)
@given(FRAC_STRINGS)
def test_parse_frac_matches_fraction_of_the_string(text):
    results = []
    for parse in (parse_frac, parse_frac_reference):
        try:
            results.append(("ok", parse(text, "w")))
        except FormatError as err:
            results.append(("error", str(err)))
    got, want = results
    assert got == want
    if got[0] == "ok":
        assert type(got[1]) is Fraction


def test_parse_frac_reports_a_numerator_past_the_digit_limit():
    text = "9" * 5000 + "/7"
    with pytest.raises(FormatError, match=r"^w: bad rational '9{20}"):
        parse_frac(text, "w")


def test_parse_frac_refuses_an_exponent_past_the_limit():
    # Fraction alone would compute 10**99999999 here, for minutes
    for text in ("1e99999999", " 2E-99_999_999 ", f"1e{MAX_EXPONENT + 1}", "1e" + "9" * 5000):
        with pytest.raises(FormatError, match="bad rational"):
            parse_frac(text, "w")
    assert parse_frac(f"1e{MAX_EXPONENT}", "w") == 10**MAX_EXPONENT
    assert parse_frac(f"3e-{MAX_EXPONENT}", "w") == Fraction(3, 10**MAX_EXPONENT)


# Strings for ids and keys: any code point, lone surrogates included, plus
# the characters that JSON escapes.
JSON_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\u2028",
                         "\ud800", "\udfff", "\u00e9", "\U0001f600"]),
    ),
    max_size=8,
)
JSON_VALUES = st.recursive(
    st.one_of(
        JSON_TEXT,
        st.booleans(),
        st.integers(),
        st.integers(-(10**40), 10**40),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5))
def test_dumps_doc_writes_what_json_dumps_writes(doc):
    assert dumps_doc(doc) == json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, None], ids=["fraction", "float", "none"])
def test_dumps_doc_refuses_what_the_emitters_never_write(value):
    for doc in ({"a": value}, {"a": [1, {"b": value}]}):
        with pytest.raises(TypeError):
            dumps_doc(doc)


def test_dumps_doc_refuses_a_key_that_is_not_a_str():
    with pytest.raises(TypeError, match="keys must be str, not int"):
        dumps_doc({"a": {1: "b"}})


def sample_layout():
    lay = Layout()
    lay.place(BoxSpec("a", rat(2), rat("3/2")), rat(0), rat(0))
    lay.place(BoxSpec("b", rat(1), rat(1)), rat(2), rat("1/2"))
    return lay


def sample_graph():
    return ProfitGraph(["a", "b"], {("a", "b"): Fraction(5, 3)})


def test_layout_round_trip_byte_identical():
    doc = layout_to_doc(sample_layout(), sample_graph())
    text = dumps_doc(doc)
    again = dumps_doc(layout_to_doc(parse_layout(loads_doc(text)), sample_graph()))
    assert text == again
    assert text.endswith("\n")


def test_layout_to_doc_sweeps_once(monkeypatch):
    # The contact list gives the realized profit too: one sweep per document.
    sweeps = []
    sweep = geometry.detect_contacts

    def counted(lay):
        sweeps.append(lay)
        return sweep(lay)

    monkeypatch.setattr(geometry, "detect_contacts", counted)
    monkeypatch.setattr(serialize, "detect_contacts", counted)
    lay = sample_layout()
    lay.place(BoxSpec("c", rat(1), rat(1)), rat(3), rat(0))  # touches b, no edge
    graph = ProfitGraph(["a", "b", "c"], {("a", "b"): Fraction(5, 3), ("a", "c"): 2})
    doc = layout_to_doc(lay, graph)
    assert len(sweeps) == 1
    assert [(c["a"], c["b"]) for c in doc["contacts"]] == [("a", "b"), ("b", "c")]
    assert doc["realized_profit"] == frac_str(realized_profit(lay, graph)) == "5/3"


def test_instance_round_trip():
    boxes = [BoxSpec("a", rat(2), rat(1)), BoxSpec("b", rat(1), rat(4))]
    doc = instance_to_doc(boxes, sample_graph())
    parsed = parse_instance(loads_doc(dumps_doc(doc)))
    assert [b.id for b in parsed.boxes] == ["a", "b"]
    assert parsed.graph.profit("a", "b") == Fraction(5, 3)


def test_instance_ignores_a_witness_key():
    # No command reads a stored layout, so a "witness" key is not checked.
    boxes = [BoxSpec("a", rat(2), rat(1)), BoxSpec("b", rat(1), rat(4))]
    doc = instance_to_doc(boxes, sample_graph())
    doc["witness"] = "not a layout"
    parsed = parse_instance(doc)
    assert parsed.boxes == tuple(boxes)
    assert parsed.graph.edges() == sample_graph().edges()


def test_dag_round_trip():
    dag = EmbeddedDag(
        ("c", "s"), (("c", "s"),), {"s": ("c",), "c": ("s",)}
    )
    boxes = {"s": BoxSpec("s", rat(1), rat(1)), "c": BoxSpec("c", rat(2), rat(1))}
    text = dumps_doc(dag_to_doc(dag, boxes))
    dag2, boxes2 = parse_dag(loads_doc(text))
    assert dag2.edges == dag.edges
    assert dag2.rotation == dict(dag.rotation)
    assert boxes2["c"].w == 2
    assert dumps_doc(dag_to_doc(dag2, boxes2)) == text


def test_triangulation_round_trip():
    inst = TriangulationInstance(
        {
            v: BoxSpec(v, rat(w), rat(h))
            for v, (w, h) in {
                "N": (4, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)
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
    text = dumps_doc(triangulation_to_doc(inst))
    inst2 = parse_triangulation(loads_doc(text))
    assert inst2.outer == inst.outer
    assert inst2.rotation == dict(inst.rotation)
    assert dumps_doc(triangulation_to_doc(inst2)) == text


def test_parse_layout_requires_boxes_field():
    assert parse_layout({"boxes": []}).pos == {}  # empty layout is fine
    with pytest.raises(FormatError):
        parse_layout({"not": "a layout"})


def test_parse_layout_reports_the_duplicate_before_a_bad_position():
    # Box entry 1 repeats id "a" and has a bad x: the whole boxes list is
    # read (ids, dimensions, duplicates) before any position.
    doc = {
        "boxes": [
            {"id": "a", "w": "1", "h": "1", "x": "0", "y": "0"},
            {"id": "a", "w": "1", "h": "1", "x": "bad", "y": "0"},
        ]
    }
    with pytest.raises(FormatError) as err:
        parse_layout(doc)
    assert str(err.value) == "layout.boxes[1]: duplicate id 'a'"
