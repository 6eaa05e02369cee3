"""Text-to-instance pipeline: stemming, sizing, similarity, baseline."""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crown import pipeline
from crown.errors import InvalidInstanceError, ParameterError
from crown.geometry import BoxSpec, ProfitGraph, detect_contacts, realized_profit
from crown.pipeline import (
    WordStats,
    box_dimensions,
    document_instance,
    load_corpus,
    preprocess,
    random_baseline,
    similarity_profits,
    stem,
    top_stems,
)
from crown.serialize import dumps_doc, layout_to_doc

from oracles import box_dimensions_fraction, random_baseline_fraction


def test_stemming_merges_plural():
    stats = preprocess("The cat sat. The cats sit.")
    assert stats.freq["cat"] == 2


def test_stem_idempotent_on_corpus_words():
    for w in ("cats", "running", "hopes", "classes", "bigger", "quickly"):
        assert stem(stem(w)) == stem(w)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12))
def test_stem_idempotent(word):
    assert stem(stem(word)) == stem(word)


def test_top_stems_bounded_and_sorted_by_freq():
    stats = preprocess("alpha alpha alpha beta beta gamma. delta.")
    top = top_stems(stats, 2)
    assert top == ["alpha", "beta"]
    assert top_stems(stats, 0) == []
    with pytest.raises(ParameterError, match="k must be >= 0"):
        top_stems(stats, -1)


def test_similarity_profits_in_unit_interval():
    text = (
        "Rivers carve the valley floor. The valley holds the river mist. "
        "Mist settles over the floor at dawn. Dawn light follows the river."
    )
    stats = preprocess(text)
    g = similarity_profits(stats, top_stems(stats, 10))
    assert len(g.vertices) <= 10
    for _, _, p in g.edges():
        assert 0 < p <= 1


def test_cosine_of_half_overlap():
    # stems a,b share exactly one of two sentences each: cosine 1/2
    text = "quartz feldspar. feldspar mica. quartz mica."
    stats = preprocess(text)
    g = similarity_profits(stats, top_stems(stats, 3))
    assert g.profit("quartz", "feldspar") == Fraction(1, 2)


def test_similarity_profits_are_cosines_and_share_equal_values():
    text = (Path(__file__).resolve().parent.parent / "corpus" / "tides.txt").read_text()
    stats = preprocess(text)
    stems = top_stems(stats, 100)
    g = similarity_profits(stats, stems)
    sentences = {
        s: {i for i, sent in enumerate(stats.sentences) if s in sent} for s in stems
    }
    expected = {}
    for i, a in enumerate(stems):
        for b in stems[i + 1 :]:
            t, ab = len(sentences[a] & sentences[b]), len(sentences[a]) * len(sentences[b])
            # m / 2**20 is t / sqrt(ab) floored to the grid
            m = math.isqrt((t * t << 40) // ab)
            assert m * m * ab <= t * t << 40 < (m + 1) ** 2 * ab
            if m:
                expected[tuple(sorted((a, b)))] = Fraction(m, 2**20)
    assert {(a, b): p for a, b, p in g.edges()} == expected
    shared = {}
    for _, _, p in g.edges():
        assert shared.setdefault(p, p) is p
    assert len(shared) < len(expected)


def test_box_dimensions_aspect_example():
    stats = preprocess("weird weird weird weird")
    dims = box_dimensions(stats, ["weird"])
    b = dims["weird"]
    assert b.h == 2  # max-frequency word gets base height
    assert b.w == Fraction(11, 2)  # 5 letters, aspect 11/20
    assert dims == box_dimensions_fraction(stats, ["weird"])


def test_box_width_rounds_ties_up():
    # freq 15 of 100 gives h64 = round(128 * sqrt(0.15)) = 50; one letter
    # is 50 * 11/20 = 27.5 64ths wide, which rounds up to 28.
    stats = WordStats({"a": 100, "b": 15}, {"a": "a", "b": "b"}, ())
    dims = box_dimensions(stats, ["a", "b"])
    assert dims["b"].h == Fraction(50, 64)
    assert dims["b"].w == Fraction(28, 64)
    assert dims == box_dimensions_fraction(stats, ["a", "b"])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=15)),
        min_size=1,
        max_size=6,
    )
)
@example([(100, 1), (15, 1)])  # h64 = 50, one letter: the 27.5 -> 28 tie
def test_box_dimensions_match_the_fraction_oracle(words):
    stats = WordStats(
        {f"w{i}": f for i, (f, _) in enumerate(words)},
        {f"w{i}": "x" * n for i, (_, n) in enumerate(words)},
        (),
    )
    ids = list(stats.freq)
    assert box_dimensions(stats, ids) == box_dimensions_fraction(stats, ids)


def test_box_height_scales_with_sqrt_frequency():
    stats = preprocess("high high high high low")
    dims = box_dimensions(stats, ["high", "low"])
    assert dims["high"].h == 2
    # freq ratio 1/4 halves the height before clamping
    assert dims["low"].h == 1


def test_box_height_clamped_below():
    words = " ".join(["major"] * 100 + ["minor"])
    dims = box_dimensions(preprocess(words), ["major", "minor"])
    assert dims["minor"].h == Fraction(1, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_box_dimensions_monotone_in_freq(f1, f2):
    text = " ".join(["alpha"] * f1 + ["beta"] * f2)
    dims = box_dimensions(preprocess(text), ["alpha", "beta"])
    if f1 >= f2:
        assert dims["alpha"].h >= dims["beta"].h
    else:
        assert dims["alpha"].h <= dims["beta"].h


def test_random_baseline_deterministic_and_disjoint():
    text = (
        "Gulls wheel over the harbor wall. The harbor swallows the tide. "
        "Tide pools mirror the wall at dusk. Dusk brings the gulls home."
    )
    boxes, graph, _ = document_instance(text, k=12)
    bx = {b.id: b for b in boxes}
    one = random_baseline(graph, bx, seed=99)
    two = random_baseline(graph, bx, seed=99)
    assert dumps_doc(layout_to_doc(one, graph)) == dumps_doc(layout_to_doc(two, graph))
    detect_contacts(one)  # no overlaps
    assert realized_profit(one, graph) >= 0


def test_random_baseline_single_box_at_origin():
    from crown.geometry import BoxSpec, ProfitGraph

    g = ProfitGraph(["solo"])
    lay = random_baseline(g, {"solo": BoxSpec("solo", Fraction(3), Fraction(1))}, seed=5)
    x, y = lay.pos["solo"]
    assert (x + Fraction(3, 2), y + Fraction(1, 2)) == (0, 0)  # centered


def test_random_baseline_rejects_a_vertex_without_box():
    g = ProfitGraph("abc", {("a", "b"): 1, ("b", "c"): 1})
    boxes = {v: BoxSpec(v, Fraction(1), Fraction(1)) for v in "ab"}
    with pytest.raises(ParameterError, match="'c'"):
        random_baseline(g, boxes, seed=0)


# A side as (numerator, denominator): on the corpus's 1/64 grid, finer, or
# off it altogether.
side = st.tuples(st.integers(1, 40), st.sampled_from((1, 3, 7, 64, 128)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(side, side), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2**32),
)
def test_random_baseline_matches_fraction_reference(sides, seed):
    boxes = {
        f"w{i:02d}": BoxSpec(f"w{i:02d}", Fraction(*w), Fraction(*h))
        for i, (w, h) in enumerate(sides)
    }
    graph = ProfitGraph(boxes)
    lay = random_baseline(graph, boxes, seed)
    ref = random_baseline_fraction(graph, boxes, seed)
    assert lay.pos == ref.pos
    assert list(lay.pos) == list(ref.pos)  # same placement order
    assert dumps_doc(layout_to_doc(lay, graph)) == dumps_doc(layout_to_doc(ref, graph))


def test_document_instance_shapes():
    text = "Wind shakes the aspen grove. Aspen leaves spin in the wind. The grove hums."
    boxes, graph, labels = document_instance(text, k=5)
    ids = {b.id for b in boxes}
    assert graph.vertices <= ids
    assert len(ids) <= 5
    assert set(labels) == ids


@pytest.mark.parametrize(
    "k, error",
    [(-1, InvalidInstanceError), (0, InvalidInstanceError), (1, InvalidInstanceError),
     (True, ParameterError), (False, ParameterError), (1.5, ParameterError),
     ("5", ParameterError), (None, ParameterError)],
)
def test_document_instance_needs_an_int_k_of_at_least_two(k, error):
    with pytest.raises(error):
        document_instance("alpha beta. beta gamma.", k)


def test_document_instance_ranks_the_stems_once(monkeypatch):
    calls = []

    def spy(stats, k):
        calls.append(k)
        return top_stems(stats, k)

    monkeypatch.setattr(pipeline, "top_stems", spy)
    document_instance("alpha beta. beta gamma. gamma alpha.", 3)
    assert calls == [3]


def test_random_baseline_of_no_boxes_is_empty():
    lay = random_baseline(ProfitGraph(), {}, seed=0)
    assert (lay.boxes, lay.pos) == ({}, {})


def test_load_corpus_bundled_documents():
    docs = load_corpus(Path(__file__).resolve().parent.parent / "corpus")
    assert len(docs) >= 10
    for doc_id, text in docs:
        assert len(text.split()) >= 400, doc_id
