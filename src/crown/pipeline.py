"""Text to word-cloud instances: tokenizing, stemming, sizing, profits.

The pipeline is deliberately frugal so results stay reproducible:

* sentences are split on ``.``, ``!``, ``?`` followed by whitespace;
* tokens are lowercased and stripped of non-alphanumeric characters;
* stop-words are dropped before stemming;
* stemming is a small documented suffix-stripper (see :func:`stem`), and
  words sharing a stem are merged, labeled by their most frequent
  surface form (ties broken lexicographically);
* pairwise profits are cosine similarities of sentence-incidence
  vectors, computed exactly and snapped down to the 2**-20 grid so they
  remain rationals.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from random import Random
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from .errors import InvalidInstanceError, ParameterError
from .geometry import BoxSpec, Layout, ProfitGraph, on_unit, require_boxes

COS_GRID = 1 << 20
# Box sizing: tallest and shortest box height in 64ths, width per letter
# as a fraction of the height.
BASE_H = 128
MIN_H = 32
ASPECT = Fraction(11, 20)

STOP_WORDS = frozenset(
    """
    a about above after again against all am an and any are as at be
    because been before being below between both but by can cannot could
    did do does doing down during each else few for from further had has
    have having he her here hers herself him himself his how i if in
    into is it its itself just me more most my myself no nor not now of
    off on once only or other ought our ours ourselves out over own same
    she should so some such than that the their theirs them themselves
    then there these they this those through to too under until up very
    was we were what when where which while who whom why will with would
    you your yours yourself yourselves
    """.split()
)


def stem(word: str) -> str:
    """Strip regular plural, -ing and -ed suffixes, first match wins.

    Words shorter than four letters pass through, and a stripped stem
    always keeps at least three letters.  After -ing/-ed removal a
    doubled final consonant is collapsed (running -> run) unless it is
    ll/ss/ff/zz (calling -> call).
    """
    if len(word) < 4:
        return word
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith(("ss", "us", "is")):
        return word
    if word.endswith("s"):
        return word[:-1]
    for suffix in ("ing", "ed"):
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            base = word[: -len(suffix)]
            if (
                len(base) >= 4
                and base[-1] == base[-2]
                and base[-1] not in "lsfz"
            ):
                base = base[:-1]
            return base
    return word


@dataclass(frozen=True)
class WordStats:
    """Stem frequencies, display labels, and per-sentence stem sets."""

    freq: Dict[str, int]
    label: Dict[str, str]
    sentences: Tuple[FrozenSet[str], ...]


_SENTENCE_SPLIT = re.compile(r"[.!?]+\s+")
_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def preprocess(text: str) -> WordStats:
    freq: Dict[str, int] = {}
    surface: Dict[str, Dict[str, int]] = {}
    sentences: List[FrozenSet[str]] = []
    for raw_sentence in _SENTENCE_SPLIT.split(text):
        stems = set()
        for raw in raw_sentence.split():
            token = _NON_ALNUM.sub("", raw.lower())
            if not token or token in STOP_WORDS:
                continue
            s = stem(token)
            freq[s] = freq.get(s, 0) + 1
            counts = surface.setdefault(s, {})
            counts[token] = counts.get(token, 0) + 1
            stems.add(s)
        if stems:
            sentences.append(frozenset(stems))
    label = {
        s: min(counts, key=lambda t: (-counts[t], t))
        for s, counts in surface.items()
    }
    return WordStats(freq, label, tuple(sentences))


def top_stems(stats: WordStats, k: int) -> List[str]:
    """The k most frequent stems, ties by stem; ParameterError unless k is
    an int >= 0 and not a bool."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise ParameterError(f"k must be an int, got {k!r}")
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    return sorted(stats.freq, key=lambda s: (-stats.freq[s], s))[:k]


def _cosine_steps(t: int, a: int, b: int) -> int:
    """floor(t / sqrt(a*b) * 2**20), exactly: the cosine in 2**-20 steps."""
    return isqrt((t << 20) ** 2 // (a * b))


def similarity_profits(stats: WordStats, stems: Sequence[str]) -> ProfitGraph:
    """Profit graph over ``stems``, the ranked stems of ``top_stems``.

    Profits are exact cosine similarities of binary sentence-incidence
    vectors; zero-similarity pairs carry no edge.  Edges of equal profit
    share one Fraction: on the 2**-20 grid a large graph has few distinct
    profits.
    """
    incidence = {
        s: frozenset(
            i for i, sent in enumerate(stats.sentences) if s in sent
        )
        for s in stems
    }
    graph = ProfitGraph(vertices=stems)
    profits: Dict[int, Fraction] = {}  # by steps on the grid
    for i, a in enumerate(stems):
        for b in stems[i + 1 :]:
            t = len(incidence[a] & incidence[b])
            if t == 0:
                continue
            steps = _cosine_steps(t, len(incidence[a]), len(incidence[b]))
            if steps > 0:
                if steps not in profits:
                    profits[steps] = Fraction(steps, COS_GRID)
                graph.add_edge(a, b, profits[steps])
    return graph


def _round_root(x: int, y: int, d: int) -> int:
    """round(x * sqrt(y) / d) for non-negative integers, d > 0."""
    return (isqrt(4 * x * x * y) + d) // (2 * d)


def box_dimensions(stats: WordStats, words: Sequence[str]) -> Dict[str, BoxSpec]:
    """Boxes sized by the square-root law, counted in 64ths.

    h64 = BASE_H * sqrt(freq / max_freq), rounded to the nearest whole
    and clamped to [MIN_H, BASE_H]; w64 = h64 * ASPECT * label length,
    rounded half up and at least 1.  A box is w64/64 by h64/64.
    ParameterError names the first word that is not a stem of ``stats``.
    """
    if not words:
        return {}
    unknown = [s for s in words if s not in stats.freq]
    if unknown:
        raise ParameterError(f"{unknown[0]!r} is not a stem of the document")
    max_freq = max(stats.freq[s] for s in words)
    a, b = ASPECT.numerator, ASPECT.denominator
    out: Dict[str, BoxSpec] = {}
    for s in words:
        n64 = _round_root(BASE_H, stats.freq[s] * max_freq, max_freq)
        h64 = min(max(n64, MIN_H), BASE_H)
        w64 = max((2 * a * h64 * len(stats.label[s]) + b) // (2 * b), 1)
        out[s] = BoxSpec(s, Fraction(w64, 64), Fraction(h64, 64))
    return out


def random_baseline(
    graph: ProfitGraph, boxes: Mapping[str, BoxSpec], seed: int
) -> Layout:
    """Greedy spiral placement, the usual word-cloud baseline.

    Boxes go down in decreasing area order; each one walks an
    Archimedean spiral from a seeded random start angle and takes the
    first center (snapped to the 1/64 grid) at which its closed box
    overlaps nothing already placed.

    The overlap test runs on exact integers: every coordinate is counted
    in units of 1/unit, with ``on_unit`` over the 1/64 grid step and every
    half-side, so spiral centers and half-sides are whole units even for
    boxes off the 1/64 grid.  Only the spiral itself is float: its
    centers are the float expression round(r * cos * 64) / 64 that has
    always defined this baseline's output, and an exact spiral would
    place the boxes elsewhere.  Raises ParameterError when a graph vertex
    has no box or the seed is not an int or is a bool.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParameterError(f"seed must be an int, got {seed!r}")
    require_boxes(graph.vertices, boxes)
    rng = Random(seed)
    order = sorted(boxes.values(), key=lambda b: (-(b.w * b.h), b.id))
    lay = Layout()
    if not order:
        return lay
    unit, (step, *halves) = on_unit(
        [Fraction(1, 64), *(d / 2 for b in order for d in (b.w, b.h))]
    )
    placed: List[Tuple[int, int, int, int]] = []
    pitch = float(max(max(b.w for b in order), max(b.h for b in order)) / 4)
    for b, hw, hh in zip(order, halves[::2], halves[1::2]):
        theta0 = rng.random() * 2 * math.pi
        k = 0
        while True:
            theta = k * math.pi / 16
            radius = pitch * theta / (2 * math.pi)
            cx = step * round((radius * math.cos(theta0 + theta)) * 64)
            cy = step * round((radius * math.sin(theta0 + theta)) * 64)
            x1, x2, y1, y2 = cx - hw, cx + hw, cy - hh, cy + hh
            for px1, px2, py1, py2 in placed:
                # Interiors meet; closed boxes that only touch may stay.
                if x1 < px2 and px1 < x2 and y1 < py2 and py1 < y2:
                    break
            else:
                lay.place(b, Fraction(x1, unit), Fraction(y1, unit))
                placed.append((x1, x2, y1, y2))
                break
            k += 1
    return lay


def load_corpus(directory) -> List[Tuple[str, str]]:
    """(doc-id, text) for every readable non-empty .txt file, sorted.

    Empty and non-UTF-8 files are left out without a word; the caller
    decides how to report them."""
    docs = []
    for path in sorted(Path(directory).glob("*.txt")):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        if not text.strip():
            continue
        docs.append((path.stem, text))
    return docs


def document_instance(
    text: str, k: int
) -> Tuple[List[BoxSpec], ProfitGraph, Dict[str, str]]:
    """Boxes (in rank order), profit graph, and display labels for the
    document's top-k stems, ranked once.  ParameterError unless k is an
    int and not a bool, InvalidInstanceError when it is below 2."""
    if isinstance(k, int) and not isinstance(k, bool) and k < 2:
        raise InvalidInstanceError(f"need k >= 2, got {k}")
    stats = preprocess(text)
    stems = top_stems(stats, k)
    graph = similarity_profits(stats, stems)
    dims = box_dimensions(stats, stems)
    labels = {s: stats.label[s] for s in stems}
    return [dims[s] for s in stems], graph, labels
