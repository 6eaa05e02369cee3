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

import logging
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from random import Random
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidInstanceError
from .geometry import BoxSpec, Layout, ProfitGraph

log = logging.getLogger("crown")

GRID = Fraction(1, 64)
COS_GRID = 1 << 20
# Box sizing: tallest box height, shortest box height, width per letter
# as a fraction of the height.
BASE_H = Fraction(2)
MIN_H = Fraction(1, 2)
ASPECT = Fraction(11, 20)

DEFAULT_STOPWORDS = frozenset(
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


def load_stopwords(path) -> FrozenSet[str]:
    """One lowercase word per line, UTF-8; blank lines ignored."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word = line.strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


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


def preprocess(text: str, stopwords=None) -> WordStats:
    if stopwords is None:
        stopwords = DEFAULT_STOPWORDS
    freq: Dict[str, int] = {}
    surface: Dict[str, Dict[str, int]] = {}
    sentences: List[FrozenSet[str]] = []
    for raw_sentence in _SENTENCE_SPLIT.split(text):
        stems = set()
        for raw in raw_sentence.split():
            token = _NON_ALNUM.sub("", raw.lower())
            if not token or token in stopwords:
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
    return sorted(stats.freq, key=lambda s: (-stats.freq[s], s))[:k]


def _cosine_grid(t: int, a: int, b: int) -> Fraction:
    """floor(t / sqrt(a*b) * 2**20) / 2**20, exactly."""
    return Fraction(isqrt((t << 20) ** 2 // (a * b)), COS_GRID)


def similarity_profits(stats: WordStats, k: int) -> ProfitGraph:
    """Profit graph over the top-k stems by frequency.

    Profits are exact cosine similarities of binary sentence-incidence
    vectors; zero-similarity pairs carry no edge.
    """
    if k < 2:
        raise InvalidInstanceError(f"need k >= 2, got {k}")
    stems = top_stems(stats, k)
    incidence = {
        s: frozenset(
            i for i, sent in enumerate(stats.sentences) if s in sent
        )
        for s in stems
    }
    graph = ProfitGraph(vertices=stems)
    for i, a in enumerate(stems):
        for b in stems[i + 1 :]:
            t = len(incidence[a] & incidence[b])
            if t == 0:
                continue
            p = _cosine_grid(t, len(incidence[a]), len(incidence[b]))
            if p > 0:
                graph.add_edge(a, b, p)
    return graph


def round64(q: Fraction) -> Fraction:
    return Fraction(math.floor(q * 64 + Fraction(1, 2)), 64)


def _round64_root(x: int, y: int, d: int) -> int:
    """round(x * sqrt(y) / d) for non-negative integers, d > 0."""
    return (isqrt(4 * x * x * y) + d) // (2 * d)


def box_dimensions(
    stats: WordStats, words: Optional[Sequence[str]] = None
) -> Dict[str, BoxSpec]:
    """Boxes sized by the square-root law.

    height = BASE_H * sqrt(freq / max_freq), snapped to the 1/64 grid
    and clamped to [MIN_H, BASE_H]; width = height * ASPECT * label
    length, snapped to the same grid.
    """
    if words is None:
        words = sorted(stats.freq)
    if not words:
        return {}
    max_freq = max(stats.freq[s] for s in words)
    out: Dict[str, BoxSpec] = {}
    for s in words:
        n64 = _round64_root(
            64 * BASE_H.numerator,
            stats.freq[s] * max_freq,
            BASE_H.denominator * max_freq,
        )
        h = min(max(Fraction(n64, 64), MIN_H), BASE_H)
        w = max(round64(h * ASPECT * len(stats.label[s])), GRID)
        out[s] = BoxSpec(s, w, h)
    return out


def random_baseline(
    graph: ProfitGraph, boxes: Mapping[str, BoxSpec], seed: int
) -> Layout:
    """Greedy spiral placement, the usual word-cloud baseline.

    Boxes go down in decreasing area order; each one walks an
    Archimedean spiral from a seeded random start angle and takes the
    first center whose box (snapped to the 1/64 grid) overlaps nothing
    already placed.
    """
    rng = Random(seed)
    order = sorted(boxes.values(), key=lambda b: (-(b.w * b.h), b.id))
    lay = Layout()
    placed: List[Tuple[Fraction, Fraction, Fraction, Fraction]] = []
    if not order:
        return lay
    pitch = max(max(b.w for b in order), max(b.h for b in order)) / 4
    for b in order:
        theta0 = rng.random() * 2 * math.pi
        k = 0
        while True:
            theta = k * math.pi / 16
            radius = float(pitch) * theta / (2 * math.pi)
            cx = Fraction(
                round((radius * math.cos(theta0 + theta)) * 64), 64
            )
            cy = Fraction(
                round((radius * math.sin(theta0 + theta)) * 64), 64
            )
            x1, y1 = cx - b.w / 2, cy - b.h / 2
            x2, y2 = x1 + b.w, y1 + b.h
            if all(
                x2 <= px1 or px2 <= x1 or y2 <= py1 or py2 <= y1
                for px1, px2, py1, py2 in placed
            ):
                lay.place(b, x1, y1)
                placed.append((x1, x2, y1, y2))
                break
            k += 1
    return lay


def load_corpus(directory) -> List[Tuple[str, str]]:
    """(doc-id, text) for every readable non-empty .txt file, sorted."""
    docs = []
    for path in sorted(Path(directory).glob("*.txt")):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            log.warning("skipping %s: %s", path, exc)
            continue
        if not text.strip():
            log.warning("skipping %s: empty", path)
            continue
        docs.append((path.stem, text))
    return docs


def document_instance(
    text: str, k: int, stopwords=None
) -> Tuple[List[BoxSpec], ProfitGraph, Dict[str, str]]:
    """Boxes (in rank order), profit graph, and display labels for one
    document."""
    stats = preprocess(text, stopwords)
    graph = similarity_profits(stats, k)
    stems = top_stems(stats, k)
    dims = box_dimensions(stats, stems)
    labels = {s: stats.label[s] for s in stems}
    return [dims[s] for s in stems], graph, labels
