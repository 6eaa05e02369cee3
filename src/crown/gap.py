"""Knapsack FPTAS and generalized-assignment solvers.

The approximate route runs one knapsack per bin, in bin order, over the
items no earlier bin claimed.  With a (1-eps)-approximate knapsack this
yields a (1-eps)/(2-eps) approximation of the optimal assignment value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .errors import ParameterError
from .geometry import rat


@dataclass(frozen=True)
class GapItem:
    id: str
    sizes: Tuple[Fraction, ...]   # one entry per bin
    values: Tuple[Fraction, ...]  # one entry per bin

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(rat(s) for s in self.sizes))
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))
        if len(self.sizes) != len(self.values):
            raise ValueError("sizes and values must align")
        if any(s < 0 for s in self.sizes) or any(v < 0 for v in self.values):
            raise ValueError("sizes and values must be non-negative")


@dataclass(frozen=True)
class GapInstance:
    capacities: Tuple[Fraction, ...]
    items: Tuple[GapItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "capacities", tuple(rat(c) for c in self.capacities))
        object.__setattr__(self, "items", tuple(self.items))
        for it in self.items:
            if len(it.sizes) != len(self.capacities):
                raise ValueError(f"item {it.id!r} has wrong arity")

    @staticmethod
    def uniform(capacities, triples) -> "GapInstance":
        """Items given as (id, size_per_bin tuple, single value)."""
        caps = tuple(rat(c) for c in capacities)
        items = tuple(
            GapItem(i, tuple(sizes), tuple([rat(v)] * len(caps)))
            for i, sizes, v in triples
        )
        return GapInstance(caps, items)


@dataclass(frozen=True)
class GapAssignment:
    by_bin: Tuple[Tuple[str, ...], ...]
    unassigned: Tuple[str, ...]
    value: Fraction


def check_eps(eps) -> Fraction:
    """``eps`` as a Fraction; ParameterError unless 0 < eps < 1."""
    eps = rat(eps)
    if not (0 < eps < 1):
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    return eps


def knapsack_fptas(items: Sequence[Tuple[Fraction, Fraction]], capacity, eps) -> Tuple[int, ...]:
    """(1-eps)-approximate 0/1 knapsack; returns chosen item indices.

    Standard value-scaling dynamic program: values are floored to multiples
    of K = eps * v_max / n and the DP minimizes size per scaled value.
    Ties break toward smaller total size, then the lexicographically
    smallest index tuple, so callers that pass items in id order get
    id-lexicographic determinism for free.
    """
    capacity = rat(capacity)
    eps = check_eps(eps)
    if capacity < 0:
        raise ParameterError("capacity must be non-negative")

    usable = [
        (idx, rat(s), rat(v))
        for idx, (s, v) in enumerate(items)
        if rat(s) <= capacity
    ]
    if not usable:
        return ()
    v_max = max(v for _, _, v in usable)
    if v_max == 0:
        return ()
    n = len(usable)

    # Integer sizes: clear denominators once per call.
    den = lcm(capacity.denominator, *(s.denominator for _, s, _ in usable))
    cap_i = capacity * den
    scale = n / (eps * v_max)  # 1/K
    scaled = [(idx, int(s * den), int(v * scale)) for idx, s, v in usable]

    top = sum(sv for _, _, sv in scaled)
    INF = None
    best_size: List = [INF] * (top + 1)
    best_set: List = [None] * (top + 1)
    best_size[0] = 0
    best_set[0] = ()
    reach = 0
    for idx, size_i, val_i in scaled:
        lo = 0
        for sv in range(reach, lo - 1, -1):
            if best_size[sv] is None:
                continue
            nv = sv + val_i
            ns = best_size[sv] + size_i
            cand = best_set[sv] + (idx,)
            cur = best_size[nv]
            if cur is None or ns < cur or (ns == cur and cand < best_set[nv]):
                best_size[nv] = ns
                best_set[nv] = cand
        reach = min(top, reach + val_i)

    for sv in range(top, 0, -1):
        if best_size[sv] is not None and best_size[sv] <= cap_i:
            return best_set[sv]
    return ()


def gap_sequential(inst: GapInstance, eps) -> GapAssignment:
    """Sequential knapsack rounds, one per bin in input order.

    Each bin bids on every item at its residual gain: the item's value in
    this bin minus whatever it currently earns in an earlier bin.  Strict
    gainers selected by the knapsack FPTAS move into the current bin.
    Moving an item out of a processed bin only frees capacity there, so
    feasibility is preserved, and since each move strictly increases the
    item's earned value the final total is at least beta/(beta+1) times
    the optimum, beta = 1 - eps.  When every item is worth the same in
    all bins no move ever fires and this is plain leftover packing.
    """
    n = len(inst.items)
    where: List[int] = [-1] * n
    for b, cap in enumerate(inst.capacities):
        earned = [
            inst.items[i].values[where[i]] if where[i] >= 0 else Fraction(0)
            for i in range(n)
        ]
        pool_ids = [i for i in range(n) if inst.items[i].values[b] > earned[i]]
        pool = [
            (inst.items[i].sizes[b], inst.items[i].values[b] - earned[i])
            for i in pool_ids
        ]
        for j in knapsack_fptas(pool, cap, eps):
            where[pool_ids[j]] = b
    by_bin = tuple(
        tuple(inst.items[i].id for i in range(n) if where[i] == b)
        for b in range(len(inst.capacities))
    )
    unassigned = tuple(inst.items[i].id for i in range(n) if where[i] < 0)
    value = sum(
        (inst.items[i].values[where[i]] for i in range(n) if where[i] >= 0),
        Fraction(0),
    )
    return GapAssignment(by_bin, unassigned, value)
