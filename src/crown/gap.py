"""Knapsack FPTAS and generalized-assignment solvers.

The approximate route runs one knapsack per bin, in bin order, over the
items no earlier bin claimed.  With a (1-eps)-approximate knapsack this
yields a (1-eps)/(2-eps) approximation of the optimal assignment value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import ParameterError, TooLargeError
from .geometry import denominator_lcm, rat

# Largest scaled value total the knapsack DP may index: it allocates two
# lists of that many cells (top is about n^2 / eps).  At the limit, with
# every item fitting, one call took under 0.1 s for a few unit items and
# about 2 s for 100 (2-core x86 VM, CPython 3.11); the benchmark workloads
# stay below 3,000.
MAX_KNAPSACK_TOP = 1 << 20


@dataclass(frozen=True)
class GapItem:
    id: str
    sizes: Tuple[Fraction, ...]  # one entry per bin
    value: Fraction  # earned in whichever bin takes the item

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(rat(s) for s in self.sizes))
        object.__setattr__(self, "value", rat(self.value))
        if any(s < 0 for s in self.sizes) or self.value < 0:
            raise ParameterError("sizes and value must be non-negative")


@dataclass(frozen=True)
class GapInstance:
    capacities: Tuple[Fraction, ...]
    items: Tuple[GapItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "capacities", tuple(rat(c) for c in self.capacities))
        object.__setattr__(self, "items", tuple(self.items))
        for it in self.items:
            if len(it.sizes) != len(self.capacities):
                raise ParameterError(f"item {it.id!r} has wrong arity")


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
    A state that cannot take an item within the capacity is never
    extended with it, so every stored state fits.  Among the states that
    fit, ties break toward smaller total size, then the lexicographically
    smallest index tuple, so callers that pass items in id order get
    id-lexicographic determinism for free.  Raises ParameterError for a
    negative size, value or capacity, and TooLargeError when the scaled
    values sum to more than MAX_KNAPSACK_TOP, before the table is
    allocated.
    """
    capacity = rat(capacity)
    eps = check_eps(eps)
    if capacity < 0:
        raise ParameterError("capacity must be non-negative")

    usable = []
    for idx, (s, v) in enumerate(items):
        s, v = rat(s), rat(v)
        if s.numerator < 0 or v.numerator < 0:  # signs without Fraction comparisons
            raise ParameterError(f"item {idx}: sizes and values must be non-negative")
        if s <= capacity:
            usable.append((idx, s, v))
    if not usable:
        return ()
    v_max = max(v for _, _, v in usable)
    if v_max == 0:
        return ()
    n = len(usable)

    # Integer sizes over one unit, and each value floored to a multiple of
    # K: v / K = v * n * eps.den * v_max.den / (eps.num * v_max.num).
    den = denominator_lcm([capacity, *(s for _, s, _ in usable)])
    cap_i = capacity.numerator * (den // capacity.denominator)
    mul = n * eps.denominator * v_max.denominator
    div = eps.numerator * v_max.numerator
    scaled = [
        (idx, s.numerator * (den // s.denominator), v.numerator * mul // (v.denominator * div))
        for idx, s, v in usable
    ]

    top = sum(sv for _, _, sv in scaled)
    if top > MAX_KNAPSACK_TOP:
        raise TooLargeError(
            f"knapsack table of {top} scaled values exceeds {MAX_KNAPSACK_TOP}"
            f" (n={n}, eps={eps})"
        )
    best_size: List = [None] * (top + 1)
    best_set: List = [None] * (top + 1)
    best_size[0] = 0
    best_set[0] = ()
    reach = 0  # largest value of a stored state
    for idx, size_i, val_i in scaled:
        if val_i == 0:
            continue  # it only adds size to a state of the same value
        room = cap_i - size_i
        for sv in range(reach, -1, -1):
            size = best_size[sv]
            if size is None or size > room:
                continue
            nv = sv + val_i
            ns = size + size_i
            cur = best_size[nv]
            if cur is not None and ns > cur:
                continue
            cand = best_set[sv] + (idx,)
            if cur is None or ns < cur or cand < best_set[nv]:
                best_size[nv] = ns
                best_set[nv] = cand
                if nv > reach:  # the range above was built from the old reach
                    reach = nv

    return best_set[reach]  # set: reach only ever moves to a stored state


def gap_sequential(inst: GapInstance, eps) -> GapAssignment:
    """Sequential knapsack rounds, one per bin in input order.

    Each bin packs, with the knapsack FPTAS, the items of positive value
    that no earlier bin took.  With beta = 1 - eps the total is at least
    beta/(beta+1) times the optimum.
    """
    n = len(inst.items)
    where: List[int] = [-1] * n
    for b, cap in enumerate(inst.capacities):
        pool_ids = [i for i, item in enumerate(inst.items)
                    if where[i] < 0 and item.value.numerator > 0]
        pool = [(inst.items[i].sizes[b], inst.items[i].value) for i in pool_ids]
        for j in knapsack_fptas(pool, cap, eps):
            where[pool_ids[j]] = b
    by_bin = tuple(
        tuple(inst.items[i].id for i in range(n) if where[i] == b)
        for b in range(len(inst.capacities))
    )
    unassigned = tuple(inst.items[i].id for i in range(n) if where[i] < 0)
    value = sum((inst.items[i].value for i in range(n) if where[i] >= 0), Fraction(0))
    return GapAssignment(by_bin, unassigned, value)
