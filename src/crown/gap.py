"""Knapsack FPTAS and generalized-assignment solvers.

The approximate route runs one knapsack per bin, in bin order, over the
items no earlier bin claimed.  With a (1-eps)-approximate knapsack this
yields a (1-eps)/(2-eps) approximation of the optimal assignment value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .errors import ParameterError, TooLargeError
from .geometry import rat

# Largest scaled value total the knapsack may reach (top is about
# n^2 / eps).  The DP keeps only its Pareto front, at most one state per
# scaled value, so this also bounds the front's length.  At the limit,
# with half the items fitting, one call on 100 items took 0.03 s for
# random sizes and values and 3 s for sizes equal to the values (every
# state on the front), and under 0.001 s for six unit items (2-core x86
# VM, CPython 3.11); the benchmark workloads stay below 3,000.
MAX_KNAPSACK_TOP = 1 << 20

Number = Union[int, Fraction]


def _exact(value) -> Number:
    """An int as it is, anything else through ``rat``."""
    return value if type(value) is int else rat(value)


@dataclass(frozen=True)
class GapItem:
    """An item's size in each bin and its value, each an int or a Fraction:
    an int stays an int, anything else goes through ``rat``."""

    id: str
    sizes: Tuple[Number, ...]  # one entry per bin
    value: Number  # earned in whichever bin takes the item

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(_exact(s) for s in self.sizes))
        object.__setattr__(self, "value", _exact(self.value))
        if any(s < 0 for s in self.sizes) or self.value < 0:
            raise ParameterError("sizes and value must be non-negative")


@dataclass(frozen=True)
class GapInstance:
    """Bins with int or Fraction capacities, and the items to assign."""

    capacities: Tuple[Number, ...]
    items: Tuple[GapItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "capacities", tuple(_exact(c) for c in self.capacities))
        object.__setattr__(self, "items", tuple(self.items))
        for it in self.items:
            if len(it.sizes) != len(self.capacities):
                raise ParameterError(f"item {it.id!r} has wrong arity")


@dataclass(frozen=True)
class GapAssignment:
    by_bin: Tuple[Tuple[str, ...], ...]
    unassigned: Tuple[str, ...]
    value: Number  # a Fraction when a chosen item's value is one, else an int


def check_eps(eps) -> Fraction:
    """``eps`` as a Fraction; ParameterError unless 0 < eps < 1."""
    eps = rat(eps)
    if not 0 < eps.numerator < eps.denominator:  # 0 < eps < 1, the denominator is positive
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    return eps


def knapsack_fptas(
    items: Sequence[Tuple[Number, Number]], capacity: Number, eps
) -> Tuple[int, ...]:
    """(1-eps)-approximate 0/1 knapsack; returns chosen item indices.

    Standard value-scaling dynamic program: values are floored to multiples
    of K = eps * v_max / n and the DP minimizes size per scaled value.
    Sizes, values and the capacity may be ints or Fractions.  Sizes enter
    the DP as given, and the floor is exact for both types, so scaling
    every value, or every size and the capacity, by one positive factor
    leaves the answer unchanged.  The DP keeps its Pareto front: states (scaled
    value, size, index tuple) with values and sizes both strictly rising,
    each fitting the capacity.  Each item merges the front with the
    states that can still take it; at equal values the smaller (size,
    index tuple) stays, and a state at no smaller size than a higher
    value's is dropped.  The last state is the answer, so ties break
    toward smaller total size, then the lexicographically smallest index
    tuple, and callers that pass items in id order get id-lexicographic
    determinism for free.  Raises ParameterError for an item that is not
    a (size, value) pair, for a negative size, value or capacity, and
    TooLargeError when the scaled values sum to more than MAX_KNAPSACK_TOP.
    """
    capacity = _exact(capacity)
    eps = check_eps(eps)
    if capacity < 0:
        raise ParameterError("capacity must be non-negative")

    usable = []
    for idx, item in enumerate(items):
        try:
            s, v = item
        except (TypeError, ValueError):
            raise ParameterError(f"item {idx}: expected (size, value), got {item!r}") from None
        s, v = _exact(s), _exact(v)
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

    # Each value floored to a multiple of K: v / K = v * n * eps.den /
    # (eps.num * v_max), exact for ints and Fractions alike.
    mul, div = n * eps.denominator, eps.numerator * v_max
    scaled = [(idx, s, v * mul // div) for idx, s, v in usable]

    top = sum(sv for _, _, sv in scaled)
    if top > MAX_KNAPSACK_TOP:
        raise TooLargeError(
            f"knapsack table of {top} scaled values exceeds {MAX_KNAPSACK_TOP}"
            f" (n={n}, eps={eps})"
        )
    front = [(0, 0, ())]
    for idx, size_i, val_i in scaled:
        if val_i:  # a value-0 item only adds size to a state of the same value
            front = _pareto_step(front, idx, size_i, val_i, capacity - size_i)
    return front[-1][2]


def _pareto_step(front, idx: int, size_i: Number, val_i: int, room: Number):
    """The front after offering item ``idx`` (size_i, val_i > 0) to every
    state of ``front`` whose size is at most ``room``.

    Both lists hold (value, size, index tuple) with int values and int or
    Fraction sizes, both strictly rising.  Dropping a state at no smaller
    size than a higher value's cannot move the answer: any items that
    extend it extend the other to a higher value at no larger size.  An
    extended state that an old one beats gets no tuple built.
    """
    out = []
    k, n = 0, len(front)  # front[k] is the first old state not yet placed
    for v, s, t in front:
        if s > room:
            break  # sizes rise, so no later state fits either
        v += val_i
        s += size_i
        while k < n and front[k][0] < v:
            out.append(front[k])
            k += 1
        if k < n:
            ov, os, ot = front[k]
            if os < s or (os == s and (ov > v or ot < t + (idx,))):
                continue  # an old state at no smaller value wins
            if ov == v:
                k += 1  # the extended state replaces it
        while out and out[-1][1] >= s:
            out.pop()  # old states below v at no smaller size
        out.append((v, s, t + (idx,)))  # front[k], if any, is larger
    out.extend(front[k:])
    return out


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
    value = sum(inst.items[i].value for i in range(n) if where[i] >= 0)
    return GapAssignment(by_bin, unassigned, value)
