"""Knapsack FPTAS and the generalized-assignment solvers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.errors import TooLargeError
from crown.gap import GapInstance, GapItem, gap_sequential, knapsack_fptas

from oracles import gap_brute, gap_exact, knapsack_brute

EPS = Fraction(1, 10)


def test_knapsack_small_example():
    # (size, value): two light items beat the single heavy one
    items = [(Fraction(2), Fraction(3)), (Fraction(2), Fraction(3)), (Fraction(3), Fraction(5))]
    chosen = knapsack_fptas(items, Fraction(4), EPS)
    assert sum(items[i][1] for i in chosen) == 6
    assert sum(items[i][0] for i in chosen) <= 4


def test_knapsack_skips_oversize_items():
    items = [(Fraction(9), Fraction(100)), (Fraction(1), Fraction(1))]
    chosen = knapsack_fptas(items, Fraction(2), EPS)
    assert chosen == (1,)


def test_gap_two_bin_example():
    inst = GapInstance(
        capacities=(Fraction(2), Fraction(2)),
        items=(
            GapItem("A", (Fraction(2), Fraction(2)), (Fraction(5), Fraction(1))),
            GapItem("B", (Fraction(2), Fraction(2)), (Fraction(4), Fraction(4))),
        ),
    )
    asg = gap_sequential(inst, EPS)
    assert asg.value == 9
    assert "A" in asg.by_bin[0] and "B" in asg.by_bin[1]


def test_gap_exact_guard():
    many = tuple(
        GapItem(f"i{k}", (Fraction(1),), (Fraction(1),)) for k in range(13)
    )
    with pytest.raises(TooLargeError):
        gap_exact(GapInstance((Fraction(5),), many))
    few = (GapItem("i", (Fraction(1),) * 5, (Fraction(1),) * 5),)
    with pytest.raises(TooLargeError):
        gap_exact(GapInstance((Fraction(1),) * 5, few))


def test_gap_exact_matches_brute_force_example():
    inst = GapInstance(
        capacities=(Fraction(3), Fraction(4)),
        items=(
            GapItem("a", (Fraction(2), Fraction(3)), (Fraction(4), Fraction(5))),
            GapItem("b", (Fraction(2), Fraction(1)), (Fraction(3), Fraction(2))),
            GapItem("c", (Fraction(1), Fraction(2)), (Fraction(1), Fraction(6))),
        ),
    )
    assert gap_exact(inst).value == gap_brute(inst)


fracs = st.integers(min_value=1, max_value=9).map(Fraction)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(fracs, fracs), min_size=1, max_size=9),
    st.integers(min_value=1, max_value=15),
)
def test_knapsack_fptas_guarantee(items, cap):
    capacity = Fraction(cap)
    chosen = knapsack_fptas(items, capacity, EPS)
    got = sum((items[i][1] for i in chosen), Fraction(0))
    assert sum((items[i][0] for i in chosen), Fraction(0)) <= capacity
    assert got >= (1 - EPS) * knapsack_brute(items, capacity)


@st.composite
def gap_instances(draw):
    bins = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=6))
    caps = tuple(draw(fracs) for _ in range(bins))
    items = tuple(
        GapItem(
            f"i{k}",
            tuple(draw(fracs) for _ in range(bins)),
            tuple(draw(fracs) for _ in range(bins)),
        )
        for k in range(n)
    )
    return GapInstance(caps, items)


@settings(max_examples=80, deadline=None)
@given(gap_instances())
def test_gap_sequential_guarantee(inst):
    asg = gap_sequential(inst, EPS)
    # assignment is feasible
    for b, group in enumerate(asg.by_bin):
        used = sum((next(i.sizes[b] for i in inst.items if i.id == name) for name in group), Fraction(0))
        assert used <= inst.capacities[b]
    best = gap_exact(inst).value
    assert asg.value >= (1 - EPS) / (2 - EPS) * best


@settings(max_examples=40, deadline=None)
@given(gap_instances())
def test_gap_exact_is_exact(inst):
    assert gap_exact(inst).value == gap_brute(inst)
