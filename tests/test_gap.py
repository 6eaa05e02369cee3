"""Knapsack FPTAS and the generalized-assignment solvers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.errors import ParameterError, TooLargeError
from crown.gap import (
    MAX_KNAPSACK_TOP,
    GapInstance,
    GapItem,
    gap_sequential,
    _pareto_step,
    knapsack_fptas,
)

from oracles import (
    gap_brute,
    gap_exact,
    gap_sequential_unpruned,
    knapsack_brute,
    knapsack_fptas_unpruned,
)

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


def test_knapsack_table_is_guarded():
    # Six unit items scale to 6 / eps each, so the table needs 36 / eps
    # cells: refused above the guard, solved just below it.
    items = [(Fraction(1), Fraction(1))] * 6
    with pytest.raises(TooLargeError):
        knapsack_fptas(items, 3, Fraction(1, 100_000_000))
    per_item = MAX_KNAPSACK_TOP // 6
    with pytest.raises(TooLargeError):
        knapsack_fptas(items, 3, Fraction(6, per_item + 1))
    assert len(knapsack_fptas(items, 3, Fraction(6, per_item))) == 3


@pytest.mark.parametrize(
    "items, capacity",
    [
        ([(1, -3), (1, 5)], 2),  # took the item worth -3
        ([(-2, 1), (3, 5)], 1),  # took only the first item
        ([(1, -30), (1, 1), (1, 1)], 3),  # raised a bare IndexError
    ],
)
def test_knapsack_rejects_negative_sizes_and_values(items, capacity):
    with pytest.raises(ParameterError):
        knapsack_fptas(items, capacity, Fraction(1, 4))


def test_gap_two_bin_example():
    inst = GapInstance(
        capacities=(Fraction(2), Fraction(2)),
        items=(
            GapItem("A", (Fraction(2), Fraction(2)), Fraction(5)),
            GapItem("B", (Fraction(2), Fraction(2)), Fraction(4)),
        ),
    )
    asg = gap_sequential(inst, EPS)
    assert asg.value == 9
    assert "A" in asg.by_bin[0] and "B" in asg.by_bin[1]


def test_gap_exact_guard():
    many = tuple(
        GapItem(f"i{k}", (Fraction(1),), Fraction(1)) for k in range(13)
    )
    with pytest.raises(TooLargeError):
        gap_exact(GapInstance((Fraction(5),), many))
    few = (GapItem("i", (Fraction(1),) * 5, Fraction(1)),)
    with pytest.raises(TooLargeError):
        gap_exact(GapInstance((Fraction(1),) * 5, few))


def test_gap_exact_matches_brute_force_example():
    inst = GapInstance(
        capacities=(Fraction(3), Fraction(4)),
        items=(
            GapItem("a", (Fraction(2), Fraction(3)), Fraction(5)),
            GapItem("b", (Fraction(2), Fraction(1)), Fraction(3)),
            GapItem("c", (Fraction(1), Fraction(2)), Fraction(6)),
        ),
    )
    assert gap_exact(inst).value == gap_brute(inst)


fracs = st.integers(min_value=1, max_value=9).map(Fraction)
# Non-negative rationals with zero and the denominators of box sizes.
rationals = st.builds(
    Fraction, st.integers(min_value=0, max_value=40), st.sampled_from((1, 2, 3, 4, 5, 6, 7, 64))
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(rationals, rationals), min_size=1, max_size=9),
    rationals,
)
def test_knapsack_fptas_guarantee(items, capacity):
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
        GapItem(f"i{k}", tuple(draw(fracs) for _ in range(bins)), draw(fracs))
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


# Differential tests against the knapsack that extends every state and
# scales values with Fraction products (tests/oracles.py).

eps_values = st.sampled_from(
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(3, 7), Fraction(1, 64),
     Fraction(1, 10**6), Fraction(0), Fraction(1))
)


def outcome(solve, *args):
    """The solver's result, or the type of the CrownError it raised."""
    try:
        return solve(*args)
    except (ParameterError, TooLargeError) as exc:
        return type(exc)


# Item draws: rationals, plain ints (the unit stars pass), or a few small
# ints, so that many DP states share a value or a size.
ints = st.integers(min_value=0, max_value=40)
NUMBERS = {
    "rational": (rationals, rationals),
    "int": (ints, ints),
    "tied": (st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=3)),
}


@st.composite
def knapsack_cases(draw):
    kind = draw(st.sampled_from(sorted(NUMBERS)))
    sizes, values = NUMBERS[kind]
    items = draw(st.lists(st.tuples(sizes, values), max_size=12 if kind == "tied" else 8))
    if items and draw(st.booleans()):
        items += [items[0]] * draw(st.integers(min_value=1, max_value=3))  # ties
    k = draw(st.integers(min_value=0, max_value=len(items)))
    tight = sum(s for s, _ in items[:k])
    capacity = draw(st.sampled_from((tight, 0, -1)) | sizes)
    return items, capacity, draw(eps_values)


@settings(max_examples=500, deadline=None)
@given(knapsack_cases())
def test_knapsack_fptas_matches_unpruned(case):
    items, capacity, eps = case
    assert outcome(knapsack_fptas, items, capacity, eps) == outcome(
        knapsack_fptas_unpruned, items, capacity, eps
    )


@st.composite
def gap_cases(draw):
    sizes, values = NUMBERS[draw(st.sampled_from(sorted(NUMBERS)))]
    bins = draw(st.integers(min_value=1, max_value=4))
    caps = tuple(draw(sizes) for _ in range(bins))
    items = []
    for k in range(draw(st.integers(min_value=0, max_value=7))):
        items.append(GapItem(f"i{k}", tuple(draw(sizes) for _ in range(bins)), draw(values)))
    return GapInstance(caps, items), draw(eps_values)


@settings(max_examples=300, deadline=None)
@given(gap_cases())
def test_gap_sequential_matches_unpruned(case):
    inst, eps = case
    assert outcome(gap_sequential, inst, eps) == outcome(gap_sequential_unpruned, inst, eps)


def test_gap_keeps_int_values_and_fraction_values_apart():
    ints = GapInstance((2, 2), (GapItem("A", (2, 2), 5), GapItem("B", (2, 2), 4)))
    asg = gap_sequential(ints, EPS)
    assert asg.by_bin == (("A",), ("B",)) and type(asg.value) is int
    fracs = GapInstance(
        (Fraction(2), Fraction(2)),
        (GapItem("A", (Fraction(2), Fraction(2)), Fraction(5, 3)),),
    )
    assert gap_sequential(fracs, EPS).value == Fraction(5, 3)
    assert type(GapItem("s", ("1/2",), "3").value) is Fraction


def pareto_front(states):
    """The (value, size, tuple) states not beaten: at each value the least
    (size, tuple), then only those smaller than every higher value's size."""
    least = {}
    for v, s, t in states:
        if v not in least or (s, t) < least[v]:
            least[v] = (s, t)
    front, floor = [], None
    for v in sorted(least, reverse=True):
        s, t = least[v]
        if floor is None or s < floor:
            front.append((v, s, t))
            floor = s
    return front[::-1]


@st.composite
def fronts(draw):
    states = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
                st.lists(st.integers(min_value=0, max_value=5), max_size=3, unique=True)
                .map(sorted)
                .map(tuple),
            ),
            max_size=10,
        )
    )
    return pareto_front([(0, 0, ()), *states])


@settings(max_examples=400, deadline=None)
@given(
    fronts(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-1, max_value=14),
)
def test_pareto_step_is_the_front_of_the_union(front, size, value, room):
    # The item's index 6 sorts after every index in the drawn tuples, as
    # in the DP, so equal-value ties are decided the same way.
    offered = [(v + value, s + size, t + (6,)) for v, s, t in front if s <= room]
    got = _pareto_step(front, 6, size, value, room)
    assert got == pareto_front(front + offered)
    assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(got, got[1:]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), max_size=8), rationals, eps_values)
def test_knapsack_fptas_is_the_same_on_whole_counts(items, capacity, eps):
    # Rational items, and the same items with sizes and the capacity
    # counted on their common unit and values on theirs (as solve_star
    # passes them), run through one code path to one answer.
    unit = math.lcm(capacity.denominator, *(s.denominator for s, _ in items))
    pay = math.lcm(*(v.denominator for _, v in items))
    whole = [(int(s * unit), int(v * pay)) for s, v in items]
    assert outcome(knapsack_fptas, items, capacity, eps) == outcome(
        knapsack_fptas, whole, int(capacity * unit), eps
    )
