"""Irreducible-triangulation validation and the staircase realizer.

The last test documents a sharp edge: with point contacts allowed, a
graph can be realizable with the outer boxes in scrambled positions
(a pinwheel) even though no layout with the stated walls exists. The
realizer decides the stated-walls question, and so does the default
oracle; the free-placement relaxation is strictly weaker.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.errors import InvalidInstanceError, TriangulationInfeasibleError
from crown.geometry import BoxSpec, Layout, detect_contacts, rat
from crown.triangulation import (
    InstanceViolation,
    TriangulationInstance,
    _trace_faces,
    realize_triangulation,
    validate_instance,
)

from fixtures_extremal import contact_pairs
from oracles import rand_guillotine_dual, realize_triangulation_fraction, tri_realizable


def inst_of(dims, rotation, outer=("N", "E", "S", "W")):
    boxes = {v: BoxSpec(v, rat(w), rat(h)) for v, (w, h) in dims.items()}
    return TriangulationInstance(boxes, rotation, tuple(outer))


WHEEL_ROTATION = {
    "N": ("E", "t0", "W"),
    "E": ("S", "t0", "N"),
    "S": ("W", "t0", "E"),
    "W": ("N", "t0", "S"),
    "t0": ("N", "E", "S", "W"),
}


def wheel(dims):
    return inst_of(dims, WHEEL_ROTATION)


def test_wheel_validates():
    inst = wheel({"N": (4, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)})
    assert validate_instance(inst) is None


def test_k4_fails_outer_check():
    rotation = {
        "a": ("b", "c", "d"),
        "b": ("c", "a", "d"),
        "c": ("a", "b", "d"),
        "d": ("a", "c", "b"),
    }
    inst = inst_of(
        {v: (1, 1) for v in "abcd"}, rotation, outer=("a", "b", "c", "d")
    )
    v = validate_instance(inst)
    assert v is not None and v.kind == "outer"


TRIANGLE = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}
# t0 touches only N and S, leaving two inner quadrangles
QUADS = {
    "N": ("E", "t0", "W"),
    "E": ("S", "N"),
    "S": ("W", "t0", "E"),
    "W": ("N", "S"),
    "t0": ("N", "S"),
}
BAD_INSTANCES = {  # name: (rotation, box ids or None for the rotation's, outer, violation)
    "boxes": (WHEEL_ROTATION, "NESW", "NESW", ("boxes", "no box for vertex 't0'")),
    # a box with no rotation entry is a vertex with no neighbours
    "lost": (
        WHEEL_ROTATION,
        [*WHEEL_ROTATION, "lost"],
        "NESW",
        ("connected", "graph is not connected"),
    ),
    "repeat": (
        {**WHEEL_ROTATION, "E": ("S", "t0", "N", "S")},
        None,
        "NESW",
        ("rotation", "rotation at 'E' repeats or loops"),
    ),
    "loop": (
        {**WHEEL_ROTATION, "E": ("S", "t0", "N", "E")},
        None,
        "NESW",
        ("rotation", "rotation at 'E' repeats or loops"),
    ),
    "one-sided": (
        {**WHEEL_ROTATION, "t0": ("N", "S", "W")},
        None,
        "NESW",
        ("rotation", "edge 'E'-'t0' is one-sided"),
    ),
    "connected": (
        {**WHEEL_ROTATION, **TRIANGLE},
        None,
        "NESW",
        ("connected", "graph is not connected"),
    ),
    "planar": (
        {**WHEEL_ROTATION, "t0": ("N", "S", "E", "W")},
        None,
        "NESW",
        ("planar", "rotation system is not a plane embedding"),
    ),
    "outer-distinct": (
        WHEEL_ROTATION,
        None,
        "NNSW",
        ("outer", "outer cycle ('N', 'N', 'S', 'W') must be 4 distinct vertices"),
    ),
    "outer-faces": (
        WHEEL_ROTATION,
        None,
        "NSEW",
        ("outer", "outer cycle ('N', 'S', 'E', 'W') bounds 0 faces"),
    ),
    "faces": (QUADS, None, "NESW", ("faces", "inner face ['E', 'N', 't0', 'S'] is not a triangle")),
}


@pytest.mark.parametrize("name", sorted(BAD_INSTANCES))
def test_validate_instance_names_each_violation(name):
    # the separating verdict is pinned by test_separating_triangle_is_named
    rotation, box_ids, outer, want = BAD_INSTANCES[name]
    dims = {v: (2, 2) for v in box_ids or rotation}
    assert validate_instance(inst_of(dims, rotation, tuple(outer))) == InstanceViolation(*want)


def test_separating_triangle_is_named():
    # the wheel with z stacked into its face (N, E, t0): that triangle
    # now holds z inside and bounds no face
    rotation = {
        "N": ("E", "z", "t0", "W"),
        "E": ("S", "t0", "z", "N"),
        "S": ("W", "t0", "E"),
        "W": ("N", "t0", "S"),
        "t0": ("N", "z", "E", "S", "W"),
        "z": ("N", "E", "t0"),
    }
    inst = inst_of({v: (2, 2) for v in rotation}, rotation)
    assert validate_instance(inst) == InstanceViolation(
        "separating", "triangle (E, N, t0) bounds no face"
    )


def test_faces_are_traced_in_sorted_dart_order():
    # walking each vertex's sorted neighbours visits the darts in sorted
    # order, so faces (and the first violation named) keep their order
    rng = random.Random(31337)
    for _ in range(30):
        inst = rand_guillotine_dual(rng, rng.randrange(1, 61), False, rng.randrange(4, 17))
        if inst is None:
            continue
        rot = inst.rotation
        nxt = {(u, v): (v, r[(i + 1) % len(r)]) for v, r in rot.items() for i, u in enumerate(r)}
        want, seen = [], set()
        for dart in sorted(nxt):
            face = []
            while dart not in seen:
                seen.add(dart)
                face.append(dart[0])
                dart = nxt[dart]
            want += [face] if face else []
        assert _trace_faces(rot, {v: sorted(rot[v]) for v in sorted(rot)}) == want


def test_five_vertex_dual_realizes_all_edges():
    inst = wheel({"N": (4, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)})
    lay = realize_triangulation(inst)
    assert len(contact_pairs(lay) & set(inst.edges())) == 8


def test_narrow_north_is_infeasible():
    inst = wheel({"N": (1, 1), "E": (1, 4), "S": (4, 1), "W": (1, 4), "t0": (2, 2)})
    with pytest.raises(TriangulationInfeasibleError) as err:
        realize_triangulation(inst)
    assert err.value.stage == "outer-too-small"


def test_invalid_instance_raises():
    rotation = {
        "a": ("b", "c", "d"),
        "b": ("c", "a", "d"),
        "c": ("a", "b", "d"),
        "d": ("a", "c", "b"),
    }
    inst = inst_of({v: (1, 1) for v in "abcd"}, rotation, outer=("a", "b", "c", "d"))
    with pytest.raises(InvalidInstanceError):
        realize_triangulation(inst)


STACK_ROTATION = {
    "N": ("W", "b", "E"),
    "E": ("N", "b", "a", "S"),
    "S": ("E", "a", "W"),
    "W": ("a", "b", "N", "S"),
    "a": ("S", "E", "b", "W"),
    "b": ("a", "E", "N", "W"),
}


def stack(dims_ab):
    dims = {"N": (9, 1), "E": (1, 9), "S": (9, 1), "W": (1, 9)}
    dims.update(dims_ab)
    return inst_of(dims, STACK_ROTATION)


def test_two_tile_stack_realizes_when_widths_match():
    inst = stack({"a": (2, 1), "b": (2, 1)})
    lay = realize_triangulation(inst)
    assert set(inst.edges()) <= contact_pairs(lay)
    detect_contacts(lay)  # doubles as no-overlap check


def test_two_tile_stack_infeasible_when_widths_differ():
    inst = stack({"a": (2, 1), "b": (3, 1)})
    assert validate_instance(inst) is None
    with pytest.raises(TriangulationInfeasibleError):
        realize_triangulation(inst)


PINWHEEL = {
    "t0": (3, 1),
    "N": (2, 2),
    "E": (3, 2),
    "S": (4, 4),
    "W": (3, 2),
}


def test_pinwheel_gap_between_walls_and_free_placement():
    """A free pinwheel realizes the wheel even though no walled layout does.

    The witness puts W on top of t0 and closes the outer cycle through two
    corner point contacts, which is legal under the contact definition but
    scrambles the outer roles. Both the realizer and the role-respecting
    oracle reject the instance; the free-placement oracle accepts it.
    """
    inst = wheel(PINWHEEL)
    assert validate_instance(inst) is None

    with pytest.raises(TriangulationInfeasibleError) as err:
        realize_triangulation(inst)
    assert err.value.stage == "outer-too-small"

    assert tri_realizable(inst) is False
    assert tri_realizable(inst, respect_roles=False) is True

    # the explicit free witness, checked down to its contact set
    witness = Layout()
    spots = {
        "t0": (0, 0),
        "E": (0, -2),
        "N": (-2, -1),
        "S": (3, -3),
        "W": (0, 1),
    }
    for v, (x, y) in spots.items():
        witness.place(inst.boxes[v], rat(x), rat(y))
    assert contact_pairs(witness) == set(inst.edges())


def test_realizer_matches_oracle_on_random_duals():
    rng = random.Random(424242)
    checked = 0
    while checked < 60:
        inst = rand_guillotine_dual(
            rng, rng.choice((1, 2, 2, 3)), perturb=rng.random() < 0.5
        )
        if inst is None or validate_instance(inst) is not None:
            continue
        want = tri_realizable(inst)
        try:
            lay = realize_triangulation(inst)
            got = True
            assert set(inst.edges()) <= contact_pairs(lay)
        except TriangulationInfeasibleError:
            got = False
        assert got == want
        checked += 1


def off_grid_dual(rng, big=False):
    """A random guillotine dual with its boxes scaled by one Fraction.

    Small draws have 1-6 tiles on the 4x4 grid, and a fifth of their
    sides stretched or shrunk by up to 3/8.  Big draws have up to 60 tiles
    (the benchmark's largest dual) on a grid of side 4..16, and a tenth of
    their sides one grid unit off, so that box corners meet where the
    tiling has no junction."""
    if big:
        side = rng.randrange(4, 17)
        inst = rand_guillotine_dual(rng, rng.randrange(1, 61), False, side)
    else:
        inst = rand_guillotine_dual(rng, rng.randrange(1, 7), perturb=rng.random() < 0.25)
    scale = Fraction(rng.randrange(1, 30), rng.choice((1, 2, 3, 4, 5, 6, 7, 64)))

    def off(side_len):
        if rng.random() >= (0.1 if big else 0.2):
            return side_len
        if big:
            return max(side_len + rng.choice((-1, 1)), Fraction(1))
        return side_len * Fraction(rng.randrange(5, 12), 8)

    boxes = {v: BoxSpec(v, off(b.w) * scale, off(b.h) * scale) for v, b in inst.boxes.items()}
    return TriangulationInstance(boxes, inst.rotation, inst.outer)


def tri_outcome(seed, big=False):
    """realize_triangulation and its Fraction reference must place every
    box at the same Fraction corner, or fail with the same stage and
    witness; returns "ok", the stage, or None for a malformed draw."""
    inst = off_grid_dual(random.Random(seed), big)
    if validate_instance(inst) is not None:
        return None
    results = []
    for realize in (realize_triangulation, realize_triangulation_fraction):
        try:
            results.append(("ok", realize(inst).pos))
        except TriangulationInfeasibleError as err:
            results.append((err.stage, err.witness))
    got, want = results
    assert got == want
    if got[0] == "ok":
        assert all(type(c) is Fraction for xy in got[1].values() for c in xy)
    return got[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_realizer_matches_fraction_reference(seed, big):
    tri_outcome(seed, big)


def test_fraction_reference_draws_reach_every_verdict():
    stages = {tri_outcome(seed) for seed in range(40)} - {None}
    assert stages == {"ok", "stuck", "not-rectangle", "outer-too-small"}
