"""SVG rendering determinism and basic structure."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.geometry import BoxSpec, Layout, rat
from crown.svg import _dec64, _snap, fill_color, render_svg

from oracles import COPRIME_DENS, dec_fraction, rand_layout, render_svg_fraction, snap64_fraction


def layout():
    lay = Layout()
    lay.place(BoxSpec("alpha", rat(2), rat(1)), rat(0), rat(0))
    lay.place(BoxSpec("beta", rat(1), rat("3/2")), rat(2), rat(0))
    return lay


def test_render_is_deterministic():
    a = render_svg(layout(), labels={"alpha": "alpha", "beta": "beta"})
    b = render_svg(layout(), labels={"alpha": "alpha", "beta": "beta"})
    assert a == b


def test_render_basics():
    out = render_svg(layout())
    assert out.startswith("<svg")
    assert out.count("<rect") == 2
    assert "alpha" in out  # ids label boxes when no labels given


def test_fill_color_stable_and_well_formed():
    c = fill_color("alpha")
    assert c == fill_color("alpha")
    assert c.startswith("#") and len(c) == 7


def dec(q: Fraction) -> str:
    """``q`` on the 1/64 grid, as ``render_svg`` writes it."""
    return _dec64(_snap(*q.as_integer_ratio()))


def snap64(q: Fraction) -> Fraction:
    return Fraction(_snap(*q.as_integer_ratio()), 64)


def test_snap64_quantizes():
    assert _snap(1, 3) == 21
    assert _snap(5, 2) == 160


def test_dec_never_uses_exponents():
    for q in (Fraction(1, 64), Fraction(350, 100), Fraction(7)):
        s = dec(q)
        assert "e" not in s and "E" not in s


def test_labels_escaped():
    lay = Layout()
    lay.place(BoxSpec("x", rat(4), rat(1)), rat(0), rat(0))
    out = render_svg(lay, labels={"x": "<&>"})
    assert "<&>" not in out
    assert "&lt;&amp;&gt;" in out


def test_tiny_box_font_floor():
    lay = Layout()
    lay.place(BoxSpec("dot", rat("1/64"), rat("1/64")), rat(0), rat(0))
    out = render_svg(lay)
    assert "font-size" in out
    # no zero or negative font sizes
    for chunk in out.split("font-size=\"")[1:]:
        size = chunk.split("\"")[0]
        assert float(size) > 0


@pytest.mark.parametrize(
    "q,want",
    [
        (Fraction(1, 128), "0"),  # half a 64th rounds to the even 0
        (Fraction(-1, 128), "0"),
        (Fraction(3, 128), "0.03125"),  # 1.5 64ths rounds to 2
        (Fraction(-3, 128), "-0.03125"),
        (Fraction(5, 128), "0.03125"),  # 2.5 64ths rounds to 2
        (Fraction(-641, 128), "-5"),  # -320.5 64ths rounds to -320
        (Fraction(10**30 * 128 + 3, 128), f"{10**30}.03125"),
    ],
)
def test_dec_rounds_ties_to_even(q, want):
    assert dec(q) == dec_fraction(q) == want
    assert snap64(q) == snap64_fraction(q)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.one_of(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=10**6).map(lambda k: 128 * k),
    ),
)
def test_dec_matches_the_fraction_oracle(n, d):
    # render_svg passes unreduced numerators and denominators.
    q = Fraction(n, d)
    assert _dec64(_snap(n, d)) == dec_fraction(q)
    assert Fraction(_snap(n, d), 64) == snap64_fraction(q)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_render_matches_the_fraction_oracle(seed):
    # Tiny scales reach the 1/64 font floor, huge ones long decimals.
    rng = random.Random(seed)
    scale = Fraction(rng.choice((1, 3, 1000)), rng.choice((*COPRIME_DENS, 997)))
    lay = rand_layout(rng, rng.randrange(8), scale=scale)
    labels = {bid: f"<{bid}&>" for bid in lay.pos if rng.random() < 0.5}
    assert render_svg(lay, labels) == render_svg_fraction(lay, labels)


def test_render_empty_layout():
    # No boxes: the bounding box is all 0 and both margins are the 1/64 floor.
    out = render_svg(Layout())
    assert out == render_svg_fraction(Layout())
    assert out == (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-0.015625 -0.015625 0.03125 0.03125" font-family="sans-serif">\n'
        "</svg>\n"
    )


@pytest.mark.parametrize("w", [Fraction(19, 64), Fraction(5, 16), Fraction(21, 64)])
def test_render_margin_floor_boundary(w):
    # 5/16 is where 64 * w == 20 * unit (unit 16): w/20 equals the 1/64
    # floor, and the two sides of the boundary take one margin each.
    lay = Layout()
    lay.place(BoxSpec("a", w, rat(3)), rat(0), rat(0))
    out = render_svg(lay)
    assert out == render_svg_fraction(lay)
    if w == Fraction(5, 16):
        assert 'viewBox="-0.015625 -3.15625 0.34375 3.296875"' in out
