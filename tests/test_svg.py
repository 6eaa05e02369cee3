"""SVG rendering determinism and basic structure."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crown.geometry import BoxSpec, Layout, rat
from crown.svg import dec, fill_color, render_svg, snap64

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


def test_snap64_quantizes():
    assert snap64(Fraction(1, 3)) == Fraction(21, 64)
    assert snap64(Fraction(5, 2)) == Fraction(5, 2)


def test_dec_never_uses_exponents():
    for q in (Fraction(1, 64), Fraction(350, 100), Fraction(7)):
        s = dec(snap64(q))
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
    q = Fraction(n, d)
    assert dec(q) == dec_fraction(q)
    assert snap64(q) == snap64_fraction(q)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_render_matches_the_fraction_oracle(seed):
    # Tiny scales reach the 1/64 font floor, huge ones long decimals.
    rng = random.Random(seed)
    scale = Fraction(rng.choice((1, 3, 1000)), rng.choice((*COPRIME_DENS, 997)))
    lay = rand_layout(rng, rng.randrange(8), scale=scale)
    labels = {bid: f"<{bid}&>" for bid in lay.pos if rng.random() < 0.5}
    assert render_svg(lay, labels) == render_svg_fraction(lay, labels)
