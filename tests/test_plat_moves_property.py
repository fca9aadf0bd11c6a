"""Plat closures under stabilization and Hilden double cosets (hypothesis).

The compiler's certificates prove a plat trivial because both moves keep
the plat closure's link type; here the component count and the bracket up
to a unit stand in for it.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from platkit.hilden import HildenExpression, expand_expression
from platkit.laurent import equal_up_to_unit
from platkit.plats import component_count, kauffman_bracket, plat_closure
from platkit.stabilize import StabilizationProfile, stabilize_by_profile
from platkit.words import BraidWord

# crossings the bracket may sum over: a word of 8 letters plus a tail of at
# most two new pairs (34 letters) or two expressions of 3 factors (24 letters)
BRACKET_BUDGET = 48


@st.composite
def plat_words(draw, max_size: int = 8) -> BraidWord:
    n = 2 * draw(st.integers(1, 3))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=max_size))))


@st.composite
def expressions(draw, pairs: int) -> HildenExpression:
    count = 1 if pairs == 1 else pairs + 1
    factor = st.tuples(st.integers(0, count - 1), st.sampled_from((1, -1)))
    return HildenExpression(pairs, tuple(draw(st.lists(factor, max_size=3))))


def assert_same_plat(a: BraidWord, b: BraidWord) -> None:
    da, db = plat_closure(a), plat_closure(b)
    assert component_count(da) == component_count(db)
    ba, bb = kauffman_bracket(da, BRACKET_BUDGET), kauffman_bracket(db, BRACKET_BUDGET)
    assert equal_up_to_unit(ba, bb)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stabilization_keeps_the_plat(data):
    word = data.draw(plat_words())
    pairs = word.strands // 2
    entries = st.lists(st.integers(0, 2), min_size=pairs, max_size=pairs)
    profile = StabilizationProfile(tuple(data.draw(entries.filter(lambda e: sum(e) <= 2))))
    assert_same_plat(word, stabilize_by_profile(word, profile))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hilden_double_coset_keeps_the_plat(data):
    word = data.draw(plat_words())
    left = expand_expression(data.draw(expressions(word.strands // 2)))
    right = expand_expression(data.draw(expressions(word.strands // 2)))
    assert_same_plat(word, left * word * right)
