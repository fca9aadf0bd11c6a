"""braids_equal against whole-word fingerprints on random pairs (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from platkit.words import BraidWord, artin_fingerprint, braids_equal


def letters(strands: int, max_size: int):
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letter, max_size=max_size).map(tuple)


def insertions(strands: int):
    """Pieces that leave the braid unchanged (relators) or change it by a pure braid."""
    pieces = [(1, -1), (1, 1)]
    for i in range(1, strands - 1):
        pieces += [(i, i + 1, i, -(i + 1), -i, -(i + 1)), (i, i, -(i + 1), -(i + 1))]
    for i in range(1, strands - 2):
        for j in range(i + 2, strands):
            pieces.append((i, j, -i, -j))
    return st.sampled_from(pieces)


@st.composite
def pairs(draw):
    n = draw(st.integers(2, 6))
    a = draw(letters(n, 14))
    kind = draw(st.sampled_from(("random", "insert", "conjugate")))
    if kind == "random":
        b = draw(letters(n, 14))
    else:
        cut = draw(st.integers(0, len(a)))
        b = a[:cut] + draw(insertions(n)) + a[cut:]
        if kind == "conjugate":
            w = draw(letters(n, 8))
            a = w + a + tuple(-g for g in reversed(w))
            b = w + b + tuple(-g for g in reversed(w))
    return BraidWord(n, a), BraidWord(n, b)


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_equal_exactly_when_fingerprints_agree(pair):
    a, b = pair
    assert braids_equal(a, b) == (artin_fingerprint(a) == artin_fingerprint(b))
