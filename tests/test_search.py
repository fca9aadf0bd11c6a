"""The breadth-first search core and the witnesses its callers return.

The witness values pinned here were recorded before the three searches
(Hilden membership, Hurwitz equivalence, certificate sides) shared one
breadth-first loop; they must not move.
"""

import itertools
from fractions import Fraction

import pytest

from platkit.bands import Band, BandedBraid, certificates_to_obj, search_certificates
from platkit.hilden import (
    HildenExpression,
    expand_expression,
    hilden_generators,
    search_membership,
)
from platkit.search import bfs
from platkit.systems import (
    BraidSystem,
    HurwitzStatus,
    MonodromyEntry,
    apply_slides,
    hurwitz_search,
)
from platkit.words import BraidWord, artin_fingerprint, parse_braid


def integer_moves(state, depth):
    return [("+1", state + 1), ("*2", state * 2)]


class TestBfs:
    def test_order_and_least_paths(self):
        got = list(bfs(1, lambda s: s, integer_moves, max_depth=2))
        assert got == [
            (1, 1, ()),
            (2, 2, ("+1",)),
            (3, 3, ("+1", "+1")),
            (4, 4, ("+1", "*2")),
        ]

    def test_depth_bound(self):
        assert [k for k, _, _ in bfs(1, lambda s: s, integer_moves, max_depth=0)] == [1]

    def test_key_merges_states(self):
        got = list(bfs(0, lambda s: s % 3, integer_moves))
        assert got == [(0, 0, ()), (1, 1, ("+1",)), (2, 2, ("+1", "+1"))]

    def test_successors_see_parent_depth(self):
        depths = []

        def moves(state, depth):
            depths.append(depth)
            return [("next", state + 1)]

        list(bfs(0, lambda s: s, moves, max_depth=3))
        assert depths == [0, 1, 2]


def first_expressions(m: int, max_len: int) -> dict:
    """Scan every expression by length, then lexicographically by factor rank."""
    steps = [(idx, exp) for idx in range(len(hilden_generators(m))) for exp in (1, -1)]
    first: dict = {}
    for length in range(max_len + 1):
        for factors in itertools.product(steps, repeat=length):
            expr = HildenExpression(m, factors)
            first.setdefault(artin_fingerprint(expand_expression(expr)), expr)
    return first


class TestMembershipWitness:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_brute_force_scan(self, m):
        items = list(first_expressions(m, 4).values())
        for expr in items[:: len(items) // 25 + 1]:
            word = expand_expression(expr)
            assert search_membership(word, len(expr.factors)) == expr
            assert search_membership(word, 4) == expr


class TestHurwitzWitness:
    def test_three_slides_apart(self):
        u = lambda text: parse_braid(text, 4)  # noqa: E731
        s1 = BraidSystem(
            4,
            (
                MonodromyEntry(u("2"), 1, 1),
                MonodromyEntry(u(""), 3, -1),
                MonodromyEntry(u("-1"), 2, 1),
                MonodromyEntry(u("3"), 1, -1),
            ),
        )
        s2 = apply_slides(s1, [(1, False), (3, True), (2, False)])
        result = hurwitz_search(s1, s2)
        assert result.status is HurwitzStatus.EQUIVALENT
        assert result.moves == ((1, False), (3, True), (2, False))
        assert result.explored == 35


class TestCertificateWitness:
    def test_all_positive_two_band(self):
        bb = BandedBraid(
            BraidWord.identity(6),
            (Band(2, 1, Fraction(1, 3)), Band(4, 1, Fraction(2, 3))),
        )
        assert certificates_to_obj(search_certificates(bb, 3)) == {
            "profile": "0,0,0",
            "profile1": "0,0,0",
            "profile2": "2",
            "gamma": "m=3",
            "gamma_prime": "m=3",
            "delta": "m=3",
            "delta_prime": "m=3",
        }

    def test_mixed_sign_exhausts_bound(self):
        bb = BandedBraid(
            BraidWord.identity(6),
            (Band(2, 1, Fraction(1, 3)), Band(4, -1, Fraction(2, 3))),
        )
        assert search_certificates(bb, 3) is None

    def test_nontrivial_sides(self):
        bb = BandedBraid(parse_braid("1 -2", 4), (Band(3, 1, Fraction(1, 2)),))
        assert certificates_to_obj(search_certificates(bb, 3)) == {
            "profile": "0,0",
            "profile1": "1",
            "profile2": "1",
            "gamma": "m=2 g0 g0 g0",
            "gamma_prime": "m=2 g1^-1 g2^-1",
            "delta": "m=2 g0 g0 g1^-1",
            "delta_prime": "m=2 g0 g2^-1 g0",
        }
