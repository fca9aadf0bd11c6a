"""The breadth-first search core and the witnesses its callers return.

The witness values pinned here were recorded before the three searches
(Hilden membership, Hurwitz equivalence, certificate sides) shared one
breadth-first loop; they must not move.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from platkit.bands import (
    Band,
    BandedBraid,
    certificates_to_obj,
    compile_surface,
    plan_to_obj,
    search_certificates,
)
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


def strip(name, bottom, top, left=None, right=None, bands=()):
    return {
        "name": name,
        "bottom": bottom,
        "top": top,
        "left": left,
        "right": right,
        "bands": [
            {"slot": slot, "sign": sign, "position": pos, "kind": kind}
            for slot, sign, pos, kind in bands
        ],
    }


def point(conjugator, index, sign):
    return {"conjugator": conjugator, "index": index, "sign": sign}


def searched_plan(bb):
    return plan_to_obj(compile_surface(bb, search_certificates(bb, 3)))


class TestCompiledPlan:
    def test_nontrivial_sides(self):
        bb = BandedBraid(parse_braid("1 -2", 4), (Band(3, 1, Fraction(1, 2)),))
        assert searched_plan(bb) == {
            "degree": 4,
            "chi": 1,
            "boundary": "-1 -1 -1 1 1 -2 -3 -1 -2 1 2 3 -1 -2 1 2 1 -3 -2 2 1 3 2",
            "boundary_factors": [
                "m=2 g0^-1 g0^-1 g0^-1",
                "m=2 g0 g0 g1^-1",
                "m=2 g0 g2^-1 g0",
                "m=2 g2 g1",
            ],
            "branch_points": [
                point("", 2, 1),
                point("-2 -3 -1 3 -1", 3, 1),
                point("-2 -3 -1 3 -1 -2 -1 2 1 -3 -2 -1", 2, -1),
            ],
            "strips": [
                strip("E0", "", ""),
                strip("E1", "", "2", bands=[(2, 1, 0, "stabilize_bottom")]),
                strip("E2", "2", "1 -2", "-1 -1 -1", "-2 -3 -1 -2 2 3 -1 -2"),
                strip("E3", "1 -2", "1 3 -2", bands=[(3, 1, 1, "surgery")]),
                strip("E4", "1 3 -2", "2", "1 1 -2 -3 -1 -2", "-1 2 1 -3 -2 -1"),
                strip("E5", "2", "", bands=[(2, -1, 0, "stabilize_top")]),
                strip("E6", "", ""),
            ],
            "certificates": {
                "profile": "0,0",
                "profile1": "1",
                "profile2": "1",
                "gamma": "m=2 g0 g0 g0",
                "gamma_prime": "m=2 g1^-1 g2^-1",
                "delta": "m=2 g0 g0 g1^-1",
                "delta_prime": "m=2 g0 g2^-1 g0",
            },
        }

    def test_all_positive_two_band_peels_two_pairs(self):
        bb = BandedBraid(
            BraidWord.identity(6),
            (Band(2, 1, Fraction(1, 3)), Band(4, 1, Fraction(2, 3))),
        )
        assert searched_plan(bb) == {
            "degree": 6,
            "chi": 2,
            "boundary": "",
            "boundary_factors": ["m=3", "m=3", "m=3", "m=3"],
            "branch_points": [
                point("", 2, 1),
                point("", 4, 1),
                point("-4", 2, -1),
                point("", 4, -1),
            ],
            "strips": [
                strip("E0", "", ""),
                strip("E1", "", ""),
                strip("E2", "", "", "", ""),
                strip("E3", "", "2 4", bands=[(2, 1, 0, "surgery"), (4, 1, 1, "surgery")]),
                strip("E4", "2 4", "2 4", "", ""),
                strip(
                    "E5",
                    "2 4",
                    "",
                    bands=[(2, -1, 0, "stabilize_top"), (4, -1, 0, "stabilize_top")],
                ),
                strip("E6", "", ""),
            ],
            "certificates": {
                "profile": "0,0,0",
                "profile1": "0,0,0",
                "profile2": "2",
                "gamma": "m=3",
                "gamma_prime": "m=3",
                "delta": "m=3",
                "delta_prime": "m=3",
            },
        }


def certs(profile2, gamma_prime="", delta="", delta_prime=""):
    """Certificates on three pairs with profile and profile1 0,0,0 and gamma empty."""
    return {
        "profile": "0,0,0",
        "profile1": "0,0,0",
        "profile2": profile2,
        "gamma": "m=3",
        "gamma_prime": f"m=3{gamma_prime}",
        "delta": f"m=3{delta}",
        "delta_prime": f"m=3{delta_prime}",
    }


# Admissible two-band braids on 6 strands: the base is a short product of
# Hilden generators, the bands alternate between both positive and one of
# each sign, at random slots and twelfths.  Each row gives the base, the
# bands as (slot, sign, time), the certificates search_certificates(bb, 3)
# finds, and the first 16 hex digits of the SHA-256 of the compiled plan's
# JSON with sorted keys.
SEEDED_BRAIDS = [
    ("", [(3, 1, "7/12"), (1, 1, "2/3")],
     certs("0,0,0", delta=" g0 g1", delta_prime=" g0 g1^-1"), "779c01c402a86bf7"),
    ("", [(1, 1, "1/12"), (1, -1, "7/12")], certs("0,0,0"), "0538e428ce724646"),
    ("2 1 -3 -2 -2 -3 -1 -2", [(3, 1, "1/6"), (2, 1, "5/12")], None, None),
    ("", [(1, 1, "1/3"), (3, -1, "5/12")],
     certs("0,0,0", delta=" g0 g1", delta_prime=" g0^-1 g1^-1"), "536106aa854e8dd9"),
    ("", [(3, 1, "1/2"), (3, 1, "11/12")],
     certs("0,0,0", delta=" g1 g0", delta_prime=" g0 g1^-1"), "72df73bf6d6e859c"),
    ("", [(5, 1, "7/12"), (3, -1, "11/12")], None, None),
    ("", [(3, 1, "5/12"), (1, 1, "3/4")],
     certs("0,0,0", delta=" g0 g1", delta_prime=" g0 g1^-1"), "779c01c402a86bf7"),
    ("", [(3, 1, "5/12"), (5, -1, "3/4")], None, None),
    ("4 3 -5 -4", [(2, 1, "1/12"), (3, 1, "5/12")], None, None),
    ("", [(1, 1, "5/12"), (4, -1, "11/12")], None, None),
    ("4 5 -3 -4 2 1 3 2", [(1, 1, "1/3"), (4, 1, "2/3")],
     certs("0,1", gamma_prime=" g3^-1 g1", delta=" g3^-1", delta_prime=" g0 g1"),
     "bdaece842af86794"),
    ("-2 -3 -1 -2", [(4, 1, "1/2"), (5, -1, "3/4")],
     certs("0,1", gamma_prime=" g1^-1", delta=" g1^-1 g3", delta_prime=" g1 g0^-1 g1^-1"),
     "6e9167cc9906882c"),
    ("", [(3, 1, "1/12"), (1, 1, "1/3")],
     certs("0,0,0", delta=" g0 g1", delta_prime=" g0 g1^-1"), "779c01c402a86bf7"),
    ("2 1 3 2", [(3, 1, "5/12"), (2, -1, "2/3")], None, None),
    ("", [(1, 1, "1/6"), (3, 1, "5/12")],
     certs("0,0,0", delta=" g0 g1", delta_prime=" g0 g1^-1"), "869696cf09fbb947"),
    ("", [(3, 1, "7/12"), (2, -1, "11/12")], None, None),
    ("-1 -2 -3 -1 -2", [(3, 1, "5/12"), (2, 1, "7/12")], None, None),
    ("-2 -3 -1 -2 -1", [(1, 1, "1/4"), (4, -1, "1/2")], None, None),
    ("2 1 -3 -2", [(4, 1, "1/3"), (2, 1, "7/12")],
     certs("0,1", gamma_prime=" g2", delta=" g0", delta_prime=" g2"), "2be30e0456648ef2"),
    ("", [(1, 1, "1/12"), (1, -1, "1/4")], certs("0,0,0"), "0538e428ce724646"),
]


class TestSeededCertificates:
    @pytest.mark.parametrize("base, bands, expected, plan_digest", SEEDED_BRAIDS)
    def test_certificates_and_plan(self, base, bands, expected, plan_digest):
        bb = BandedBraid(
            parse_braid(base, 6),
            tuple(Band(slot, sign, Fraction(time)) for slot, sign, time in bands),
        )
        found = search_certificates(bb, 3)
        if expected is None:
            assert found is None
            return
        assert certificates_to_obj(found) == expected
        text = json.dumps(plan_to_obj(compile_surface(bb, found)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == plan_digest
