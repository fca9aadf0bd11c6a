"""The breadth-first search core and the witnesses its callers return.

The witness values pinned here were recorded before the three searches
(Hilden membership, Hurwitz equivalence, certificate sides) shared one
breadth-first loop; they must not move.
"""

import hashlib
import itertools
import json
import random
import sys
import threading
import time
from fractions import Fraction

import pytest
import test_bands
from test_hilden import random_expression
from test_systems import random_system

import platkit.words as words
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
    format_expression,
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
from platkit.words import BraidWord, artin_fingerprint, braids_equal, parse_braid


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


def clear_memo():
    words._apply_memo.clear()
    words._apply_memo_letters = 0


def memo_size() -> int:
    """The letters the memo's entries hold, counted as the memo counts them."""
    return sum(
        sum(map(len, images)) + len(letters) + sum(map(len, out))
        for (images, letters), out in words._apply_memo.items()
    )


def search_calls():
    """Membership, Hurwitz and certificate searches, each a call with no argument."""
    rng = random.Random(2207)
    calls = []
    for m in range(1, 6):
        for _ in range(6):
            expr = random_expression(rng, m, rng.randint(0, 4 if m < 4 else 3))
            word = expand_expression(expr)
            bound = len(expr.factors) + rng.randint(0, 1)
            calls.append(lambda word=word, bound=bound: search_membership(word, bound))
        if m >= 2:
            # sigma_2 squared keeps the pairing but is no member: both sides run out
            outside = BraidWord(2 * m, expand_expression(expr).letters + (2, 2))
            calls.append(lambda word=outside: search_membership(word, 3))
    for _ in range(12):
        degree, r = rng.choice(((3, 3), (3, 4), (4, 4)))
        s1 = random_system(rng, degree, r)
        s2 = apply_slides(s1, [(rng.randint(1, r - 1), rng.random() < 0.5) for _ in range(3)])
        calls.append(lambda s1=s1, s2=s2: hurwitz_search(s1, s2, 300))
    banded = [bb for bb, _ in test_bands.TestCompile().compile_cases()]
    banded.append(BandedBraid(parse_braid("2", 4), (Band(2, -1, Fraction(1, 2)),)))
    for bb in banded:
        calls.append(lambda bb=bb: search_certificates(bb, 2))
    mixed = BandedBraid(
        BraidWord.identity(6), (Band(2, 1, Fraction(1, 3)), Band(4, -1, Fraction(2, 3)))
    )
    calls.append(lambda: search_certificates(mixed, 3))
    return calls


class TestApplyMemo:
    """The process-wide memo of the searches' fingerprint steps changes no answer."""

    def test_cold_and_warm_memo_agree(self):
        calls = search_calls()
        cold = []
        for call in calls:
            clear_memo()
            cold.append(call())
        assert words._apply_memo
        assert [call() for call in calls] == cold
        assert [call() for call in reversed(calls)] == cold[::-1]
        assert words._apply_memo_letters == memo_size()

    def test_guard_trip_repeats(self):
        # the draw of test_systems' guard test: a plain word slides into
        # conjugates whose fingerprint passes the guard
        rng = random.Random(809)
        for _ in range(14):
            s1 = random_system(rng, 4, 5)
            s2 = apply_slides(s1, [(rng.randint(1, 4), rng.random() < 0.5) for _ in range(3)])
        clear_memo()
        first = hurwitz_search(s1, s2)
        second = hurwitz_search(s1, s2)
        assert first.status is HurwitzStatus.UNKNOWN
        assert first.reason == "free-group fingerprint grew past 1000000 letters"
        assert second == first
        assert 0 < first.explored
        assert words._apply_memo_letters == memo_size() <= words._APPLY_MEMO_LETTERS

    def test_word_problem_adds_no_entries(self):
        clear_memo()
        a, b = parse_braid("1 2 1 3 -2", 4), parse_braid("2 1 2 3 -2", 4)
        assert braids_equal(a, b)
        assert not braids_equal(a, parse_braid("1 2 1 -3 2", 4))
        artin_fingerprint(a)
        assert words._apply_memo == {}
        assert words._apply_memo_letters == 0

    def test_wide_search_stays_within_the_bound(self, monkeypatch):
        word = parse_braid("254 255 -253 -254 254 255 -253 -254", 256)
        clear_memo()
        expr = search_membership(word, 6)
        assert format_expression(expr) == "m=128 g128^-1 g128^-1"
        assert 0 < words._apply_memo_letters == memo_size() <= words._APPLY_MEMO_LETTERS
        # a small bound clears the memo whole many times on the way, and an
        # entry larger than the bound is never stored; the witness stays
        for bound in (5000, 300):
            monkeypatch.setattr(words, "_APPLY_MEMO_LETTERS", bound)
            clear_memo()
            assert search_membership(word, 6) == expr
            assert words._apply_memo_letters == memo_size() <= bound
        assert words._apply_memo == {}

    def test_threads_keep_the_count_in_step(self, monkeypatch):
        # six threads run the searches on a small bound, each from its own
        # place in the list, so they miss, store and clear at once; each store
        # records the count and the letters it finds and lets other threads in
        # just before and just after its write
        counts = []

        class YieldingDict(dict):
            def setdefault(self, key, value):
                counts.append((words._apply_memo_letters, memo_size()))
                time.sleep(1e-5)
                out = super().setdefault(key, value)
                time.sleep(1e-5)
                return out

        calls = search_calls()
        expected = [call() for call in calls]
        monkeypatch.setattr(words, "_APPLY_MEMO_LETTERS", 20000)
        monkeypatch.setattr(words, "_apply_memo", YieldingDict())
        monkeypatch.setattr(words, "_apply_memo_letters", 0)
        results = [None] * 6

        def work(i):
            k = 9 * i
            results[i] = [call() for call in calls[k:] + calls[:k]]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected[9 * i :] + expected[: 9 * i] for i in range(6)]
        assert len(counts) > 6 * 20
        assert all(count == size <= 20000 for count, size in counts)
        assert words._apply_memo_letters == memo_size() <= 20000
