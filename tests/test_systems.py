"""Braid systems: slides, Hurwitz search, surface invariants, conversions."""

import random

import pytest

import platkit.systems as systems
from platkit.motion import BandMark, MotionPicture, Still, system_motion
from platkit.plats import Pairing
from platkit.search import bfs
from platkit.systems import (
    DEFAULT_SEARCH_BUDGET,
    BraidSystem,
    HurwitzResult,
    HurwitzStatus,
    MonodromyEntry,
    SurfaceType,
    apply_slides,
    as_monodromy,
    boundary_braid,
    branch_signs,
    classify_degree_two,
    entry_word,
    hurwitz_search,
    is_two_dimensional,
    normal_euler_number,
    plat_euler_characteristic,
    ribbon_criterion,
    slide,
    staircase,
    system_from_json,
    system_to_json,
    to_genuine_plat,
)
from platkit.words import (
    BraidWord,
    BudgetError,
    OpenSystemError,
    Permutation,
    artin_fingerprint,
    braids_equal,
    embed,
    exponent_sum,
    parse_braid,
    product,
    strand_permutation,
)


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    letters = []
    for _ in range(length):
        g = rng.randint(1, strands - 1)
        letters.append(g if rng.random() < 0.5 else -g)
    return BraidWord(strands, tuple(letters))


def random_system(rng: random.Random, degree: int, r: int) -> BraidSystem:
    entries = []
    for _ in range(r):
        if rng.random() < 0.5:
            entries.append(
                MonodromyEntry(
                    random_word(rng, degree, rng.randint(0, 3)),
                    rng.randint(1, degree - 1),
                    rng.choice((1, -1)),
                )
            )
        else:
            entries.append(random_word(rng, degree, rng.randint(1, 4)))
    return BraidSystem(degree, tuple(entries))


def invariant_data(system: BraidSystem):
    return (
        sorted(exponent_sum(w) for w in system.words()),
        sorted(strand_permutation(w).cycle_type() for w in system.words()),
    )


class TestEntries:
    def test_monodromy_word(self):
        e = MonodromyEntry(parse_braid("1 2", 3), 2, -1)
        assert e.word().letters == (1, 2, -2, -2, -1)

    def test_monodromy_validation(self):
        with pytest.raises(ValueError):
            MonodromyEntry(BraidWord.identity(3), 3, 1)
        with pytest.raises(ValueError):
            MonodromyEntry(BraidWord.identity(3), 1, 0)

    def test_index_and_sign_are_plain_ints(self):
        # a float index or sign is refused where it enters, naming it; a bool
        # is stored as the int it stands for, so the JSON round trip holds
        with pytest.raises(ValueError, match="crossing index 1.0 is not an integer"):
            MonodromyEntry(BraidWord.identity(3), 1.0, 1)
        with pytest.raises(ValueError, match="sign 1.0 is not an integer"):
            MonodromyEntry(BraidWord.identity(3), 1, 1.0)
        e = MonodromyEntry(BraidWord.identity(3), True, True)
        assert (type(e.index), type(e.sign)) == (int, int)
        assert e == MonodromyEntry(BraidWord.identity(3), 1, 1)
        s = BraidSystem(3, (e,))
        assert system_from_json(system_to_json(s)) == s

    def test_inverse_flips_sign(self):
        e = MonodromyEntry(parse_braid("1", 3), 2, 1)
        assert e.inverse().sign == -1
        assert braids_equal(e.inverse().word(), e.word().inverse())

    def test_as_monodromy_recognizes_mirror_words(self):
        e = as_monodromy(parse_braid("1 2 -1", 3))
        assert e is not None
        assert (e.conjugator.letters, e.index, e.sign) == ((1,), 2, 1)
        bare = as_monodromy(parse_braid("-2", 3))
        assert bare is not None
        assert (bare.conjugator.letters, bare.index, bare.sign) == ((), 2, -1)

    def test_as_monodromy_rejects_others(self):
        assert as_monodromy(parse_braid("1 2", 3)) is None
        assert as_monodromy(parse_braid("1 2 1", 3)) is None
        assert as_monodromy(BraidWord.identity(3)) is None

    def test_as_monodromy_round_trip(self):
        rng = random.Random(71)
        for _ in range(20):
            e = MonodromyEntry(
                random_word(rng, 4, rng.randint(0, 4)),
                rng.randint(1, 3),
                rng.choice((1, -1)),
            )
            back = as_monodromy(e.word())
            assert back == e


class TestSystems:
    def test_degree_check(self):
        with pytest.raises(ValueError):
            BraidSystem(3, (parse_braid("1", 2),))

    def test_degree_below_one(self):
        for degree in (0, -2):
            with pytest.raises(ValueError, match="strand count must be positive"):
                BraidSystem(degree, ())

    def test_degree_is_a_plain_int(self):
        for degree in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="degree .* is not an integer"):
                BraidSystem(degree, ())
        system = BraidSystem(True, ())
        assert system.degree == 1 and type(system.degree) is int

    def test_r_and_words(self):
        s = BraidSystem(3, (parse_braid("1", 3), MonodromyEntry(BraidWord.identity(3), 2, 1)))
        assert s.r == 2
        assert [w.letters for w in s.words()] == [(1,), (2,)]

    def test_boundary_and_two_dimensional(self):
        s = BraidSystem(3, (parse_braid("1", 3), parse_braid("-1", 3)))
        assert boundary_braid(s).letters == (1, -1)
        assert is_two_dimensional(s)
        assert not is_two_dimensional(BraidSystem(3, (parse_braid("1", 3),)))


class TestSlides:
    def test_forward_formula(self):
        s = BraidSystem(3, (parse_braid("1", 3), parse_braid("2", 3)))
        t = slide(s, 1)
        assert braids_equal(t.words()[0], parse_braid("1 2 -1", 3))
        assert t.words()[1].letters == (1,)

    def test_slot_range(self):
        s = BraidSystem(3, (parse_braid("1", 3), parse_braid("2", 3)))
        with pytest.raises(ValueError):
            slide(s, 0)
        with pytest.raises(ValueError):
            slide(s, 2)

    def test_forward_then_inverse_is_identity(self):
        rng = random.Random(72)
        for _ in range(40):
            s = random_system(rng, rng.randint(2, 4), rng.randint(2, 5))
            j = rng.randint(1, s.r - 1)
            back = slide(slide(s, j), j, inverse=True)
            for a, b in zip(back.words(), s.words()):
                assert braids_equal(a, b)

    def test_slide_braid_relation(self):
        rng = random.Random(73)
        for _ in range(25):
            s = random_system(rng, rng.randint(2, 4), 3)
            lhs = slide(slide(slide(s, 1), 2), 1)
            rhs = slide(slide(slide(s, 2), 1), 2)
            for a, b in zip(lhs.words(), rhs.words()):
                assert braids_equal(a, b)

    def test_far_slides_commute(self):
        rng = random.Random(74)
        for _ in range(25):
            s = random_system(rng, rng.randint(2, 4), 4)
            lhs = slide(slide(s, 1), 3)
            rhs = slide(slide(s, 3), 1)
            for a, b in zip(lhs.words(), rhs.words()):
                assert braids_equal(a, b)

    def test_invariants_preserved(self):
        rng = random.Random(75)
        for _ in range(30):
            s = random_system(rng, rng.randint(2, 4), rng.randint(2, 4))
            j = rng.randint(1, s.r - 1)
            t = slide(s, j, inverse=rng.random() < 0.5)
            assert braids_equal(boundary_braid(t), boundary_braid(s))
            assert invariant_data(t) == invariant_data(s)

    def test_factored_entries_stay_factored(self):
        e1 = MonodromyEntry(parse_braid("1", 3), 2, 1)
        e2 = MonodromyEntry(BraidWord.identity(3), 1, -1)
        s = BraidSystem(3, (e1, e2))
        t = slide(s, 1)
        assert all(isinstance(e, MonodromyEntry) for e in t.entries)
        assert t.entries[0].index == 1 and t.entries[0].sign == -1
        assert t.entries[1] is e1

    def test_apply_slides_replays(self):
        rng = random.Random(76)
        s = random_system(rng, 3, 4)
        moves = [(rng.randint(1, 3), rng.random() < 0.5) for _ in range(5)]
        t = apply_slides(s, moves)
        step = s
        for j, inv in moves:
            step = slide(step, j, inverse=inv)
        for a, b in zip(t.words(), step.words()):
            assert braids_equal(a, b)


class TestHurwitz:
    def test_equal_systems(self):
        s = BraidSystem(3, (parse_braid("1", 3), parse_braid("2", 3)))
        res = hurwitz_search(s, s)
        assert res.status is HurwitzStatus.EQUIVALENT
        assert res.moves == ()

    def test_one_slide_apart(self):
        s1 = BraidSystem(3, (parse_braid("1", 3), parse_braid("2", 3)))
        # the slide's spelling, and another spelling of the same braid:
        # s1 s2 s1^-1 = s2^-1 s1 s2, so keys compare braids, not letters
        for first in ("1 2 -1", "-2 1 2"):
            s2 = BraidSystem(3, (parse_braid(first, 3), parse_braid("1", 3)))
            res = hurwitz_search(s1, s2)
            assert res.status is HurwitzStatus.EQUIVALENT
            assert (res.moves, res.explored) == (((1, False),), 2)
            replayed = apply_slides(s1, list(res.moves))
            for a, b in zip(replayed.words(), s2.words()):
                assert braids_equal(a, b)

    def test_distant_pair_swap(self):
        s1 = BraidSystem(4, (parse_braid("1", 4), parse_braid("3", 4)))
        s2 = BraidSystem(4, (parse_braid("3", 4), parse_braid("1", 4)))
        res = hurwitz_search(s1, s2)
        assert res.status is HurwitzStatus.EQUIVALENT

    def test_not_equivalent_by_boundary(self):
        s1 = BraidSystem(3, (parse_braid("1", 3),))
        s2 = BraidSystem(3, (parse_braid("2", 3),))
        res = hurwitz_search(s1, s2)
        assert res.status is HurwitzStatus.NOT_EQUIVALENT
        assert res.reason == "boundary braids differ"

    def test_not_equivalent_by_exhaustion(self):
        # both factor sigma1^2 into two transposition-like entries with
        # exponent sum one, but the orbit of (s1, s1) is a fixed point
        s1 = BraidSystem(3, (parse_braid("1", 3), parse_braid("1", 3)))
        s2 = BraidSystem(
            3, (parse_braid("2 1 -2", 3), parse_braid("2 -1 -2 1 1", 3))
        )
        assert braids_equal(boundary_braid(s1), boundary_braid(s2))
        assert invariant_data(s1) == invariant_data(s2)
        res = hurwitz_search(s1, s2)
        assert res.status is HurwitzStatus.NOT_EQUIVALENT
        assert res.reason == "orbit enumerated"
        assert res.explored == 1

    def test_not_equivalent_by_exponent_sums(self):
        s1 = BraidSystem(3, (parse_braid("1", 3), parse_braid("-1", 3)))
        s2 = BraidSystem(3, (parse_braid("1 1", 3), parse_braid("-1 -1", 3)))
        res = hurwitz_search(s1, s2)
        assert res.status is HurwitzStatus.NOT_EQUIVALENT
        assert res.reason == "exponent-sum multisets differ"
        assert res.explored == 0

    def test_not_equivalent_by_cycle_types(self):
        # exponent sums 2 and -2 on both sides; a 3-cycle against the identity
        s1 = BraidSystem(3, (parse_braid("1 2", 3), parse_braid("-2 -1", 3)))
        s2 = BraidSystem(3, (parse_braid("1 1", 3), parse_braid("-1 -1", 3)))
        res = hurwitz_search(s1, s2)
        assert res.status is HurwitzStatus.NOT_EQUIVALENT
        assert res.reason == "cycle-type multisets differ"
        assert res.explored == 0

    def test_prefilters_build_one_word_per_side(self, monkeypatch):
        # exponent sums and cycle types are read off the entry letters, so the
        # search builds the two boundary words and no entry word or permutation
        u = parse_braid("1", 3)
        s1 = BraidSystem(3, (MonodromyEntry(u, 2, 1), MonodromyEntry(u, 2, -1)))
        s2 = BraidSystem(3, (MonodromyEntry(u, 1, 1), MonodromyEntry(u, 1, -1)))
        built = {BraidWord: 0, Permutation: 0}
        for cls in built:
            def counting_post_init(value, post_init=cls.__post_init__):
                built[type(value)] += 1
                post_init(value)

            monkeypatch.setattr(cls, "__post_init__", counting_post_init)
        res = hurwitz_search(s1, s2, budget=50)
        assert res.reason != "cycle-type multisets differ" and res.explored > 0
        assert built == {BraidWord: 2, Permutation: 0}

    def test_unknown_on_budget(self):
        s1 = BraidSystem(3, (parse_braid("1", 3), parse_braid("2", 3)))
        s2 = BraidSystem(3, (parse_braid("1 2 -1", 3), parse_braid("1", 3)))
        res = hurwitz_search(s1, s2, budget=1)
        assert res.status is HurwitzStatus.UNKNOWN
        assert res.reason == "budget exhausted"

    def test_size_mismatches(self):
        s1 = BraidSystem(3, (parse_braid("1", 3),))
        assert (
            hurwitz_search(s1, BraidSystem(4, (parse_braid("1", 4),))).status
            is HurwitzStatus.NOT_EQUIVALENT
        )
        assert (
            hurwitz_search(s1, BraidSystem(3, ())).status
            is HurwitzStatus.NOT_EQUIVALENT
        )


def reference_hurwitz_search(s1, s2, budget=DEFAULT_SEARCH_BUDGET):
    """The Hurwitz search that fingerprints every entry of every system it meets."""

    def system_fingerprint(system):
        return tuple(artin_fingerprint(w) for w in system.words())

    if s1.degree != s2.degree:
        return HurwitzResult(HurwitzStatus.NOT_EQUIVALENT, reason="degrees differ")
    if s1.r != s2.r:
        return HurwitzResult(HurwitzStatus.NOT_EQUIVALENT, reason="entry counts differ")
    if not braids_equal(boundary_braid(s1), boundary_braid(s2)):
        return HurwitzResult(HurwitzStatus.NOT_EQUIVALENT, reason="boundary braids differ")
    if sorted(exponent_sum(w) for w in s1.words()) != sorted(
        exponent_sum(w) for w in s2.words()
    ):
        return HurwitzResult(
            HurwitzStatus.NOT_EQUIVALENT, reason="exponent-sum multisets differ"
        )
    if sorted(strand_permutation(w).cycle_type() for w in s1.words()) != sorted(
        strand_permutation(w).cycle_type() for w in s2.words()
    ):
        return HurwitzResult(
            HurwitzStatus.NOT_EQUIVALENT, reason="cycle-type multisets differ"
        )
    target = system_fingerprint(s2)
    moves_menu = [(j, inv) for j in range(1, s1.r) for inv in (False, True)]

    def successors(system, path):
        return [((j, inv), slide(system, j, inverse=inv)) for j, inv in moves_menu]

    explored = 0
    for fp, _, moves in bfs(s1, system_fingerprint, successors):
        if explored >= budget:
            return HurwitzResult(
                HurwitzStatus.UNKNOWN, reason="budget exhausted", explored=explored
            )
        explored += 1
        if fp == target:
            return HurwitzResult(HurwitzStatus.EQUIVALENT, moves=moves, explored=explored)
    return HurwitzResult(
        HurwitzStatus.NOT_EQUIVALENT, reason="orbit enumerated", explored=explored
    )


def hurwitz_pair(rng: random.Random):
    """Two systems of degree 3-4 with 3-6 entries, and a search budget.

    Mostly 0-3 slides apart; some with one entry replaced, which the
    prefilters mostly reject; some of commuting crossings, whose orbit is
    finite, against a slid copy or against a system outside the orbit.
    """
    degree, r = rng.randint(3, 4), rng.randint(3, 6)
    kind = rng.choice(("slides", "slides", "slides", "replaced", "finite"))
    if kind == "finite":
        crossings = [str(rng.choice((1, -1, 3, -3))) for _ in range(r)]
        s1 = BraidSystem(4, tuple(parse_braid(c, 4) for c in crossings))
        if rng.random() < 0.5:
            # (s1, s1) and this pair agree on every prefilter, and s1's orbit
            # is its orderings
            pair = (parse_braid("1", 4), parse_braid("1", 4))
            swap = (parse_braid("2 1 -2", 4), parse_braid("2 -1 -2 1 1", 4))
            rest = s1.entries[2:]
            return BraidSystem(4, pair + rest), BraidSystem(4, swap + rest), DEFAULT_SEARCH_BUDGET
    else:
        s1 = random_system(rng, degree, r)
    moves = [(rng.randint(1, r - 1), rng.random() < 0.5) for _ in range(rng.randint(0, 3))]
    s2 = apply_slides(s1, moves)
    if kind == "replaced":
        entries = list(s2.entries)
        entries[rng.randrange(r)] = random_word(rng, degree, rng.randint(1, 3))
        s2 = BraidSystem(degree, tuple(entries))
    return s1, s2, rng.choice((30, 300))


class TestHurwitzOracle:
    def test_matches_the_whole_system_fingerprint_search(self):
        rng = random.Random(808)
        statuses, reasons = set(), set()
        for _ in range(220):
            s1, s2, budget = hurwitz_pair(rng)
            got = hurwitz_search(s1, s2, budget)
            assert got == reference_hurwitz_search(s1, s2, budget)
            statuses.add(got.status)
            reasons.add(got.reason)
        assert statuses == set(HurwitzStatus)
        assert {"orbit enumerated", "budget exhausted", "boundary braids differ"} <= reasons

    def test_equal_and_look_alike_entries(self):
        # the search memoizes fingerprints by entry form: a repeated entry,
        # a plain word spelling out a factored entry, and a plain word equal to
        # a factored entry's conjugator are each fingerprinted as their own letters
        rng = random.Random(810)
        for kind in range(90):
            degree, r = rng.randint(3, 4), rng.randint(3, 5)
            entries = list(random_system(rng, degree, r).entries)
            factored = MonodromyEntry(
                random_word(rng, degree, rng.randint(1, 3)),
                rng.randint(1, degree - 1),
                rng.choice((1, -1)),
            )
            i, j = rng.sample(range(r), 2)
            entries[i] = factored
            entries[j] = (factored, factored.word(), factored.conjugator)[kind % 3]
            s1 = BraidSystem(degree, tuple(entries))
            moves = [(rng.randint(1, r - 1), rng.random() < 0.5) for _ in range(rng.randint(0, 3))]
            for s2 in (apply_slides(s1, moves), s1):
                assert hurwitz_search(s1, s2, 300) == reference_hurwitz_search(s1, s2, 300)

    def test_one_new_entry_fingerprint_per_child(self, monkeypatch):
        # every entry fingerprint of the search goes through the process-wide
        # memo, systems._cached_apply, hit or miss; every child comes from one
        # call of the slide helper
        counts = {"fingerprints": 0, "children": 0}
        cached_apply, slide_ = systems._cached_apply, systems._slide_pair

        def counting_apply(*args, **kwargs):
            counts["fingerprints"] += 1
            return cached_apply(*args, **kwargs)

        def counting_slide(*args, **kwargs):
            counts["children"] += 1
            return slide_(*args, **kwargs)

        monkeypatch.setattr(systems, "_cached_apply", counting_apply)
        monkeypatch.setattr(systems, "_slide_pair", counting_slide)
        rng = random.Random(809)
        for _ in range(20):
            s1 = random_system(rng, 4, 4)
            s2 = apply_slides(s1, [(rng.randint(1, 3), rng.random() < 0.5) for _ in range(3)])
            counts.update(fingerprints=0, children=0)
            result = hurwitz_search(s1, s2, budget=300)
            assert result.status is not HurwitzStatus.NOT_EQUIVALENT
            assert counts["fingerprints"] <= counts["children"] + 2 * s1.r
        assert counts["children"] > 0

    def test_no_undo_child_built(self, monkeypatch):
        # an orbit of 60 systems enumerated in full: the start builds a child
        # per slide and every later system one fewer, the slide that undoes
        # its last move giving back its parent; the result is the reference's
        slides = []
        slide_ = systems._slide_pair

        def counting_slide(*args):
            slides.append(args)
            return slide_(*args)

        u = lambda text: parse_braid(text, 4)  # noqa: E731
        rest = (u("3"), u("-1"), u("-3"))
        s1 = BraidSystem(4, (u("1"), u("1")) + rest)
        s2 = BraidSystem(4, (u("2 1 -2"), u("2 -1 -2 1 1")) + rest)
        expected = reference_hurwitz_search(s1, s2)
        monkeypatch.setattr(systems, "_slide_pair", counting_slide)
        result = hurwitz_search(s1, s2)
        assert result == expected
        assert (result.reason, result.explored) == ("orbit enumerated", 60)
        menu = 2 * (s1.r - 1)
        assert len(slides) == menu + (menu - 1) * (result.explored - 1)

    def test_no_system_built_per_child(self, monkeypatch):
        # the search slides entry forms: it builds no BraidSystem for the
        # hundreds of systems it reaches
        s1 = BraidSystem(4, tuple(parse_braid(t, 4) for t in ("1", "2", "3", "-1", "2")))
        s2 = apply_slides(s1, [(1, False), (3, False), (2, True), (4, False), (1, True)])
        built = []
        post_init = BraidSystem.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BraidSystem, "__post_init__", counting_post_init)
        result = hurwitz_search(s1, s2)
        assert (result.status, result.explored) == (HurwitzStatus.EQUIVALENT, 465)
        assert built == []

    def test_fingerprint_guard_answers_unknown(self):
        # the 14th pair of this draw slides a plain word into conjugates whose
        # fingerprint passes the guard before the target is reached
        rng = random.Random(809)
        for _ in range(14):
            s1 = random_system(rng, 4, 5)
            s2 = apply_slides(s1, [(rng.randint(1, 4), rng.random() < 0.5) for _ in range(3)])
        result = hurwitz_search(s1, s2)
        assert result.status is HurwitzStatus.UNKNOWN
        assert result.reason == "free-group fingerprint grew past 1000000 letters"
        assert 0 < result.explored < DEFAULT_SEARCH_BUDGET
        # explored counts every system the whole-system fingerprint search
        # yields before it meets the guard
        short = reference_hurwitz_search(s1, s2, result.explored - 1)
        assert (short.reason, short.explored) == ("budget exhausted", result.explored - 1)
        with pytest.raises(BudgetError):
            reference_hurwitz_search(s1, s2, result.explored)


class TestInvariants:
    def test_plat_euler_characteristic(self):
        s = BraidSystem(4, (parse_braid("1", 4), parse_braid("2", 4)))
        assert plat_euler_characteristic(s) == 2
        with pytest.raises(ValueError):
            plat_euler_characteristic(BraidSystem(3, ()))

    def test_branch_signs(self):
        s = BraidSystem(
            2,
            (
                MonodromyEntry(BraidWord.identity(2), 1, 1),
                MonodromyEntry(BraidWord.identity(2), 1, -1),
                MonodromyEntry(BraidWord.identity(2), 1, 1),
            ),
        )
        assert branch_signs(s) == (2, 1)
        with pytest.raises(ValueError):
            branch_signs(BraidSystem(2, (parse_braid("1", 2),)))

    def test_classify_degree_two(self):
        empty = BraidSystem(2, ())
        assert classify_degree_two(empty) == SurfaceType(0, 0)
        assert str(classify_degree_two(empty)) == "Trivial2Knot"
        one = BraidSystem(2, (parse_braid("1", 2),))
        assert str(classify_degree_two(one)) == "NonorientableSum(1,0)"
        mixed = BraidSystem(
            2,
            (
                MonodromyEntry(parse_braid("1 1", 2), 1, -1),
                parse_braid("1", 2),
                parse_braid("1 1 -1", 2),
            ),
        )
        assert classify_degree_two(mixed) == SurfaceType(2, 1)

    def test_classify_rejects_bad_input(self):
        with pytest.raises(ValueError):
            classify_degree_two(BraidSystem(3, ()))
        with pytest.raises(ValueError):
            classify_degree_two(BraidSystem(2, (parse_braid("1 1 1", 2),)))

    def test_normal_euler_number_degree_two(self):
        s = BraidSystem(2, (parse_braid("1", 2), parse_braid("-1", 2)))
        assert normal_euler_number(s) == 0
        t = BraidSystem(2, (parse_braid("1", 2), parse_braid("1", 2)))
        assert normal_euler_number(t) == 4  # 2(p - q) with p=2, q=0

    def test_normal_euler_number_closed_factored(self):
        e = MonodromyEntry(parse_braid("2", 4), 1, 1)
        s = BraidSystem(4, (e, e.inverse()))
        assert is_two_dimensional(s)
        assert normal_euler_number(s) == 0

    def test_normal_euler_number_undetermined(self):
        s = BraidSystem(4, (parse_braid("1", 4), parse_braid("-1", 4)))
        assert normal_euler_number(s) is None
        t = BraidSystem(4, (MonodromyEntry(BraidWord.identity(4), 1, 1),))
        assert normal_euler_number(t) is None


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err), str(err)


def _reference_classify(system: BraidSystem) -> SurfaceType:
    if system.degree != 2:
        raise ValueError("classification applies to degree-2 systems")
    signs = [exponent_sum(entry_word(e)) for e in system.entries]
    for s in signs:
        if s not in (1, -1):
            raise ValueError(f"entry is not a single-crossing conjugate (exponent sum {s})")
    return SurfaceType(signs.count(1), signs.count(-1))


def _reference_branch_signs(system: BraidSystem) -> tuple[int, int]:
    if not all(isinstance(e, MonodromyEntry) for e in system.entries):
        raise ValueError("branch signs need monodromy-factored entries")
    signs = [e.sign for e in system.entries]
    return signs.count(1), signs.count(-1)


def _reference_normal_euler(system: BraidSystem) -> int | None:
    if system.degree == 2:
        t = _outcome(_reference_classify, system)
        if isinstance(t, SurfaceType):
            return 2 * (t.positive - t.negative)
    factored = all(isinstance(e, MonodromyEntry) for e in system.entries)
    return 0 if factored and is_two_dimensional(system) else None


def _reference_genuine(system: BraidSystem) -> BraidSystem:
    if not is_two_dimensional(system):
        raise OpenSystemError("only closed (two-dimensional) systems convert to plats")
    n = 2 * system.degree
    delta = staircase(system.degree)
    entries = [
        MonodromyEntry(delta * embed(e.conjugator, n), e.index, e.sign)
        if isinstance(e, MonodromyEntry)
        else delta * embed(e, n) * delta.inverse()
        for e in system.entries
    ]
    return BraidSystem(n, tuple(entries))


def _reference_motion(system: BraidSystem) -> MotionPicture:
    n = system.degree
    words = [entry_word(e) for e in system.entries]
    levels = []
    for k in range(system.r, -1, -1):
        marks = ()
        if k:
            e = system.entries[k - 1]
            if isinstance(e, MonodromyEntry):
                marks = (BandMark(e.index, e.sign, "branch"),)
            else:
                marks = (BandMark(abs(e.letters[0]) if e.letters else 1, 1, "branch"),)
        section = product(words[:k], strands=n).free_reduced()
        levels.append(Still(f"level {k}", n, section, bands=marks))
    ident, wickets = BraidWord.identity(n), Pairing.standard(n // 2).pairs()
    return MotionPicture(
        (Still("caps", n, ident, caps=wickets), *levels, Still("cups", n, ident, cups=wickets))
    )


def closed_system(rng: random.Random, degree: int, half: int) -> BraidSystem:
    """A random system followed by its entries' inverses in reverse, then slid about."""
    entries = random_system(rng, degree, half).entries
    system = BraidSystem(degree, entries + tuple(e.inverse() for e in reversed(entries)))
    if system.r < 2:
        return system
    moves = [(rng.randint(1, system.r - 1), rng.random() < 0.5) for _ in range(3)]
    return apply_slides(system, moves)


class TestEntryForms:
    """The invariants, the genuine plat and the motion read each entry's form;
    seeded against reference code on entry words and factored fields."""

    def systems(self):
        rng = random.Random(34)
        for degree in (2, 2, 3, 4):
            for _ in range(25):
                yield random_system(rng, degree, rng.randint(0, 5))
                yield closed_system(rng, degree, rng.randint(0, 3))
        # degree-2 entries of exponent sum +-1, factored or written out, classify
        for _ in range(25):
            entries = [
                MonodromyEntry(random_word(rng, 2, rng.randint(0, 3)), 1, rng.choice((1, -1)))
                for _ in range(rng.randint(0, 4))
            ]
            entries = [e if rng.random() < 0.5 else e.word() for e in entries]
            yield BraidSystem(2, tuple(entries))

    def test_mixed_forms_are_drawn(self):
        systems = list(self.systems())
        kinds = [{isinstance(e, MonodromyEntry) for e in s.entries} for s in systems]
        assert sum(k == {True, False} for k in kinds) >= 50
        assert sum(1 for s in systems if s.r and is_two_dimensional(s)) >= 50
        classified = [_outcome(classify_degree_two, s) for s in systems if s.r and s.degree == 2]
        assert sum(isinstance(t, SurfaceType) for t in classified) >= 20

    def test_invariants_match_the_reference(self):
        for s in self.systems():
            assert _outcome(branch_signs, s) == _outcome(_reference_branch_signs, s)
            assert normal_euler_number(s) == _reference_normal_euler(s)
            if s.degree == 2:
                assert _outcome(classify_degree_two, s) == _outcome(_reference_classify, s)

    def test_genuine_plat_matches_the_reference_letter_for_letter(self):
        for s in self.systems():
            got, want = _outcome(to_genuine_plat, s), _outcome(_reference_genuine, s)
            assert got == want
            if isinstance(got, BraidSystem):
                assert [type(e) for e in got.entries] == [type(e) for e in s.entries]

    def test_motion_matches_the_reference_still_for_still(self):
        for s in self.systems():
            if s.degree % 2 == 0:
                assert system_motion(s) == _reference_motion(s)


class TestGenuinePlat:
    def test_staircase(self):
        assert staircase(1).letters == ()
        assert staircase(2).letters == (2, 1)
        assert staircase(3).letters == (2, 1, 4, 3, 2, 1)
        with pytest.raises(ValueError):
            staircase(0)

    def test_requires_closed_system(self):
        with pytest.raises(ValueError):
            to_genuine_plat(BraidSystem(2, (parse_braid("1", 2),)))

    def test_empty_system(self):
        out = to_genuine_plat(BraidSystem(3, ()))
        assert out.degree == 6
        assert out.r == 0

    def test_degree_two_pair(self):
        e = MonodromyEntry(BraidWord.identity(2), 1, 1)
        s = BraidSystem(2, (e, e.inverse()))
        out = to_genuine_plat(s)
        assert out.degree == 4
        delta = staircase(2)
        for got, src in zip(out.words(), s.words()):
            expected = delta * parse_braid(src.text(), 4) * delta.inverse()
            assert braids_equal(got, expected)
        assert is_two_dimensional(out)
        assert all(isinstance(e, MonodromyEntry) for e in out.entries)
        assert [e.index for e in out.entries] == [1, 1]
        assert [e.sign for e in out.entries] == [1, -1]

    def test_preserves_entry_count_and_euler(self):
        rng = random.Random(81)
        for _ in range(15):
            m = rng.randint(1, 3)
            entries = []
            for _ in range(rng.randint(0, 2)):
                if m == 1:
                    break
                w = random_word(rng, m, rng.randint(1, 3))
                entries.extend([w, w.inverse()])
            s = BraidSystem(m, tuple(entries))
            out = to_genuine_plat(s)
            assert out.r == s.r
            assert plat_euler_characteristic(out) == 2 * m - s.r

    def test_letter_limit(self, monkeypatch):
        # the limit counts the letters the converted entries hold: one
        # staircase in a factored entry's conjugator, two around a plain one
        e = MonodromyEntry(parse_braid("1", 3), 2, 1)
        w = parse_braid("1 2", 3)
        s = BraidSystem(3, (e, e.inverse(), w, w.inverse()))
        out = to_genuine_plat(s)
        letters = sum(
            len(x.conjugator) if isinstance(x, MonodromyEntry) else len(x)
            for x in out.entries
        )
        assert letters == 2 * (6 + 1) + 2 * (12 + 2)
        monkeypatch.setattr(systems, "MAX_GENUINE_LETTERS", letters)
        assert to_genuine_plat(s) == out
        monkeypatch.setattr(systems, "MAX_GENUINE_LETTERS", letters - 1)
        with pytest.raises(BudgetError, match=f"needs {letters} letters"):
            to_genuine_plat(s)


class TestRibbon:
    def test_symmetric_pair(self):
        u = parse_braid("2 -1", 3)
        w = u * parse_braid("1", 3) * u.inverse()
        s = BraidSystem(3, (w, w.inverse()))
        assert ribbon_criterion(s)

    def test_rejects_non_symmetric(self):
        s = BraidSystem(2, (parse_braid("1", 2), parse_braid("1", 2)))
        assert not ribbon_criterion(s)

    def test_rejects_wrong_entry_count(self):
        assert not ribbon_criterion(BraidSystem(2, ()))
        assert not ribbon_criterion(BraidSystem(2, (parse_braid("1", 2),) * 3))


class TestSerialization:
    def test_round_trip_mixed(self):
        s = BraidSystem(
            3,
            (
                parse_braid("1 2", 3),
                MonodromyEntry(parse_braid("-2", 3), 1, -1),
            ),
        )
        back = system_from_json(system_to_json(s))
        assert back == s

    def test_promote_factors_mirror_words(self):
        text = system_to_json(BraidSystem(3, (parse_braid("2 1 -2", 3),)))
        plain = system_from_json(text)
        assert isinstance(plain.entries[0], BraidWord)
        promoted = system_from_json(text, promote=True)
        assert isinstance(promoted.entries[0], MonodromyEntry)
        assert promoted.entries[0].index == 1

    def test_json_is_deterministic(self):
        s = BraidSystem(2, (parse_braid("1", 2),))
        assert system_to_json(s) == system_to_json(s)
