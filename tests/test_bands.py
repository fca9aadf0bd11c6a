"""Banded braids, surgery, admissibility, and the surface compiler."""

import random
from fractions import Fraction

import pytest

import platkit.bands as bands
from platkit.bands import (
    Band,
    BandedBraid,
    BraidedSurfacePlan,
    CertificateError,
    Certificates,
    PlanBand,
    StripRecord,
    _compositions,
    _deletion_events,
    admissibility_report,
    band_surgery,
    banded_from_json,
    banded_from_obj,
    banded_to_json,
    banded_to_obj,
    certificates_from_obj,
    certificates_to_obj,
    compile_surface,
    plan_from_json,
    plan_from_obj,
    plan_to_json,
    plan_to_obj,
    realizing_euler_characteristic,
    search_certificates,
    stabilized_copy,
    surgery_events,
)
from platkit.hilden import HildenExpression, expand_expression
from platkit.motion import plan_motion
from platkit.plats import Triviality, component_count, plat_closure
from platkit.stabilize import (
    StabilizationProfile,
    _tail_with_events,
    stabilization_tail,
    stabilize_by_profile,
    swap_chain,
)
from platkit.systems import is_two_dimensional, system_from_obj
from platkit.words import BraidWord, BudgetError, _insert, braids_equal, parse_braid, product


@pytest.fixture(autouse=True)
def compiled_boundaries_checked(request, monkeypatch):
    """Every plan the module compiles has as boundary its four factors multiplied out."""

    def checked(bb, certs):
        plan = bands.compile_surface(bb, certs)
        assert plan.boundary == product([expand_expression(f) for f in plan.boundary_factors])
        return plan

    monkeypatch.setattr(request.module, "compile_surface", checked)


def trivial_certs(profile, profile1, profile2, **sides) -> Certificates:
    m = StabilizationProfile.parse(profile).total
    empty = HildenExpression(m)
    return Certificates(
        profile=StabilizationProfile.parse(profile),
        profile1=StabilizationProfile.parse(profile1),
        profile2=StabilizationProfile.parse(profile2),
        gamma=sides.get("gamma", empty),
        gamma_prime=sides.get("gamma_prime", empty),
        delta=sides.get("delta", empty),
        delta_prime=sides.get("delta_prime", empty),
    )


TOY = BandedBraid(BraidWord.identity(4), (Band(2, 1, Fraction(1, 2)),))
TOY_CERTS = trivial_certs("0,0", "0,0", "1")


class TestBand:
    def test_validation(self):
        with pytest.raises(ValueError):
            Band(1, 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            Band(1, 1, Fraction(0))
        with pytest.raises(ValueError):
            Band(1, 1, Fraction(3, 2))

    def test_float_times_become_exact_decimals(self):
        assert Band(1, 1, 0.3).time == Fraction(3, 10)
        assert Band(1, 1, 0.5).time == Fraction(1, 2)

    def test_slot_and_sign_stored_as_plain_ints(self):
        band = Band(True, True, Fraction(1, 2))
        assert (type(band.slot), type(band.sign)) == (int, int)
        bb = BandedBraid(BraidWord.identity(4), (Band(2, True, Fraction(1, 2)),))
        assert banded_from_obj(banded_to_obj(bb)) == bb
        for slot, sign in ((2.0, 1), ("2", 1), (2, 1.0), (2, "1")):
            with pytest.raises(ValueError, match="is not an integer"):
                Band(slot, sign, Fraction(1, 2))


    def test_time_text_read_by_one_rule(self):
        # the reader's rule: exponent notation is refused before Fraction
        # expands the power of ten, and a zero denominator is bad input
        with pytest.raises(ValueError, match="must be an integer, p/q or a plain decimal"):
            Band(2, 1, "1e-2000000")
        with pytest.raises(ValueError, match="divides by zero"):
            Band(2, 1, "1/0")
        for raw in (None, [1, 2], {"p": 1}):
            with pytest.raises(ValueError, match="band time"):
                Band(2, 1, raw)
        assert Band(2, 1, "1/2").time == Band(2, 1, ".5").time == Fraction(1, 2)
        with pytest.raises(ValueError, match="band time None"):
            banded_from_obj({"strands": 4, "bands": [{"slot": 2, "sign": 1, "time": None}]})

    @pytest.mark.parametrize("raw", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_time_is_not_a_number(self, raw):
        with pytest.raises(ValueError, match=f"^band time {raw!r} is not a number$"):
            Band(2, 1, raw)


class TestBandedBraid:
    def test_even_strands(self):
        with pytest.raises(ValueError):
            BandedBraid(BraidWord.identity(3))

    def test_slot_range(self):
        with pytest.raises(ValueError):
            BandedBraid(BraidWord.identity(4), (Band(4, 1, Fraction(1, 2)),))

    def test_distinct_times(self):
        with pytest.raises(ValueError):
            BandedBraid(
                BraidWord.identity(4),
                (Band(1, 1, Fraction(1, 2)), Band(2, 1, Fraction(1, 2))),
            )

    def test_bands_sorted_by_time(self):
        bb = BandedBraid(
            BraidWord.identity(4),
            (Band(1, 1, Fraction(2, 3)), Band(2, 1, Fraction(1, 3))),
        )
        assert [b.slot for b in bb.bands] == [2, 1]


class TestSurgery:
    def test_insertion_heights(self):
        # base letters sit at 1/3 and 2/3; bands fall into the gaps
        base = parse_braid("1 1", 2)
        for time, expected in ((Fraction(1, 4), 0), (Fraction(1, 2), 1), (Fraction(9, 10), 2)):
            bb = BandedBraid(base, (Band(1, -1, time),))
            assert surgery_events(bb) == [(expected, -1)]

    def test_letter_height_counts_as_below(self):
        bb = BandedBraid(parse_braid("1 1", 2), (Band(1, 1, Fraction(1, 3)),))
        assert surgery_events(bb) == [(1, 1)]

    def test_toy_surgery(self):
        assert band_surgery(TOY).text() == "2"

    def test_no_bands(self):
        base = parse_braid("2", 4)
        assert band_surgery(BandedBraid(base)) == base

    def test_stacked_bands_keep_time_order(self):
        bb = BandedBraid(
            BraidWord.identity(2),
            (Band(1, 1, Fraction(1, 3)), Band(1, -1, Fraction(2, 3))),
        )
        assert band_surgery(bb).letters == (1, -1)
        assert braids_equal(band_surgery(bb), BraidWord.identity(2))


def surgery_by_list_insert(bb: BandedBraid) -> tuple[int, ...]:
    """The surgered letters as one ``list.insert`` per band event, in time order."""
    letters = list(bb.base.letters)
    for pos, letter in surgery_events(bb):
        letters.insert(pos, letter)
    return tuple(letters)


class TestInsert:
    def test_no_events(self):
        assert _insert((), []) == ()
        assert _insert((1, -2, 3), []) == (1, -2, 3)

    def test_events_at_both_ends(self):
        assert _insert((1, 2), [(0, 5), (3, 6)]) == (5, 1, 2, 6)
        assert _insert((1, 2), [(0, 5), (1, 6), (4, 7), (5, 8)]) == (5, 6, 1, 2, 7, 8)
        assert _insert((), [(0, 4), (1, 5)]) == (4, 5)

    def test_band_surgery_matches_list_insert(self):
        # several bands share a gap: each lands after the ones below it
        rng = random.Random(27)
        for _ in range(200):
            strands = 2 * rng.randint(1, 4)
            length = rng.randint(0, 8)
            letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
            base = BraidWord(strands, tuple(letters))
            gaps = [rng.randint(0, length) for _ in range(rng.randint(1, 3))]
            bands = []
            for gap in gaps + gaps[:1]:
                rank = len(bands) + 1
                time = Fraction(gap, length + 1) + Fraction(rank, 8 * (length + 1))
                bands.append(Band(rng.randint(1, strands - 1), rng.choice((1, -1)), time))
            bb = BandedBraid(base, tuple(bands))
            assert band_surgery(bb).letters == surgery_by_list_insert(bb)


class TestStabilizedCopy:
    def test_commutes_with_surgery(self):
        rng = random.Random(91)
        for _ in range(25):
            m = rng.randint(1, 2)
            length = rng.randint(0, 5)
            letters = tuple(
                rng.randint(1, 2 * m - 1) * rng.choice((1, -1)) for _ in range(length)
            )
            base = BraidWord(2 * m, letters)
            times = rng.sample(range(1, 20), k=rng.randint(0, 3))
            bands = tuple(
                Band(rng.randint(1, 2 * m - 1), rng.choice((1, -1)), Fraction(t, 20))
                for t in times
            )
            bb = BandedBraid(base, bands)
            profile = StabilizationProfile(tuple(rng.randint(0, 1) for _ in range(m)))
            lhs = band_surgery(stabilized_copy(bb, profile))
            rhs = stabilize_by_profile(band_surgery(bb), profile)
            assert lhs.letters == rhs.letters

    def test_band_data_preserved(self):
        copied = stabilized_copy(TOY, StabilizationProfile((0, 1)))
        assert len(copied.bands) == 1
        assert copied.bands[0].slot == 2
        assert copied.bands[0].sign == 1


class TestAdmissibility:
    def test_toy_admissible(self):
        report = admissibility_report(TOY)
        assert report.admissible
        assert report.base_components == 2
        assert report.surgered_components == 1

    def test_no_bands_admissible(self):
        report = admissibility_report(BandedBraid(BraidWord.identity(2)))
        assert report.admissible

    def test_knotted_base_rejected(self):
        bb = BandedBraid(parse_braid("2 2 2", 4))
        report = admissibility_report(bb)
        assert not report.admissible
        assert report.base_verdict is Triviality.NOT_TRIVIAL

    def test_knotted_surgery_rejected(self):
        bb = BandedBraid(
            BraidWord.identity(4),
            tuple(Band(2, 1, Fraction(k, 4)) for k in (1, 2, 3)),
        )
        report = admissibility_report(bb)
        assert not report.admissible
        assert report.base_verdict is Triviality.CONSISTENT_WITH_TRIVIAL
        assert report.surgered_verdict is Triviality.NOT_TRIVIAL

    def test_realizing_euler_characteristic(self):
        assert realizing_euler_characteristic(TOY) == 2
        assert realizing_euler_characteristic(BandedBraid(BraidWord.identity(2))) == 2
        two_bands = BandedBraid(
            BraidWord.identity(2),
            (Band(1, 1, Fraction(1, 3)), Band(1, -1, Fraction(2, 3))),
        )
        assert realizing_euler_characteristic(two_bands) == 0


def tail_oracle(profile: StabilizationProfile) -> BraidWord:
    """The tail as the product of its conjugated blocks, from the public swap chains."""
    m, strands = profile.pairs, 2 * profile.total
    blocks = []
    lo = m
    for i, count in enumerate(profile.entries, start=1):
        if count:
            chain = swap_chain(i, lo - 1, m, strands)
            run = BraidWord(strands, tuple(2 * k for k in range(lo, lo + count)))
            blocks.append(chain * run * chain.inverse())
        lo += count
    return product(blocks, strands=strands)


class TestTailEvents:
    def test_replay_matches_tail(self):
        rng = random.Random(92)
        profiles = [
            StabilizationProfile(t)
            for t in [
                (1,),
                (2,),
                (1, 0),
                (0, 1),
                (1, 1),
                (2, 0),
                (1, 0, 1),
                (0, 2, 1),
            ]
        ]
        for _ in range(10):
            m = rng.randint(1, 3)
            profiles.append(
                StabilizationProfile(tuple(rng.randint(0, 2) for _ in range(m)))
            )
        for profile in profiles:
            tail = stabilization_tail(profile)
            scaffold, events = _tail_with_events(profile)
            strands = 2 * profile.total
            assert tail == tail_oracle(profile)
            assert braids_equal(
                BraidWord(strands, tuple(scaffold)), BraidWord.identity(strands)
            )
            rebuilt = list(scaffold)
            for pos, letter in events:
                rebuilt.insert(pos, letter)
            assert tuple(rebuilt) == tail.letters
            # deletion events peel the same tail back to the scaffold
            peeled = list(tail.letters)
            for pos in _deletion_events(profile):
                del peeled[pos]
            assert tuple(peeled) == tuple(scaffold)


class TestCompile:
    def test_toy_plan(self):
        plan = compile_surface(TOY, TOY_CERTS)
        assert plan.degree == 4
        assert plan.chi == 2
        assert [s.name for s in plan.strips] == ["E0", "E1", "E2", "E3", "E4", "E5", "E6"]
        points = [(e.conjugator.text(), e.index, e.sign) for e in plan.branch_points]
        assert points == [("", 2, 1), ("", 2, -1)]
        assert plan.positive_branch_points == 1
        assert plan.negative_branch_points == 1
        assert plan.boundary.letters == ()
        assert is_two_dimensional(plan.as_system())

    def test_toy_strip_details(self):
        plan = compile_surface(TOY, TOY_CERTS)
        by_name = {s.name: s for s in plan.strips}
        e3 = by_name["E3"]
        assert [(b.slot, b.sign, b.position, b.kind) for b in e3.bands] == [
            (2, 1, 0, "surgery")
        ]
        e5 = by_name["E5"]
        assert [(b.slot, b.sign, b.kind) for b in e5.bands] == [(2, -1, "stabilize_top")]
        assert by_name["E1"].bands == ()
        assert by_name["E2"].left is not None and by_name["E2"].right is not None

    def test_bottom_stabilization_branch_point(self):
        # base sigma2 with a cancelling band: the first side needs a new pair
        bb = BandedBraid(parse_braid("2", 4), (Band(2, -1, Fraction(1, 2)),))
        certs = trivial_certs("0,0", "1", "0,0")
        plan = compile_surface(bb, certs)
        points = [(e.conjugator.text(), e.index, e.sign) for e in plan.branch_points]
        assert points == [("", 2, 1), ("", 2, -1)]
        kinds = [b.kind for s in plan.strips for b in s.bands]
        assert kinds == ["stabilize_bottom", "surgery"]
        assert plan.chi == 2

    def test_projective_plane(self):
        bb = BandedBraid(BraidWord.identity(2), (Band(1, 1, Fraction(1, 2)),))
        certs = trivial_certs("0", "0", "0", delta=HildenExpression(1, ((0, 1),)))
        plan = compile_surface(bb, certs)
        assert plan.chi == 1
        assert len(plan.branch_points) == 1
        assert plan.branch_points[0].sign == 1
        assert plan.boundary.letters == (1,)
        assert not is_two_dimensional(plan.as_system())

    def test_certificate_failures(self):
        with pytest.raises(CertificateError, match="side profiles"):
            compile_surface(BandedBraid(parse_braid("2 2 2", 4)), TOY_CERTS)
        with pytest.raises(CertificateError, match="profile must have"):
            compile_surface(TOY, trivial_certs("0", "0,0", "1"))
        with pytest.raises(CertificateError, match="side profiles"):
            compile_surface(TOY, trivial_certs("0,0", "1", "1"))
        with pytest.raises(CertificateError, match="same size"):
            compile_surface(TOY, trivial_certs("0,0", "0,0", "2"))
        with pytest.raises(CertificateError, match="first side certificate"):
            bad = trivial_certs("0,0", "0,0", "1", gamma=HildenExpression(2, ((0, 1),)))
            compile_surface(TOY, bad)
        with pytest.raises(CertificateError, match="second side certificate"):
            bad = trivial_certs("0,0", "0,0", "1", delta=HildenExpression(2, ((0, 1),)))
            compile_surface(TOY, bad)
        with pytest.raises(CertificateError, match="pairs"):
            bad = trivial_certs("0,0", "0,0", "1", gamma=HildenExpression(3))
            compile_surface(TOY, bad)

    def test_certificates_past_the_bracket_budget(self):
        # the twist is over DEFAULT_BRACKET_BUDGET; its certificate alone proves
        # the plat trivial, so compiling it evaluates no bracket
        bb = BandedBraid(BraidWord(2, (1,) * 26))
        twist = HildenExpression(1, ((0, 1),) * 26)
        plan = compile_surface(bb, trivial_certs("0", "0", "0", gamma=twist, delta=twist))
        assert (plan.degree, plan.chi, plan.branch_points) == (2, 2, ())

    def test_plan_size_limit(self, monkeypatch):
        import platkit.bands

        # letters: the surgered word and the second tail; events: one band
        # and the second tail's new pair.  2 * (2 + 2) = 8
        monkeypatch.setattr(platkit.bands, "MAX_PLAN_SIZE", 8)
        compile_surface(TOY, TOY_CERTS)
        monkeypatch.setattr(platkit.bands, "MAX_PLAN_SIZE", 7)
        with pytest.raises(BudgetError, match="size 8, over the limit of 7"):
            compile_surface(TOY, TOY_CERTS)

    def test_long_words_stop_before_the_side_checks(self):
        # the word problem on sigma1^k sigma2^-k takes time quadratic in k
        k = 1024
        bb = BandedBraid(BraidWord(4, (1,) * k + (-2,) * k))
        with pytest.raises(BudgetError, match=f"size {4096 * 4096},"):
            compile_surface(bb, trivial_certs("0,0", "0,0", "0,0"))

    def compile_cases(self):
        two_bands_b2 = BandedBraid(
            BraidWord.identity(2),
            (Band(1, 1, Fraction(1, 3)), Band(1, -1, Fraction(2, 3))),
        )
        two_bands_b4 = BandedBraid(
            BraidWord.identity(4),
            (Band(2, 1, Fraction(1, 3)), Band(2, -1, Fraction(2, 3))),
        )
        cancelling = BandedBraid(parse_braid("2", 4), (Band(2, -1, Fraction(1, 2)),))
        projective = BandedBraid(BraidWord.identity(2), (Band(1, 1, Fraction(1, 2)),))
        return [
            (TOY, TOY_CERTS),
            (two_bands_b2, trivial_certs("0", "0", "0")),
            (two_bands_b4, trivial_certs("0,0", "0,0", "0,0")),
            (cancelling, trivial_certs("0,0", "1", "0,0")),
            (
                projective,
                trivial_certs("0", "0", "0", delta=HildenExpression(1, ((0, 1),))),
            ),
        ]

    def test_branch_product_is_boundary(self):
        for bb, certs in self.compile_cases():
            plan = compile_surface(bb, certs)
            n = plan.degree
            prod = product([e.word() for e in plan.branch_points], strands=n)
            assert braids_equal(prod, plan.boundary)
            factors = product(
                [expand_expression(e) for e in plan.boundary_factors], strands=n
            )
            assert braids_equal(factors, plan.boundary)

    def test_boundary_is_its_factors_letter_for_letter(self):
        # a two-band surface on 6 strands whose certificates have non-empty sides
        seeded = BandedBraid(
            parse_braid("4 5 -3 -4 2 1 3 2", 6),
            (Band(1, 1, Fraction(1, 3)), Band(4, 1, Fraction(2, 3))),
        )
        seeded_certs = certificates_from_obj({
            "profile": "0,0,0", "profile1": "0,0,0", "profile2": "0,1",
            "gamma": "m=3", "gamma_prime": "m=3 g3^-1 g1",
            "delta": "m=3 g3^-1", "delta_prime": "m=3 g0 g1",
        })
        for bb, certs in self.compile_cases() + [(seeded, seeded_certs)]:
            plan = compile_surface(bb, certs)
            expanded = [g for f in plan.boundary_factors for g in expand_expression(f).letters]
            assert plan.boundary.letters == tuple(expanded)

    def test_chi_matches_realizing(self):
        for bb, certs in self.compile_cases():
            plan = compile_surface(bb, certs)
            assert plan.chi == realizing_euler_characteristic(bb)

    def test_strip_relations(self):
        for bb, certs in self.compile_cases():
            plan = compile_surface(bb, certs)
            by_name = {s.name: s for s in plan.strips}
            for name in ("E0", "E6"):
                strip = by_name[name]
                assert braids_equal(strip.bottom, strip.top)
            for name in ("E2", "E4"):
                strip = by_name[name]
                expected = strip.left.inverse() * strip.bottom * strip.right
                assert braids_equal(strip.top, expected)

    def test_surgery_bands_carry_signs(self):
        for bb, certs in self.compile_cases():
            plan = compile_surface(bb, certs)
            marks = [
                b for s in plan.strips for b in s.bands if b.kind == "surgery"
            ]
            assert [(b.slot, b.sign) for b in marks] == [
                (b.slot, b.sign) for b in bb.bands
            ]

    def test_branch_point_count(self):
        for bb, certs in self.compile_cases():
            plan = compile_surface(bb, certs)
            m = certs.profile.total
            c1 = certs.profile1.pairs
            c2 = certs.profile2.pairs
            expected = (m - c1) + len(bb.bands) + (m - c2)
            assert len(plan.branch_points) == expected


def reference_compositions(total, parts):
    """The recursive enumeration ``bands._compositions`` replaced."""
    if parts == 1:
        return [(total,)]
    return [
        (head,) + rest
        for head in range(total + 1)
        for rest in reference_compositions(total - head, parts - 1)
    ]


class TestSearch:
    def test_compositions_match_the_recursive_order(self):
        for total in range(8):
            for parts in range(1, 6):
                assert _compositions(total, parts) == reference_compositions(total, parts)

    def test_toy_search(self):
        certs = search_certificates(TOY, 2)
        assert certs is not None
        obj = certificates_to_obj(certs)
        assert obj == {
            "profile": "0,0",
            "profile1": "0,0",
            "profile2": "1",
            "gamma": "m=2",
            "gamma_prime": "m=2",
            "delta": "m=2",
            "delta_prime": "m=2",
        }
        compile_surface(TOY, certs)

    def test_trivial_banded_braid(self):
        certs = search_certificates(BandedBraid(BraidWord.identity(2)), 1)
        assert certs is not None
        assert certs.profile.text() == "0"
        assert certs.gamma.factors == ()

    def test_projective_search(self):
        bb = BandedBraid(BraidWord.identity(2), (Band(1, 1, Fraction(1, 2)),))
        certs = search_certificates(bb, 1)
        assert certs is not None
        plan = compile_surface(bb, certs)
        assert plan.chi == 1

    def test_bound_too_small_is_cheap(self):
        # the pair floor test runs before any admissibility work
        big = BandedBraid(parse_braid("2 2 2", 4))
        assert search_certificates(big, 0) is None
        assert search_certificates(TOY, 1) is None

    def test_inadmissible_raises(self):
        with pytest.raises(ValueError, match="not admissible"):
            search_certificates(BandedBraid(parse_braid("2 2 2", 4)), 2)

    def test_side_search_builds_few_words(self, monkeypatch):
        # the side search runs on letter tuples: only the stabilized words and
        # tails are built as BraidWords, not every candidate (49603 before)
        two_bands = banded_from_obj({
            "strands": 8,
            "base": "1 3 5 7",
            "bands": [
                {"slot": 2, "sign": 1, "time": "1/2"},
                {"slot": 6, "sign": -1, "time": "1/3"},
            ],
        })
        built = [0]
        post_init = BraidWord.__post_init__

        def counting_post_init(word):
            built[0] += 1
            post_init(word)

        monkeypatch.setattr(BraidWord, "__post_init__", counting_post_init)
        assert search_certificates(two_bands, 5) is None
        assert 0 < built[0] < 2000

    def test_found_certificates_always_compile(self):
        cases = [
            TOY,
            BandedBraid(
                BraidWord.identity(2),
                (Band(1, 1, Fraction(1, 3)), Band(1, -1, Fraction(2, 3))),
            ),
            BandedBraid(parse_braid("2", 4), (Band(2, -1, Fraction(1, 2)),)),
        ]
        for bb in cases:
            certs = search_certificates(bb, 2)
            assert certs is not None
            plan = compile_surface(bb, certs)
            assert plan.chi == realizing_euler_characteristic(bb)


class TestSerialization:
    def test_banded_round_trip(self):
        text = banded_to_json(TOY)
        assert banded_from_json(text) == TOY

    def test_banded_time_formats(self):
        bb = banded_from_json(
            '{"strands": 2, "base": "", "bands": [{"slot": 1, "sign": 1, "time": 0.3},'
            ' {"slot": 1, "sign": -1, "time": "2/3"}]}'
        )
        assert [b.time for b in bb.bands] == [Fraction(3, 10), Fraction(2, 3)]

    def test_certificates_round_trip(self):
        certs = trivial_certs("0,0", "0,0", "1", gamma=HildenExpression(2, ((0, 1), (1, -1))))
        assert certificates_from_obj(certificates_to_obj(certs)) == certs

    def test_plan_round_trip(self):
        for bb, certs in TestCompile().compile_cases():
            plan = compile_surface(bb, certs)
            assert plan_from_json(plan_to_json(plan)) == plan

    @staticmethod
    def toy_plan_with(band: PlanBand) -> BraidedSurfacePlan:
        """The toy plan with ``band`` as the one band of strip E1."""
        plan = compile_surface(TOY, TOY_CERTS)
        strip = plan.strips[1]
        strip = StripRecord(strip.name, strip.bottom, strip.top, strip.left, strip.right, (band,))
        return BraidedSurfacePlan(
            plan.degree, (plan.strips[0], strip, *plan.strips[2:]), plan.branch_points,
            plan.boundary, plan.boundary_factors, plan.chi, plan.certificates,
        )

    def test_plan_band_fields_stored_as_plain_ints(self):
        band = PlanBand(True, True, False, "surgery")
        assert (band.slot, band.sign, band.position) == (1, 1, 0)
        assert {type(band.slot), type(band.sign), type(band.position)} == {int}
        plan = self.toy_plan_with(band)
        assert plan_from_obj(plan_to_obj(plan)) == plan
        for field in range(3):
            values = [2, 1, 0]
            values[field] = 2.0
            with pytest.raises(ValueError, match="plan band .* is not an integer"):
                PlanBand(*values, "surgery")

    def test_plan_band_sign_and_kind_are_checked_where_they_enter(self):
        # such a band was accepted, and its plan failed at round trip and in plan_motion
        for sign in (5, 0):
            with pytest.raises(ValueError, match=r"^plan band sign must be \+1 or -1$"):
                PlanBand(2, sign, 0, "surgery")
        with pytest.raises(ValueError, match="^'kind' must be of type str, got 7$"):
            PlanBand(2, 1, 0, 7)
        with pytest.raises(ValueError):
            PlanBand(2, 5, 0, 7)
        band = PlanBand(2, True, 0, "surgery")
        assert band.sign == 1 and type(band.sign) is int
        plan = self.toy_plan_with(band)
        assert plan_from_obj(plan_to_obj(plan)) == plan
        (e1,) = [s for s in plan_motion(plan).stills if s.label == "E1"]
        assert [(m.slot, m.sign, m.label) for m in e1.bands] == [(2, 1, "surgery")]

    def test_plan_with_a_non_string_boundary_factor_is_refused(self):
        obj = plan_to_obj(compile_surface(TOY, TOY_CERTS))
        obj["boundary_factors"][0] = 2
        with pytest.raises(ValueError, match="'boundary_factors' must be a list of strings"):
            plan_from_obj(obj)

    def test_malformed_branch_point_reads_like_a_malformed_system_entry(self):
        obj = plan_to_obj(compile_surface(TOY, TOY_CERTS))
        malformed = [
            [2],
            {"index": 2, "sign": 1},
            {"conjugator": 3, "index": 2, "sign": 1},
            {"conjugator": "x", "index": 2, "sign": 1},
            {"conjugator": "", "index": "2", "sign": 1},
            {"conjugator": "", "index": 9, "sign": 1},
            {"conjugator": "", "index": 2, "sign": 0},
        ]
        for bad in malformed:
            with pytest.raises(ValueError) as in_plan:
                plan_from_obj(dict(obj, branch_points=[bad]))
            with pytest.raises(ValueError) as in_system:
                system_from_obj({"degree": obj["degree"], "entries": [bad]})
            assert str(in_plan.value) == str(in_system.value)
