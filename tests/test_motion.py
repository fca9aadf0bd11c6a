"""Motion pictures and their SVG rendering."""

import hashlib
import random
from fractions import Fraction

import pytest

from platkit.bands import Band, BandedBraid, compile_surface
from platkit.motion import (
    BandMark,
    MotionPicture,
    Still,
    motion_from_json,
    motion_from_obj,
    motion_svg,
    motion_to_json,
    plan_motion,
    plat_motion,
    system_motion,
)
from platkit.plats import plat_closure
from platkit.systems import BraidSystem, MonodromyEntry, staircase, to_genuine_plat
from platkit.words import MAX_STRANDS, BraidWord, BudgetError, parse_braid, product

import test_bands
from test_bands import TOY, TOY_CERTS


class TestStills:
    def test_word_strand_check(self):
        with pytest.raises(ValueError):
            Still("x", 4, parse_braid("1", 2))

    def test_wicket_check(self):
        with pytest.raises(ValueError):
            Still("x", 4, BraidWord.identity(4), caps=((2, 1),))
        with pytest.raises(ValueError):
            Still("x", 4, BraidWord.identity(4), cups=((1, 5),))

    def test_band_mark_checks(self):
        with pytest.raises(ValueError):
            BandMark(1, 0)
        with pytest.raises(ValueError):
            Still("x", 2, BraidWord.identity(2), bands=(BandMark(2, 1),))

    def test_picture_needs_stills(self):
        with pytest.raises(ValueError):
            MotionPicture(())

    def test_picture_uniform_strands(self):
        with pytest.raises(ValueError):
            MotionPicture(
                (
                    Still("a", 2, BraidWord.identity(2)),
                    Still("b", 4, BraidWord.identity(4)),
                )
            )


class TestPlatMotion:
    def test_reads_caps_braid_cups(self):
        picture = plat_motion(plat_closure(parse_braid("2 2 2", 4)))
        labels = [s.label for s in picture.stills]
        assert labels == ["caps", "braid", "cups"]
        assert picture.stills[0].caps == ((1, 2), (3, 4))
        assert picture.stills[1].word.letters == (2, 2, 2)
        assert picture.stills[2].cups == ((1, 2), (3, 4))


class TestPlanMotion:
    def test_strips_reversed_between_wickets(self):
        plan = compile_surface(TOY, TOY_CERTS)
        picture = plan_motion(plan)
        labels = [s.label for s in picture.stills]
        assert labels == ["caps", "E6", "E5", "E4", "E3", "E2", "E1", "E0", "cups"]
        by_label = {s.label: s for s in picture.stills}
        assert [(m.slot, m.sign, m.label) for m in by_label["E3"].bands] == [
            (2, 1, "surgery")
        ]
        assert [(m.slot, m.sign, m.label) for m in by_label["E5"].bands] == [
            (2, -1, "stabilize_top")
        ]
        # each strip still shows the section at the strip's lower edge
        assert by_label["E3"].word.letters == ()
        assert by_label["E4"].word.letters == (2,)


class TestSystemMotion:
    def test_levels_run_top_down(self):
        e = MonodromyEntry(BraidWord.identity(2), 1, 1)
        system = BraidSystem(2, (e, e.inverse()))
        picture = system_motion(system)
        labels = [s.label for s in picture.stills]
        assert labels == ["caps", "level 2", "level 1", "level 0", "cups"]
        by_label = {s.label: s for s in picture.stills}
        assert by_label["level 2"].word.letters == ()  # full product cancels
        assert by_label["level 1"].word.letters == (1,)
        assert by_label["level 0"].word.letters == ()
        assert by_label["level 2"].bands == (BandMark(1, -1, "branch"),)
        assert by_label["level 1"].bands == (BandMark(1, 1, "branch"),)
        assert by_label["level 0"].bands == ()

    def test_genuine_plat_sections_carry_staircase(self):
        e = MonodromyEntry(BraidWord.identity(2), 1, 1)
        system = to_genuine_plat(BraidSystem(2, (e, e.inverse())))
        picture = system_motion(system)
        by_label = {s.label: s for s in picture.stills}
        delta = staircase(2).letters
        assert by_label["level 1"].word.letters[: len(delta)] == delta
        assert by_label["level 2"].word.letters == ()

    def test_word_entries_get_fallback_marks(self):
        system = BraidSystem(2, (parse_braid("1", 2), parse_braid("-1", 2)))
        picture = system_motion(system)
        marks = [s.bands for s in picture.stills if s.label == "level 1"]
        assert marks == [((BandMark(1, 1, "branch"),))]

    def test_sections_are_reduced_prefix_products(self):
        rng = random.Random(12)
        for _ in range(20):
            words = [
                BraidWord(4, tuple(rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(3)))
                for _ in range(rng.randint(0, 6))
            ]
            picture = system_motion(BraidSystem(4, tuple(words)))
            for still in picture.stills[1:-1]:
                k = int(still.label.split()[1])
                assert still.word == product(words[:k], strands=4).free_reduced()

    def test_point_limit(self, monkeypatch):
        import platkit.motion

        system = BraidSystem(4, (parse_braid("1 2 3", 4),) * 2)
        picture = system_motion(system)
        # caps, level 2 (6 letters and a band), level 1, level 0 and cups
        points = 4 * sum(len(s.word) + len(s.bands) + 1 for s in picture.stills)
        assert points == 4 * (1 + 8 + 5 + 1 + 1)
        monkeypatch.setattr(platkit.motion, "MAX_SVG_POINTS", points)
        assert system_motion(system) == picture
        assert motion_svg(picture).endswith("</svg>\n")
        monkeypatch.setattr(platkit.motion, "MAX_SVG_POINTS", points - 1)
        with pytest.raises(BudgetError, match=f"limit of {points - 1}"):
            system_motion(system)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            system_motion(BraidSystem(3, ()))

    def test_strand_guard(self):
        # the wickets of a degree one pair past the bound are never built
        assert system_motion(BraidSystem(MAX_STRANDS, ())).strands == MAX_STRANDS
        with pytest.raises(BudgetError, match=f"over the limit of {MAX_STRANDS}"):
            system_motion(BraidSystem(MAX_STRANDS + 2, ()))


class TestSerialization:
    def test_round_trip(self):
        pictures = [plat_motion(plat_closure(parse_braid("2 2 2", 4)))]
        for bb, certs in test_bands.TestCompile().compile_cases():
            plan = compile_surface(bb, certs)
            pictures += [plan_motion(plan), system_motion(plan.as_system())]
        for picture in pictures:
            assert motion_from_json(motion_to_json(picture)) == picture


class TestMalformedDocument:
    def test_strands_as_text(self):
        with pytest.raises(ValueError, match="'strands' must be of type int"):
            motion_from_obj({"strands": "4", "stills": [{"label": "x", "word": "1"}]})

    def test_missing_strands(self):
        with pytest.raises(ValueError, match="missing field 'strands'"):
            motion_from_obj({"stills": [{"label": "x", "word": "1"}]})

    def test_wicket_not_a_pair(self):
        still = {"label": "x", "word": "1", "caps": [[1, "2"]]}
        with pytest.raises(ValueError, match="'caps' must be a list of"):
            motion_from_obj({"strands": 4, "stills": [still]})


class TestSvg:
    def test_document_shape(self):
        picture = plat_motion(plat_closure(parse_braid("2 -1 2", 4)))
        svg = motion_svg(picture)
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert "<polyline" in svg
        assert "<path" in svg

    def test_deterministic(self):
        picture = plan_motion(compile_surface(TOY, TOY_CERTS))
        assert motion_svg(picture) == motion_svg(picture)

    def test_band_rect_count(self):
        picture = plan_motion(compile_surface(TOY, TOY_CERTS))
        total_marks = sum(len(s.bands) for s in picture.stills)
        assert motion_svg(picture).count("<rect ") == total_marks

    def test_point_limit(self, monkeypatch):
        import platkit.motion

        # caps, one letter and cups on 2 strands: 2 * (1 + 2 + 1) = 8 points
        picture = plat_motion(plat_closure(parse_braid("1", 2)))
        monkeypatch.setattr(platkit.motion, "MAX_SVG_POINTS", 8)
        assert motion_svg(picture).endswith("</svg>\n")
        monkeypatch.setattr(platkit.motion, "MAX_SVG_POINTS", 7)
        with pytest.raises(BudgetError, match="8 points, over the limit of 7"):
            motion_svg(picture)

    def test_pinned_bytes(self):
        # letters, two bands, caps and cups: any change to the layout shows here
        picture = MotionPicture(
            (
                Still("caps", 6, BraidWord.identity(6), caps=((1, 2), (3, 4), (5, 6))),
                Still(
                    "mid",
                    6,
                    parse_braid("1 -3 5 2 -4", 6),
                    bands=(BandMark(2, 1, "a"), BandMark(4, -1)),
                ),
                Still("cups", 6, parse_braid("-2 3", 6), cups=((1, 4), (2, 3), (5, 6))),
            )
        )
        digest = hashlib.sha256(motion_svg(picture).encode()).hexdigest()
        assert digest == "aae44690ddaf95c029f39f0feda571e8688264d6bd4cbf96d20040c5a0b828cb"

    def test_no_external_references(self):
        svg = motion_svg(plat_motion(plat_closure(parse_braid("1", 2))))
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
