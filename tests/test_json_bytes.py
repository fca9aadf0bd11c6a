"""The bytes of every JSON writer, pinned by SHA-256 digests."""

import hashlib
import json
from fractions import Fraction

import pytest

from platkit.bands import (
    Band,
    BandedBraid,
    banded_to_json,
    certificates_to_obj,
    compile_surface,
    plan_to_json,
    search_certificates,
)
from platkit.motion import BandMark, MotionPicture, Still, motion_to_json, plan_motion
from platkit.systems import BraidSystem, MonodromyEntry, system_to_json
from platkit.words import BraidWord, parse_braid

TOY = BandedBraid(BraidWord.identity(4), (Band(2, 1, Fraction(1, 2)),))
# a ribbon 2-sphere whose first band fuses the base into a knot
KNOTTED = BandedBraid(
    parse_braid("2 -1 -1 3 1 -2", 4),
    (Band(2, 1, Fraction(13, 28)), Band(2, -1, Fraction(1, 2))),
)
SYSTEM = BraidSystem(3, (MonodromyEntry(parse_braid("2 -1", 3), 1, -1), parse_braid("1 2", 3)))
STILL = MotionPicture(
    (
        Still(
            "saddle",
            4,
            parse_braid("1 -3", 4),
            caps=((1, 2), (3, 4)),
            cups=((1, 4), (2, 3)),
            bands=(BandMark(1, 1, "a & b"), BandMark(3, -1)),
        ),
    )
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plan(bb: BandedBraid):
    certs = search_certificates(bb, 4)
    return certs, compile_surface(bb, certs)


class TestPinnedBytes:
    """The bytes each writer gives, digests taken when each writer spelled out its keys."""

    @pytest.mark.parametrize(
        "bb, digests",
        [
            (TOY, ("46a141efefa608a9", "6a4147a2232d8fff", "07a48b1a1b378ebf", "0bfe0ed1e9a4c335")),
            (KNOTTED, ("166338ac1d406598", "7bed1d409dcbd55c", "b0f8000cb73e715c", "e3fde4d28c384e7f")),
        ],
        ids=["toy", "knotted"],
    )
    def test_banded_certificates_plan_and_motion(self, bb, digests):
        certs, compiled = plan(bb)
        texts = (
            banded_to_json(bb),
            json.dumps(certificates_to_obj(certs)),
            plan_to_json(compiled),
            motion_to_json(plan_motion(compiled)),
        )
        assert tuple(map(digest, texts)) == digests

    def test_system_with_factored_and_plain_entries(self):
        assert digest(system_to_json(SYSTEM)) == "2e197ab512a2b136"

    def test_still_with_caps_cups_and_labelled_marks(self):
        assert digest(motion_to_json(STILL)) == "071454d6a8979507"
