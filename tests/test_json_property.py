"""JSON round trips of systems, banded braids, certificates and motions (hypothesis).

Compiled plans and their motions round-trip in test_bands.py and test_motion.py,
over the compile cases of test_bands.TestCompile.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from platkit.bands import (
    Band,
    BandedBraid,
    Certificates,
    banded_from_obj,
    banded_to_obj,
    certificates_from_obj,
    certificates_to_obj,
)
from platkit.hilden import HildenExpression
from platkit.motion import (
    BandMark,
    MotionPicture,
    Still,
    motion_from_obj,
    motion_to_obj,
)
from platkit.stabilize import StabilizationProfile
from platkit.systems import BraidSystem, MonodromyEntry, system_from_obj, system_to_obj
from platkit.words import BraidWord


def round_trip(to_obj, from_obj, value):
    return from_obj(json.loads(json.dumps(to_obj(value))))


def words(strands: int, max_size: int = 8):
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letter, max_size=max_size).map(lambda w: BraidWord(strands, tuple(w)))


def entries(degree: int):
    factored = st.builds(
        MonodromyEntry, words(degree), st.integers(1, degree - 1), st.sampled_from((1, -1))
    )
    return factored | words(degree)


@st.composite
def systems(draw) -> BraidSystem:
    degree = draw(st.integers(2, 6))
    return BraidSystem(degree, tuple(draw(st.lists(entries(degree), max_size=5))))


@st.composite
def banded_braids(draw) -> BandedBraid:
    strands = 2 * draw(st.integers(1, 3))
    times = st.fractions(min_value=0, max_value=1, max_denominator=60)
    times = times.filter(lambda t: 0 < t < 1)
    bands = draw(st.lists(times, max_size=4, unique=True))
    return BandedBraid(
        draw(words(strands)),
        tuple(
            Band(draw(st.integers(1, strands - 1)), draw(st.sampled_from((1, -1))), t)
            for t in bands
        ),
    )


def profiles(size: int):
    counts = st.lists(st.integers(0, 3), min_size=size, max_size=size)
    return counts.map(lambda e: StabilizationProfile(tuple(e)))


@st.composite
def expressions(draw, pairs: int) -> HildenExpression:
    count = 1 if pairs == 1 else pairs + 1
    factor = st.tuples(st.integers(0, count - 1), st.sampled_from((1, -1)))
    return HildenExpression(pairs, tuple(draw(st.lists(factor, max_size=5))))


@st.composite
def certificates(draw) -> Certificates:
    pairs = st.integers(1, 3)
    m = draw(st.integers(1, 5))
    return Certificates(
        profile=draw(profiles(draw(pairs))),
        profile1=draw(profiles(draw(pairs))),
        profile2=draw(profiles(draw(pairs))),
        gamma=draw(expressions(m)),
        gamma_prime=draw(expressions(m)),
        delta=draw(expressions(m)),
        delta_prime=draw(expressions(m)),
    )


@st.composite
def stills(draw, strands: int) -> Still:
    position = st.integers(1, strands)
    wicket = st.tuples(position, position).filter(lambda p: p[0] < p[1])
    mark = st.builds(
        BandMark, st.integers(1, strands - 1), st.sampled_from((1, -1)), st.text(max_size=6)
    )
    return Still(
        draw(st.text(max_size=6)),
        strands,
        draw(words(strands)),
        caps=tuple(draw(st.lists(wicket, max_size=3))),
        cups=tuple(draw(st.lists(wicket, max_size=3))),
        bands=tuple(draw(st.lists(mark, max_size=3))),
    )


@st.composite
def motions(draw) -> MotionPicture:
    strands = draw(st.integers(2, 6))
    return MotionPicture(tuple(draw(st.lists(stills(strands), min_size=1, max_size=4))))


@settings(max_examples=100, deadline=None)
@given(systems())
def test_system(system):
    assert round_trip(system_to_obj, system_from_obj, system) == system


@settings(max_examples=100, deadline=None)
@given(banded_braids())
def test_banded_braid(bb):
    assert round_trip(banded_to_obj, banded_from_obj, bb) == bb


@settings(max_examples=100, deadline=None)
@given(certificates())
def test_certificates(certs):
    assert round_trip(certificates_to_obj, certificates_from_obj, certs) == certs


@settings(max_examples=100, deadline=None)
@given(motions())
def test_motion(picture):
    assert round_trip(motion_to_obj, motion_from_obj, picture) == picture

