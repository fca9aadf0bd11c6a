"""The frozen value classes behave as ``@dataclass(frozen=True)`` twins do.

Each class gets its methods from ``words._frozen``.  For one instance of
every such class, its repr, hash, equality, frozenness and constructor are
checked against a formula and against a frozen dataclass with the same
name, fields and values.
"""

import dataclasses
from fractions import Fraction
from importlib import import_module

import pytest

import platkit as pk
from platkit.words import FrozenInstanceError

MODULES = [
    import_module(f"platkit.{name}")
    for name in ("bands", "hilden", "laurent", "motion", "plats", "stabilize", "systems", "words")
]


def _instances() -> list:
    bb = pk.banded_from_obj(
        {"strands": 4, "base": "", "bands": [{"slot": 2, "sign": 1, "time": "1/2"}]}
    )
    plan = pk.compile_surface(bb, pk.search_certificates(bb, 3))
    word = pk.BraidWord(4, (2, -1))
    entry = pk.MonodromyEntry(pk.BraidWord(4, (1,)), 2, -1)
    still = pk.Still("braid", 4, word, caps=((1, 2),), bands=(pk.BandMark(1, -1, "b"),))
    return [
        pk.Permutation((2, 3, 1)),
        word,
        pk.Laurent(((-4, 1), (2, -3))),
        pk.Pairing.standard(2),
        pk.plat_closure(word),
        pk.parse_expression("m=2 g0 g1^-1"),
        pk.StabilizationProfile((1, 0)),
        entry,
        pk.BraidSystem(4, (entry, word)),
        pk.HurwitzResult(pk.HurwitzStatus.EQUIVALENT, ((1, False), (2, True)), None, 3),
        pk.SurfaceType(1, 2),
        pk.Band(2, 1, Fraction(1, 3)),
        bb,
        pk.admissibility_report(bb),
        plan.certificates,
        next(s for s in plan.strips if s.bands).bands[0],
        next(s for s in plan.strips if s.left is not None),
        plan,
        still.bands[0],
        still,
        pk.MotionPicture((still,)),
    ]


INSTANCES = _instances()
IDS = [type(value).__name__ for value in INSTANCES]


def fields(value) -> tuple[str, ...]:
    return tuple(type(value).__annotations__)


def values(value) -> tuple:
    return tuple(getattr(value, name) for name in fields(value))


def defaults(cls) -> dict:
    return {name: vars(cls)[name] for name in cls.__annotations__ if name in vars(cls)}


def twin(value):
    """A frozen dataclass of the same name and fields, holding the same values."""
    cls = type(value)
    spec = [
        (name, object, dataclasses.field(default=defaults(cls)[name]))
        if name in defaults(cls)
        else (name, object)
        for name in fields(value)
    ]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)(*values(value))


def outcome(make):
    """What ``make()`` gives: the value, or the type and text of its error."""
    try:
        return make()
    except Exception as err:  # noqa: BLE001 - compared, not swallowed
        return type(err), str(err)


def test_every_value_class_is_covered():
    frozen = {
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and "__match_args__" in vars(value)
    }
    assert frozen == {type(value) for value in INSTANCES}
    assert len(frozen) == 21


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_repr_and_hash_match_a_dataclass(value):
    text = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields(value))
    assert repr(value) == f"{type(value).__qualname__}({text})"
    assert repr(value) == repr(twin(value))
    assert hash(value) == hash(values(value)) == hash(twin(value))
    assert type(value).__match_args__ == fields(value)


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_equality_is_per_class(value):
    cls = type(value)
    copy = cls(*values(value))
    assert copy == value and not copy != value
    assert copy is not value and hash(copy) == hash(value)
    other = twin(value)
    assert value != other and other != value
    assert value.__eq__(other) is NotImplemented
    assert value.__eq__(values(value)) is NotImplemented


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_assignment_and_deletion_raise(value):
    name, before = fields(value)[0], values(value)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert values(value) == before and "extra" not in vars(value)
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_keyword_positional_and_default_construction_agree(value):
    cls, names, given = type(value), fields(value), values(value)
    assert cls(**dict(zip(names, given))) == value
    assert cls(*given[:1], **dict(zip(names[1:], given[1:]))) == value
    fill = defaults(cls)
    required = len(names) - len(fill)
    assert names[required:] == tuple(fill)
    # omitted fields take their defaults, through __post_init__ as well
    assert outcome(lambda: cls(*given[:required])) == outcome(
        lambda: cls(*given[:required], *fill.values())
    )


@pytest.mark.parametrize("value", INSTANCES, ids=IDS)
def test_missing_or_extra_arguments_raise_type_error(value):
    cls, names, given = type(value), fields(value), values(value)
    required = len(names) - len(defaults(cls))
    if required:
        missing = f"missing 1 required positional argument: '{names[required - 1]}'"
        with pytest.raises(TypeError, match=missing):
            cls(*given[: required - 1])
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*given, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(*given, nope=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*given, **{names[0]: given[0]})


def test_defaults_are_those_of_the_fields():
    word = pk.BraidWord(3)
    assert word == pk.BraidWord(3, ()) and word.letters == ()
    assert pk.Laurent() == pk.Laurent.zero()
    assert pk.HurwitzResult(pk.HurwitzStatus.UNKNOWN).explored == 0
    assert pk.BandMark(1, 1).label == ""
    with pytest.raises(ValueError, match="at least one still"):
        pk.MotionPicture()
