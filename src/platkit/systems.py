"""Braid systems: the monodromy data of braided surfaces.

A braided surface of degree n with r branch points is recorded by the
r-tuple of monodromy braids around its branch points, each a conjugate of
a single crossing.  The tuple is considered up to slide moves

    (..., b_j, b_{j+1}, ...)  ->  (..., b_j b_{j+1} b_j^{-1}, b_j, ...)

and their inverses (Hurwitz equivalence).  This module implements the
moves, a bounded search for equivalence, the Euler characteristic and
branch-sign invariants, the degree-2 classification, conversion of a
closed-surface system to one whose closure is a plat, and the symmetric
ribbon criterion.
"""

from __future__ import annotations

import json
from enum import Enum
from itertools import chain
from operator import itemgetter

from .search import bfs
from .words import (
    BraidWord,
    BudgetError,
    OpenSystemError,
    _basis,
    _cached_apply,
    _cycle_type,
    _free_inv,
    _free_reduce,
    _frozen,
    _letter_sum,
    _plain_int,
    _strand_images,
    braids_equal,
    embed,
    exponent_sum,
    json_field,
    parse_braid,
)

DEFAULT_SEARCH_BUDGET = 20000
# to_genuine_plat's limit on the letters of the entries it builds: each carries
# a staircase of m(m-1) letters, so degree 1000 with two entries just fits
MAX_GENUINE_LETTERS = 1 << 22


@_frozen
class MonodromyEntry:
    """A braid of the shape u sigma_k^sign u^{-1}, kept in factored form."""

    conjugator: BraidWord
    index: int
    sign: int

    def __post_init__(self) -> None:
        # index and sign are stored as plain ints (a bool too), as letters are
        object.__setattr__(self, "index", _plain_int(self.index, "crossing index"))
        object.__setattr__(self, "sign", _plain_int(self.sign, "sign"))
        if not 1 <= self.index <= self.conjugator.strands - 1:
            raise ValueError(f"crossing index {self.index} out of range")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def strands(self) -> int:
        return self.conjugator.strands

    def word(self) -> BraidWord:
        return BraidWord(self.strands, _entry_letters(self))

    def inverse(self) -> "MonodromyEntry":
        return MonodromyEntry(self.conjugator, self.index, -self.sign)


Entry = BraidWord | MonodromyEntry
# An entry as letters: (u, index * sign) for the factored u sigma_k^sign u^{-1},
# (w, 0) for a plain word w.  Two entries of one degree are equal exactly
# when their forms are.
_Form = tuple[tuple[int, ...], int]


def _form(entry: Entry) -> _Form:
    if isinstance(entry, MonodromyEntry):
        return entry.conjugator.letters, entry.index * entry.sign
    return entry.letters, 0


def _from_form(form: _Form, strands: int) -> Entry:
    u, c = form
    if c:
        return MonodromyEntry(BraidWord(strands, u), abs(c), 1 if c > 0 else -1)
    return BraidWord(strands, u)


def _form_letters(form: _Form) -> tuple[int, ...]:
    u, c = form
    return u + (c,) + _free_inv(u) if c else u


def _entry_letters(entry: Entry) -> tuple[int, ...]:
    """The letters of ``entry_word(entry)``, without building the word."""
    return _form_letters(_form(entry))


def entry_word(entry: Entry) -> BraidWord:
    return entry.word() if isinstance(entry, MonodromyEntry) else entry


def as_monodromy(word: BraidWord) -> MonodromyEntry | None:
    """Recognise words that are syntactically u sigma_k^e u-bar."""
    letters = word.letters
    n = len(letters)
    if n % 2 == 0:
        return None
    h = n // 2
    for t in range(h):
        if letters[t] != -letters[n - 1 - t]:
            return None
    return _from_form((letters[:h], letters[h]), word.strands)


@_frozen
class BraidSystem:
    degree: int
    entries: tuple[Entry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _plain_int(self.degree, "degree"))
        if self.degree < 1:
            raise ValueError("strand count must be positive")
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if e.strands != self.degree:
                raise ValueError("entry strand count must match the system degree")

    @property
    def r(self) -> int:
        return len(self.entries)

    def words(self) -> tuple[BraidWord, ...]:
        return tuple(entry_word(e) for e in self.entries)


def boundary_braid(system: BraidSystem) -> BraidWord:
    """The product of all entries; the braid the surface's boundary traces."""
    return BraidWord(system.degree, tuple(chain.from_iterable(map(_entry_letters, system.entries))))


def is_two_dimensional(system: BraidSystem) -> bool:
    """Whether the boundary braid is trivial, so the surface closes up."""
    return braids_equal(boundary_braid(system), BraidWord.identity(system.degree))


def _conjugate_form(by: _Form, form: _Form, inverse: bool) -> _Form:
    """The form of x b x^{-1}, for x the entry of form ``by`` (its inverse
    when ``inverse``) and b that of ``form``; a factored b stays factored."""
    x = _form_letters(by)
    if inverse:
        x = _free_inv(x)
    u, c = form
    if c:
        return _free_reduce(x + u), c
    return _free_reduce(x + u + _free_inv(x)), 0


def _slide_pair(a, b, inverse: bool, conjugate):
    """What the slide at slot j writes to slots j and j + 1, from a and b
    there; ``conjugate(x, y, inverse)`` is y conjugated by x, or by x^{-1}."""
    if inverse:
        return b, conjugate(b, a, True)
    return conjugate(a, b, False), a


def slide(system: BraidSystem, j: int, inverse: bool = False) -> BraidSystem:
    """The slide move at slot j (1-based), or its inverse.

    Forward:  (b_j, b_{j+1}) -> (b_j b_{j+1} b_j^{-1}, b_j)
    Inverse:  (b_j, b_{j+1}) -> (b_{j+1}, b_{j+1}^{-1} b_j b_{j+1})
    """
    if not 1 <= j <= system.r - 1:
        raise ValueError(f"slide slot {j} out of range for r={system.r}")

    def conjugate(x: Entry, y: Entry, inv: bool) -> Entry:
        return _from_form(_conjugate_form(_form(x), _form(y), inv), system.degree)

    entries = list(system.entries)
    entries[j - 1 : j + 1] = _slide_pair(entries[j - 1], entries[j], inverse, conjugate)
    return BraidSystem(system.degree, tuple(entries))


def apply_slides(system: BraidSystem, moves: list[tuple[int, bool]]) -> BraidSystem:
    """Replay a move list of (slot, inverse) pairs."""
    for j, inv in moves:
        system = slide(system, j, inverse=inv)
    return system


class HurwitzStatus(Enum):
    EQUIVALENT = "Equivalent"
    NOT_EQUIVALENT = "NotEquivalent"
    UNKNOWN = "Unknown"


@_frozen
class HurwitzResult:
    status: HurwitzStatus
    moves: tuple[tuple[int, bool], ...] | None = None
    reason: str | None = None
    explored: int = 0


def hurwitz_search(
    s1: BraidSystem, s2: BraidSystem, budget: int = DEFAULT_SEARCH_BUDGET
) -> HurwitzResult:
    """Bounded breadth-first search for a slide sequence from s1 to s2.

    Cheap invariants decide many inequivalent pairs outright: the boundary
    braids, then the multisets of the entries' exponent sums and of their
    strand cycle types, each read off the entry letters with no word or
    permutation built but one boundary word per side.  Otherwise the
    orbit of s1 is explored up to ``budget`` distinct systems.  The verdict
    is EQUIVALENT with a replayable move list, NOT_EQUIVALENT only when the
    whole (finite) orbit was enumerated, and UNKNOWN when the budget ran
    out first or a fingerprint outgrew its guard (the reason is then the
    :class:`BudgetError` message, and ``explored`` counts the systems
    reached before it).

    The search holds a system as its entry forms and their fingerprint ids,
    and builds no system, word or entry for a child.  Each distinct form is
    fingerprinted once, on the letters of its entry, and each fingerprint is
    interned to a small int, equal fingerprints to equal ints.  The key of a
    system is its tuple of r ids, so keys compare braids, not spellings.  A
    slide rewrites two slots: one holds an entry of the parent and one a new
    conjugate, so a child costs at most one new fingerprint, taken when the
    search reaches that child.  An entry's fingerprint depends on the entry
    alone, so it goes through the process-wide memo
    ``words._cached_apply``: an entry that an earlier search met is
    fingerprinted once per process while the memo holds it.  The memo
    changes no key, order, witness, ``explored`` count or guard trip (see
    its docstring).
    """
    if s1.degree != s2.degree:
        return HurwitzResult(HurwitzStatus.NOT_EQUIVALENT, reason="degrees differ")
    if s1.r != s2.r:
        return HurwitzResult(HurwitzStatus.NOT_EQUIVALENT, reason="entry counts differ")
    explored = 0
    try:
        n = s1.degree
        letters1, letters2 = ([_entry_letters(e) for e in s.entries] for s in (s1, s2))
        if not braids_equal(boundary_braid(s1), boundary_braid(s2)):
            return HurwitzResult(HurwitzStatus.NOT_EQUIVALENT, reason="boundary braids differ")
        for invariant, reason in (
            (_letter_sum, "exponent-sum multisets differ"),
            (lambda u: _cycle_type(_strand_images(n, u)), "cycle-type multisets differ"),
        ):
            if sorted(map(invariant, letters1)) != sorted(map(invariant, letters2)):
                return HurwitzResult(HurwitzStatus.NOT_EQUIVALENT, reason=reason)
        basis = _basis(n)
        moves_menu = [(j, inv) for j in range(1, s1.r) for inv in (False, True)]
        ids: dict[_Form, int] = {}
        interned: dict[tuple, int] = {}

        def fid(form: _Form) -> int:
            i = ids.get(form)
            if i is None:
                fp = _cached_apply(basis, _form_letters(form))
                i = ids[form] = interned.setdefault(fp, len(interned))
            return i

        def state(system: BraidSystem) -> tuple[tuple[_Form, ...], tuple[int, ...]]:
            forms = tuple(map(_form, system.entries))
            return forms, tuple(map(fid, forms))

        def successors(parent, path):
            forms, key = parent
            undo = (path[-1][0], not path[-1][1]) if path else None
            for move in moves_menu:
                if move == undo:
                    continue
                j, inv = move
                a, b = _slide_pair(forms[j - 1], forms[j], inv, _conjugate_form)
                yield move, (
                    forms[: j - 1] + (a, b) + forms[j + 1 :],
                    key[: j - 1] + (fid(a), fid(b)) + key[j + 1 :],
                )

        target = state(s2)[1]
        for fp, _, moves in bfs(state(s1), itemgetter(1), successors):
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
    except BudgetError as err:
        return HurwitzResult(HurwitzStatus.UNKNOWN, reason=str(err), explored=explored)


def plat_euler_characteristic(system: BraidSystem) -> int:
    """Euler characteristic 2m - r of the surface a 2m-degree system closes into."""
    if system.degree % 2 != 0:
        raise ValueError("plat Euler characteristic needs an even degree")
    return system.degree - system.r


def branch_signs(system: BraidSystem) -> tuple[int, int]:
    """Counts (positive, negative) of branch points; entries must be factored."""
    p = q = 0
    for e in system.entries:
        if not isinstance(e, MonodromyEntry):
            raise ValueError("branch signs need monodromy-factored entries")
        if e.sign == 1:
            p += 1
        else:
            q += 1
    return p, q


def _collapse_degree_two(entry: Entry) -> int:
    # the 2-strand braid group is infinite cyclic, so only the exponent
    # sum survives; a branch entry must collapse to a single crossing
    s = exponent_sum(entry_word(entry))
    if s not in (1, -1):
        raise ValueError(f"entry is not a single-crossing conjugate (exponent sum {s})")
    return s


@_frozen
class SurfaceType:
    positive: int
    negative: int

    @property
    def is_trivial_sphere(self) -> bool:
        return self.positive == 0 and self.negative == 0

    def __str__(self) -> str:
        if self.is_trivial_sphere:
            return "Trivial2Knot"
        return f"NonorientableSum({self.positive},{self.negative})"


def classify_degree_two(system: BraidSystem) -> SurfaceType:
    """Classification of degree-2 systems by their sign counts alone.

    The closure is the trivial 2-knot when there are no branch points, and
    otherwise the connected sum of p + q unknotted projective planes, p of
    one sign and q of the other.
    """
    if system.degree != 2:
        raise ValueError("classification applies to degree-2 systems")
    signs = [_collapse_degree_two(e) for e in system.entries]
    p = sum(1 for s in signs if s == 1)
    return SurfaceType(p, len(signs) - p)


def normal_euler_number(system: BraidSystem) -> int | None:
    """Normal Euler number, when the data determines it.

    Degree-2 systems give 2(p - q); closed (two-dimensional) systems with
    factored entries give 0; anything else is undetermined here.
    """
    return _normal_euler_number(system, None)


def _normal_euler_number(system: BraidSystem, closed: bool | None) -> int | None:
    """:func:`normal_euler_number`, given ``closed``, the verdict of
    :func:`is_two_dimensional` when the caller holds it already; with None
    the word problem is decided here, and only when the answer needs it."""
    if system.degree == 2:
        try:
            t = classify_degree_two(system)
        except ValueError:
            pass
        else:
            return 2 * (t.positive - t.negative)
    if all(isinstance(e, MonodromyEntry) for e in system.entries) and (
        is_two_dimensional(system) if closed is None else closed
    ):
        return 0
    return None


def staircase(m: int) -> BraidWord:
    """The descending-run braid that turns a closed 2m-braid into a plat.

    The product over k = 1..m-1 of sigma_{2k} sigma_{2k-1} ... sigma_1,
    on 2m strands; trivial when m = 1.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    letters: list[int] = []
    for k in range(1, m):
        letters.extend(range(2 * k, 0, -1))
    return BraidWord(2 * m, tuple(letters))


def to_genuine_plat(system: BraidSystem) -> BraidSystem:
    """Double the degree so the closure becomes a plat with trivial boundary.

    Each entry b of the closed degree-m system becomes Delta b Delta^{-1}
    on 2m strands, with Delta the staircase braid; factored entries keep
    their crossing index and sign, only the conjugator grows.  Raises
    :class:`OpenSystemError` when the boundary braid is not trivial, and
    :class:`BudgetError` before building anything when those entries would
    hold more than ``MAX_GENUINE_LETTERS`` letters.
    """
    if not is_two_dimensional(system):
        raise OpenSystemError("only closed (two-dimensional) systems convert to plats")
    m = system.degree
    stair = m * (m - 1)
    letters = sum(
        stair + len(e.conjugator) if isinstance(e, MonodromyEntry) else 2 * stair + len(e)
        for e in system.entries
    )
    if letters > MAX_GENUINE_LETTERS:
        raise BudgetError(
            f"the genuine plat needs {letters} letters, over the limit of {MAX_GENUINE_LETTERS}"
        )
    delta = staircase(m)
    out: list[Entry] = []
    for e in system.entries:
        if isinstance(e, MonodromyEntry):
            out.append(
                MonodromyEntry(delta * embed(e.conjugator, 2 * m), e.index, e.sign)
            )
        else:
            out.append(delta * embed(e, 2 * m) * delta.inverse())
    return BraidSystem(2 * m, tuple(out))


def ribbon_criterion(system: BraidSystem) -> bool:
    """The symmetric two-entry test: r = 2 and the second entry inverts the first."""
    if system.r != 2:
        return False
    w1, w2 = system.words()
    return braids_equal(w2, w1.inverse())


def _entry_to_obj(entry: MonodromyEntry) -> dict:
    """The JSON form of a factored entry, in system and plan files alike."""
    return {"conjugator": entry.conjugator.text(), "index": entry.index, "sign": entry.sign}


def _entry_from_obj(item: object, degree: int) -> MonodromyEntry:
    """The factored entry of degree ``degree`` that :func:`_entry_to_obj` wrote as ``item``."""
    return MonodromyEntry(
        parse_braid(json_field(item, "conjugator", str), degree),
        json_field(item, "index", int),
        json_field(item, "sign", int),
    )


def system_to_obj(system: BraidSystem) -> dict:
    entries = [
        _entry_to_obj(e) if isinstance(e, MonodromyEntry) else e.text() for e in system.entries
    ]
    return {"degree": system.degree, "entries": entries}


def system_from_obj(obj: dict, promote: bool = False) -> BraidSystem:
    """Build a system from parsed JSON; optionally factor palindromic words."""
    degree = json_field(obj, "degree", int)
    entries: list[Entry] = []
    for item in json_field(obj, "entries", list):
        if isinstance(item, str):
            word = parse_braid(item, degree)
            if promote:
                factored = as_monodromy(word)
                entries.append(factored if factored is not None else word)
            else:
                entries.append(word)
        else:
            entries.append(_entry_from_obj(item, degree))
    return BraidSystem(degree, tuple(entries))


def system_to_json(system: BraidSystem) -> str:
    return json.dumps(system_to_obj(system), indent=2)


def system_from_json(text: str, promote: bool = False) -> BraidSystem:
    return system_from_obj(json.loads(text), promote=promote)
