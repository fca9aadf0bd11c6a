"""Plat closures of braid words and their elementary link invariants.

A word on 2m strands is closed into a link by joining bottom endpoints in
adjacent pairs {1,2}, {3,4}, ..., {2m-1,2m} with arcs below the braid and
joining top endpoints the same way above it.  This module counts the
components of that link, evaluates its bracket polynomial by a state sum
over crossing smoothings, and runs the bracket-based semi-decision for
being a trivial link.

Crossing conventions.  The letter i crosses strand i over strand i+1.  Its
two smoothings enter the bracket as

    <positive crossing> = A <cup-cap> + A^{-1} <parallel strands>,

a closed loop contributes a factor -A^2 - A^{-2}, and a single crossingless
loop evaluates to 1.  The mirror letter -i swaps the two coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .laurent import Laurent, equal_up_to_unit, loop_power
from .words import BraidWord, BudgetError, check_strands, strand_permutation

DEFAULT_BRACKET_BUDGET = 24


@dataclass(frozen=True)
class Pairing:
    """A fixed-point-free involution of {1, ..., 2m}, stored by partners."""

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "partner", tuple(self.partner))
        n = len(self.partner)
        if n % 2 != 0:
            raise ValueError("a pairing needs an even number of endpoints")
        for i in range(1, n + 1):
            j = self.partner[i - 1]
            if not 1 <= j <= n or j == i or self.partner[j - 1] != i:
                raise ValueError(f"not a fixed-point-free involution: {self.partner}")

    @classmethod
    def standard(cls, m: int) -> "Pairing":
        """Adjacent pairs {1,2}, {3,4}, ..., {2m-1,2m}."""
        check_strands(2 * m)
        partner = []
        for k in range(m):
            partner.extend([2 * k + 2, 2 * k + 1])
        return cls(tuple(partner))

    @property
    def size(self) -> int:
        return len(self.partner)

    def __call__(self, i: int) -> int:
        return self.partner[i - 1]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, self(i)) for i in range(1, self.size + 1) if i < self(i))


@dataclass(frozen=True)
class PlatDiagram:
    word: BraidWord
    bottom: Pairing
    top: Pairing

    def __post_init__(self) -> None:
        if self.word.strands % 2 != 0:
            raise ValueError("plat closure needs an even strand count")
        if self.bottom.size != self.word.strands or self.top.size != self.word.strands:
            raise ValueError("pairing size must match the strand count")


def plat_closure(word: BraidWord) -> PlatDiagram:
    """Close a word on 2m strands with the standard pairing at both ends."""
    m = word.strands // 2
    std = Pairing.standard(m)
    return PlatDiagram(word, std, std)


def component_count(diagram: PlatDiagram) -> int:
    """Number of link components of the plat closure.

    The bottom pairing, carried up through the braid's permutation, is a
    matching of the top endpoints; capping it off with the top pairing
    closes one loop per component.
    """
    pi = strand_permutation(diagram.word)
    matching = [0] * diagram.word.strands
    for x in range(1, diagram.word.strands + 1):
        matching[pi(x) - 1] = pi(diagram.bottom(x)) - 1
    return _close_loops(tuple(matching), tuple(p - 1 for p in diagram.top.partner))


def _close_loops(matching: tuple[int, ...], top: tuple[int, ...]) -> int:
    """Loops formed when a planar matching is capped off by the top pairing, both 0-based."""
    n = len(matching)
    seen = [False] * n
    loops = 0
    for start in range(n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = matching[x]  # travel the diagram below
            seen[y] = True
            x = top[y]  # hop across a top arc
    return loops


def _unpack(packed: int, width: int, base: int) -> dict[int, int]:
    """``{exponent: coefficient}`` of a packed polynomial, read as balanced digits.

    Slot k, the k-th ``width``-bit digit, is the coefficient of A^(base + 4k).
    A digit of at least 2^(width-1) stands for a negative coefficient: it is
    taken minus 2^width and one is carried into the next slot.  A packed
    int of n bits has at most n // width + 1 balanced digits.
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    coeffs = {}
    e = base
    for _ in range(abs(packed).bit_length() // width + 1):
        c = packed & mask
        packed >>= width
        if c >= half:
            c -= mask + 1
            packed += 1
        if c:
            coeffs[e] = c
        e += 4
    return coeffs


def _shrink(
    diagram: PlatDiagram,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int, int]:
    """``(letters, bottom, top, kinks, loops)``: the pre-pass of :func:`kauffman_bracket`.

    The pairings are 0-based partner tuples.  The bracket of ``diagram`` is
    (-A^3)^kinks times the state sum of the smaller diagram with ``loops``
    added to every state's loop count; the bracket's docstring proves it.
    """
    # cancel g ... g^-1 across letters that all commute with g
    kept: list[int] = []
    for g in diagram.word.letters:
        i = abs(g)
        k = len(kept) - 1
        while k >= 0 and abs(abs(kept[k]) - i) >= 2:
            k -= 1
        if k >= 0 and kept[k] == -g:
            del kept[k]
        else:
            kept.append(g)

    # strip the kinks under top caps, walking down from the top, then those
    # over bottom cups, walking up; each pass reverses the letters
    bottom = [p - 1 for p in diagram.bottom.partner]
    top = [p - 1 for p in diagram.top.partner]
    kinks = 0
    for pairing in (top, bottom):
        touched: set[int] = set()
        letters = []
        for g in reversed(kept):
            i = abs(g) - 1
            if pairing[i] == i + 1 and i not in touched and i + 1 not in touched:
                kinks += 1 if g > 0 else -1
            else:
                touched.update((i, i + 1))
                letters.append(g)
        kept = letters

    # drop the closed pairs no letter touches, renumbering what is left
    n = len(bottom)
    new = [-1] * n
    loops = p = 0
    while p < n:
        if bottom[p] == p + 1 == top[p] and p not in touched and p + 1 not in touched:
            loops += 1
            p += 2
        else:
            new[p] = p - 2 * loops
            p += 1
    letters = tuple((new[abs(g) - 1] + 1) * (1 if g > 0 else -1) for g in kept)
    return (
        letters,
        tuple(new[bottom[p]] for p in range(n) if new[p] >= 0),
        tuple(new[top[p]] for p in range(n) if new[p] >= 0),
        kinks,
        loops,
    )


# the last diagram the sweep ran on and its bracket; see kauffman_bracket
_last: tuple[PlatDiagram, Laurent] | None = None


def kauffman_bracket(diagram: PlatDiagram, budget: int = DEFAULT_BRACKET_BUDGET) -> Laurent:
    """Bracket polynomial of the plat closure, by the smoothing state sum.

    The sum over all 2^c smoothings is evaluated by sweeping the word once
    and carrying, for every planar matching of the current endpoints, the
    total coefficient of the states that produce it.  Each matching is
    interned as a small int id the first time it appears, and the cup-cap
    at each position is worked out once per id: a rewired id, or -1 when it
    closes a loop.  These transitions live for one call.

    Pre-pass.  The sweep runs on a smaller diagram with the same bracket up
    to a known unit and loop power.  Read the letter i as A e_i + A^-1 and
    -i as A^-1 e_i + A, with e_i the cup-cap at i, i+1; the state sum is
    linear in the product of the letters and counts loops as the
    Temperley-Lieb relations do: e_i e_j = e_j e_i for |i - j| >= 2, and
    e_i^2 = d e_i with d = -A^2 - A^-2.  Both also hold for non-planar
    pairings, which count loops the same way.  Three exact steps follow.

    1. Cancel commuting inverse pairs: drop g ... g^-1 when every letter
       between them sits at distance >= 2 from g, scanning a stack of kept
       letters back while they commute.  This is far commutation and
       Reidemeister II: (A e + A^-1)(A^-1 e + A) = e^2 + (A^2 + A^-2) e + 1
       = 1 because e^2 = d e.
    2. Strip end kinks.  A letter at i on a bottom cup (the bottom pairing
       joins i and i+1) with no kept letter at i-1, i or i+1 before it
       meets that cup in every state, where e_i closes a loop: the letter
       is (A d + A^-1) = -A^3 times the cup, the sweep's merged-monomial
       rule, or -A^-3 for a negative letter.  The same holds for a letter
       under a top cap with no kept letter near it after it.  The cup or
       cap stays, so one backward pass strips the top kinks and one
       forward pass the bottom ones, runs of kinks included.
    3. Drop untouched closed pairs: positions p, p+1 that both pairings
       join and no letter touches close into one split loop in every
       state.  They are removed, the letters and pairings renumbered, and
       the number of pairs dropped is added to every state's loop count.

    With kinks counted +1 for a positive and -1 for a negative letter, the
    sweep starts from the unit (-A^3)^kinks instead of 1.

    Packing.  A state is keyed by ``2 * id + p`` and its polynomial is
    packed into one int (Kronecker substitution): slot j, its j-th B-bit
    digit, holds the coefficient of A^(base + 2p + 4j), with one running
    ``base`` shared by all keys.  A positive letter lowers ``base`` by 1 and
    a negative one by 3.  Straight smoothings keep the key, cup-caps move to
    the rewired id with the other parity, and each becomes a left shift by
    0 or 1 slots (a cup-cap shifts only when it leaves parity 1):

        positive letter   straight  x          cup-cap  x or x << B
        negative letter   straight  x << B     cup-cap  x or x << B

    When the cup-cap closes a loop (-A^2 - A^-2) the matching is unchanged,
    and the straight and loop terms merge into one monomial (A^-1 - A^-1 -
    A^3 = -A^3, and its mirror -A^-3): the update is -(x << B) or -x.

    One key per matching.  Let the bottom pairing be planar, and let s and
    t be partial states of the first k letters that reach one matching M,
    with a smoothings weighted A, b weighted A^-1 and l loops closed.  Their
    polynomials are A^(a-b) (-A^2 - A^-2)^l, all of whose exponents are
    a - b + 2l mod 4.  Close the prefix diagram by the mirror image of M
    above it; M is planar, so this is a link diagram, and every state
    reaching M closes with l + n/2 loops on n endpoints.  Flipping one
    smoothing of a planar diagram is a saddle: it moves a - b by +-2 and
    the loop count by exactly +-1, so a - b + 2(loops) mod 4 is the same
    for every state of the closed diagram, and a - b + 2l mod 4 is the same
    for s and t.  So a matching's polynomial lies in one class mod 4, that
    class fixes p, and a single key holds the whole polynomial.  For
    a non-planar bottom pairing a matching may hold both parities; each key
    then holds the part of its polynomial in one class, every update maps a
    class to a class, and the sum stays exact.

    Width.  A letter maps a key's polynomial x to x A^-s + x A^s, or to
    the single term -x A^3s when a loop closes, so the L1 norm summed over
    all keys at most doubles per letter, and the unit it starts from has
    norm 1.  After the c' letters left by the pre-pass it is at most 2^c',
    and so is every coefficient of every key and of any sum of keys.
    With B = c' + 2 each coefficient lies strictly inside (-2^(B-1),
    2^(B-1)), so the packed int, an exact Python int, decodes uniquely as
    balanced base-2^B digits.  There are no right shifts, so negative
    coefficients never lose bits.

    The surviving keys are capped off by the top pairing and summed by
    loop count and parity, the only keys whose slots mean the same
    exponents; each sum is decoded once and multiplied by its loop power,
    and one :class:`Laurent` is built at the end.  Raises
    :class:`BudgetError` when the diagram has more than ``budget`` crossings,
    counted as written, before the pre-pass.

    Memo.  The last diagram swept and its bracket are kept in one module
    slot.  After the budget check, a diagram equal to it by value (the
    same word and pairings, so a rebuilt ``plat_closure(w)`` counts) gets
    the stored bracket back without a sweep; any other diagram replaces
    it.  So :func:`triviality_check` right after this call on the same
    diagram sweeps nothing, while a pass over many diagrams keeps at most
    one and reuses nothing from an earlier pass.
    """
    global _last
    if len(diagram.word) > budget:
        raise BudgetError(
            f"diagram has {len(diagram.word)} crossings, over the budget of {budget}"
        )
    last = _last
    if last is not None and last[0] == diagram:
        return last[1]
    letters, start, top, kinks, split = _shrink(diagram)
    width = len(letters) + 2
    # the sweep starts from the unit (-A^3)^kinks rather than from 1
    base = 3 * kinks
    matchings = [start]
    ids = {start: 0}
    transitions: dict[int, dict[int, int]] = {}

    def rewire(m: int, i: int) -> int:
        """The id of matching m after a cap-then-cup at i, i+1, or -1 if a loop closes."""
        matching = list(matchings[m])
        x, y = matching[i], matching[i + 1]
        if x == i + 1:
            return -1
        matching[x], matching[y] = y, x
        matching[i], matching[i + 1] = i + 1, i
        rewired = tuple(matching)
        r = ids.get(rewired)
        if r is None:
            r = ids[rewired] = len(matchings)
            matchings.append(rewired)
        return r

    states = {0: -1 if kinks & 1 else 1}
    for g in letters:
        i = abs(g) - 1
        memo = transitions.setdefault(i, {})
        nxt: dict[int, int] = {}
        get = nxt.get
        # a negative letter shifts the straight term one slot, a positive one
        # the loop term; the other is x itself, as a shift by 0 copies x
        negative = g < 0
        base -= 3 if negative else 1
        for key, x in states.items():
            r = memo.get(key >> 1)
            if r is None:
                r = memo[key >> 1] = rewire(key >> 1, i)
            if r < 0:
                nxt[key] = get(key, 0) - (x if negative else x << width)
                continue
            nxt[key] = get(key, 0) + (x << width if negative else x)
            if key & 1:
                r, x = 2 * r, x << width
            else:
                r = 2 * r + 1
            nxt[r] = get(r, 0) + x
        states = {key: x for key, x in nxt.items() if x}
    sums: dict[tuple[int, int], int] = {}
    for key, x in states.items():
        loops = _close_loops(matchings[key >> 1], top)
        sums[loops, key & 1] = sums.get((loops, key & 1), 0) + x
    total: dict[int, int] = {}
    for (loops, p), x in sums.items():
        coeffs = _unpack(x, width, base + 2 * p)
        for e2, c2 in loop_power(loops + split - 1).coeffs:
            for e, c in coeffs.items():
                total[e + e2] = total.get(e + e2, 0) + c * c2
    bracket = Laurent.from_dict(total)
    _last = (diagram, bracket)
    return bracket


class Triviality(Enum):
    NOT_TRIVIAL = "NotTrivial"
    CONSISTENT_WITH_TRIVIAL = "ConsistentWithTrivial"


def bracket_triviality(bracket: Laurent, components: int) -> Triviality:
    """The verdict of :func:`triviality_check` from a plat's bracket and components."""
    if equal_up_to_unit(bracket, loop_power(components - 1)):
        return Triviality.CONSISTENT_WITH_TRIVIAL
    return Triviality.NOT_TRIVIAL


def triviality_check(diagram: PlatDiagram, budget: int = DEFAULT_BRACKET_BUDGET) -> Triviality:
    """Bracket-based semi-decision for the c-component trivial link.

    Returns CONSISTENT_WITH_TRIVIAL exactly when the bracket is a unit
    multiple of the c-component trivial link's bracket.  A NOT_TRIVIAL
    verdict is conclusive; the other direction is only a consistency check.

    Right after :func:`kauffman_bracket` on the same diagram the bracket
    comes from its memo, so this costs a component count and one unit
    comparison.  A caller that holds the bracket and the component count
    already gets the same verdict from ``bracket_triviality(bracket, c)``.
    """
    return bracket_triviality(kauffman_bracket(diagram, budget), component_count(diagram))


def pd_lines(diagram: PlatDiagram) -> list[str]:
    """Arc-labelled text export of the plat diagram.

    Arcs are maximal crossing-free pieces: vertical runs through the braid
    together with the bottom and top pairing arcs they end on.  Labels are
    assigned by following each component of the link, starting from the
    lowest unvisited bottom position and heading up.  Output lines are

        CUP a b      bottom arc joining arc a to arc b,
        X a b c d    crossing, incident arcs bottom-left, bottom-right,
                     top-left, top-right,
        CAP a b      top arc joining arc a to arc b,

    with CUP lines first (by position), then crossings in word order, then
    CAP lines (by position).

    An arc is the pair (position, run index): run k at position p is the
    piece between the k-th and (k+1)-th crossings touching p, counted from
    the bottom, so run 0 ends on a cup and the last run on a cap.  One pass
    over the word lists each position's crossings and, for each crossing,
    the run indices just below it; the walk then steps from arc to arc in
    constant time, for O(n + c) time and memory with n strands and c
    crossings.
    """
    word = diagram.word
    # crossings[p]: the levels of the crossings touching position p, bottom up;
    # below[lv]: (i, run at i, run at i + 1) just below the crossing at level lv
    crossings: list[list[int]] = [[] for _ in range(word.strands + 1)]
    below: list[tuple[int, int, int]] = []
    for lv, g in enumerate(word.letters):
        i = abs(g)
        below.append((i, len(crossings[i]), len(crossings[i + 1])))
        crossings[i].append(lv)
        crossings[i + 1].append(lv)

    # walk each component arc by arc, turning around at cups and caps; going
    # up through a crossing lands on the run above it at the other position,
    # going down on the run below it
    labels: dict[tuple[int, int], int] = {}
    for start in range(1, word.strands + 1):
        p, k, up = start, 0, True
        while (p, k) not in labels:
            labels[p, k] = len(labels) + 1
            if up and k == len(crossings[p]):
                p, up = diagram.top(p), False
                k = len(crossings[p])
            elif not up and k == 0:
                p, up = diagram.bottom(p), True
            else:
                i, ki, kj = below[crossings[p][k if up else k - 1]]
                p, k = (i + 1, kj) if p == i else (i, ki)
                if up:
                    k += 1

    lines = [f"CUP {labels[i, 0]} {labels[j, 0]}" for i, j in diagram.bottom.pairs()]
    for i, ki, kj in below:
        bl, br = labels[i, ki], labels[i + 1, kj]
        tl, tr = labels[i, ki + 1], labels[i + 1, kj + 1]
        lines.append(f"X {bl} {br} {tl} {tr}")
    for i, j in diagram.top.pairs():
        lines.append(f"CAP {labels[i, len(crossings[i])]} {labels[j, len(crossings[j])]}")
    return lines
