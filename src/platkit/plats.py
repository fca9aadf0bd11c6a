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

from enum import Enum
from functools import lru_cache

from .laurent import Laurent, equal_up_to_unit, loop_power
from .words import BraidWord, BudgetError, _cycle_type, _frozen, _plain_int, _strand_images, check_strands

DEFAULT_BRACKET_BUDGET = 24


@_frozen
class Pairing:
    """A fixed-point-free involution of {1, ..., 2m}, stored by partners."""

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        # partners are stored as plain ints (a bool too), as letters are
        object.__setattr__(self, "partner", tuple(_plain_int(j, "partner") for j in self.partner))
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


@_frozen
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
    matching of the top endpoints.  Each component is a loop that crosses
    the matching and the top pairing in turn, so it is two cycles of the
    permutation "top after matching", one per direction.
    """
    pi = _strand_images(diagram.word.strands, diagram.word.letters)
    top = diagram.top.partner
    images = [0] * len(pi)
    for x, y in zip(pi, diagram.bottom.partner):
        images[x - 1] = top[pi[y - 1] - 1]
    return len(_cycle_type(images)) // 2


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
    Every idle cap is pulled down: the smaller diagram keeps the positions
    that a letter touches or whose top partner a letter touches.
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

    # pull each idle cap down, joining the bottom partners of its two strands
    n = len(bottom)
    new = [-1] * n
    loops = k = 0
    for p, q in enumerate(top):
        if p in touched or q in touched:
            new[p] = k
            k += 1
        elif p < q:
            x, y = bottom[p], bottom[q]
            if x == q:
                loops += 1
            else:
                bottom[x], bottom[y] = y, x
    letters = tuple((new[abs(g) - 1] + 1) * (1 if g > 0 else -1) for g in kept)
    return (
        letters,
        tuple(new[bottom[p]] for p in range(n) if new[p] >= 0),
        tuple(new[top[p]] for p in range(n) if new[p] >= 0),
        kinks,
        loops,
    )


def kauffman_bracket(diagram: PlatDiagram, budget: int = DEFAULT_BRACKET_BUDGET) -> Laurent:
    """Bracket polynomial of the plat closure, by the smoothing state sum.

    The sum over all 2^c smoothings is evaluated by sweeping the letters
    once and carrying, for every matching of the endpoints still open, the
    total coefficient of the states that produce it.  Each matching is
    interned as a small int id the first time it appears, with -1 at the
    positions already capped off; one join makes a cap and a cup-cap, and
    the cup-cap at each position is worked out once per id, for both
    parities of its state keys (see Packing): the key it moves to, or -1
    when it closes a loop.  These transitions are keyed by state key and
    live for one call.

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
    3. Pull idle caps down.  No letter sits at an idle cap a, b, so the cap
       and the strands under it are one arc in every state, joining the
       bottom partners x and y of a and b, or one split loop when x is b.
       The bottom pairing joins x and y instead, a and b are removed, the
       letters and pairings renumbered, and the loops added to every state.

    With kinks counted +1 for a positive and -1 for a negative letter, the
    sweep starts from the unit (-A^3)^kinks instead of 1.

    Sweep.  Two more exact steps keep the open matchings few.

    4. Letter order.  The letters run in the leftmost-first linear
       extension of their commutation order: each step runs, of the letters
       whose earlier letters at distance < 2 have all run, the one at the
       lowest position.  Any two orders that keep every pair of letters at
       distance < 2 in place are the same product, exactly, since one turns
       into the other by swapping neighbours at distance >= 2, and
       e_i e_j = e_j e_i there.  The positions on the left thus finish
       early, not when the written word last reaches them.
    5. Early caps.  Each top pair is capped right after the last letter at
       either of its positions: its partners below are joined, or a loop
       closes when they are the pair itself.  A state's smoothed diagram is
       a set of arcs and loops, and a cap joins the strands that leave
       positions a and b; no later letter meets those strands, so the cap
       adds the same arc to every state whether it is drawn now or at the
       top, and only the step at which its loop is counted moves.  The pair
       that is ready last stays open: after the sweep it is the only pair
       left in every matching, its cap closes one loop, and that loop counts
       1.  The bracket is the sweep's sum times (-A^2 - A^-2)^l with l the
       split loops of step 3, or l - 1 when step 3 leaves no pair.

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

    A key whose terms cancel to 0 is kept, not filtered out after each
    letter: the next letter skips it, which is exact, as a zero key adds
    nothing to any later key and decodes to no term at the end.  A cap
    drops the zero keys it leaves.

    A cap lowers ``base`` by 4 and moves every key up one slot, y = x << B,
    which keeps its polynomial; that is how a loop's A^-2 term gets a slot
    without a right shift.  A cap that joins keeps the parity and moves to
    the capped id.  One that closes a loop multiplies by -A^2 - A^-2,
    whose two terms are 4 apart, so both land in the other parity: from
    parity 0 the key becomes -(x + y) at parity 1, from parity 1 it becomes
    -(y + (y << B)) at parity 0.

    One key per matching.  Let both pairings be planar, and let s and t be
    partial states of the first k steps that reach one matching M, with a
    smoothings weighted A, b weighted A^-1 and l loops closed.  Their
    polynomials are A^(a-b) (-A^2 - A^-2)^l, all of whose exponents are
    a - b + 2l mod 4.  Complete both by the same smoothings of the letters
    still to run: from M these close the same number of further loops, so
    both become states of the whole diagram, whose crossings in the new
    order still form a planar diagram, and whose caps, drawn early, change
    only when their loops are counted.  Flipping one smoothing of a planar
    diagram is a saddle: it moves a - b by +-2 and the loop count by exactly
    +-1, so a - b + 2(loops) mod 4 is the same for every state of the whole
    diagram, and a - b + 2l mod 4 is the same for s and t.  So a matching's
    polynomial lies in one class mod 4, that class fixes p, and a single key
    holds the whole polynomial.  For a non-planar pairing a matching may
    hold both parities; each key then holds the part of its polynomial in
    one class, every update above maps a class to a class, and the sum stays
    exact, caps included.

    Width.  A letter maps a key's polynomial x to x A^-s + x A^s, or to
    the single term -x A^3s when a loop closes, and a cap maps it to x or
    to x (-A^2 - A^-2), whose L1 norm is 2.  So the L1 norm summed over all
    keys at most doubles per letter and per cap, and the unit it starts
    from has norm 1.  After the c' letters left by the pre-pass and the k
    caps made during the sweep it is at most 2^(c' + k), and so is every
    coefficient of every key and of any sum of keys.  With
    B = c' + k + 2 each coefficient lies strictly inside (-2^(B-1),
    2^(B-1)), so the packed int, an exact Python int, decodes uniquely as
    balanced base-2^B digits.  There are no right shifts, so negative
    coefficients never lose bits.

    The surviving keys, at most one per parity, are decoded once each and
    one :class:`Laurent` is built at the end.  Raises :class:`BudgetError`
    when the diagram has more than ``budget`` crossings, counted as
    written, before the pre-pass.

    Memo.  After the budget check the sweep runs in ``_sweep``, whose
    ``functools.lru_cache`` of size one keeps the last diagram and its
    bracket.  A diagram equal to it by value (the same word and pairings,
    so a rebuilt ``plat_closure(w)`` counts) gets the stored bracket back
    without a sweep; any other diagram replaces it.  So
    :func:`triviality_check` right after this call on the same diagram
    sweeps nothing, while a pass over many diagrams keeps at most one and
    reuses nothing from an earlier pass.
    """
    if len(diagram.word) > budget:
        raise BudgetError(
            f"diagram has {len(diagram.word)} crossings, over the budget of {budget}"
        )
    return _sweep(diagram)


@lru_cache(maxsize=1)
def _sweep(diagram: PlatDiagram) -> Laurent:
    """The bracket of :func:`kauffman_bracket`, with no budget check: pre-pass and sweep."""
    letters, start, top, kinks, split = _shrink(diagram)
    n = len(start)
    c = len(letters)

    # the leftmost ready letter first: head[i] is the first letter at
    # position i not yet run and after[k] the next one at the position of
    # letter k, with c for none and a last, empty head[n - 1].  Letter k at i
    # is ready once k < head[i - 1] and k < head[i + 1].  A scan from the left
    # stops at the first i with head[i] < head[i + 1]; every head on its left
    # is then at least the one on its right, so k < head[i - 1] holds too.
    # Running k changes head[i] alone, which only the tests at i - 1 and i
    # read, so the next scan starts at i - 1.
    head = [c] * n
    after = [c] * c
    for k in range(c - 1, -1, -1):
        i = abs(letters[k]) - 1
        after[k] = head[i]
        head[i] = k
    order = []
    last_step = [-1] * n  # the step of the last letter at each position
    i = 0
    for t in range(c):
        k = head[i]
        while k >= head[i + 1]:
            i += 1
            k = head[i]
        order.append(letters[k])
        head[i] = after[k]
        last_step[i] = last_step[i + 1] = t
        if i:
            i -= 1

    # the sweep starts from the unit (-A^3)^kinks rather than from 1
    base = 3 * kinks
    matchings = [start]
    ids = {start: 0}
    transitions: list[dict[int, int]] = [{} for _ in range(n)]

    def intern(matching: list[int]) -> int:
        key = tuple(matching)
        r = ids.get(key)
        if r is None:
            r = ids[key] = len(matchings)
            matchings.append(key)
        return r

    def join(m: int, a: int, b: int, ends: tuple[int, int]) -> int:
        """The id r of matching m with a and b set to ``ends``, (-1, -1) for a cap
        or (b, a) for a cup-cap, and their old partners joined; ~r if a and b
        were partners, which closes a loop (a cup-cap's leaves m as it was)."""
        matching = matchings[m]
        x = matching[a]
        if x == ends[0]:
            return ~m
        y = matching[b]
        matching = list(matching)
        matching[a], matching[b] = ends
        if x == b:
            return ~intern(matching)
        matching[x], matching[y] = y, x
        return intern(matching)

    # each top pair is capped right after the last letter at either of its
    # positions, and the pair that is ready last stays open
    pairs = sorted((max(last_step[a], last_step[b]), a, b) for a, b in enumerate(top) if a < b)
    schedule: list[tuple[tuple[int, int], ...]] = [()] * c
    width = c + 2
    for t, a, b in pairs[:-1]:
        schedule[t] += ((a, b),)
        width += 1
    states = {0: -1 if kinks & 1 else 1}
    for g, caps in zip(order, schedule):
        i = abs(g) - 1
        cup = i + 1, i
        memo = transitions[i]
        nxt: dict[int, int] = {}
        get = nxt.get
        # a negative letter shifts the straight term one slot, a positive one
        # the loop term; the other is x itself, as a shift by 0 copies x
        negative = g < 0
        base -= 3 if negative else 1
        for key, x in states.items():
            if not x:
                continue
            r = memo.get(key)
            if r is None:
                r = 2 * join(key >> 1, i, i + 1, cup)
                memo[key & ~1], memo[key | 1] = (-1, -1) if r < 0 else (r + 1, r)
                r = memo[key]
            if r < 0:
                nxt[key] = get(key, 0) - (x if negative else x << width)
                continue
            nxt[key] = get(key, 0) + (x << width if negative else x)
            nxt[r] = get(r, 0) + (x << width if key & 1 else x)
        states = nxt
        # every key moves up one slot as base drops by 4; a closed loop
        # multiplies by -A^2 - A^-2 and flips the parity
        for a, b in caps:
            base -= 4
            nxt = {}
            get = nxt.get
            for key, x in states.items():
                r = join(key >> 1, a, b, (-1, -1))
                y = x << width
                if r >= 0:
                    r = 2 * r + (key & 1)
                elif key & 1:
                    r, y = 2 * ~r, -(y + (y << width))
                else:
                    r, y = 2 * ~r + 1, -(x + y)
                nxt[r] = get(r, 0) + y
            states = {key: x for key, x in nxt.items() if x}
    # every key is left with the one open pair, whose cap closes one loop
    total: dict[int, int] = {}
    for key, x in states.items():
        for e, coeff in _unpack(x, width, base + 2 * (key & 1)).items():
            total[e] = total.get(e, 0) + coeff
    return Laurent.from_dict(total) * loop_power(split - (0 if n else 1))


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

    Arcs are numbered as flat ints in one pass over the word: with n
    strands, arc p is the run at position p that starts on its bottom cup,
    and the k-th crossing, from 0, starts arcs n + 2k on its left and
    n + 2k + 1 on its right.  The same pass fills a step table: ``step[2a]``
    is the arc after a going up and ``step[2a + 1]`` the arc after it going
    down, stored as ``~b`` when a cap or cup turns the walk around at b.
    The walk then reads one entry per arc, for O(n + c) time and memory
    with c crossings, and each X line reads its two lower arcs off the
    same table, as where its upper arcs lead going down.
    """
    word = diagram.word
    n = word.strands
    step = [0] * (2 * n + 4 * len(word))
    last = list(range(n))  # the arc at each position above the crossings seen so far
    t = n  # the arc that starts on the left of the next crossing
    for g in word.letters:
        i = abs(g) - 1
        bl, br = last[i], last[i + 1]
        # going up a crossing leads to the arc above it at the other position,
        # going down to the arc below it
        step[2 * bl], step[2 * br], step[2 * t + 1], step[2 * t + 3] = t + 1, t, br, bl
        last[i], last[i + 1] = t, t + 1
        t += 2
    for p in range(n):
        step[2 * p + 1] = ~(diagram.bottom.partner[p] - 1)
        step[2 * last[p]] = ~last[diagram.top.partner[p] - 1]

    # walk each component from the lowest unlabelled bottom position, heading up
    labels = [0] * t
    count = 0
    for start in range(n):
        a, down = start, 0
        while not labels[a]:
            count += 1
            labels[a] = count
            a = step[2 * a + down]
            if a < 0:
                a, down = ~a, 1 - down

    lines = [f"CUP {labels[i - 1]} {labels[j - 1]}" for i, j in diagram.bottom.pairs()]
    for t in range(n, t, 2):
        lines.append(f"X {labels[step[2 * t + 3]]} {labels[step[2 * t + 1]]} {labels[t]} {labels[t + 1]}")
    for i, j in diagram.top.pairs():
        lines.append(f"CAP {labels[last[i - 1]]} {labels[last[j - 1]]}")
    return lines
