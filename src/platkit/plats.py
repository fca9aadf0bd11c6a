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

from .laurent import LOOP, Laurent, equal_up_to_unit
from .words import BraidWord, BudgetError, check_strands, strand_permutation

DEFAULT_BRACKET_BUDGET = 24


@dataclass(frozen=True)
class Pairing:
    """A fixed-point-free involution of {1, ..., 2m}, stored by partners."""

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
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
    return _close_loops(tuple(matching), diagram.top)


def _close_loops(matching: tuple[int, ...], top: Pairing) -> int:
    """Loops formed when a planar matching is capped off by the top pairing."""
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
            x = top(y + 1) - 1  # hop across a top arc
    return loops


def _cupcap(matching: tuple[int, ...], a: int) -> tuple[tuple[int, ...], bool]:
    """Apply a cap-then-cup at positions a, a+1; report whether a loop closed."""
    b = a + 1
    m = list(matching)
    if m[a] == b:
        return matching, True
    x, y = m[a], m[b]
    m[x], m[y] = y, x
    m[a], m[b] = b, a
    return tuple(m), False


def _unpack(packed: int, width: int, base: int) -> dict[int, int]:
    """``{exponent: coefficient}`` of a packed polynomial, read as balanced digits.

    Slot k, the k-th ``width``-bit digit, is the coefficient of A^(base + 2k).
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
        e += 2
    return coeffs


def kauffman_bracket(diagram: PlatDiagram, budget: int = DEFAULT_BRACKET_BUDGET) -> Laurent:
    """Bracket polynomial of the plat closure, by the smoothing state sum.

    The sum over all 2^c smoothings is evaluated by sweeping the word once
    and carrying, for every planar matching of the current endpoints, the
    total coefficient of the states that produce it.  All exponents of the
    sweep share one parity, so each such polynomial is packed into one int
    (Kronecker substitution): slot k, its k-th B-bit digit, holds the
    coefficient of A^(base + 2k), with one running ``base`` shared by all
    matchings.  A positive letter lowers ``base`` by 1 and a negative one by
    3, so every smoothing becomes a left shift by 0, 1 or 2 slots:

        positive letter   straight  x          cup-cap  x << B
        negative letter   straight  x << 2B    cup-cap  x << B

    When the cup-cap closes a loop (-A^2 - A^-2) the matching is unchanged,
    and the straight and loop terms merge into one monomial (A^-1 - A^-1 -
    A^3 = -A^3, and its mirror -A^-3): the update is -(x << 2B) or -x.

    Width.  A letter maps a state's polynomial x to x A^-s + x A^s, or to
    the single term -x A^3s when a loop closes, so the L1 norm summed over
    all matchings at most doubles per letter.  After c letters it is at
    most 2^c, and so is every coefficient of every state and of any sum of
    states.  With B = c + 2 each coefficient lies strictly inside
    (-2^(B-1), 2^(B-1)), so the packed int, an exact Python int, decodes
    uniquely as balanced base-2^B digits.  There are no right shifts, so
    negative coefficients never lose bits.

    The surviving matchings are capped off by the top pairing and summed
    by loop count; each sum is decoded once and multiplied by its loop
    power, and one :class:`Laurent` is built at the end.  Raises
    :class:`BudgetError` when the diagram has more than ``budget`` crossings.
    """
    if len(diagram.word) > budget:
        raise BudgetError(
            f"diagram has {len(diagram.word)} crossings, over the budget of {budget}"
        )
    width = len(diagram.word) + 2
    double = 2 * width
    base = 0
    start = tuple(diagram.bottom(i + 1) - 1 for i in range(diagram.word.strands))
    states: dict[tuple[int, ...], int] = {start: 1}
    for g in diagram.word.letters:
        i = abs(g) - 1
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        if g > 0:
            base -= 1
            for matching, x in states.items():
                rewired, closed = _cupcap(matching, i)
                if closed:
                    nxt[matching] = get(matching, 0) - (x << double)
                else:
                    nxt[matching] = get(matching, 0) + x
                    nxt[rewired] = get(rewired, 0) + (x << width)
        else:
            base -= 3
            for matching, x in states.items():
                rewired, closed = _cupcap(matching, i)
                if closed:
                    nxt[matching] = get(matching, 0) - x
                else:
                    nxt[matching] = get(matching, 0) + (x << double)
                    nxt[rewired] = get(rewired, 0) + (x << width)
        states = {matching: x for matching, x in nxt.items() if x}
    by_loops: dict[int, int] = {}
    for matching, x in states.items():
        loops = _close_loops(matching, diagram.top)
        by_loops[loops] = by_loops.get(loops, 0) + x
    total: dict[int, int] = {}
    for loops, x in by_loops.items():
        coeffs = _unpack(x, width, base)
        for e2, c2 in (LOOP ** (loops - 1)).coeffs:
            for e, c in coeffs.items():
                total[e + e2] = total.get(e + e2, 0) + c * c2
    return Laurent.from_dict(total)


class Triviality(Enum):
    NOT_TRIVIAL = "NotTrivial"
    CONSISTENT_WITH_TRIVIAL = "ConsistentWithTrivial"


def bracket_triviality(bracket: Laurent, components: int) -> Triviality:
    """The verdict of :func:`triviality_check` from a plat's bracket and components."""
    if equal_up_to_unit(bracket, LOOP ** (components - 1)):
        return Triviality.CONSISTENT_WITH_TRIVIAL
    return Triviality.NOT_TRIVIAL


def triviality_check(diagram: PlatDiagram, budget: int = DEFAULT_BRACKET_BUDGET) -> Triviality:
    """Bracket-based semi-decision for the c-component trivial link.

    Returns CONSISTENT_WITH_TRIVIAL exactly when the bracket is a unit
    multiple of the c-component trivial link's bracket.  A NOT_TRIVIAL
    verdict is conclusive; the other direction is only a consistency check.
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
    """
    word = diagram.word
    n = word.strands
    c = len(word.letters)

    # points live in the gaps between crossing levels: (gap, position),
    # gap 0 below the first letter, gap c above the last; a vertical run
    # through non-crossing levels is a single arc
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x: tuple[int, int]) -> tuple[int, int]:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x: tuple[int, int], y: tuple[int, int]) -> None:
        parent[find(x)] = find(y)

    for level, g in enumerate(word.letters, start=1):
        i = abs(g)
        for p in range(1, n + 1):
            if p not in (i, i + 1):
                union((level - 1, p), (level, p))

    labels: dict[tuple[int, int], int] = {}
    counter = [1]

    def label_arc(node: tuple[int, int]) -> bool:
        """Label the arc through ``node``; False when it already had one."""
        root = find(node)
        if root in labels:
            return False
        labels[root] = counter[0]
        counter[0] += 1
        return True

    def next_crossing(pos: int, gap: int, direction: int) -> int | None:
        levels = range(gap + 1, c + 1) if direction == 1 else range(gap, 0, -1)
        for lv in levels:
            i = abs(word.letters[lv - 1])
            if pos in (i, i + 1):
                return lv
        return None

    # walk each component arc by arc, turning around at cups and caps
    for start in range(1, n + 1):
        pos, gap, direction = start, 0, 1
        while label_arc((gap, pos)):
            lv = next_crossing(pos, gap, direction)
            if lv is not None:
                i = abs(word.letters[lv - 1])
                pos = i + 1 if pos == i else i
                gap = lv if direction == 1 else lv - 1
            elif direction == 1:
                pos, gap, direction = diagram.top(pos), c, -1
            else:
                pos, gap, direction = diagram.bottom(pos), 0, 1

    def label_of(node: tuple[int, int]) -> int:
        return labels[find(node)]

    lines = []
    for i, j in diagram.bottom.pairs():
        a = label_of((0, i))
        b = label_of((0, j))
        lines.append(f"CUP {a} {b}")
    for level, g in enumerate(word.letters, start=1):
        i = abs(g)
        bl = label_of((level - 1, i))
        br = label_of((level - 1, i + 1))
        tl = label_of((level, i))
        tr = label_of((level, i + 1))
        lines.append(f"X {bl} {br} {tl} {tr}")
    for i, j in diagram.top.pairs():
        a = label_of((c, i))
        b = label_of((c, j))
        lines.append(f"CAP {a} {b}")
    return lines
