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
from .words import BraidWord, BudgetError, strand_permutation

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

    Components are orbits of the group generated by the bottom involution
    and the top involution pulled back through the braid's permutation.
    """
    n = diagram.word.strands
    pi = strand_permutation(diagram.word)
    pi_inv = pi.inverse()
    a = diagram.bottom
    b = lambda x: pi_inv(diagram.top(pi(x)))  # noqa: E731
    seen = [False] * n
    orbits = 0
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        orbits += 1
        stack = [start]
        while stack:
            x = stack.pop()
            if seen[x - 1]:
                continue
            seen[x - 1] = True
            stack.extend([a(x), b(x)])
    return orbits


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


def kauffman_bracket(diagram: PlatDiagram, budget: int = DEFAULT_BRACKET_BUDGET) -> Laurent:
    """Bracket polynomial of the plat closure, by the smoothing state sum.

    The sum over all 2^c smoothings is evaluated by sweeping the word once
    and carrying, for every planar matching of the current endpoints, the
    total coefficient of the states that produce it as a plain
    ``{exponent: int}`` dict.  Every factor a letter contributes is a shift:
    with s = +1 for a positive letter and -1 for a negative one, the
    straight smoothing adds a state's coefficients at exponent e - s, the
    cup-cap smoothing at e + s, or, when it closes a loop (-A^2 - A^-2),
    subtracts them at e + s - 2 and e + s + 2.  Zero coefficients are
    dropped once per letter.  The surviving matchings are capped off by the
    top pairing and summed by loop count, so each loop power multiplies
    once, and one :class:`Laurent` is built at the end.  Raises
    :class:`BudgetError` when the diagram has more than ``budget`` crossings.
    """
    if len(diagram.word) > budget:
        raise BudgetError(
            f"diagram has {len(diagram.word)} crossings, over the budget of {budget}"
        )
    start = tuple(diagram.bottom(i + 1) - 1 for i in range(diagram.word.strands))
    states: dict[tuple[int, ...], dict[int, int]] = {start: {0: 1}}
    for g in diagram.word.letters:
        i = abs(g) - 1
        s = 1 if g > 0 else -1
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for matching, coeffs in states.items():
            acc = nxt.get(matching)
            if acc is None:
                acc = nxt[matching] = {}
            for e, c in coeffs.items():
                k = e - s
                acc[k] = acc.get(k, 0) + c
            rewired, closed = _cupcap(matching, i)
            if closed:
                # closing a loop leaves the matching as it was: same dict
                for e, c in coeffs.items():
                    k = e + s - 2
                    acc[k] = acc.get(k, 0) - c
                    k += 4
                    acc[k] = acc.get(k, 0) - c
            else:
                acc = nxt.get(rewired)
                if acc is None:
                    acc = nxt[rewired] = {}
                for e, c in coeffs.items():
                    k = e + s
                    acc[k] = acc.get(k, 0) + c
        states = {}
        for matching, acc in nxt.items():
            kept = {e: c for e, c in acc.items() if c}
            if kept:
                states[matching] = kept
    by_loops: dict[int, dict[int, int]] = {}
    for matching, coeffs in states.items():
        acc = by_loops.setdefault(_close_loops(matching, diagram.top), {})
        for e, c in coeffs.items():
            acc[e] = acc.get(e, 0) + c
    total: dict[int, int] = {}
    for loops, coeffs in by_loops.items():
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
