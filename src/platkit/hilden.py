"""The Hilden subgroup of the braid group on 2m strands.

These are the braids that extend to the handlebody side of a plat: the
plat closure of any word in this subgroup, with the standard pairing, is
the m-component trivial link.  The subgroup is generated by

    g0     = sigma_1,
    g1     = sigma_2 sigma_1 sigma_3 sigma_2                            (m >= 2),
    g(i+1) = sigma_{2i} sigma_{2i-1} sigma_{2i+1}^{-1} sigma_{2i}^{-1}   (1 <= i <= m-1),

all of which map standard pairs to standard pairs: g0 turns pair 1 over
and fixes every pair, g1 swaps pairs 1 and 2, and g(i+1) swaps pairs i
and i + 1.  Their exponent sums are 1, 4 and 0.  ``_factor_table`` is the
one place these facts are written.  Membership of a word is certified by
an expression in these generators; a bounded breadth-first search finds
the lexicographically least shortest expression when one exists within
the length bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .search import bfs
from .words import (
    BraidWord,
    Permutation,
    _strand_images,
    artin_apply,
    artin_fingerprint,
    braids_equal,
    exponent_sum,
    identity_images,
)


def _factor_table(m: int) -> list[tuple[tuple[int, int], tuple[int, ...], int, int]]:
    """``(move, letters, exponent sum, swap)`` of each signed factor, in rank order.

    The move is ``(idx, +1 or -1)``; each generator comes before its
    inverse, by index.  ``swap`` is the i whose pairs i and i + 1 the
    factor exchanges, or 0 for g0, which fixes every pair.  O(m).
    """
    if m < 1:
        raise ValueError("need at least one pair of strands")
    table = [((0, 1), (1,), 1, 0), ((0, -1), (-1,), -1, 0)]
    if m >= 2:
        table += [((1, 1), (2, 1, 3, 2), 4, 1), ((1, -1), (-2, -3, -1, -2), -4, 1)]
    for i in range(1, m):
        k = 2 * i
        table += [
            ((i + 1, 1), (k, k - 1, -(k + 1), -k), 0, i),
            ((i + 1, -1), (k, k + 1, -(k - 1), -k), 0, i),
        ]
    return table


def hilden_generators(m: int) -> list[BraidWord]:
    """Generators of the Hilden subgroup inside the braid group on 2m strands."""
    return [BraidWord(2 * m, letters) for (_, exp), letters, _, _ in _factor_table(m) if exp == 1]


def _pair_images(strands: int, letters: tuple[int, ...]) -> tuple[int, ...] | None:
    """Where the letters' permutation sends each standard pair, or None when it breaks one."""
    if strands % 2 != 0:
        raise ValueError("pairing test needs an even strand count")
    pi = _strand_images(strands, letters)
    images = []
    for k in range(strands // 2):
        a, b = pi[2 * k], pi[2 * k + 1]
        if abs(a - b) != 1 or (min(a, b) % 2) != 1:
            return None
        images.append((a + 1) // 2)
    return tuple(images)


def preserves_pairing(word: BraidWord) -> bool:
    """Whether the word's permutation maps standard pairs to standard pairs.

    This is a necessary condition for Hilden membership, cheap enough to use
    as a search prefilter.
    """
    return _pair_images(word.strands, word.letters) is not None


def pair_permutation(word: BraidWord) -> Permutation:
    """The induced permutation of the m standard pairs (word must preserve them)."""
    images = _pair_images(word.strands, word.letters)
    if images is None:
        raise ValueError("word does not preserve the standard pairing")
    return Permutation(images)


@dataclass(frozen=True)
class HildenExpression:
    """A word in the Hilden generators: (generator index, +1 or -1) factors."""

    pairs: int
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.pairs < 1:
            raise ValueError("need at least one pair of strands")
        object.__setattr__(self, "factors", tuple(map(tuple, self.factors)))
        # the count of hilden_generators(m), without building them
        count = 1 if self.pairs == 1 else self.pairs + 1
        for idx, exp in self.factors:
            if not 0 <= idx < count:
                raise ValueError(f"generator index {idx} out of range for m={self.pairs}")
            if exp not in (1, -1):
                raise ValueError("exponents must be +1 or -1")

    def __mul__(self, other: "HildenExpression") -> "HildenExpression":
        if self.pairs != other.pairs:
            raise ValueError("pair counts differ")
        return HildenExpression(self.pairs, self.factors + other.factors)

    def inverse(self) -> "HildenExpression":
        return HildenExpression(
            self.pairs, tuple((idx, -exp) for idx, exp in reversed(self.factors))
        )


def expand_expression(expr: HildenExpression) -> BraidWord:
    """Multiply out an expression into a braid word on 2m strands."""
    table = {move: letters for move, letters, _, _ in _factor_table(expr.pairs)}
    return BraidWord(2 * expr.pairs, tuple(g for move in expr.factors for g in table[move]))


def verify_membership(word: BraidWord, expr: HildenExpression) -> bool:
    """Check a claimed certificate: does the expression multiply out to the word?"""
    if word.strands != 2 * expr.pairs:
        return False
    return braids_equal(word, expand_expression(expr))


def format_expression(expr: HildenExpression) -> str:
    """Render as ``m=<pairs>`` followed by ``g<k>`` / ``g<k>^-1`` tokens."""
    toks = [f"m={expr.pairs}"]
    for idx, exp in expr.factors:
        toks.append(f"g{idx}" if exp == 1 else f"g{idx}^-1")
    return " ".join(toks)


def parse_expression(text: str) -> HildenExpression:
    toks = text.split()
    if not toks or not toks[0].startswith("m="):
        raise ValueError("expression text must start with m=<pairs>")
    try:
        pairs = int(toks[0][2:])
    except ValueError as exc:
        raise ValueError(f"bad pair count in {toks[0]!r}") from exc
    factors = []
    for tok in toks[1:]:
        exp = 1
        body = tok
        if tok.endswith("^-1"):
            exp = -1
            body = tok[:-3]
        if not body.startswith("g"):
            raise ValueError(f"bad generator token {tok!r}")
        try:
            idx = int(body[1:])
        except ValueError as exc:
            raise ValueError(f"bad generator token {tok!r}") from exc
        factors.append((idx, exp))
    return HildenExpression(pairs, tuple(factors))


def search_membership(word: BraidWord, max_len: int) -> HildenExpression | None:
    """Bounded breadth-first search for a Hilden expression equal to ``word``.

    Explores products of at most ``max_len`` generator factors, memoising
    visited group elements by fingerprint, and returns the lexicographically
    least expression among the shortest ones, or None when the bound is
    exhausted.  The verdict None is therefore only "not found within budget".

    A state is ``(fingerprint, exponent sum, gap, distance)``.  With p the
    prefix's pair permutation and t the target's, in diagram order, ``gap``
    is the images of p^-1 t and ``distance`` its inversion count, the
    fewest adjacent pair swaps from p to t; at the start ``gap`` is t.  A
    factor with swap i takes p to p s_i and ``gap`` to s_i p^-1 t: entries
    i and i + 1 exchanged.  Only the order of those two entries flips, so
    the distance moves by exactly one, +1 if entry i is the smaller, else
    -1; g0 moves neither.  The key is the fingerprint alone, and ``gap``
    is a function of the group element, so the states visited and the
    expression returned do not depend on how the pairs are tracked.  The
    factor table costs O(m), and each child kept costs a fingerprint
    extension and an m-tuple copy.
    """
    if word.strands % 2 != 0:
        raise ValueError("membership search needs an even strand count")
    target_gap = _pair_images(word.strands, word.letters)
    if target_gap is None:
        return None
    m = word.strands // 2
    target_fp = artin_fingerprint(word)
    target_sum = exponent_sum(word)
    steps = _factor_table(m)
    max_step_sum = max(abs(step_sum) for _, _, step_sum, _ in steps)

    def successors(state, depth):
        # drop children that cannot reach the target in the factors left; each
        # factor moves the exponent sum by max_step_sum and the distance by one at most
        fp, esum, gap, dist = state
        remaining = max_len - depth - 1
        children = []
        for move, letters, step_sum, swap in steps:
            new_sum = esum + step_sum
            if abs(target_sum - new_sum) > remaining * max_step_sum:
                continue
            new_gap, new_dist = gap, dist
            if swap:
                a, b = gap[swap - 1], gap[swap]
                new_dist += 1 if a < b else -1
                if new_dist > remaining:
                    continue
                new_gap = gap[: swap - 1] + (b, a) + gap[swap + 1 :]
            elif dist > remaining:
                continue
            children.append((move, (artin_apply(fp, letters), new_sum, new_gap, new_dist)))
        return children

    inversions = sum(1 for j, x in enumerate(target_gap) for y in target_gap[j + 1 :] if x > y)
    start = (identity_images(2 * m), 0, target_gap, inversions)
    for fp, _, factors in bfs(start, lambda state: state[0], successors, max_len):
        if fp == target_fp:
            return HildenExpression(m, factors)
    return None


def _hilden_ball(m: int, depth: int) -> Iterator[tuple[tuple, HildenExpression, tuple[int, ...]]]:
    """(fingerprint, least expression, inverse letters) of each Hilden element within ``depth`` factors.

    Lazily and in breadth-first order, so by factor count: the entries with
    at most d factors come first and are the ball of radius d.  The letters
    of the inverse are read from the one factor table as the entry appears.
    """
    table = {move: letters for move, letters, _, _ in _factor_table(m)}

    def successors(fp, _depth):
        return [(move, artin_apply(fp, letters)) for move, letters in table.items()]

    start = identity_images(2 * m)
    for fp, _, factors in bfs(start, lambda fp: fp, successors, depth):
        inverse = tuple(g for idx, exp in reversed(factors) for g in table[(idx, -exp)])
        yield fp, HildenExpression(m, factors), inverse
