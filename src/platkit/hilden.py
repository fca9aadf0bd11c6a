"""The Hilden subgroup of the braid group on 2m strands.

These are the braids that extend to the handlebody side of a plat: the
plat closure of any word in this subgroup, with the standard pairing, is
the m-component trivial link.  The subgroup is generated by

    sigma_1,
    sigma_2 sigma_1 sigma_3 sigma_2,
    sigma_{2i} sigma_{2i-1} sigma_{2i+1}^{-1} sigma_{2i}^{-1}   (1 <= i <= m-1),

all of which map standard pairs to standard pairs.  Membership of a word
is certified by an expression in these generators; a bounded breadth-first
search finds the lexicographically least shortest expression when one
exists within the length bound.
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
    product,
)


def hilden_generators(m: int) -> list[BraidWord]:
    """Generators of the Hilden subgroup inside the braid group on 2m strands."""
    if m < 1:
        raise ValueError("need at least one pair of strands")
    n = 2 * m
    gens = [BraidWord(n, (1,))]
    if m >= 2:
        gens.append(BraidWord(n, (2, 1, 3, 2)))
        for i in range(1, m):
            k = 2 * i
            gens.append(BraidWord(n, (k, k - 1, -(k + 1), -k)))
    return gens


def _factor_table(m: int) -> dict[tuple[int, int], BraidWord]:
    """Each signed factor ``(idx, +1 or -1)`` and its word, in expression rank order."""
    table = {}
    for idx, gen in enumerate(hilden_generators(m)):
        table[(idx, 1)] = gen
        table[(idx, -1)] = gen.inverse()
    return table


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
    table = _factor_table(expr.pairs)
    return product([table[f] for f in expr.factors], strands=2 * expr.pairs)


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


def _pair_distance(pperm: tuple[int, ...], target: tuple[int, ...]) -> int:
    """The Coxeter length of ``pperm^-1 target``: its inversions, which are the
    fewest adjacent pair swaps that take ``pperm`` to ``target``."""
    where = [0] * len(pperm)
    for i, x in enumerate(pperm):
        where[x - 1] = i
    imgs = [target[i] for i in where]
    return sum(
        1
        for a in range(len(imgs))
        for b in range(a + 1, len(imgs))
        if imgs[a] > imgs[b]
    )


def search_membership(word: BraidWord, max_len: int) -> HildenExpression | None:
    """Bounded breadth-first search for a Hilden expression equal to ``word``.

    Explores products of at most ``max_len`` generator factors, memoising
    visited group elements by fingerprint, and returns the lexicographically
    least expression among the shortest ones, or None when the bound is
    exhausted.  The verdict None is therefore only "not found within budget".

    A state is ``(fingerprint, exponent sum, pair permutation)``, the last a
    plain tuple of pair images; the key is the fingerprint alone, so the
    states visited and the expression returned do not depend on how the
    pair permutation is stored.  The Coxeter distance to the target's pair
    permutation is computed once per distinct pair permutation (at most m!).
    """
    if word.strands % 2 != 0:
        raise ValueError("membership search needs an even strand count")
    target_pairs = _pair_images(word.strands, word.letters)
    if target_pairs is None:
        return None
    m = word.strands // 2
    target_fp = artin_fingerprint(word)
    target_sum = exponent_sum(word)
    steps = [
        (move, factor.letters, exponent_sum(factor), _pair_images(2 * m, factor.letters))
        for move, factor in _factor_table(m).items()
    ]
    max_step_sum = max(abs(step_sum) for _, _, step_sum, _ in steps)
    distance: dict[tuple[int, ...], int] = {}

    def successors(state, depth):
        # drop children that cannot reach the target in the factors left; each
        # factor changes the pair permutation by one adjacent swap at most
        fp, esum, pperm = state
        remaining = max_len - depth - 1
        children = []
        for move, letters, step_sum, step_pperm in steps:
            new_sum = esum + step_sum
            if abs(target_sum - new_sum) > remaining * max_step_sum:
                continue
            # diagram order, as Permutation.__mul__: (p * q)(i) = q(p(i))
            new_pperm = tuple([step_pperm[x - 1] for x in pperm])
            d = distance.get(new_pperm)
            if d is None:
                d = distance[new_pperm] = _pair_distance(new_pperm, target_pairs)
            if d <= remaining:
                children.append((move, (artin_apply(fp, letters), new_sum, new_pperm)))
        return children

    start = (identity_images(2 * m), 0, tuple(range(1, m + 1)))
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
    table = {move: factor.letters for move, factor in _factor_table(m).items()}

    def successors(fp, _depth):
        return [(move, artin_apply(fp, letters)) for move, letters in table.items()]

    start = identity_images(2 * m)
    for fp, _, factors in bfs(start, lambda fp: fp, successors, depth):
        inverse = tuple(g for idx, exp in reversed(factors) for g in table[(idx, -exp)])
        yield fp, HildenExpression(m, factors), inverse
