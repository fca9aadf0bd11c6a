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
an expression in these generators; a bounded breadth-first search, run
from both ends, finds the lexicographically least shortest expression
when one exists within the length bound.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from operator import itemgetter
from typing import Iterator

from .search import bfs
from .words import (
    BraidWord,
    Permutation,
    _apply,
    _basis,
    _cached_apply,
    _frozen,
    _plain_int,
    _strand_images,
    braids_equal,
    check_strands,
    exponent_sum,
)


def _factor_table(m: int) -> list[tuple[tuple[int, int], tuple[int, ...], int, int]]:
    """``(move, letters, exponent sum, swap)`` of each signed factor, in rank order.

    The move is ``(idx, +1 or -1)``; each generator comes before its
    inverse, by index.  ``swap`` is the i whose pairs i and i + 1 the
    factor exchanges, or 0 for g0, which fixes every pair.  O(m).
    """
    if m < 1:
        raise ValueError("need at least one pair of strands")
    check_strands(2 * m)
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
    """Where the letters' permutation sends each standard pair, or None when it breaks one.

    The images are signed: pair k goes to pair j as j, or as -j when it
    lands on pair j reversed.  In diagram order the images of a product are
    those of its factors composed, sign times sign.
    """
    if strands % 2 != 0:
        raise ValueError("pairing test needs an even strand count")
    pi = _strand_images(strands, letters)
    images = []
    for k in range(strands // 2):
        a, b = pi[2 * k], pi[2 * k + 1]
        if abs(a - b) != 1 or (min(a, b) % 2) != 1:
            return None
        images.append((a + 1) // 2 if a < b else -(a // 2))
    return tuple(images)


def _type_b_length(gap: tuple[int, ...]) -> int:
    """The length of a signed pair permutation in the Coxeter group B_m.

    With g0 negating entry 1 and the pair swaps exchanging entries i and
    i + 1, the length is inv + neg + nsp: the pairs j < k with gap[j] >
    gap[k], the negative entries, and the pairs j < k with gap[j] + gap[k]
    < 0 (Bjoerner and Brenti, Combinatorics of Coxeter Groups, Prop. 8.1.1).
    The last two sum to minus the sum of the negative entries, which is
    what this adds to the inversion count.  O(m log m) comparisons.
    """
    seen: list[int] = []
    length = 0
    for x in gap:
        length += len(seen) - bisect_right(seen, x) - min(x, 0)
        insort(seen, x)
    return length


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
    return Permutation(tuple(map(abs, images)))


@_frozen
class HildenExpression:
    """A word in the Hilden generators: (generator index, +1 or -1) factors.

    The pair count and each factor's index and exponent are stored as plain
    ints, as a braid word's letters are.
    """

    pairs: int
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _plain_int(self.pairs, "pair count"))
        if self.pairs < 1:
            raise ValueError("need at least one pair of strands")
        factors = tuple(
            (_plain_int(idx, "generator index"), _plain_int(exp, "exponent"))
            for idx, exp in self.factors
        )
        object.__setattr__(self, "factors", factors)
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


def _pruned_moves(steps, target_sum: int, max_len: int, apply):
    """The successors of a membership state, less the children that cannot reach the target.

    A child kept at depth k must still reach the target in ``max_len - k``
    factors; each factor moves the exponent sum by at most ``max_step_sum``
    and the type-B distance by exactly one.  The undo child is not built
    (see ``bfs``).  ``apply`` extends a fingerprint by a factor's letters.
    """
    max_step_sum = max(abs(step_sum) for _, _, step_sum, _ in steps)

    def successors(state, path):
        fp, esum, gap, dist = state
        remaining = max_len - len(path) - 1
        undo = (path[-1][0], -path[-1][1]) if path else None
        children = []
        for move, letters, step_sum, swap in steps:
            if move == undo:
                continue
            new_sum = esum + step_sum
            if abs(target_sum - new_sum) > remaining * max_step_sum:
                continue
            if swap:
                a, b = gap[swap - 1], gap[swap]
                new_dist = dist + 1 if a < b else dist - 1
                if new_dist > remaining:
                    continue
                new_gap = gap[: swap - 1] + (b, a) + gap[swap + 1 :]
            else:
                head = gap[0]
                new_dist = dist + 1 if head > 0 else dist - 1
                if new_dist > remaining:
                    continue
                new_gap = (-head,) + gap[1:]
            children.append((move, (apply(fp, letters), new_sum, new_gap, new_dist)))
        return children

    return successors


_state_key = itemgetter(0)


def search_membership(word: BraidWord, max_len: int) -> HildenExpression | None:
    """Bounded search for a Hilden expression equal to ``word``.

    Returns the lexicographically least expression among the shortest ones
    with at most ``max_len`` factors (factors ranked as ``_factor_table``
    lists them), or None when the bound is exhausted.  The verdict None is
    therefore only "not found within budget".  Group elements are memoised
    by fingerprint.  ``max_len`` is read as a plain int, and ValueError is
    raised when it is not one or is negative.

    States.  A state is ``(fingerprint, exponent sum, gap, distance)``.
    A member acts on the m standard pairs as an element of the
    hyperoctahedral group B_m, written as its signed pair images
    (``_pair_images``), which compose in diagram order; g0 acts as the
    Coxeter generator s_0, which turns pair 1 over, and a factor with swap
    i as s_i, which exchanges pairs i and i + 1.  With p the prefix's
    signed pair permutation and t the target's, ``gap`` is p^-1 t and
    ``distance`` its type-B length inv + neg + nsp (``_type_b_length``):
    the inversions, the negative entries, and the pairs of entries with a
    negative sum.  At the start ``gap`` is t.  A factor acting as s takes p
    to p s and ``gap`` to s p^-1 t: s_i exchanges entries i and i + 1, s_0
    negates entry 1.  A generator moves any Coxeter length by exactly one,
    here +1 if entry i is less than entry i + 1, else -1, and for s_0 +1
    if entry 1 is positive, else -1 (Bjoerner and Brenti, Prop. 8.1.2).
    So a state at depth k whose distance exceeds max_len - k is no prefix
    of an expression of t within the bound, and dropping it is exact.  The
    key is the fingerprint alone, and ``gap`` is a function of the group
    element, so the states visited and the expression returned do not
    depend on how the pairs are tracked.

    Two sides.  The forward side is ``bfs`` from the identity, to depth
    ceil(max_len / 2).  The backward side is ``bfs`` from t, to depth
    floor(max_len / 2); its move f takes y to y f^-1, so after the moves
    f_1, ..., f_j it holds y = t u^-1 with u = f_j ... f_1.  Its states
    mirror the forward ones with the identity as target: the exponent sum
    must come back to 0, and with z the signed pair permutation of y the
    gap is z^-1, which y f^-1 takes to s z^-1, so the same rule moves the
    distance by one.  Its start distance is t's, as t^-1 has t's length.
    A child kept at depth k must reach its side's target in max_len - k
    factors, by exponent sum and by distance; every state of an expression
    of t within ``max_len`` factors passes, on either side.

    Meeting.  Let W = w_1 ... w_d be the least shortest expression of t
    and k <= d.  The prefix w_1 ... w_k is a shortest expression of its
    element x, or W would shorten, and the least one, or W would not be
    least; so it is the forward bfs path P(x).  Likewise the suffix is the
    least shortest expression of x^-1 t, and the backward side reaches x at
    depth d - k.  Conversely, an x of forward depth k that the backward
    side reached at depth j gives an expression P(x) f_j ... f_1 of t with
    k + j factors.  So the search tries d = 0, 1, ... in turn and asks
    whether some x of forward layer ceil(d/2) has backward depth at most
    floor(d/2): for odd d it streams the forward layer as bfs yields it,
    for even d it scans the stored layer once the backward depth d/2 is
    done.  The first d answered yes is |t|.  There every such x has
    |x| = ceil(d/2) and |x^-1 t| = floor(d/2), and P(x) followed by the
    least shortest expression S of x^-1 t is a shortest expression of t, so
    P(x) is also the least shortest expression of x.  A bfs layer comes in
    lexicographic order of its paths, so the first such x in yield order
    starts W, and W = P(x) S.

    Suffix.  When floor(d/2) <= 1, S is the backward path itself: no
    factors, or the one factor, the only one-factor expression of its
    braid.  Otherwise S is the forward search for u = x^-1 t with bound
    floor(d/2).  Its exponent sum is t's less x's, its signed pair
    permutation is x's gap and its length x's distance, all carried by x's
    state, so the target's pairs are walked once; its fingerprint is that
    of the backward path's letters.

    Cost.  With b = 2(m + 1) signed factors and witness length d, the
    sides build about b^ceil(d/2) + b^floor(d/2) states and the suffix at
    most b^floor(d/2), where a one-sided search built b^d; a search that
    finds nothing builds both sides to their bounds.  A state past the
    start builds at most b - 1 children (see ``bfs``).
    Each side reads one state past each layer it finishes.  Each state kept
    costs an m-tuple copy and a fingerprint extension.  The extensions of the forward side
    and of the suffix search do not depend on the target, so they go
    through the process-wide memo ``words._cached_apply``: a step that an
    earlier search took is fingerprinted once per process while the memo
    holds it, and costs a hash of the parent's fingerprint after that.
    The backward side starts from the target and extends plainly.  The
    memo changes no state, order or witness (see its docstring).  The
    factor table costs O(m), and t's length O(m log m) comparisons.
    """
    max_len = _plain_int(max_len, "max_len")
    if max_len < 0:
        raise ValueError(f"max_len must not be negative, got {max_len}")
    if word.strands % 2 != 0:
        raise ValueError("membership search needs an even strand count")
    target_gap = _pair_images(word.strands, word.letters)
    if target_gap is None:
        return None
    m = word.strands // 2
    target_fp = _apply(_basis(word.strands), word.letters)
    target_sum = exponent_sum(word)
    steps = _factor_table(m)
    letters_of = {move: letters for move, letters, _, _ in steps}
    # the backward move f right-multiplies by f^-1
    back_steps = [
        (move, letters_of[move[0], -move[1]], -step_sum, swap)
        for move, _, step_sum, swap in steps
    ]
    target_inverse = [0] * m
    for k, x in enumerate(target_gap, start=1):
        target_inverse[abs(x) - 1] = k if x > 0 else -k
    dist = _type_b_length(target_gap)
    identity = _basis(2 * m)
    forward = bfs(
        (identity, 0, target_gap, dist),
        _state_key,
        _pruned_moves(steps, target_sum, max_len, _cached_apply),
        (max_len + 1) // 2,
    )
    backward = bfs(
        (target_fp, target_sum, tuple(target_inverse), dist),
        _state_key,
        _pruned_moves(back_steps, 0, max_len, _apply),
        max_len // 2,
    )

    def joined(meeting, back_path):
        _, (_, esum, gap, dist), path = meeting
        if len(back_path) <= 1:
            return HildenExpression(m, path + back_path)
        u = tuple(g for move in reversed(back_path) for g in letters_of[move])
        u_fp, bound = _apply(identity, u), len(back_path)
        moves = _pruned_moves(steps, target_sum - esum, bound, _cached_apply)
        for fp, _, suffix in bfs((identity, 0, gap, dist), _state_key, moves, bound):
            if fp == u_fp:
                return HildenExpression(m, path + suffix)

    back = {}  # fingerprint -> path of each backward state of the depths done
    layer = [next(forward)]
    ahead = next(forward, None)
    behind = next(backward)
    for d in range(max_len + 1):
        if d % 2:
            # stream forward layer (d + 1) / 2 against backward depths up to (d - 1) / 2
            depth, layer = (d + 1) // 2, []
            while ahead is not None and len(ahead[2]) == depth:
                if ahead[0] in back:
                    return joined(ahead, back[ahead[0]])
                layer.append(ahead)
                ahead = next(forward, None)
        else:
            # finish backward depth d / 2, then scan forward layer d / 2 in yield order
            while behind is not None and len(behind[2]) == d // 2:
                back[behind[0]] = behind[2]
                behind = next(backward, None)
            for item in layer:
                if item[0] in back:
                    return joined(item, back[item[0]])
    return None


def _hilden_ball(m: int, depth: int) -> Iterator[tuple[tuple, HildenExpression, tuple[int, ...]]]:
    """(fingerprint, least expression, inverse letters) of each Hilden element within ``depth`` factors.

    Lazily and in breadth-first order, so by factor count: the entries with
    at most d factors come first and are the ball of radius d.  The letters
    of the inverse are read from the one factor table as the entry appears.
    Each step goes through the process-wide memo ``words._cached_apply``,
    so a ball that an earlier call built is fingerprinted once per process
    while the memo holds it; the entries and their order are the same.  A
    state is its fingerprint, and the undo child is not built (see ``bfs``).
    """
    table = {move: letters for move, letters, _, _ in _factor_table(m)}

    def successors(fp, path):
        undo = (path[-1][0], -path[-1][1]) if path else None
        return [(move, _cached_apply(fp, table[move])) for move in table if move != undo]

    for fp, _, factors in bfs(_basis(2 * m), lambda fp: fp, successors, depth):
        inverse = tuple(g for idx, exp in reversed(factors) for g in table[(idx, -exp)])
        yield fp, HildenExpression(m, factors), inverse
