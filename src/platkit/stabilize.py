"""Stabilization moves on plat-closed braid words.

The basic move adds a trivial pair of strands to a 2m-plat: append two
strands on the right and one crossing sigma_2m joining the new pair to the
old ones.  Iterating l times gives

    word  ->  word . sigma_{2m} sigma_{2(m+1)} ... sigma_{2(m+l-1)},

read on 2(m+l) strands.  The generalized move distributes the new pairs
between the old ones according to a profile (l_1, ..., l_m) of counts, one
per original pair: the appended tail conjugates each run of new crossings
into position with pair-swap braids, so the plat closure changes by the
same trivial-pair insertions but at chosen locations.

The tails need not preserve the standard pairing: the basic tail sigma_2
on 4 strands does not, nor does the tail ``2 4`` of the profile (2,) on 6
strands.  What the move keeps is the plat closure's component count and
its bracket up to a unit, which is what makes it a stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .words import BraidWord, BudgetError, embed, product

# The most strands a stabilization may produce.  A profile tail conjugates
# each block by a swap chain across all pairs, so its length grows with the
# square of the pair count: at this bound it stays near a million letters.
# It is below words.MAX_STRANDS, the bound on any strand count.
MAX_STABILIZED_STRANDS = 1024


@dataclass(frozen=True)
class StabilizationProfile:
    """How many new pairs to insert after each of the m original pairs."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a profile needs at least one entry")
        if any(l < 0 for l in self.entries):
            raise ValueError("profile entries must be non-negative")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def pairs(self) -> int:
        """The number m of original pairs."""
        return len(self.entries)

    @property
    def total(self) -> int:
        """The pair count after stabilizing: m plus all inserted pairs."""
        return self.pairs + sum(self.entries)

    def prefix_total(self, i: int) -> int:
        """Pair count after the first i blocks: m + l_1 + ... + l_i."""
        return self.pairs + sum(self.entries[:i])

    @classmethod
    def parse(cls, text: str) -> "StabilizationProfile":
        try:
            return cls(tuple(int(tok) for tok in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad profile {text!r}") from exc

    def text(self) -> str:
        return ",".join(str(l) for l in self.entries)


def stabilize(word: BraidWord, extra_pairs: int) -> BraidWord:
    """Append ``extra_pairs`` trivial pairs on the right of a 2m-plat word.

    This is the profile (0, ..., 0, l): its one block, when l > 0, has the
    empty swap chain swap_chain(m, m - 1, m, .), so the tail is the run
    sigma_2m ... sigma_2(m+l-1); when l = 0 the word comes back unchanged.
    Raises :class:`BudgetError` like :func:`stabilize_by_profile`.
    """
    if word.strands % 2 != 0:
        raise ValueError("stabilization needs an even strand count")
    if extra_pairs < 0:
        raise ValueError("cannot remove pairs")
    m = word.strands // 2
    return stabilize_by_profile(word, StabilizationProfile((0,) * (m - 1) + (extra_pairs,)))


def pair_swap(i: int, strands: int) -> BraidWord:
    """The braid swapping standard pairs i and i+1 wholesale.

    Four crossings: sigma_{2i} sigma_{2i-1} sigma_{2i+1} sigma_{2i}.
    """
    if strands % 2 != 0:
        raise ValueError("pair swaps need an even strand count")
    if not 1 <= i <= strands // 2 - 1:
        raise ValueError(f"pair index {i} out of range for {strands} strands")
    k = 2 * i
    return BraidWord(strands, (k, k - 1, k + 1, k))


def swap_chain(i: int, j: int, pivot: int, strands: int) -> BraidWord:
    """Product of pair swaps carrying pair ``i`` out past the pivot to slot ``j``.

    The word is swap_i ... swap_{pivot-1} followed by swap_pivot^{-1} ...
    swap_j^{-1}; the first run is empty when i = pivot and the second when
    j = pivot - 1.
    """
    pairs = strands // 2
    if not 1 <= i <= pivot:
        raise ValueError(f"need 1 <= i <= {pivot}, got {i}")
    if not pivot - 1 <= j <= pairs - 1:
        raise ValueError(f"need {pivot - 1} <= j <= {pairs - 1}, got {j}")
    parts = [pair_swap(k, strands) for k in range(i, pivot)]
    parts.extend(pair_swap(k, strands).inverse() for k in range(pivot, j + 1))
    return product(parts, strands=strands)


def profile_blocks(profile: StabilizationProfile) -> Iterator[tuple[int, int, BraidWord]]:
    """(lo, hi, swap chain) of each block with inserted pairs, as the tail uses them."""
    m = profile.pairs
    strands = 2 * profile.total
    for i in range(1, m + 1):
        if profile.entries[i - 1] == 0:
            continue
        lo = profile.prefix_total(i - 1)
        hi = profile.prefix_total(i)
        yield lo, hi, swap_chain(i, lo - 1, m, strands)


def stabilization_tail(profile: StabilizationProfile) -> BraidWord:
    """The braid appended by the generalized stabilization with this profile.

    One block per profile entry: the run of new-pair crossings for block i,
    conjugated into place by a swap chain.  Blocks with no inserted pairs
    contribute nothing.
    """
    strands = 2 * profile.total
    parts = []
    for lo, hi, chain in profile_blocks(profile):
        run = BraidWord(strands, tuple(2 * k for k in range(lo, hi)))
        parts.append(chain * run * chain.inverse())
    return product(parts, strands=strands)


def stabilize_by_profile(word: BraidWord, profile: StabilizationProfile) -> BraidWord:
    """Generalized stabilization of a 2m-plat word by a length-m profile.

    Raises :class:`BudgetError`, before building anything, when the result
    would have more than ``MAX_STABILIZED_STRANDS`` strands.
    """
    if word.strands != 2 * profile.pairs:
        raise ValueError(
            f"profile has {profile.pairs} entries but the word has "
            f"{word.strands} strands"
        )
    n = 2 * profile.total
    if n > MAX_STABILIZED_STRANDS:
        raise BudgetError(
            f"stabilizing to {n} strands is over the limit of {MAX_STABILIZED_STRANDS}"
        )
    return embed(word, n) * stabilization_tail(profile)
