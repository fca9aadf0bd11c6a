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

from .words import BraidWord, BudgetError, _free_inv, _frozen, _insert, _plain_int

# The most strands a stabilization may produce.  A profile tail conjugates
# each block by a swap chain across all pairs, so its length grows with the
# square of the pair count: at this bound it stays near a million letters.
# It is below words.MAX_STRANDS, the bound on any strand count.
MAX_STABILIZED_STRANDS = 1024


@_frozen
class StabilizationProfile:
    """How many new pairs to insert after each of the m original pairs."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        # each entry is stored as a plain int (a bool too), as letters are
        entries = tuple(_plain_int(l, "profile entry") for l in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("a profile needs at least one entry")
        if any(l < 0 for l in entries):
            raise ValueError("profile entries must be non-negative")

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

    Four crossings: sigma_{2i} sigma_{2i-1} sigma_{2i+1} sigma_{2i}, the
    one-swap chain swap_chain(i, i, i + 1, strands).
    """
    i = _plain_int(i, "pair index")
    if strands % 2 != 0:
        raise ValueError("pair swaps need an even strand count")
    if not 1 <= i <= strands // 2 - 1:
        raise ValueError(f"pair index {i} out of range for {strands} strands")
    return swap_chain(i, i, i + 1, strands)


def swap_chain(i: int, j: int, pivot: int, strands: int) -> BraidWord:
    """Product of pair swaps carrying pair ``i`` out past the pivot to slot ``j``.

    The word is swap_i ... swap_{pivot-1} followed by swap_pivot^{-1} ...
    swap_j^{-1}; the first run is empty when i = pivot and the second when
    j = pivot - 1.  This is the one place the four letters of a swap are written.
    """
    i, j, pivot = (_plain_int(v, "pair index") for v in (i, j, pivot))
    pairs = strands // 2
    if not 1 <= i <= pivot:
        raise ValueError(f"need 1 <= i <= {pivot}, got {i}")
    if not pivot - 1 <= j <= pairs - 1:
        raise ValueError(f"need {pivot - 1} <= j <= {pairs - 1}, got {j}")
    if strands % 2 != 0 and i <= j:
        raise ValueError("pair swaps need an even strand count")
    letters: list[int] = []
    for k in range(2 * i, 2 * pivot, 2):
        letters += (k, k - 1, k + 1, k)
    for k in range(2 * pivot, 2 * j + 2, 2):
        letters += (-k, -k - 1, 1 - k, -k)
    return BraidWord(strands, tuple(letters))


def _tail_with_events(profile: StabilizationProfile) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """The layout of a stabilization tail: its scaffold and the insertions that complete it.

    Block i, for each l_i > 0, is the swap chain carrying pair i out to
    slot lo - 1, the run sigma_2lo ... sigma_2(hi-1) of its new-pair
    crossings, then the chain's inverse, where lo = m + l_1 + ... + l_(i-1)
    and hi = lo + l_i.  The scaffold is the tail without its runs, a word
    equal to the identity; the events are the ordered (position, letter)
    insertions that put the runs back.
    """
    m, strands = profile.pairs, 2 * profile.total
    scaffold: list[int] = []
    events: list[tuple[int, int]] = []
    lo = m
    for i, count in enumerate(profile.entries, start=1):
        if count:
            chain = swap_chain(i, lo - 1, m, strands).letters
            start = len(scaffold) + len(events) + len(chain)
            events.extend((start + j, 2 * k) for j, k in enumerate(range(lo, lo + count)))
            scaffold.extend(chain)
            scaffold.extend(_free_inv(chain))
        lo += count
    return tuple(scaffold), events


def stabilization_tail(profile: StabilizationProfile) -> BraidWord:
    """The braid appended by the generalized stabilization with this profile.

    One block per profile entry: the run of new-pair crossings for block i,
    conjugated into place by a swap chain.  Blocks with no inserted pairs
    contribute nothing.
    """
    return BraidWord(2 * profile.total, _insert(*_tail_with_events(profile)))


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
    # the word on n strands, then the letters of stabilization_tail(profile)
    return BraidWord(n, word.letters + _insert(*_tail_with_events(profile)))
