"""Braid words on n strands and an exact solution to their word problem.

A braid word is a finite sequence of signed generator indices: the letter
``i`` (1 <= i <= n-1) crosses strand i over strand i+1, and ``-i`` is the
inverse crossing.  Words multiply by concatenation and are never normalised
internally; equality of the group elements they represent is decided by
:func:`braids_equal`.

The decision rests on the faithful action of the braid group on a free
group F_n = <x_1, ..., x_n>:

    sigma_i:  x_i -> x_i x_{i+1} x_i^{-1},   x_{i+1} -> x_i,

with all other x_j fixed.  Two words are equal exactly when the images of
all n basis letters agree as freely reduced words.  The images are the
canonical fingerprint used throughout the package for memoisation.

Their letter count can grow exponentially with the length of the word, so
:func:`braids_equal` decides ``a = b`` as ``a b^-1 = 1`` and fingerprints as
little of that quotient as it can.  Every step is exact:

1. Prefilters: equal braids have equal exponent sums and equal strand
   permutations, since both are homomorphisms (to Z and to S_n).
2. Free reduction of ``c = a b^-1``: cancelling sigma_i sigma_i^-1 is an
   isotopy, so the reduced word is the same braid.
3. Cyclic reduction: stripping ``x ... x^-1`` from the two ends of ``c``
   replaces it by a conjugate, and a conjugate is trivial exactly when
   ``c`` is.  An empty word is the identity.
4. Halves: ``c = c1 c2`` is trivial exactly when ``c1 = c2^-1``, which the
   fingerprints of the two halves decide.

Conjugated relators ``w r w^-1``, inverses ``w w^-1`` and near-copies such as
``w`` against ``w1 p w2`` thus reduce to ``r``, to nothing and to ``p^-1``
before any fingerprint is taken.  Each half has at most
ceil((|a| + |b|) / 2) <= max(|a|, |b|) letters, so no input is fingerprinted
on a longer word than the two words themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg


DEFAULT_FINGERPRINT_GUARD = 10**6

# The most strands that per-strand tables (permutations, fingerprints,
# pairings) are built for; at least stabilize.MAX_STABILIZED_STRANDS.
MAX_STRANDS = 1 << 16


class BudgetError(RuntimeError):
    """A configured resource budget (letters, crossings, nodes) ran out."""


class CertificateError(ValueError):
    """A claimed compilation certificate failed verification."""


class OpenSystemError(ValueError):
    """A braid system's boundary braid is not trivial where a closed one is needed."""


def check_strands(strands: int) -> int:
    """``strands``, once it is a count that per-strand tables may be built for.

    Raises ValueError for a negative count and :class:`BudgetError` above
    ``MAX_STRANDS``.
    """
    if strands < 0:
        raise ValueError(f"strand count must not be negative, got {strands}")
    if strands > MAX_STRANDS:
        raise BudgetError(f"{strands} strands is over the limit of {MAX_STRANDS}")
    return strands


def _free_inv(u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, u[::-1]))


def _free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Cancel adjacent sigma_i sigma_i^{-1} pairs (an exact isotopy of the word)."""
    out: list[int] = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _strand_images(strands: int, letters: tuple[int, ...]) -> list[int]:
    """Where each bottom endpoint ends up at the top: the images of :func:`strand_permutation`."""
    images = list(range(1, check_strands(strands) + 1))
    # read bottom to top, letter i swaps the strands at positions i and i+1;
    # the inverse of that walk makes the same swaps, top letter first
    for g in reversed(letters):
        i = abs(g) - 1
        images[i], images[i + 1] = images[i + 1], images[i]
    return images


def _conjugate(w: tuple[int, ...], w_inv: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
    """The freely reduced w x w^-1, from freely reduced w, its inverse and x.

    One scan per seam and one concatenation, where reducing w x and then
    (w x) w^-1 would build the intermediate word.
    """
    n, lx = len(w), len(x)
    k = 0  # letters cancelled at the seam w | x
    while k < n and k < lx and w[n - 1 - k] == -x[k]:
        k += 1
    m = 0  # letters cancelled at the seam x | w^-1, where w^-1[s] = -w[n-1-s]
    while m < n and k + m < lx and x[lx - 1 - m] == w[n - 1 - m]:
        m += 1
    if k + m < lx:
        return w[: n - k] + x[k : lx - m] + w_inv[m:]
    # all of x[k:] cancelled, so the second seam runs on into w[: n - k]
    p = n - k
    while m < n and p > 0 and w[p - 1] == w[n - 1 - m]:
        p -= 1
        m += 1
    return w[:p] + w_inv[m:]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} stored by its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Diagram-order composition: (p * q)(i) = q(p(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(other.images[x - 1] for x in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.size
        for i, x in enumerate(self.images, start=1):
            images[x - 1] = i
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images, start=1))

    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * self.size
        lengths = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            length = 0
            x = start
            while not seen[x - 1]:
                seen[x - 1] = True
                x = self(x)
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands.

    Letters are nonzero integers with absolute value below ``strands``; the
    stored sequence is exactly what was written, with no reduction applied.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("strand count must be positive")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if g == 0 or abs(g) >= self.strands:
                raise ValueError(f"letter {g} out of range for {self.strands} strands")

    @classmethod
    def identity(cls, strands: int) -> "BraidWord":
        return cls(strands, ())

    @classmethod
    def generator(cls, i: int, strands: int, power: int = 1) -> "BraidWord":
        """The word sigma_i^power."""
        if power >= 0:
            return cls(strands, (i,) * power)
        return cls(strands, (-i,) * (-power))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.strands, self.letters * k)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, _free_inv(self.letters))

    def free_reduced(self) -> "BraidWord":
        """Cancel adjacent sigma_i sigma_i^{-1} pairs (an exact isotopy of the word)."""
        return BraidWord(self.strands, _free_reduce(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        return " ".join(str(g) for g in self.letters)


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse a whitespace-separated list of signed generator indices."""
    letters = []
    for tok in text.split():
        try:
            g = int(tok)
        except ValueError as exc:
            raise ValueError(f"bad braid letter {tok!r}") from exc
        letters.append(g)
    return BraidWord(strands, tuple(letters))


def json_field(obj: object, key: str, kind: type, default: object = None):
    """``obj[key]`` from parsed JSON, checked to be a ``kind`` (a bool is no int).

    ``obj`` must be a JSON object.  A missing key falls back to ``default``
    when one is given; a missing key without one and a value of the wrong
    type raise ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if default is None and key not in obj:
        raise ValueError(f"missing field {key!r}")
    value = obj.get(key, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def embed(word: BraidWord, strands: int) -> BraidWord:
    """Reinterpret ``word`` inside a braid group on at least as many strands."""
    if strands < word.strands:
        raise ValueError("cannot embed into fewer strands")
    return BraidWord(strands, word.letters)


def strand_permutation(word: BraidWord) -> Permutation:
    """Where each bottom endpoint ends up at the top of the braid."""
    return Permutation(tuple(_strand_images(word.strands, word.letters)))


def exponent_sum(word: BraidWord) -> int:
    return sum(1 if g > 0 else -1 for g in word.letters)


def identity_images(strands: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(1, check_strands(strands) + 1))


def artin_apply(
    images: tuple[tuple[int, ...], ...],
    letters: tuple[int, ...],
    guard: int = DEFAULT_FINGERPRINT_GUARD,
) -> tuple[tuple[int, ...], ...]:
    """Extend a partial fingerprint by further letters of the same braid word.

    ``images`` is the tuple of free-group images of the basis under some
    prefix; the result is the fingerprint of the prefix followed by
    ``letters``.  Raises :class:`BudgetError` when the total letter count of
    the images passes ``guard``.
    """
    work = [tuple(u) for u in images]
    total = sum(len(u) for u in work)
    for g in letters:
        i = abs(g) - 1
        a, b = work[i], work[i + 1]
        if g > 0:
            work[i] = _conjugate(a, _free_inv(a), b)
            work[i + 1] = a
        else:
            work[i] = b
            work[i + 1] = _conjugate(_free_inv(b), b, a)
        total += len(work[i]) + len(work[i + 1]) - len(a) - len(b)
        if total > guard:
            raise BudgetError(
                f"free-group fingerprint grew past {guard} letters"
            )
    return tuple(work)


def artin_fingerprint(
    word: BraidWord, guard: int = DEFAULT_FINGERPRINT_GUARD
) -> tuple[tuple[int, ...], ...]:
    """The images of all free-group basis letters under the word's action.

    This tuple determines the braid: two words on the same strand count
    represent equal braids exactly when their fingerprints agree.
    """
    return artin_apply(identity_images(word.strands), word.letters, guard)


def braids_equal(a: BraidWord, b: BraidWord, guard: int = DEFAULT_FINGERPRINT_GUARD) -> bool:
    """Exact word-problem test for two words on the same strand count.

    Decides ``a b^-1 = 1`` in the steps of the module docstring: the
    exponent-sum and permutation prefilters, free and then cyclic reduction
    of ``a b^-1``, and, unless that leaves nothing, a comparison of the
    fingerprints of its first half and of the inverse of its second half.
    ``guard`` bounds each half's fingerprint as :func:`artin_fingerprint`
    bounds a word's, and :class:`BudgetError` is raised when one passes it.
    """
    if a.strands != b.strands:
        raise ValueError("words live on different strand counts")
    if exponent_sum(a) != exponent_sum(b):
        return False
    if _strand_images(a.strands, a.letters) != _strand_images(b.strands, b.letters):
        return False
    c = _free_reduce(a.letters + _free_inv(b.letters))
    lo, hi = 0, len(c)
    while lo < hi and c[lo] == -c[hi - 1]:
        lo += 1
        hi -= 1
    if lo == hi:
        return True
    mid = (lo + hi) // 2
    start = identity_images(a.strands)
    return artin_apply(start, c[lo:mid], guard) == artin_apply(start, _free_inv(c[mid:hi]), guard)


def product(words: list[BraidWord] | tuple[BraidWord, ...], strands: int | None = None) -> BraidWord:
    """Concatenate a sequence of words; the identity when the sequence is empty."""
    seq = list(words)
    if not seq:
        if strands is None:
            raise ValueError("empty product needs an explicit strand count")
        return BraidWord.identity(strands)
    strands = seq[0].strands
    if any(w.strands != strands for w in seq):
        raise ValueError("cannot concatenate words on different strand counts")
    return BraidWord(strands, tuple(g for w in seq for g in w.letters))
