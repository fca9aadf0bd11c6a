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

Inside the package each image is held coded, one element per free-group
letter: below 128 strands a bytes object, the letter x_g^(+-1) stored as
the byte +-g mod 256, and from 128 strands on a str, the letter stored as
the code point +-g mod 0x110000.  Slicing, concatenation, comparison and
hashing of an image then run in C, and an image is inverted by reversing it
and translating each letter to its inverse's code.  One kernel,
``_extend``, serves both codes.  The public functions keep tuples of int
letters at the boundary: :func:`identity_images` and :func:`artin_apply`
take and return them, and :func:`artin_fingerprint` decodes its images
once, at the end.  Such a tuple and a coded image hash differently, but
nothing depends on hash order: the searches iterate dicts in insertion
order and use sets for membership only.

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

from operator import attrgetter, index, neg
from threading import Lock


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


def _conjugate(w, w_inv, x):
    """The freely reduced w x w^-1, from freely reduced w, its inverse and x.

    The three are coded images or tuples of int letters: the letters cancel
    at a seam where one equals the other's inverse, which reads as equality
    against ``w_inv``, so no letter is negated.  Each seam is scanned a letter
    at a time for its first six letters, the common case, and past that
    by slices of doubling length (:func:`_prefix_agreement`,
    :func:`_suffix_agreement`); one concatenation builds the result, where
    reducing w x and then (w x) w^-1 would build the intermediate word.
    """
    n, lx = len(w), len(x)
    # seam w | x: w[n-1-j] cancels x[j] when w_inv[j] == x[j]
    k, top = 0, n if n < lx else lx
    while k < top and w_inv[k] == x[k]:
        k += 1
        if k == 6:
            k = _prefix_agreement(w_inv, x, k, top)
            break
    # seam x | w^-1: x[lx-1-j] cancels w_inv[j] when it equals w[n-1-j]
    m, top = 0, n if n < lx - k else lx - k
    while m < top and x[lx - 1 - m] == w[n - 1 - m]:
        m += 1
        if m == 6:
            m = _suffix_agreement(x, lx, w, n, m, top)
            break
    if k + m < lx:
        return w[: n - k] + x[k : lx - m] + w_inv[m:]
    # all of x[k:] cancelled, so the second seam runs on into w[: n - k]
    p, q = n - k, n - m
    j, top = 0, p if p < q else q
    while j < top and w[p - 1 - j] == w[q - 1 - j]:
        j += 1
        if j == 6:
            j = _suffix_agreement(w, p, w, q, j, top)
            break
    return w[: p - j] + w_inv[m + j :]


def _prefix_agreement(s, t, k: int, top: int) -> int:
    """The largest j <= top with s[:j] == t[:j], given that s[:k] == t[:k] for some k >= 1.

    Compares slices of doubling length, then halves the window with the
    first difference: O(log) comparisons, each run by the sequence type.
    """
    step = k
    while k < top:
        hi = min(k + step, top)
        if s[k:hi] != t[k:hi]:
            while hi - k > 1:
                mid = (k + hi) // 2
                if s[k:mid] == t[k:mid]:
                    k = mid
                else:
                    hi = mid
            return k
        k, step = hi, 2 * step
    return k


def _suffix_agreement(s, a: int, t, b: int, k: int, top: int) -> int:
    """The largest j <= top with s[a-j:a] == t[b-j:b], given that it holds for some j = k >= 1.

    :func:`_prefix_agreement` read from the ends; ``top`` is at most a and b.
    """
    step = k
    while k < top:
        hi = min(k + step, top)
        if s[a - hi : a - k] != t[b - hi : b - k]:
            while hi - k > 1:
                mid = (k + hi) // 2
                if s[a - mid : a - k] == t[b - mid : b - k]:
                    k = mid
                else:
                    hi = mid
            return k
        k, step = hi, 2 * step
    return k


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen value."""


def _frozen(cls):
    """Make ``cls`` a frozen value class over the fields its body annotates.

    The fields are the annotated names, in order; a class attribute of the
    same name is that field's default, and fields with a default come after
    those without.  The class gains:

    - ``__init__``, which binds the fields by position or by name, fills the
      missing ones from their defaults (TypeError for a field given twice or
      with no value, and for an extra argument), stores them, and then calls
      ``self.__post_init__()`` if the class has that method; it may replace
      a field through ``object.__setattr__``;
    - ``__eq__``, true when the other object is of the very same class and
      the tuples of fields are equal, ``NotImplemented`` for another class;
    - ``__hash__``, the hash of the tuple of fields;
    - ``__repr__``, ``Name(field=value, ...)`` with each value's repr;
    - ``__setattr__`` and ``__delattr__``, which raise
      :class:`FrozenInstanceError`;
    - ``__match_args__``, the tuple of field names.

    That is what ``@dataclass(frozen=True)`` makes of such a class, so
    equality, hashes (and with them set orders) and reprs are the same as a
    dataclass's.  Each method is a closure over the field names: nothing
    is generated as source and run, and importing platkit does not import
    the standard library's dataclass module.
    """
    names = tuple(cls.__annotations__)
    count, missing = len(names), object()
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post = hasattr(cls, "__post_init__")
    positions, set_field = tuple(enumerate(names)), object.__setattr__
    get = attrgetter(*names)
    values = get if count > 1 else lambda self: (get(self),)

    def bind(args, kwargs):
        # raises TypeError with the words Python uses for a dataclass's __init__
        call = f"{cls.__name__}.__init__()"
        if len(args) > count:
            raise TypeError(
                f"{call} takes {count + 1} positional arguments but {len(args) + 1} were given"
            )
        args = list(args)
        for name in names[len(args) :]:
            args.append(kwargs.pop(name, defaults.get(name, missing)))
            if args[-1] is missing:
                raise TypeError(f"{call} missing 1 required positional argument: {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            given = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{call} got {given} argument {name!r}")
        return args

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        # object.__setattr__, as a dataclass does: writing to self.__dict__
        # instead would make CPython keep a separate dict per instance,
        # whose attribute reads are slower
        for i, name in positions:
            set_field(self, name, args[i])
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@_frozen
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
        return _cycle_type(self.images)


def _cycle_type(images: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """The sorted cycle lengths of the permutation of {1, ..., n} with these images."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x] - 1
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def _plain_int(value, what: str = "letter") -> int:
    """``value`` as a plain int, by ``operator.index``; ValueError naming it when it is not an integer."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


@_frozen
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands.

    Letters are nonzero integers with absolute value below ``strands``; the
    stored sequence is exactly what was written, with no reduction applied,
    each letter a plain int; the strand count is stored as a plain int too.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if type(self.strands) is not int:
            object.__setattr__(self, "strands", _plain_int(self.strands, "strand count"))
        if self.strands < 1:
            raise ValueError("strand count must be positive")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if type(g) is not int:
                # store each letter as a plain int (a bool too), then check again
                object.__setattr__(self, "letters", tuple(map(_plain_int, self.letters)))
                return self.__post_init__()
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
    return _letter_sum(word.letters)


def _letter_sum(letters: tuple[int, ...]) -> int:
    """The exponent sum of a word with these letters."""
    return sum(1 if g > 0 else -1 for g in letters)


def identity_images(strands: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(1, check_strands(strands) + 1))


# The codes of the module docstring: below _NARROW strands bytes, from it on str.
_NARROW = 128
_WIDE_MOD = 0x110000
_NARROW_BASIS = tuple(bytes((i,)) for i in range(1, _NARROW))
_NARROW_INVERSE = bytes(-c & 255 for c in range(256))


class _WideInverse(dict):
    """``str.translate``'s table for wide images: a code point to its inverse's, stored as met."""

    def __missing__(self, c: int) -> int:
        self[c] = inverse = -c % _WIDE_MOD
        return inverse


_WIDE_INVERSE = _WideInverse()


def _basis(strands: int) -> tuple:
    """The coded images of x_1, ..., x_n: the fingerprint of the empty word."""
    if check_strands(strands) < _NARROW:
        return _NARROW_BASIS[:strands]
    return tuple(map(chr, range(1, strands + 1)))


def _encode(images) -> tuple:
    """Images given as sequences of int letters, coded.

    ValueError for a letter 0 or one over ``MAX_STRANDS`` in size.
    """
    images = [tuple(u) for u in images]
    top = max((max(map(abs, u)) for u in images if u), default=0)
    if top > MAX_STRANDS or any(0 in u for u in images):
        raise ValueError(f"free-group letters must be nonzero and at most {MAX_STRANDS} in size")
    if top < _NARROW:
        return tuple(bytes(map((255).__and__, u)) for u in images)
    return tuple("".join([chr(g % _WIDE_MOD) for g in u]) for u in images)


def _decode(images: tuple) -> tuple[tuple[int, ...], ...]:
    """Coded images as tuples of plain int letters."""
    if images and type(images[0]) is bytes:
        return tuple(tuple(memoryview(u).cast("b").tolist()) for u in images)
    half = _WIDE_MOD // 2
    return tuple(tuple(c if c < half else c - _WIDE_MOD for c in map(ord, u)) for u in images)


def artin_apply(
    images: tuple[tuple[int, ...], ...],
    letters: tuple[int, ...],
    guard: int = DEFAULT_FINGERPRINT_GUARD,
) -> tuple[tuple[int, ...], ...]:
    """Extend a partial fingerprint by further letters of the same braid word.

    ``images`` is the tuple of free-group images of the basis under some
    prefix; the result is the fingerprint of the prefix followed by
    ``letters``.  Raises :class:`BudgetError` when the total letter count of
    the images passes ``guard``.  Both are tuples of int letters; the work
    runs on coded images.
    """
    return _decode(_apply(_encode(images), letters, guard))


def _apply(
    images: tuple, letters: tuple[int, ...], guard: int = DEFAULT_FINGERPRINT_GUARD
) -> tuple:
    """:func:`artin_apply` on coded images."""
    return _extend(images, letters, guard)[0]


def _extend(images: tuple, letters: tuple[int, ...], guard: int) -> tuple[tuple, int, int]:
    """:func:`_apply`'s result, with the letter counts of ``images`` and of the result.

    The one fingerprint kernel.  sigma_i puts image i + 1 conjugated by
    image i in slot i and moves image i to slot i + 1; sigma_i^-1 moves
    image i + 1 to slot i and puts image i conjugated by the inverse of
    image i + 1 in slot i + 1.  The code is read once, off the first image.
    """
    work = list(images)
    start = total = sum(map(len, work))
    inverse = _NARROW_INVERSE if work and type(work[0]) is bytes else _WIDE_INVERSE
    conjugate = _conjugate
    for g in letters:
        i = abs(g) - 1
        a, b = work[i], work[i + 1]
        if g > 0:
            work[i] = c = conjugate(a, a[::-1].translate(inverse), b)
            work[i + 1] = a
            total += len(c) - len(b)
        else:
            work[i] = b
            work[i + 1] = c = conjugate(b[::-1].translate(inverse), b, a)
            total += len(c) - len(a)
        if total > guard:
            raise BudgetError(
                f"free-group fingerprint grew past {guard} letters"
            )
    return tuple(work), start, total


# _cached_apply's bound on the letters of its memo's entries, counted apart even
# where entries share a tuple; one surface_search pass of the benchmark holds
# about a quarter of it
_APPLY_MEMO_LETTERS = 1 << 21
_apply_memo: dict[tuple, tuple] = {}
_apply_memo_letters = 0
_apply_memo_lock = Lock()


def _cached_apply(images: tuple, letters: tuple[int, ...]) -> tuple:
    """``_apply(images, letters)``, from a process-wide memo when it holds it.

    For the search steps whose inputs do not depend on the search's target:
    the forward and suffix sides of Hilden membership, the Hilden ball and
    the entry fingerprints of the Hurwitz search.  Each such step is thus
    fingerprinted once per process while the memo holds it.

    Same answers.  ``_apply`` is a pure function of its arguments, and
    its result is a tuple of coded images, which nothing can change.  A
    stored result is one that a call with equal arguments and the default
    guard returned, so a fresh call would return an equal tuple again; a
    call that raises :class:`BudgetError` stores nothing, so the next one
    runs and raises again.  Hence every call returns a value equal to what
    ``_apply`` would return, or raises the same error, and a search
    that steps through here visits the same states in the same order, with
    the same witnesses, explored counts and guard trips, whatever the memo
    holds.  The searches compare fingerprints by value, never by identity,
    so that one result is shared between searches is not seen either.

    Bound.  An entry counts the letters of its start images, of its letters
    and of its result.  When storing one would take the count past
    ``_APPLY_MEMO_LETTERS``, the memo is cleared whole first; an entry
    larger than the bound by itself is not stored.  A lock keeps the count
    and the entries in step when threads store at once.  A lookup takes no
    lock: whatever it finds was stored whole, so it is a correct result.

    Memory.  A coded image holds one byte per letter below 128 strands; from
    128 strands on, a str of up to four bytes per letter (four once it holds
    an inverse letter, whose code point is above 0xFFFF).  Each image also
    has its object header, 33 bytes for bytes and 49 to 76 for a str, and
    the letters of a key are a tuple of ints at eight bytes a letter.
    """
    global _apply_memo_letters
    key = images, letters
    out = _apply_memo.get(key)
    if out is None:
        out, start, total = _extend(images, letters, DEFAULT_FINGERPRINT_GUARD)
        size = start + len(letters) + total
        if size <= _APPLY_MEMO_LETTERS:
            with _apply_memo_lock:
                if _apply_memo_letters + size > _APPLY_MEMO_LETTERS:
                    _apply_memo.clear()
                    _apply_memo_letters = 0
                if _apply_memo.setdefault(key, out) is out:
                    _apply_memo_letters += size
    return out


def artin_fingerprint(
    word: BraidWord, guard: int = DEFAULT_FINGERPRINT_GUARD
) -> tuple[tuple[int, ...], ...]:
    """The images of all free-group basis letters under the word's action.

    This tuple determines the braid: two words on the same strand count
    represent equal braids exactly when their fingerprints agree.  It is
    computed on coded images and decoded once, at the end.
    """
    return _decode(_apply(_basis(word.strands), word.letters, guard))


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
    start = _basis(a.strands)
    return _apply(start, c[lo:mid], guard) == _apply(start, _free_inv(c[mid:hi]), guard)


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
