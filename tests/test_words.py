"""Braid words, permutations, and the equality decision."""

import random
import re

import pytest

from platkit.plats import kauffman_bracket, plat_closure
from platkit.stabilize import MAX_STABILIZED_STRANDS
from platkit.words import (
    DEFAULT_FINGERPRINT_GUARD,
    MAX_STRANDS,
    BraidWord,
    BudgetError,
    Permutation,
    _basis,
    _conjugate,
    _decode,
    _encode,
    _free_inv,
    _free_reduce,
    artin_apply,
    artin_fingerprint,
    braids_equal,
    check_strands,
    embed,
    exponent_sum,
    identity_images,
    parse_braid,
    product,
    strand_permutation,
)


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    letters = []
    for _ in range(length):
        g = rng.randint(1, strands - 1)
        letters.append(g if rng.random() < 0.5 else -g)
    return BraidWord(strands, tuple(letters))


class TestBraidWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError):
            BraidWord(2, (0,))
        with pytest.raises(ValueError):
            BraidWord(1, (1,))
        BraidWord(2, (1, -1))

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", None, (1,)])
    def test_non_integer_letter_is_named(self, bad):
        with pytest.raises(ValueError, match=f"^letter {re.escape(repr(bad))} is not an integer$"):
            BraidWord(3, (1, bad))

    def test_bool_and_index_letters_are_stored_as_ints(self):
        class Two:
            def __index__(self):
                return 2

        w = BraidWord(3, (True, -1, Two()))
        assert w.letters == (1, -1, 2)
        assert [type(g) for g in w.letters] == [int, int, int]
        assert w == BraidWord(3, (1, -1, 2)) and hash(w) == hash(BraidWord(3, (1, -1, 2)))
        assert w.text() == "1 -1 2"
        with pytest.raises(ValueError, match="letter 0 out of range"):
            BraidWord(2, (False,))

    @pytest.mark.parametrize("bad", [4.0, 4.5, "4", None])
    def test_non_integer_strand_count_is_named(self, bad):
        with pytest.raises(ValueError, match=f"^strand count {re.escape(repr(bad))} is not an integer$"):
            BraidWord(bad, (1,))

    def test_bool_and_index_strand_counts_are_stored_as_ints(self):
        class Four:
            def __index__(self):
                return 4

        w = BraidWord(True, ())
        assert w.strands == 1 and type(w.strands) is int
        assert w == BraidWord(1) and hash(w) == hash(BraidWord(1))
        w = BraidWord(Four(), (3,))
        assert w.strands == 4 and type(w.strands) is int
        assert w == BraidWord(4, (3,))
        with pytest.raises(ValueError, match="strand count must be positive"):
            BraidWord(False, ())

    def test_float_letter_is_refused_after_a_bracket(self):
        # the bracket keeps its last diagram, compared by value, and 1.0 == 1:
        # a word of float letters must not reach it
        kauffman_bracket(plat_closure(BraidWord(2, (1,))))
        with pytest.raises(ValueError, match="letter 1.0 is not an integer"):
            plat_closure(BraidWord(2, (1.0,)))

    def test_parse_text_round_trip(self):
        w = parse_braid("1 -2  3", 4)
        assert w.letters == (1, -2, 3)
        assert parse_braid(w.text(), 4) == w
        assert parse_braid("", 4) == BraidWord.identity(4)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_braid("1 x", 3)
        with pytest.raises(ValueError):
            parse_braid("3", 3)

    def test_mul_requires_same_strands(self):
        with pytest.raises(ValueError):
            parse_braid("1", 2) * parse_braid("1", 3)

    def test_inverse_letters(self):
        w = parse_braid("1 -2 3", 4)
        assert w.inverse().letters == (-3, 2, -1)

    def test_free_reduction(self):
        w = parse_braid("1 2 -2 -1 3", 4)
        assert w.free_reduced().letters == (3,)
        assert parse_braid("1 -1", 2).free_reduced() == BraidWord.identity(2)

    def test_pow(self):
        w = parse_braid("1 2", 3)
        assert w**3 == w * w * w
        assert w**0 == BraidWord.identity(3)
        assert w**-2 == (w.inverse()) ** 2

    def test_embed(self):
        w = parse_braid("1 2", 3)
        assert embed(w, 5).strands == 5
        assert embed(w, 5).letters == w.letters
        with pytest.raises(ValueError):
            embed(w, 2)


class TestPermutation:
    def test_identity_and_mul(self):
        p = Permutation.identity(4)
        assert p.is_identity()
        q = strand_permutation(parse_braid("1", 4))
        assert (p * q) == q
        assert (q * q.inverse()).is_identity()

    def test_diagram_order_composition(self):
        rng = random.Random(11)
        for _ in range(50):
            w1 = random_word(rng, 5, rng.randint(0, 8))
            w2 = random_word(rng, 5, rng.randint(0, 8))
            assert strand_permutation(w1 * w2) == strand_permutation(
                w1
            ) * strand_permutation(w2)

    def test_sign_invariance(self):
        # a letter and its inverse induce the same transposition
        assert strand_permutation(parse_braid("2", 4)) == strand_permutation(
            parse_braid("-2", 4)
        )

    def test_cycle_type(self):
        assert strand_permutation(parse_braid("1 3", 4)).cycle_type() == (2, 2)
        assert strand_permutation(parse_braid("1 2", 3)).cycle_type() == (3,)
        assert Permutation.identity(3).cycle_type() == (1, 1, 1)

    def test_images_are_a_tuple(self):
        images = [2, 1, 3]
        p = Permutation(images)
        assert p == Permutation((2, 1, 3)) == strand_permutation(parse_braid("1", 3))
        assert hash(p) == hash(Permutation((2, 1, 3)))
        images[:] = [1, 2, 3]
        assert p.images == (2, 1, 3)
        assert not p.is_identity()


def scanned_permutation(word: BraidWord) -> Permutation:
    """Strand permutation by rescanning every strand for each letter."""
    images = list(range(1, word.strands + 1))
    for g in word.letters:
        i = abs(g) - 1
        for p in range(word.strands):
            if images[p] == i + 1:
                images[p] = i + 2
            elif images[p] == i + 2:
                images[p] = i + 1
    return Permutation(tuple(images))


class TestStrandPermutation:
    def test_small_cases(self):
        assert strand_permutation(parse_braid("1", 3)) == Permutation((2, 1, 3))
        assert strand_permutation(parse_braid("1 2", 3)) == Permutation((3, 1, 2))
        assert strand_permutation(BraidWord.identity(4)) == Permutation.identity(4)

    def test_matches_scan(self):
        rng = random.Random(17)
        for _ in range(200):
            w = random_word(rng, rng.randint(2, 12), rng.randint(0, 60))
            assert strand_permutation(w) == scanned_permutation(w)


class TestEquality:
    def test_braid_relations_all_sizes(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                lhs = BraidWord(n, (i, i + 1, i))
                rhs = BraidWord(n, (i + 1, i, i + 1))
                assert braids_equal(lhs, rhs)
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    assert braids_equal(BraidWord(n, (i, j)), BraidWord(n, (j, i)))

    def test_known_conjugation_identity(self):
        # sigma1 sigma2 sigma1^-1 = sigma2^-1 sigma1 sigma2 follows from the relation
        assert braids_equal(parse_braid("1 2 -1", 3), parse_braid("-2 1 2", 3))

    def test_full_twist_is_central(self):
        twist = parse_braid("1 2", 3) ** 3
        for g in ("1", "2", "-1"):
            s = parse_braid(g, 3)
            assert braids_equal(twist * s, s * twist)

    def test_inverses_cancel(self):
        rng = random.Random(5)
        for _ in range(40):
            w = random_word(rng, 6, rng.randint(0, 12))
            assert braids_equal(w * w.inverse(), BraidWord.identity(6))
            assert braids_equal(w.inverse() * w, BraidWord.identity(6))

    def test_free_reduction_preserves_element(self):
        rng = random.Random(6)
        for _ in range(40):
            w = random_word(rng, 5, rng.randint(0, 12))
            assert braids_equal(w, w.free_reduced())

    def test_unequal_on_exponent_sum(self):
        assert not braids_equal(parse_braid("1", 3), parse_braid("1 1", 3))

    def test_unequal_on_permutation(self):
        assert not braids_equal(parse_braid("1 -1 2 -2 1", 3), parse_braid("2", 3))

    def test_unequal_same_perm_same_expsum(self):
        # squared generators are pure with equal exponent sums yet distinct
        a = parse_braid("1 1 2 2", 3)
        b = parse_braid("2 2 1 1", 3)
        assert exponent_sum(a) == exponent_sum(b)
        assert strand_permutation(a) == strand_permutation(b)
        assert not braids_equal(a, b)

    def test_strand_mismatch_raises(self):
        with pytest.raises(ValueError):
            braids_equal(parse_braid("1", 2), parse_braid("1", 3))

    def test_fingerprint_guard(self):
        w = parse_braid("1 2", 3) ** 40
        with pytest.raises(BudgetError):
            artin_fingerprint(w, guard=10)


class TestHelpers:
    def test_exponent_sum(self):
        assert exponent_sum(parse_braid("1 -2 -2", 3)) == -1
        assert exponent_sum(BraidWord.identity(4)) == 0

    def test_product(self):
        ws = [parse_braid("1", 3), parse_braid("2", 3)]
        assert product(ws).letters == (1, 2)
        assert product([], strands=4) == BraidWord.identity(4)
        with pytest.raises(ValueError):
            product([])

    def test_product_needs_one_strand_count(self):
        ws = [parse_braid("1", 3), parse_braid("2", 3), parse_braid("1", 2)]
        with pytest.raises(ValueError, match="different strand counts"):
            product(ws)


class TestStrandGuard:
    """Per-strand tables stop at MAX_STRANDS, before anything is allocated."""

    def test_bound_covers_stabilization(self):
        assert MAX_STRANDS >= MAX_STABILIZED_STRANDS

    def test_at_the_bound(self):
        assert check_strands(MAX_STRANDS) == MAX_STRANDS
        word = BraidWord(MAX_STRANDS, (1,))
        assert strand_permutation(word).images[:3] == (2, 1, 3)
        assert len(identity_images(MAX_STRANDS)) == MAX_STRANDS

    def test_one_past_the_bound(self):
        # a word with no letters costs nothing, so only the guard can stop these
        word = BraidWord(MAX_STRANDS + 1, (1,))
        for call in (
            lambda: check_strands(MAX_STRANDS + 1),
            lambda: strand_permutation(word),
            lambda: identity_images(MAX_STRANDS + 1),
            lambda: artin_fingerprint(word),
            lambda: braids_equal(word, word),
        ):
            with pytest.raises(BudgetError, match=f"over the limit of {MAX_STRANDS}"):
                call()

    def test_negative_count_is_invalid(self):
        with pytest.raises(ValueError, match="negative"):
            check_strands(-1)
        with pytest.raises(ValueError, match="negative"):
            identity_images(-2)


def reduced_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    """A random freely reduced word of exactly ``length`` letters."""
    letters: list[int] = []
    while len(letters) < length:
        g = rng.randint(1, strands - 1) * rng.choice((1, -1))
        if not letters or letters[-1] != -g:
            letters.append(g)
    return BraidWord(strands, tuple(letters))


def braid_relator(i: int, strands: int) -> BraidWord:
    """sigma_i sigma_{i+1} sigma_i (sigma_{i+1} sigma_i sigma_{i+1})^-1."""
    return BraidWord(strands, (i, i + 1, i, -(i + 1), -i, -(i + 1)))


class TestQuotientReduction:
    """Long identities and near-copies, decided on the reduced quotient a b^-1."""

    @pytest.mark.parametrize(
        "strands, total, seed", [(4, 246, 1), (8, 506, 2), (8, 2006, 3)]
    )
    def test_conjugated_relator(self, strands, total, seed):
        w = reduced_word(random.Random(seed), strands, (total - 6) // 2)
        x = w * braid_relator(strands - 2, strands) * w.inverse()
        assert len(x) == total
        assert braids_equal(x, BraidWord.identity(strands))
        assert braids_equal(BraidWord.identity(strands), x)

    @pytest.mark.parametrize(
        "strands, total, seed", [(4, 246, 4), (8, 506, 5), (8, 2006, 6)]
    )
    def test_inverse(self, strands, total, seed):
        w = reduced_word(random.Random(seed), strands, total // 2)
        assert len(w * w.inverse()) == total
        assert braids_equal(w * w.inverse(), BraidWord.identity(strands))
        assert braids_equal(w, w.inverse().inverse())

    def test_far_commutation_inside_a_conjugate(self):
        w = reduced_word(random.Random(7), 8, 300)
        a = w * BraidWord(8, (1, 5)) * w.inverse()
        b = w * BraidWord(8, (5, 1)) * w.inverse()
        assert braids_equal(a, b)

    def test_inserted_pure_piece_is_unequal(self):
        rng = random.Random(8)
        w = reduced_word(rng, 8, 496)
        for cut in (0, 123, 248, 496):
            b = BraidWord(8, w.letters[:cut] + (3, 3, -6, -6) + w.letters[cut:])
            assert len(b) == 500
            assert exponent_sum(b) == exponent_sum(w)
            assert strand_permutation(b) == strand_permutation(w)
            assert not braids_equal(w, b)
            assert not braids_equal(b, w)

    def test_guard_applies_to_each_half(self):
        def peak(word: BraidWord) -> int:
            return max(
                sum(len(u) for u in artin_fingerprint(BraidWord(word.strands, word.letters[:k])))
                for k in range(len(word) + 1)
            )

        # nothing cancels in a = h h, so braids_equal compares the fingerprints of h and h^-1
        h = parse_braid("1 1 -2 -2", 3) ** 5
        a = h * h
        guard = max(peak(h), peak(h.inverse()))
        assert not braids_equal(a, BraidWord.identity(3), guard=guard)
        with pytest.raises(BudgetError):
            braids_equal(a, BraidWord.identity(3), guard=guard - 1)
        with pytest.raises(BudgetError):
            artin_fingerprint(a, guard=guard)


class TestConjugateKernel:
    """_conjugate against free reduction of the concatenated word."""

    def test_matches_free_reduction(self):
        rng = random.Random(9)
        for _ in range(3000):
            # two generators and short words, so the seams often cancel deeply
            w = reduced_word(rng, 3, rng.randint(0, 7)).letters
            x = reduced_word(rng, 3, rng.randint(0, 7)).letters
            want = BraidWord(3, w + x + _free_inv(w)).free_reduced().letters
            assert _conjugate(w, _free_inv(w), x) == want, (w, x)

    def test_second_seam_runs_into_the_conjugator(self):
        # x = (-3 2 3) cancels completely against the end of w = (1 2 3)
        assert _conjugate((1, 2, 3), (-3, -2, -1), (-3, 2, 3)) == (1, 2, -1)
        assert _conjugate((1, 2), (-2, -1), (-2, -1, 2)) == (-1,)
        assert _conjugate((), (), (1, 2)) == (1, 2)
        assert _conjugate((1, 2), (-2, -1), ()) == ()

    def test_extending_a_fingerprint_is_the_fingerprint_of_the_product(self):
        rng = random.Random(10)
        for _ in range(200):
            n = rng.randint(2, 7)
            u = reduced_word(rng, n, rng.randint(0, 15))
            v = random_word(rng, n, rng.randint(0, 15))
            assert artin_apply(artin_fingerprint(u), v.letters) == artin_fingerprint(u * v)


def reference_conjugate(w: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
    """The freely reduced w x w^-1 on int tuples, letters negated at the first seam."""
    w_inv = _free_inv(w)
    n, lx = len(w), len(x)
    k = 0
    while k < n and k < lx and w[n - 1 - k] == -x[k]:
        k += 1
    m = 0
    while m < n and k + m < lx and x[lx - 1 - m] == w[n - 1 - m]:
        m += 1
    if k + m < lx:
        return w[: n - k] + x[k : lx - m] + w_inv[m:]
    p = n - k
    while m < n and p > 0 and w[p - 1] == w[n - 1 - m]:
        p -= 1
        m += 1
    return w[:p] + w_inv[m:]


def reference_apply(images, letters, guard=DEFAULT_FINGERPRINT_GUARD):
    """The fingerprint walk on tuples of int letters, one image per basis letter."""
    work = [tuple(u) for u in images]
    total = sum(map(len, work))
    for g in letters:
        i = abs(g) - 1
        a, b = work[i], work[i + 1]
        if g > 0:
            work[i], work[i + 1] = reference_conjugate(a, b), a
        else:
            work[i], work[i + 1] = b, reference_conjugate(_free_inv(b), a)
        total += len(work[i]) + len(work[i + 1]) - len(a) - len(b)
        if total > guard:
            raise BudgetError(f"free-group fingerprint grew past {guard} letters")
    return tuple(work)


def reference_fingerprint(word: BraidWord, guard=DEFAULT_FINGERPRINT_GUARD):
    return reference_apply(tuple((i,) for i in range(1, word.strands + 1)), word.letters, guard)


def top_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    """A random word in the generators nearest the top of the strand range, and sigma_1."""
    gens = [g for g in (1, strands - 3, strands - 2, strands - 1) if g >= 1]
    return BraidWord(strands, tuple(rng.choice(gens) * rng.choice((1, -1)) for _ in range(length)))


def is_plain(images) -> bool:
    return type(images) is tuple and all(
        type(u) is tuple and all(type(g) is int for g in u) for u in images
    )


class TestCodedKernel:
    """The coded fingerprint kernel against the int-tuple walk it replaced."""

    def test_random_words_match_the_reference(self):
        rng = random.Random(2401)
        for _ in range(600):
            n = rng.randint(2, 8)
            u = random_word(rng, n, rng.randint(0, 30))
            v = random_word(rng, n, rng.randint(0, 15))
            assert artin_fingerprint(u) == reference_fingerprint(u)
            assert artin_apply(artin_fingerprint(u), v.letters) == reference_fingerprint(u * v)
            # v, a braid-relator conjugate of v, or u itself: equal and unequal pairs
            i = rng.randint(1, n - 2) if n > 2 else None
            if i is not None and rng.random() < 0.5:
                cut = rng.randint(0, len(v))
                b = BraidWord(n, v.letters[:cut] + braid_relator(i, n).letters + v.letters[cut:])
            else:
                b = rng.choice((v, u))
            want = reference_fingerprint(u) == reference_fingerprint(b)
            assert braids_equal(u, b) == want
            assert braids_equal(b, u) == want

    @pytest.mark.parametrize("strands", [127, 128, 129, 4000])
    def test_code_boundary(self, strands):
        assert type(_basis(strands)[0]) is (bytes if strands < 128 else str)
        rng = random.Random(strands)
        for _ in range(40):
            u = top_word(rng, strands, rng.randint(0, 25))
            v = top_word(rng, strands, rng.randint(0, 10))
            fp = artin_fingerprint(u)
            assert fp == reference_fingerprint(u)
            assert _decode(_encode(fp)) == fp
            assert artin_apply(fp, v.letters) == reference_fingerprint(u * v)
            want = reference_fingerprint(u) == reference_fingerprint(v)
            assert braids_equal(u, v) == want
            commute = reference_fingerprint(u * v) == reference_fingerprint(v * u)
            assert braids_equal(u * v * u.inverse(), v) == commute
            assert braids_equal(u * v * v.inverse(), u)

    @pytest.mark.parametrize("strands", [3, 5, 130])
    def test_budget_trips_at_the_same_letter_total(self, strands):
        rng = random.Random(2402 + strands)
        for _ in range(6):
            u = top_word(rng, strands, 24)
            start = artin_fingerprint(BraidWord(strands, u.letters[:8]))
            for guard in range(strands, strands + 120, 3):
                for coded, reference in (
                    (lambda: artin_fingerprint(u, guard), lambda: reference_fingerprint(u, guard)),
                    (
                        lambda: artin_apply(start, u.letters[8:], guard),
                        lambda: reference_apply(start, u.letters[8:], guard),
                    ),
                ):
                    try:
                        want = reference()
                    except BudgetError as err:
                        with pytest.raises(BudgetError, match=f"^{err}$"):
                            coded()
                    else:
                        assert coded() == want

    @pytest.mark.parametrize("strands", [4, 200])
    def test_public_results_are_plain_int_tuples(self, strands):
        rng = random.Random(2403)
        u = top_word(rng, strands, 20)
        identity = identity_images(strands)
        assert identity == tuple((i,) for i in range(1, strands + 1))
        for images in (identity, artin_fingerprint(u), artin_apply(identity, u.letters)):
            assert is_plain(images)
        assert artin_apply(list(map(list, identity)), u.letters) == artin_fingerprint(u)

    @pytest.mark.parametrize("letter", [0, MAX_STRANDS + 1, -(MAX_STRANDS + 1)])
    def test_foreign_letters_are_refused(self, letter):
        with pytest.raises(ValueError, match="free-group letters"):
            artin_apply(((1,), (2, letter)), (1,))

    def test_long_seams(self):
        # sigma_1^k: each step cancels most of two images against each other,
        # far past the letters the kernel scans one at a time
        for k in (7, 64, 150):
            word = BraidWord(3, (1,) * k + (-2,) * k)
            assert artin_fingerprint(word) == reference_fingerprint(word)
            assert not braids_equal(word, BraidWord.identity(3))
        rng = random.Random(2404)

        def seam_pairs():
            # x cancels a random depth at each end of w x w^-1
            for _ in range(300):
                w = reduced_word(rng, 3, rng.randint(0, 60)).letters
                head, tail = rng.randint(0, len(w)), rng.randint(0, len(w))
                middle = reduced_word(rng, 3, rng.choice((0, 0, 3))).letters
                yield w, _free_reduce(_free_inv(w)[:head] + middle + w[tail:])
            # w = y c z c e and x = e^-1 z c e: x cancels whole, and the second
            # seam runs on into w and stops after the second copy of c
            for _ in range(100):
                y, c, z, e = (
                    reduced_word(rng, 3, rng.randint(lo, hi)).letters
                    for lo, hi in ((1, 5), (7, 30), (1, 5), (0, 5))
                )
                yield _free_reduce(y + c + z + c + e), _free_reduce(_free_inv(e) + z + c + e)

        for strands in (3, 200):
            for w, x in seam_pairs():
                if strands > 3:
                    w, x = (tuple(g + 196 if g > 0 else g - 196 for g in u) for u in (w, x))
                want = reference_conjugate(w, x)
                cw, cw_inv, cx = _encode((w, _free_inv(w), x))
                assert _decode((_conjugate(cw, cw_inv, cx),)) == (want,)
                assert _conjugate(w, _free_inv(w), x) == want
