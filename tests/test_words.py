"""Braid words, permutations, and the equality decision."""

import random

import pytest

from platkit.stabilize import MAX_STABILIZED_STRANDS
from platkit.words import (
    MAX_STRANDS,
    BraidWord,
    BudgetError,
    Permutation,
    _conjugate,
    _free_inv,
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
