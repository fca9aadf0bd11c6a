"""Plain and generalized stabilization of plat words."""

import random

import pytest

from platkit.laurent import equal_up_to_unit
from platkit.plats import component_count, kauffman_bracket, plat_closure
from platkit.stabilize import (
    MAX_STABILIZED_STRANDS,
    StabilizationProfile,
    pair_swap,
    stabilization_tail,
    stabilize,
    stabilize_by_profile,
    swap_chain,
)
from platkit.words import (
    BraidWord,
    BudgetError,
    braids_equal,
    embed,
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


class TestProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizationProfile(())
        with pytest.raises(ValueError):
            StabilizationProfile((1, -1))
        StabilizationProfile((0, 0))

    def test_counts(self):
        p = StabilizationProfile((1, 0, 2))
        assert p.pairs == 3
        assert p.total == 6
        assert [p.prefix_total(i) for i in range(4)] == [3, 4, 4, 6]

    def test_entries_are_plain_ints(self):
        for entries in ((1.5, 0), ("1",), (1, None)):
            with pytest.raises(ValueError, match="profile entry .* is not an integer"):
                StabilizationProfile(entries)
        profile = StabilizationProfile((True, 0))
        assert profile.entries == (1, 0)
        assert [type(l) for l in profile.entries] == [int, int]

    def test_parse_text_round_trip(self):
        p = StabilizationProfile.parse("1,0,2")
        assert p.entries == (1, 0, 2)
        assert p.text() == "1,0,2"
        with pytest.raises(ValueError):
            StabilizationProfile.parse("1,x")


class TestPlainStabilization:
    def test_identity_word(self):
        got = stabilize(BraidWord.identity(2), 2)
        assert got.strands == 6
        assert got.letters == (2, 4)

    def test_embeds_word_first(self):
        got = stabilize(parse_braid("1", 2), 1)
        assert got.letters == (1, 2)
        assert got.strands == 4

    def test_zero_extra(self):
        w = parse_braid("2", 4)
        assert stabilize(w, 0) == w

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stabilize(parse_braid("1", 3), 1)
        with pytest.raises(ValueError):
            stabilize(parse_braid("1", 2), -1)

    def test_non_integer_count_is_refused_at_once(self):
        with pytest.raises(ValueError, match="profile entry 1.5 is not an integer"):
            stabilize(parse_braid("1", 6), 1.5)

    @pytest.mark.parametrize("extra", ["1", None])
    def test_count_that_is_not_an_int_is_a_value_error(self, extra):
        with pytest.raises(ValueError, match="profile entry .* is not an integer"):
            stabilize(parse_braid("1", 4), extra)

    def test_preserves_components(self):
        # each appended crossing merges its new pair into the existing link
        rng = random.Random(61)
        for _ in range(30):
            m = rng.randint(1, 3)
            w = random_word(rng, 2 * m, rng.randint(0, 8))
            k = rng.randint(0, 2)
            before = component_count(plat_closure(w))
            after = component_count(plat_closure(stabilize(w, k)))
            assert after == before


class TestPairSwap:
    def test_letters(self):
        assert pair_swap(1, 4).letters == (2, 1, 3, 2)
        assert pair_swap(2, 6).letters == (4, 3, 5, 4)

    def test_permutation_swaps_pairs(self):
        perm = strand_permutation(pair_swap(1, 6))
        assert [perm(i) for i in range(1, 7)] == [3, 4, 1, 2, 5, 6]

    def test_range_checks(self):
        with pytest.raises(ValueError):
            pair_swap(0, 4)
        with pytest.raises(ValueError):
            pair_swap(2, 4)
        with pytest.raises(ValueError):
            pair_swap(1, 3)


def swap_by_formula(k: int, strands: int) -> BraidWord:
    """sigma_2k sigma_2k-1 sigma_2k+1 sigma_2k, written out."""
    return BraidWord(strands, (2 * k, 2 * k - 1, 2 * k + 1, 2 * k))


def chain_by_product(i: int, j: int, pivot: int, strands: int) -> BraidWord:
    """A swap chain as the product of its swaps and inverse swaps, one word each."""
    parts = [swap_by_formula(k, strands) for k in range(i, pivot)]
    parts.extend(swap_by_formula(k, strands).inverse() for k in range(pivot, j + 1))
    return product(parts, strands=strands)


class TestSwapChain:
    def test_matches_the_product_of_swaps(self):
        for pairs in range(1, 9):
            strands = 2 * pairs
            for k in range(1, pairs):
                assert pair_swap(k, strands) == swap_by_formula(k, strands)
            for pivot in range(1, pairs + 1):
                for i in range(1, pivot + 1):
                    for j in range(pivot - 1, pairs):
                        got = swap_chain(i, j, pivot, strands)
                        assert got == chain_by_product(i, j, pivot, strands)

    def test_odd_strands(self):
        # the empty chain is the identity; a chain with a swap needs paired strands
        assert swap_chain(2, 1, 2, 7) == BraidWord.identity(7)
        for i, j in ((1, 1), (2, 2), (1, 2)):
            with pytest.raises(ValueError, match="even strand count"):
                swap_chain(i, j, 2, 7)

    def test_indices_are_plain_ints(self):
        for args in ((1.0, 1, 2, 8), (1, 1.5, 2, 8), (1, 1, 2.0, 8), ("1", 1, 2, 8)):
            with pytest.raises(ValueError, match="pair index .* is not an integer"):
                swap_chain(*args)
        with pytest.raises(ValueError, match="pair index 1.5 is not an integer"):
            pair_swap(1.5, 4)
        assert swap_chain(True, 1, 2, 8) == swap_chain(1, 1, 2, 8)

    def test_strand_counts_are_plain_ints(self):
        for call in (lambda: pair_swap(1, "4"), lambda: swap_chain(1, 1, 2, "8")):
            with pytest.raises(ValueError, match="strand count .* is not an integer"):
                call()

    def test_trivial_chain(self):
        # i = pivot and j = pivot - 1 leaves nothing to do
        assert swap_chain(2, 1, 2, 8) == BraidWord.identity(8)

    def test_forward_only(self):
        assert swap_chain(1, 1, 2, 8).letters == pair_swap(1, 8).letters

    def test_backward_only(self):
        assert swap_chain(2, 2, 2, 8).letters == pair_swap(2, 8).inverse().letters

    def test_range_checks(self):
        with pytest.raises(ValueError):
            swap_chain(3, 1, 2, 8)
        with pytest.raises(ValueError):
            swap_chain(1, 0, 2, 8)
        with pytest.raises(ValueError):
            swap_chain(1, 4, 2, 8)

    def test_permutation_carries_pair(self):
        # last swap index 3 leaves pair 1 in slot 4
        chain = swap_chain(1, 3, 2, 8)
        perm = strand_permutation(chain)
        assert perm(1) == 7 and perm(2) == 8


class TestTail:
    def test_single_insertion(self):
        assert stabilization_tail(StabilizationProfile((1,))).letters == (2,)

    def test_insert_before_second_pair(self):
        got = stabilization_tail(StabilizationProfile((1, 0)))
        assert got.letters == (2, 1, 3, 2, 4, -2, -3, -1, -2)

    def test_zero_blocks_contribute_nothing(self):
        assert stabilization_tail(StabilizationProfile((0, 0))) == BraidWord.identity(4)

    def test_last_block_matches_plain_stabilization(self):
        # inserting only after the last pair is plain stabilization
        for m in (1, 2, 3):
            for extra in (1, 2, 3):
                profile = StabilizationProfile((0,) * (m - 1) + (extra,))
                tail = stabilization_tail(profile)
                plain = stabilize(BraidWord.identity(2 * m), extra)
                assert braids_equal(tail, plain)

    def test_strand_count(self):
        assert stabilization_tail(StabilizationProfile((2, 1))).strands == 10


class TestStabilizeByProfile:
    def test_letter_layout(self):
        w = parse_braid("2", 4)
        got = stabilize_by_profile(w, StabilizationProfile((1, 1)))
        tail = stabilization_tail(StabilizationProfile((1, 1)))
        assert got.letters == embed(w, 8).letters + tail.letters

    def test_known_expansion(self):
        got = stabilize_by_profile(parse_braid("2", 4), StabilizationProfile((1, 1)))
        assert got.text() == "2 2 1 3 2 4 -2 -3 -1 -2 -4 -5 -3 -4 6 4 3 5 4"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            stabilize_by_profile(parse_braid("1", 2), StabilizationProfile((1, 1)))

    def test_matches_plain_for_trailing_profile(self):
        rng = random.Random(62)
        for _ in range(20):
            m = rng.randint(1, 3)
            w = random_word(rng, 2 * m, rng.randint(0, 6))
            extra = rng.randint(0, 2)
            profile = StabilizationProfile((0,) * (m - 1) + (extra,))
            assert braids_equal(stabilize_by_profile(w, profile), stabilize(w, extra))

    def test_plain_is_the_trailing_profile_letter_for_letter(self):
        rng = random.Random(65)
        for m in range(1, 6):
            for extra in range(5):
                w = random_word(rng, 2 * m, rng.randint(0, 8))
                profile = StabilizationProfile((0,) * (m - 1) + (extra,))
                assert stabilize(w, extra).letters == stabilize_by_profile(w, profile).letters

    def test_preserves_components(self):
        rng = random.Random(63)
        for _ in range(40):
            m = rng.randint(1, 2)
            w = random_word(rng, 2 * m, rng.randint(0, 6))
            entries = tuple(rng.randint(0, 1) for _ in range(m))
            profile = StabilizationProfile(entries)
            before = component_count(plat_closure(w))
            after = component_count(plat_closure(stabilize_by_profile(w, profile)))
            assert after == before

    def test_preserves_bracket_up_to_unit(self):
        rng = random.Random(64)
        for _ in range(25):
            m = rng.randint(1, 2)
            w = random_word(rng, 2 * m, rng.randint(0, 6))
            entries = tuple(rng.randint(0, 1) for _ in range(m))
            profile = StabilizationProfile(entries)
            stabilized = stabilize_by_profile(w, profile)
            if len(stabilized.letters) > 24:
                continue
            b0 = kauffman_bracket(plat_closure(w))
            b1 = kauffman_bracket(plat_closure(stabilized))
            assert equal_up_to_unit(b0, b1)


class TestWordsBuilt:
    def test_one_word_per_chain(self, monkeypatch):
        # the letters of each swap come in closed form, and the tail is merged
        # into the result: m chains and at most three more words
        m = 64
        word, profile = BraidWord(2 * m, (1, 3, 5)), StabilizationProfile((1,) * m)
        expected = stabilize_by_profile(word, profile)
        built = [0]
        post_init = BraidWord.__post_init__

        def counting_post_init(w):
            built[0] += 1
            post_init(w)

        monkeypatch.setattr(BraidWord, "__post_init__", counting_post_init)
        assert stabilize_by_profile(word, profile) == expected
        assert built[0] <= m + 3


class TestSizeGuard:
    """Stabilizations stop at MAX_STABILIZED_STRANDS strands, before building."""

    def test_plain_at_the_bound(self):
        w = parse_braid("1", 2)
        extra = MAX_STABILIZED_STRANDS // 2 - 1
        assert stabilize(w, extra).strands == MAX_STABILIZED_STRANDS
        with pytest.raises(BudgetError, match=f"over the limit of {MAX_STABILIZED_STRANDS}"):
            stabilize(w, extra + 1)

    def test_plain_checks_before_the_profile(self, monkeypatch):
        # the profile (0, ..., 0, l) has an entry per pair, so an oversized
        # word is refused before it is built
        def no_profile(profile):
            raise AssertionError("profile built")

        monkeypatch.setattr(StabilizationProfile, "__post_init__", no_profile)
        w = BraidWord(MAX_STABILIZED_STRANDS, ())
        with pytest.raises(BudgetError) as err:
            stabilize(w, 1)
        limit = MAX_STABILIZED_STRANDS
        assert str(err.value) == f"stabilizing to {limit + 2} strands is over the limit of {limit}"

    def test_profile_at_the_bound(self):
        w = parse_braid("2", 4)
        extra = MAX_STABILIZED_STRANDS // 2 - 2
        for entries in ((extra, 0), (0, extra), (extra - 1, 1)):
            got = stabilize_by_profile(w, StabilizationProfile(entries))
            assert got.strands == MAX_STABILIZED_STRANDS
        for entries in ((extra + 1, 0), (extra, 1)):
            with pytest.raises(BudgetError):
                stabilize_by_profile(w, StabilizationProfile(entries))
