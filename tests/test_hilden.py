"""Hilden subgroup generators, certificates, and the membership search."""

import random

import pytest

import platkit.hilden as hilden
from platkit.hilden import (
    HildenExpression,
    expand_expression,
    format_expression,
    hilden_generators,
    pair_permutation,
    parse_expression,
    preserves_pairing,
    search_membership,
    verify_membership,
)
from platkit.plats import Triviality, component_count, plat_closure, triviality_check
from platkit.search import bfs
from platkit.words import (
    BraidWord,
    Permutation,
    artin_apply,
    artin_fingerprint,
    braids_equal,
    exponent_sum,
    identity_images,
    parse_braid,
    product,
    strand_permutation,
)


def random_expression(rng: random.Random, m: int, factors: int) -> HildenExpression:
    count = len(hilden_generators(m))
    picked = tuple(
        (rng.randrange(count), rng.choice((1, -1))) for _ in range(factors)
    )
    return HildenExpression(m, picked)


class TestGenerators:
    def test_counts(self):
        assert len(hilden_generators(1)) == 1
        assert len(hilden_generators(2)) == 3
        assert len(hilden_generators(3)) == 4
        assert len(hilden_generators(4)) == 5

    def test_first_generator(self):
        assert hilden_generators(1)[0].letters == (1,)
        assert hilden_generators(2)[1].letters == (2, 1, 3, 2)
        assert hilden_generators(2)[2].letters == (2, 1, -3, -2)

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            hilden_generators(0)

    def test_generators_preserve_pairing(self):
        for m in range(1, 5):
            for g in hilden_generators(m):
                assert preserves_pairing(g)

    def test_pair_swap_generator_permutation(self):
        # the 4-letter generators exchange adjacent pairs
        for m in (2, 3):
            gens = hilden_generators(m)
            swap = pair_permutation(gens[1])
            assert swap(1) == 2 and swap(2) == 1
            for rest in range(3, m + 1):
                assert swap(rest) == rest

    def test_four_letter_generators_swap_adjacent_pairs(self):
        # gens[1] and gens[2] both swap pairs (1,2); gens[j] swaps (j-1, j)
        for m in (2, 3, 4):
            gens = hilden_generators(m)
            for j in range(2, len(gens)):
                perm = pair_permutation(gens[j])
                a = j - 1
                assert perm(a) == a + 1 and perm(a + 1) == a
                assert perm.cycle_type() == tuple([1] * (m - 2) + [2])


class TestPairing:
    def test_middle_generator_breaks_pairing(self):
        assert not preserves_pairing(parse_braid("2", 4))

    def test_products_of_generators_preserve(self):
        rng = random.Random(51)
        for _ in range(40):
            m = rng.randint(1, 4)
            expr = random_expression(rng, m, rng.randint(0, 8))
            assert preserves_pairing(expand_expression(expr))

    def test_pair_permutation_requires_preservation(self):
        with pytest.raises(ValueError):
            pair_permutation(parse_braid("2", 4))


def reference_pair_images(word: BraidWord):
    """The pair images read off ``strand_permutation(word).images``."""
    pi = strand_permutation(word).images
    images = []
    for k in range(word.strands // 2):
        ends = sorted(pi[2 * k : 2 * k + 2])
        if ends[1] != ends[0] + 1 or ends[0] % 2 != 1:
            return None
        images.append(ends[1] // 2)
    return tuple(images)


class TestPairImages:
    def test_matches_the_strand_permutation(self):
        rng = random.Random(812)
        kept = broken = 0
        for _ in range(400):
            m = rng.randint(1, 6)
            if rng.random() < 0.5:
                word = expand_expression(random_expression(rng, m, rng.randint(0, 5)))
            else:
                letters = (rng.randint(1, 2 * m - 1) for _ in range(rng.randint(0, 12)))
                word = BraidWord(2 * m, tuple(g if rng.random() < 0.5 else -g for g in letters))
            got = hilden._pair_images(word.strands, word.letters)
            assert got == reference_pair_images(word)
            kept += got is not None
            broken += got is None
        assert kept >= 100 and broken >= 100

    @pytest.mark.parametrize("strands", [1, 3, 5, 11])
    def test_odd_strand_count_raises(self, strands):
        with pytest.raises(ValueError, match="even strand count"):
            hilden._pair_images(strands, (1,))


class TestExpressions:
    def test_expand_identity(self):
        assert expand_expression(HildenExpression(2)) == BraidWord.identity(4)

    def test_expand_inverse_factor(self):
        expr = HildenExpression(2, ((1, -1),))
        assert expand_expression(expr).letters == (-2, -3, -1, -2)

    def test_format_parse_round_trip(self):
        rng = random.Random(52)
        for _ in range(30):
            m = rng.randint(1, 4)
            expr = random_expression(rng, m, rng.randint(0, 6))
            assert parse_expression(format_expression(expr)) == expr

    def test_format_empty(self):
        assert format_expression(HildenExpression(2)) == "m=2"
        assert parse_expression("m=2") == HildenExpression(2)

    def test_parse_rejects_garbage(self):
        for bad in ("", "g0", "m=x g0", "m=2 h0", "m=2 g9"):
            with pytest.raises(ValueError):
                parse_expression(bad)

    def test_mul_and_inverse(self):
        a = parse_expression("m=2 g0 g1")
        b = parse_expression("m=2 g2^-1")
        assert format_expression(a * b) == "m=2 g0 g1 g2^-1"
        assert format_expression(a.inverse()) == "m=2 g1^-1 g0^-1"
        combined = expand_expression(a * a.inverse())
        assert braids_equal(combined, BraidWord.identity(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            HildenExpression(1, ((1, 1),))
        with pytest.raises(ValueError):
            HildenExpression(2, ((0, 2),))

    def test_index_bound_is_the_generator_count(self):
        for m in range(1, 7):
            count = len(hilden_generators(m))
            HildenExpression(m, ((count - 1, 1), (0, -1)))
            with pytest.raises(ValueError, match=f"generator index {count} out of range"):
                HildenExpression(m, ((count, 1),))

    def test_factors_are_tuples(self):
        factors = [[0, 1], [2, -1]]
        expr = HildenExpression(2, factors)
        assert expr == HildenExpression(2, ((0, 1), (2, -1))) == parse_expression("m=2 g0 g2^-1")
        assert hash(expr) == hash(HildenExpression(2, ((0, 1), (2, -1))))
        factors[0][0] = 1
        factors.append([1, 1])
        assert expr.factors == ((0, 1), (2, -1))
        assert format_expression(expr) == "m=2 g0 g2^-1"

    def test_needs_a_pair(self):
        for m in (0, -1):
            with pytest.raises(ValueError, match="need at least one pair of strands"):
                HildenExpression(m)


class TestMembership:
    def test_known_member(self):
        word = parse_braid("1 3", 4)
        expr = search_membership(word, 6)
        assert expr is not None
        assert format_expression(expr) == "m=2 g0 g1 g0 g1^-1"
        assert verify_membership(word, expr)

    def test_non_member_by_pairing(self):
        assert search_membership(parse_braid("2", 4), 6) is None

    def test_identity_member(self):
        expr = search_membership(BraidWord.identity(4), 4)
        assert expr is not None
        assert expr.factors == ()

    def test_single_generators_found(self):
        for m in (1, 2, 3):
            for idx, g in enumerate(hilden_generators(m)):
                expr = search_membership(g, 3)
                assert expr is not None
                assert len(expr.factors) == 1
                assert expr.factors[0] == (idx, 1)

    def test_search_is_complete_within_bound(self):
        rng = random.Random(53)
        for _ in range(25):
            m = rng.randint(1, 3)
            expr = random_expression(rng, m, rng.randint(0, 4))
            word = expand_expression(expr)
            found = search_membership(word, 5)
            assert found is not None
            assert len(found.factors) <= len(expr.factors)
            assert verify_membership(word, found)

    def test_search_deterministic(self):
        word = parse_braid("1 3", 4)
        assert search_membership(word, 6) == search_membership(word, 6)

    def test_verify_rejects_wrong_expression(self):
        word = parse_braid("1", 2)
        assert not verify_membership(word, HildenExpression(1))
        assert not verify_membership(word, HildenExpression(2, ((0, 1),)))

    def test_members_close_to_trivial_links(self):
        rng = random.Random(54)
        for _ in range(15):
            m = rng.randint(1, 3)
            expr = random_expression(rng, m, rng.randint(0, 5))
            word = expand_expression(expr)
            if len(word.letters) > 24:
                continue
            diagram = plat_closure(word)
            assert component_count(diagram) == m
            assert triviality_check(diagram) is Triviality.CONSISTENT_WITH_TRIVIAL


def reference_search_membership(word: BraidWord, max_len: int) -> HildenExpression | None:
    """The membership search on :class:`Permutation` objects, with no memo."""

    def coxeter_length(perm: Permutation) -> int:
        imgs = perm.images
        return sum(
            1 for a in range(len(imgs)) for b in range(a + 1, len(imgs)) if imgs[a] > imgs[b]
        )

    if not preserves_pairing(word):
        return None
    m = word.strands // 2
    target_fp = artin_fingerprint(word)
    target_sum = exponent_sum(word)
    target_pairs = pair_permutation(word)
    steps = []
    for idx, gen in enumerate(hilden_generators(m)):
        for exp, factor in ((1, gen), (-1, gen.inverse())):
            steps.append(((idx, exp), factor.letters, exponent_sum(factor), pair_permutation(factor)))
    max_step_sum = max(abs(step_sum) for _, _, step_sum, _ in steps)

    def successors(state, depth):
        fp, esum, pperm = state
        remaining = max_len - depth - 1
        children = []
        for move, letters, step_sum, step_pperm in steps:
            new_sum = esum + step_sum
            new_pperm = pperm * step_pperm
            if abs(target_sum - new_sum) > remaining * max_step_sum:
                continue
            if coxeter_length(new_pperm.inverse() * target_pairs) <= remaining:
                children.append((move, (artin_apply(fp, letters), new_sum, new_pperm)))
        return children

    start = (identity_images(2 * m), 0, Permutation.identity(m))
    for fp, _, factors in bfs(start, lambda state: state[0], successors, max_len):
        if fp == target_fp:
            return HildenExpression(m, factors)
    return None


class TestMembershipOracle:
    def test_matches_the_permutation_object_search(self):
        # m = 2-4, expressions of 2-5 factors, searched with the bound at or
        # below their length; some words with one letter appended, which
        # mostly break the pairing
        rng = random.Random(807)
        found = missed = 0
        for _ in range(240):
            m = rng.randint(2, 4)
            length = rng.randint(2, 5)
            word = expand_expression(random_expression(rng, m, length))
            if rng.random() < 0.2:
                g = rng.randint(1, 2 * m - 1)
                word = word * BraidWord(2 * m, (rng.choice((g, -g)),))
            max_len = rng.randint(length - 2, length)
            got = search_membership(word, max_len)
            assert got == reference_search_membership(word, max_len)
            if got is None:
                missed += 1
            else:
                found += 1
        assert found > 100 and missed > 20

    def test_pair_distance_once_per_pair_permutation(self, monkeypatch):
        seen = []
        distance = hilden._pair_distance

        def counting_distance(pperm, target):
            seen.append(pperm)
            return distance(pperm, target)

        monkeypatch.setattr(hilden, "_pair_distance", counting_distance)
        rng = random.Random(810)
        for m in (2, 3, 4):
            for _ in range(5):
                seen.clear()
                word = expand_expression(random_expression(rng, m, 5))
                assert search_membership(word, 5) is not None
                assert seen and len(seen) == len(set(seen))
