"""Hilden subgroup generators, certificates, and the membership search."""

import math
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
    MAX_STRANDS,
    BraidWord,
    BudgetError,
    Permutation,
    _apply,
    _basis,
    _decode,
    artin_fingerprint,
    braids_equal,
    exponent_sum,
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


def reference_generators(m: int) -> list[tuple[int, ...]]:
    """The letters of the Hilden generators, as the module docstring writes them."""
    gens = [(1,)]
    if m >= 2:
        gens.append((2, 1, 3, 2))
    for i in range(1, m):
        k = 2 * i
        gens.append((k, k - 1, -(k + 1), -k))
    return gens


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


class TestFactorTable:
    def test_matches_the_generic_derivation(self):
        # letters against the written generators; exponent sums and pair
        # swaps against exponent_sum and the strand walk of pair_permutation
        for m in range(1, 13):
            gens = reference_generators(m)
            assert [g.letters for g in hilden_generators(m)] == gens
            table = hilden._factor_table(m)
            assert [move for move, *_ in table] == [
                (idx, exp) for idx in range(len(gens)) for exp in (1, -1)
            ]
            for (idx, exp), letters, step_sum, swap in table:
                factor = BraidWord(2 * m, gens[idx]) ** exp
                assert letters == factor.letters
                assert step_sum == exponent_sum(factor)
                swapped = list(range(1, m + 1))
                if swap:
                    swapped[swap - 1 : swap + 1] = [swap + 1, swap]
                assert pair_permutation(factor).images == tuple(swapped)
                assert (swap == 0) == (idx == 0)

    def test_rejects_zero_pairs(self):
        for m in (0, -1):
            with pytest.raises(ValueError, match="need at least one pair of strands"):
                hilden._factor_table(m)

    def test_checks_the_strand_count_first(self):
        # one pair past the bound: BudgetError before the O(m) table is built,
        # so expanding or verifying an expression stops there too
        m = MAX_STRANDS // 2 + 1
        message = f"{2 * m} strands is over the limit of {MAX_STRANDS}"
        assert len(hilden._factor_table(m - 1)) == 2 * m  # m - 1 pairs: 2m signed factors
        with pytest.raises(BudgetError, match=message):
            hilden._factor_table(m)
        with pytest.raises(BudgetError, match=message):
            expand_expression(HildenExpression(m, ((0, 1),)))
        with pytest.raises(BudgetError, match=message):
            verify_membership(BraidWord(2 * m, (1,)), HildenExpression(m, ((0, 1),)))


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
    """The signed pair images read off ``strand_permutation(word).images``:
    -j for a pair that lands on pair j reversed."""
    pi = strand_permutation(word).images
    images = []
    for k in range(word.strands // 2):
        ends = sorted(pi[2 * k : 2 * k + 2])
        if ends[1] != ends[0] + 1 or ends[0] % 2 != 1:
            return None
        images.append(ends[1] // 2 if pi[2 * k] < pi[2 * k + 1] else -(ends[1] // 2))
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


class TestTypeBLength:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_the_distance_in_the_signed_pair_group(self, m):
        # breadth-first from the identity, each factor acting on the left by
        # its signed pair images: g0 negates entry 1 and a factor with swap i
        # exchanges entries i and i + 1; the walk reaches all 2^m m! signed
        # permutations, each at the distance its type-B length gives
        actions = []
        for _, letters, _, swap in hilden._factor_table(m):
            images = hilden._pair_images(2 * m, letters)
            if swap:
                acted = list(range(1, m + 1))
                acted[swap - 1 : swap + 1] = [swap + 1, swap]
            else:
                acted = [-1] + list(range(2, m + 1))
            assert images == tuple(acted)
            actions.append(images)
        identity = tuple(range(1, m + 1))
        distance = {identity: 0}
        frontier = [identity]
        while frontier:
            nxt = []
            for w in frontier:
                for action in actions:
                    child = signed_product(action, w)
                    if child not in distance:
                        distance[child] = distance[w] + 1
                        nxt.append(child)
            frontier = nxt
        assert len(distance) == 2**m * math.factorial(m)
        for w, d in distance.items():
            assert hilden._type_b_length(w) == type_b_length(w) == d


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
        with pytest.raises(ValueError, match="bad generator token 'gx'"):
            parse_expression("m=2 gx")

    def test_mul_and_inverse(self):
        a = parse_expression("m=2 g0 g1")
        b = parse_expression("m=2 g2^-1")
        assert format_expression(a * b) == "m=2 g0 g1 g2^-1"
        assert format_expression(a.inverse()) == "m=2 g1^-1 g0^-1"
        combined = expand_expression(a * a.inverse())
        assert braids_equal(combined, BraidWord.identity(4))
        with pytest.raises(ValueError, match="pair counts differ"):
            a * parse_expression("m=3 g0")

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

    def test_non_integer_counts_are_named(self):
        # a float index used to format as g1.0, which parse_expression
        # refuses, and a float pair count failed later in expand_expression
        cases = [
            ((2, ((1.0, 1),)), "generator index 1.0 is not an integer"),
            ((2, ((1, 1.0),)), "exponent 1.0 is not an integer"),
            ((2.0, ()), "pair count 2.0 is not an integer"),
            (("2", ()), "pair count '2' is not an integer"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                HildenExpression(*args)

    def test_bool_counts_are_stored_as_ints(self):
        expr = HildenExpression(True, ((False, True), (0, -1)))
        assert expr == HildenExpression(1, ((0, 1), (0, -1)))
        assert type(expr.pairs) is int
        assert all(type(x) is int for factor in expr.factors for x in factor)
        assert format_expression(expr) == "m=1 g0 g0^-1"
        assert parse_expression(format_expression(expr)) == expr
        assert expand_expression(expr) == BraidWord(2, (1, -1))


class TestMembership:
    def test_known_member(self):
        word = parse_braid("1 3", 4)
        expr = search_membership(word, 6)
        assert expr is not None
        assert format_expression(expr) == "m=2 g0 g1 g0 g1^-1"
        assert verify_membership(word, expr)

    def test_non_member_by_pairing(self):
        assert search_membership(parse_braid("2", 4), 6) is None

    def test_odd_strand_count_is_refused(self):
        with pytest.raises(ValueError, match="even strand count"):
            search_membership(parse_braid("1 2", 3), 2)

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

    def test_length_bound_is_a_non_negative_int(self):
        # a negative bound used to return the empty witness of the identity
        for bound in (-1, -5):
            with pytest.raises(ValueError, match=f"max_len must not be negative, got {bound}"):
                search_membership(BraidWord.identity(4), bound)
        with pytest.raises(ValueError, match="max_len 2.0 is not an integer"):
            search_membership(BraidWord.identity(4), 2.0)
        assert search_membership(parse_braid("1", 4), True) == HildenExpression(2, ((0, 1),))
        assert search_membership(BraidWord.identity(4), 0) == HildenExpression(2)

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


def inversion_count(imgs: tuple[int, ...]) -> int:
    return sum(1 for a in range(len(imgs)) for b in range(a + 1, len(imgs)) if imgs[a] > imgs[b])


def type_b_length(gap: tuple[int, ...]) -> int:
    """inv + neg + nsp of a signed permutation, straight from the definitions."""
    pairs = [(gap[a], gap[b]) for a in range(len(gap)) for b in range(a + 1, len(gap))]
    return (
        sum(1 for x, y in pairs if x > y)
        + sum(1 for x in gap if x < 0)
        + sum(1 for x, y in pairs if x + y < 0)
    )


def signed_product(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Diagram-order product of signed permutations: (p q)(i) = q(p(i)), signs multiplied."""
    return tuple(q[x - 1] if x > 0 else -q[-x - 1] for x in p)


def signed_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(p)
    for i, x in enumerate(p, start=1):
        inverse[abs(x) - 1] = i if x > 0 else -i
    return tuple(inverse)


def reference_search_membership(word: BraidWord, max_len: int) -> HildenExpression | None:
    """The membership search on :class:`Permutation` objects, with no memo."""

    if not preserves_pairing(word):
        return None
    m = word.strands // 2
    target_fp = _apply(_basis(2 * m), word.letters)
    target_sum = exponent_sum(word)
    target_pairs = pair_permutation(word)
    steps = []
    for idx, letters in enumerate(reference_generators(m)):
        gen = BraidWord(2 * m, letters)
        for exp, factor in ((1, gen), (-1, gen.inverse())):
            steps.append(((idx, exp), factor.letters, exponent_sum(factor), pair_permutation(factor)))
    max_step_sum = max(abs(step_sum) for _, _, step_sum, _ in steps)

    def successors(state, path):
        fp, esum, pperm = state
        remaining = max_len - len(path) - 1
        children = []
        for move, letters, step_sum, step_pperm in steps:
            new_sum = esum + step_sum
            new_pperm = pperm * step_pperm
            if abs(target_sum - new_sum) > remaining * max_step_sum:
                continue
            if inversion_count((new_pperm.inverse() * target_pairs).images) <= remaining:
                children.append((move, (_apply(fp, letters), new_sum, new_pperm)))
        return children

    start = (_basis(2 * m), 0, Permutation.identity(m))
    for fp, _, factors in bfs(start, lambda state: state[0], successors, max_len):
        if fp == target_fp:
            return HildenExpression(m, factors)
    return None


def unpruned_search_membership(word: BraidWord, max_len: int) -> HildenExpression | None:
    """A one-sided bfs over every factor of the written generators: no
    exponent-sum or distance pruning, no undo skip, no memo."""
    m = word.strands // 2
    target_fp = _apply(_basis(2 * m), word.letters)
    steps = []
    for idx, letters in enumerate(reference_generators(m)):
        gen = BraidWord(2 * m, letters)
        steps += [((idx, 1), gen.letters), ((idx, -1), gen.inverse().letters)]

    def successors(fp, path):
        return [(move, _apply(fp, letters)) for move, letters in steps]

    for fp, _, factors in bfs(_basis(2 * m), lambda fp: fp, successors, max_len):
        if fp == target_fp:
            return HildenExpression(m, factors)
    return None


def reference_ball(m: int, depth: int) -> list:
    """The ball entries of a bfs that builds every child, with no memo."""
    steps = [(move, letters) for move, letters, _, _ in hilden._factor_table(m)]

    def successors(fp, _path):
        return [(move, _apply(fp, letters)) for move, letters in steps]

    entries = []
    for fp, _, factors in bfs(_basis(2 * m), lambda fp: fp, successors, depth):
        expr = HildenExpression(m, factors)
        entries.append((fp, expr, expand_expression(expr.inverse()).letters))
    return entries


class TestHildenBall:
    def test_entries_match_the_search_without_the_undo_skip(self, monkeypatch):
        # same entries in the same order; the root builds a child per factor
        # and every other state one fewer, the undo child being its parent
        built = []
        cached_apply = hilden._cached_apply

        def counting_apply(fp, letters):
            built.append(letters)
            return cached_apply(fp, letters)

        monkeypatch.setattr(hilden, "_cached_apply", counting_apply)
        for m in (1, 2, 3, 4):
            factors = len(hilden._factor_table(m))
            for depth in range(4):
                built.clear()
                got = list(hilden._hilden_ball(m, depth))
                assert got == reference_ball(m, depth)
                expanded = sum(1 for _, expr, _ in got if len(expr.factors) < depth)
                assert len(built) == (factors + (factors - 1) * (expanded - 1) if expanded else 0)


class TestMembershipOracle:
    # the largest bound of the second batch of draws for each pair count: a
    # search that finds nothing costs the one-sided reference about
    # (2m + 2)^bound states
    ORACLE_BOUNDS = {1: 6, 2: 6, 3: 5, 4: 4, 5: 4, 6: 4}

    def test_matches_the_permutation_object_search(self):
        # m = 1-6, expressions of 2-5 factors, searched with the bound at or
        # below their length; some words with one letter appended, which
        # mostly break the pairing
        rng = random.Random(807)
        cases = []
        for _ in range(240):
            m = rng.randint(1, 6)
            length = rng.randint(2, 5)
            word = expand_expression(random_expression(rng, m, length))
            if rng.random() < 0.2:
                g = rng.randint(1, 2 * m - 1)
                word = word * BraidWord(2 * m, (rng.choice((g, -g)),))
            cases.append((word, rng.randint(length - 2, length)))
        # m = 1-6 and bounds 0-6; expressions shorter than, as long as and
        # longer than the bound; some words times sigma_2i^2, which keeps the
        # pairing, and some with one letter appended
        rng = random.Random(809)
        for _ in range(400):
            m = rng.randint(1, 6)
            max_len = rng.randint(0, self.ORACLE_BOUNDS[m])
            word = expand_expression(random_expression(rng, m, rng.randint(0, max_len + 2)))
            roll = rng.random()
            if roll < 0.1:
                g = rng.randint(1, 2 * m - 1)
                word = word * BraidWord(2 * m, (rng.choice((g, -g)),))
            elif roll < 0.2 and m >= 2:
                g = 2 * rng.randint(1, m - 1)
                word = word * BraidWord(2 * m, (g, g))
            cases.append((word, max_len))
        # the reference stops at a witness of at most three factors, so the
        # bound can be 6 for every m
        cases += [
            (expand_expression(random_expression(rng, m, length)), 6)
            for m in range(1, 7)
            for length in range(4)
        ]
        shorter = odd = even = missed = wide_five = 0
        for word, max_len in cases:
            got = search_membership(word, max_len)
            assert got == reference_search_membership(word, max_len)
            if got is None:
                missed += 1
                continue
            length = len(got.factors)
            shorter += length < max_len
            odd += length % 2
            even += length > 0 and length % 2 == 0
            wide_five += length == 5 and got.pairs >= 4
        assert min(shorter, odd, even, missed) > 40
        # five factors with m >= 4: forward layer 3 streamed against backward
        # depth 2, then a suffix search of two factors
        assert wide_five >= 5

    def test_matches_the_unpruned_search(self):
        # m = 1-3: random expressions, some with a flipped pair; some words
        # with one letter appended, which mostly breaks the pairing, or with
        # sigma_2i^2 appended, which keeps it and leaves the subgroup; bounds
        # from two below the expression's length to one above
        rng = random.Random(813)
        found = missed = flipped = 0
        for _ in range(150):
            m = rng.randint(1, 3)
            length = rng.randint(0, {1: 8, 2: 5, 3: 4}[m])
            word = expand_expression(random_expression(rng, m, length))
            roll = rng.random()
            if roll < 0.15:
                g = rng.randint(1, 2 * m - 1)
                word = word * BraidWord(2 * m, (rng.choice((g, -g)),))
            elif roll < 0.3 and m >= 2:
                g = 2 * rng.randint(1, m - 1)
                word = word * BraidWord(2 * m, (g, g))
            max_len = max(0, rng.randint(length - 2, length + 1))
            got = search_membership(word, max_len)
            assert got == unpruned_search_membership(word, max_len)
            images = hilden._pair_images(word.strands, word.letters)
            flipped += images is not None and min(images) < 0
            found += got is not None
            missed += got is None
        assert min(found, missed, flipped) > 30

    def test_wide_witness_pinned(self):
        # 256 strands: the witness of two factors is met in the middle
        word = expand_expression(HildenExpression(128, ((128, -1), (128, -1))))
        assert format_expression(search_membership(word, 6)) == "m=128 g128^-1 g128^-1"

    def test_states_carry_the_gap_and_its_distance(self, monkeypatch):
        # search_membership opens the forward side, then the backward side,
        # then a suffix search whenever the backward path has two factors or
        # more.  Gaps are signed pair permutations, composed in diagram
        # order.  Forward state after path p: gap = p^-1 t on the pairs.
        # Backward state after the moves f_1 ... f_j: the element y = t u^-1
        # with u = f_j ... f_1, and gap = the inverse of y's signed pair
        # permutation.  Suffix state after path p, toward the suffix's
        # target s: gap = p^-1 s, with s the suffix start's gap.  Each
        # distance is the gap's type-B length, within the factors left.
        calls = []

        def recording_bfs(*args):
            states = []
            calls.append(states)

            def record():
                for item in bfs(*args):
                    states.append(item)
                    yield item

            return record()

        monkeypatch.setattr(hilden, "bfs", recording_bfs)
        rng = random.Random(811)
        checked = [0, 0, 0]
        flipped = 0
        for _ in range(60):
            m = rng.randint(1, 5)
            length = rng.randint(1, 6)
            word = expand_expression(random_expression(rng, m, length))
            calls.clear()
            assert search_membership(word, length) is not None
            target = reference_pair_images(word)
            flipped += min(target) < 0
            forward, backward, *suffixes = calls
            for fp, (_, esum, gap, dist), path in forward:
                prefix = expand_expression(HildenExpression(m, path))
                assert _decode(fp) == artin_fingerprint(prefix)
                assert esum == exponent_sum(prefix)
                assert gap == signed_product(signed_inverse(reference_pair_images(prefix)), target)
                assert dist == type_b_length(gap) <= length - len(path)
                checked[0] += 1
            for fp, (_, esum, gap, dist), path in backward:
                u = expand_expression(HildenExpression(m, path[::-1]))
                y = word * u.inverse()
                assert _decode(fp) == artin_fingerprint(y)
                assert esum == exponent_sum(y)
                assert gap == signed_inverse(reference_pair_images(y))
                assert dist == type_b_length(gap) <= length - len(path)
                checked[1] += 1
            for states in suffixes:
                suffix_target = states[0][1][2]
                for fp, (_, esum, gap, dist), path in states:
                    prefix = expand_expression(HildenExpression(m, path))
                    assert _decode(fp) == artin_fingerprint(prefix)
                    assert esum == exponent_sum(prefix)
                    p_inverse = signed_inverse(reference_pair_images(prefix))
                    assert gap == signed_product(p_inverse, suffix_target)
                    assert dist == type_b_length(gap) <= length - len(path)
                    checked[2] += 1
        assert min(checked) > 100
        assert flipped > 10

    def test_no_undo_child_built(self, monkeypatch):
        # on every side, a state's children leave out the inverse of the
        # last factor of its path
        pruned = hilden._pruned_moves
        built = []

        def checking_moves(*args):
            successors = pruned(*args)

            def checked(state, path):
                children = successors(state, path)
                if path:
                    undo = (path[-1][0], -path[-1][1])
                    assert undo not in [move for move, _ in children]
                built.extend(children)
                return children

            return checked

        monkeypatch.setattr(hilden, "_pruned_moves", checking_moves)
        rng = random.Random(814)
        for _ in range(30):
            m = rng.randint(1, 4)
            length = rng.randint(2, 5)
            word = expand_expression(random_expression(rng, m, length))
            assert search_membership(word, length) is not None
        assert len(built) > 500

    def test_pair_images_walked_once_for_the_target(self, monkeypatch):
        # the factors' pair swaps come from the factor table, not from a walk
        walks = []
        walk = hilden._pair_images

        def counting_walk(strands, letters):
            walks.append(letters)
            return walk(strands, letters)

        monkeypatch.setattr(hilden, "_pair_images", counting_walk)
        rng = random.Random(810)
        for m in (1, 2, 3, 4, 6):
            for _ in range(5):
                walks.clear()
                word = expand_expression(random_expression(rng, m, 5))
                assert search_membership(word, 5) is not None
                assert walks == [word.letters]
        walks.clear()
        assert search_membership(parse_braid("2", 4), 5) is None
        assert walks == [(2,)]
