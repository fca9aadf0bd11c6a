"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check uses exact integer or Laurent-polynomial arithmetic;
there are no floating-point tolerances anywhere in this file.  Criteria with
a stated time budget measure wall-clock time and fail when they exceed it.
"""

import random
import time
from fractions import Fraction
from itertools import product as iproduct

from platkit.bands import (
    Band,
    BandedBraid,
    Certificates,
    compile_surface,
    realizing_euler_characteristic,
    search_certificates,
)
from platkit.hilden import HildenExpression, hilden_generators, preserves_pairing
from platkit.laurent import equal_up_to_unit
from platkit.plats import (
    Triviality,
    component_count,
    kauffman_bracket,
    plat_closure,
    triviality_check,
)
from platkit.stabilize import StabilizationProfile, stabilization_tail, stabilize_by_profile
from platkit.systems import (
    BraidSystem,
    HurwitzStatus,
    MonodromyEntry,
    SurfaceType,
    apply_slides,
    boundary_braid,
    branch_signs,
    classify_degree_two,
    hurwitz_search,
    is_two_dimensional,
    normal_euler_number,
    plat_euler_characteristic,
    ribbon_criterion,
    slide,
    to_genuine_plat,
)
from platkit.words import (
    BraidWord,
    braids_equal,
    exponent_sum,
    parse_braid,
    strand_permutation,
)
from test_bands import compiled_boundaries_checked  # noqa: F401  (checks every compiled plan)


def _gate(number: int, limit: float | None, body) -> None:
    started = time.perf_counter()
    try:
        detail = body()
        elapsed = time.perf_counter() - started
        if limit is not None:
            assert elapsed < limit, f"took {elapsed:.1f}s, budget {limit:.0f}s"
    except BaseException as exc:
        print(f"criterion {number}: FAIL ({type(exc).__name__}: {exc})")
        raise
    timing = f"; {elapsed:.1f}s" if limit is not None else ""
    print(f"criterion {number}: PASS ({detail}{timing})")


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    gens = [g for g in range(-(strands - 1), strands) if g != 0]
    return BraidWord(strands, tuple(rng.choice(gens) for _ in range(length)))


# --- criterion 1: word-problem soundness -----------------------------------
#
# The reference oracle below is written from scratch: it tracks the images
# of the free generators x_1..x_n under the letter-by-letter substitution
# sigma_i: x_i -> x_i x_{i+1} x_i^{-1}, x_{i+1} -> x_i, with free reduction.
# Composing per-letter substitutions in either order gives a faithful map,
# so two words agree in the braid group exactly when their image tuples,
# strand permutations, and exponent sums all agree.


def _reduce(seq):
    out = []
    for g in seq:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _inv(seq):
    return tuple(-g for g in reversed(seq))


def free_group_images(word: BraidWord):
    images = [(j,) for j in range(1, word.strands + 1)]
    for g in word.letters:
        i = abs(g)
        a, b = images[i - 1], images[i]
        if g > 0:
            images[i - 1] = _reduce(a + b + _inv(a))
            images[i] = a
        else:
            images[i - 1] = b
            images[i] = _reduce(_inv(b) + a + b)
    return tuple(images)


def plain_permutation(word: BraidWord):
    perm = list(range(word.strands))
    for g in word.letters:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def oracle_equal(u: BraidWord, v: BraidWord) -> bool:
    same_perm = plain_permutation(u) == plain_permutation(v)
    same_exp = sum(1 if g > 0 else -1 for g in u.letters) == sum(
        1 if g > 0 else -1 for g in v.letters
    )
    same_images = free_group_images(u) == free_group_images(v)
    if same_images:
        # the cheap invariants must agree with the faithful one
        assert same_perm and same_exp
    return same_images


def _relator(rng: random.Random, n: int) -> tuple[int, ...]:
    kinds = ["cancel"]
    if n >= 3:
        kinds.append("adjacent")
    if n >= 4:
        kinds.append("far")
    kind = rng.choice(kinds)
    if kind == "adjacent":
        i = rng.randint(1, n - 2)
        return (i, i + 1, i, -(i + 1), -i, -(i + 1))
    if kind == "far":
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        return (i, j, -i, -j)
    i = rng.randint(1, n - 1)
    return (i, -i)


def _perturb(rng: random.Random, letters: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = list(letters)
    mode = rng.choice(("flip", "insert", "swap"))
    if mode == "flip" and out:
        k = rng.randrange(len(out))
        out[k] = -out[k]
    elif mode == "swap" and len(out) >= 2:
        k = rng.randrange(len(out) - 1)
        out[k], out[k + 1] = out[k + 1], out[k]
    else:
        gens = [g for g in range(-(n - 1), n) if g != 0]
        out.insert(rng.randint(0, len(out)), rng.choice(gens))
    return tuple(out)


def test_criterion_01():
    def body():
        for n in range(2, 9):
            for i in range(1, n - 1):
                lhs = BraidWord(n, (i, i + 1, i))
                rhs = BraidWord(n, (i + 1, i, i + 1))
                assert braids_equal(lhs, rhs)
                assert oracle_equal(lhs, rhs)
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    lhs = BraidWord(n, (i, j))
                    rhs = BraidWord(n, (j, i))
                    assert braids_equal(lhs, rhs)
                    assert oracle_equal(lhs, rhs)

        rng = random.Random(11001)
        verdicts = {True: 0, False: 0}
        for trial in range(1000):
            n = rng.randint(2, 8)
            w = random_word(rng, n, rng.randint(0, 12)).letters
            r = _relator(rng, n)
            kind = trial % 3
            if kind == 0:
                u = BraidWord(n, w + r + _inv(w) + _inv(r))
                v = BraidWord.identity(n)
            elif kind == 1:
                u = BraidWord(n, w + r)
                v = BraidWord(n, w)
            else:
                u = BraidWord(n, w + r + _inv(w))
                v = BraidWord(n, _perturb(rng, w, n))
            assert len(u) <= 40 and len(v) <= 40
            expected = oracle_equal(u, v)
            assert braids_equal(u, v) == expected, (n, u.text(), v.text())
            verdicts[expected] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 100
        return (
            "braid relations hold for 2..8 strands; 1000 random pairs "
            f"({verdicts[True]} equal, {verdicts[False]} unequal) match the oracle"
        )

    _gate(1, 30.0, body)


# --- criterion 2: wicket-preserving words close to trivial links ------------


def test_criterion_02():
    def body():
        rng = random.Random(11002)
        checked = 0
        for _ in range(500):
            m = rng.choice((1, 2, 3, 4))
            gens = hilden_generators(m)
            target = rng.randint(0, 24)
            factors: list[tuple[int, int]] = []
            word = BraidWord.identity(2 * m)
            while len(factors) < target:
                idx = rng.randrange(len(gens))
                exp = rng.choice((1, -1))
                factor = gens[idx] if exp == 1 else gens[idx].inverse()
                candidate = (word * factor).free_reduced()
                if len(candidate) > 24:
                    break
                word = candidate
                factors.append((idx, exp))
            HildenExpression(m, tuple(factors))
            assert preserves_pairing(word)
            diagram = plat_closure(word)
            assert component_count(diagram) == m
            assert triviality_check(diagram, budget=24) is Triviality.CONSISTENT_WITH_TRIVIAL
            checked += 1
        return f"{checked} expression words close to trivial links of the right size"

    _gate(2, 60.0, body)


# --- criterion 3: stabilization tails ---------------------------------------


def test_criterion_03():
    def body():
        for m in range(1, 4):
            assert len(stabilization_tail(StabilizationProfile((0,) * m))) == 0
            for l in range(1, 4):
                profile = StabilizationProfile((0,) * (m - 1) + (l,))
                tail = stabilization_tail(profile)
                expected = BraidWord(2 * (m + l), tuple(2 * k for k in range(m, m + l)))
                assert braids_equal(tail, expected), (m, l, tail.text())

        rng = random.Random(11003)
        for _ in range(200):
            m0 = rng.randint(1, 2)
            word = random_word(rng, 2 * m0, rng.randint(0, 6))
            parts = [0] * m0
            for _ in range(rng.randint(0, 2)):
                parts[rng.randrange(m0)] += 1
            profile = StabilizationProfile(tuple(parts))
            bigger = stabilize_by_profile(word, profile)
            before = plat_closure(word)
            after = plat_closure(bigger)
            assert component_count(before) == component_count(after)
            assert equal_up_to_unit(
                kauffman_bracket(before, budget=64), kauffman_bracket(after, budget=64)
            )
        return "trailing tails match the generator product; 200 random stabilizations preserve plats"

    _gate(3, None, body)


# --- criterion 4: slide action laws -----------------------------------------


def _random_entry(rng: random.Random, degree: int):
    if rng.random() < 0.5:
        return MonodromyEntry(
            random_word(rng, degree, rng.randint(0, 4)),
            rng.randint(1, degree - 1),
            rng.choice((1, -1)),
        )
    return random_word(rng, degree, rng.randint(1, 6))


def _words_match(a: BraidSystem, b: BraidSystem) -> None:
    assert a.degree == b.degree and a.r == b.r
    for wa, wb in zip(a.words(), b.words()):
        assert braids_equal(wa, wb)


def _snapshot(system: BraidSystem):
    return (
        sorted(exponent_sum(w) for w in system.words()),
        sorted(strand_permutation(w).cycle_type() for w in system.words()),
    )


def test_criterion_04():
    def body():
        rng = random.Random(11004)
        slides_checked = 0
        for _ in range(200):
            degree = rng.randint(2, 4)
            r = rng.randint(2, 5)
            system = BraidSystem(degree, tuple(_random_entry(rng, degree) for _ in range(r)))
            base_boundary = boundary_braid(system)
            base_data = _snapshot(system)

            def check(moved: BraidSystem) -> None:
                nonlocal slides_checked
                assert braids_equal(boundary_braid(moved), base_boundary)
                assert _snapshot(moved) == base_data
                slides_checked += 1

            for j in range(1, r):
                forward = slide(system, j)
                check(forward)
                check(slide(system, j, inverse=True))
                _words_match(slide(forward, j, inverse=True), system)
                _words_match(slide(slide(system, j, inverse=True), j), system)
            for j in range(1, r - 1):
                lhs = apply_slides(system, [(j, False), (j + 1, False), (j, False)])
                rhs = apply_slides(system, [(j + 1, False), (j, False), (j + 1, False)])
                check(lhs)
                _words_match(lhs, rhs)
            for i in range(1, r):
                for j in range(i + 2, r):
                    lhs = apply_slides(system, [(i, False), (j, False)])
                    rhs = apply_slides(system, [(j, False), (i, False)])
                    check(lhs)
                    _words_match(lhs, rhs)
        return f"slide laws and invariants hold on 200 random systems ({slides_checked} slides)"

    _gate(4, None, body)


# --- criterion 5: degree-2 classification -----------------------------------


def test_criterion_05():
    def body():
        conjugators = ("", "1", "1 1", "-1")
        sequences = 0
        for r in range(0, 6):
            for signs in iproduct((1, -1), repeat=r):
                p = sum(1 for s in signs if s == 1)
                q = r - p
                for offset in range(3):
                    entries = tuple(
                        MonodromyEntry(
                            parse_braid(conjugators[(offset + k) % len(conjugators)], 2),
                            1,
                            s,
                        )
                        for k, s in enumerate(signs)
                    )
                    system = BraidSystem(2, entries)
                    assert classify_degree_two(system) == SurfaceType(p, q)
                    assert plat_euler_characteristic(system) == 2 - r == 2 - (p + q)
                    e = normal_euler_number(system)
                    assert e == 2 * (p - q)
                    assert (e == 0) == (p == q)
                sequences += 1
        assert sequences == 63
        return "all 63 sign sequences with r <= 5 classify by sign counts alone"

    _gate(5, 5.0, body)


# --- criterion 6: genuine-plat converter -------------------------------------


def test_criterion_06():
    def body():
        rng = random.Random(11006)
        for _ in range(100):
            m = rng.randint(2, 3)
            entries: list[MonodromyEntry] = []
            for _ in range(rng.randint(1, 2)):
                entry = MonodromyEntry(
                    random_word(rng, m, rng.randint(0, 4)),
                    rng.randint(1, m - 1),
                    rng.choice((1, -1)),
                )
                entries.extend((entry, entry.inverse()))
            system = BraidSystem(m, tuple(entries))
            assert is_two_dimensional(system)
            genuine = to_genuine_plat(system)
            assert genuine.degree == 2 * m
            assert braids_equal(boundary_braid(genuine), BraidWord.identity(2 * m))
            assert genuine.r == system.r
            assert plat_euler_characteristic(genuine) == 2 * m - system.r
        return "100 doubled systems convert to genuine plats with the expected invariants"

    _gate(6, None, body)


# --- criterion 7: the conjugated-pair example, end to end --------------------


def test_criterion_07():
    def body():
        beta_inverse = parse_braid("-2 -2 -2", 4)
        system = BraidSystem(
            4,
            (MonodromyEntry(beta_inverse, 1, 1), MonodromyEntry(beta_inverse, 1, -1)),
        )
        assert is_two_dimensional(system)
        assert plat_euler_characteristic(system) == 2
        assert branch_signs(system) == (1, 1)
        assert normal_euler_number(system) == 0
        assert ribbon_criterion(system)
        return "degree-4 conjugated pair: chi 2, signs (1,1), normal Euler 0, ribbon"

    _gate(7, None, body)


# --- criterion 8: banded-braid compiler toy case -----------------------------


def test_criterion_08():
    def body():
        toy = BandedBraid(BraidWord.identity(4), (Band(2, 1, Fraction(1, 2)),))
        certs = Certificates(
            profile=StabilizationProfile((0, 0)),
            profile1=StabilizationProfile((0, 0)),
            profile2=StabilizationProfile((1,)),
            gamma=HildenExpression(2),
            gamma_prime=HildenExpression(2),
            delta=HildenExpression(2),
            delta_prime=HildenExpression(2),
        )
        plan = compile_surface(toy, certs)
        assert plan.positive_branch_points == 1
        assert plan.chi == 2 == realizing_euler_characteristic(toy)
        assert preserves_pairing(plan.boundary)

        found = search_certificates(toy, max_pairs=2)
        assert found is not None
        rediscovered = compile_surface(toy, found)
        assert rediscovered.chi == 2
        return "toy band compiles to chi 2 and the bounded search rediscovers a certificate"

    _gate(8, 10.0, body)


# --- criterion 9: slide-equivalence search verdicts --------------------------


def test_criterion_09():
    def body():
        s1 = BraidSystem(2, (parse_braid("1", 2), parse_braid("-1", 2)))
        s2 = BraidSystem(2, (parse_braid("-1", 2), parse_braid("1", 2)))
        res = hurwitz_search(s1, s2)
        assert res.status is HurwitzStatus.EQUIVALENT
        assert res.moves is not None and len(res.moves) == 1
        replayed = apply_slides(s1, list(res.moves))
        assert tuple(w.free_reduced().letters for w in replayed.words()) == tuple(
            w.free_reduced().letters for w in s2.words()
        )

        singles = hurwitz_search(
            BraidSystem(2, (parse_braid("1", 2),)),
            BraidSystem(2, (parse_braid("-1", 2),)),
        )
        assert singles.status is HurwitzStatus.NOT_EQUIVALENT

        blind = hurwitz_search(s1, s2, budget=0)
        assert blind.status is HurwitzStatus.UNKNOWN
        return "one-move witness replays; distinct singletons split; zero budget is honest"

    _gate(9, None, body)
