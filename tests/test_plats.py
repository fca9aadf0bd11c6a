"""Plat closures, the bracket polynomial, and diagram export."""

import random

import pytest

import platkit.plats as plats
from platkit.laurent import LOOP, Laurent, equal_up_to_unit, loop_power
from platkit.plats import (
    Pairing,
    PlatDiagram,
    Triviality,
    _shrink,
    component_count,
    kauffman_bracket,
    pd_lines,
    plat_closure,
    triviality_check,
)
from platkit.hilden import expand_expression
from platkit.stabilize import StabilizationProfile, stabilize, stabilize_by_profile
from platkit.words import MAX_STRANDS, BraidWord, BudgetError, parse_braid, strand_permutation

from test_hilden import random_expression

U = Laurent.unit


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    letters = []
    for _ in range(length):
        g = rng.randint(1, strands - 1)
        letters.append(g if rng.random() < 0.5 else -g)
    return BraidWord(strands, tuple(letters))


def shift(word: BraidWord, offset: int, strands: int) -> BraidWord:
    """Re-embed `word` so it uses strands offset+1 .. offset+word.strands."""
    letters = tuple((abs(g) + offset) * (1 if g > 0 else -1) for g in word.letters)
    return BraidWord(strands, letters)


def components_via_pd(diagram: PlatDiagram) -> int:
    """Independent component count read off the exported diagram.

    Arcs become graph nodes; each crossing joins bottom-left to top-right
    and bottom-right to top-left, cups and caps join their two arcs.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for line in pd_lines(diagram):
        parts = line.split()
        if parts[0] == "X":
            bl, br, tl, tr = map(int, parts[1:])
            union(bl, tr)
            union(br, tl)
        else:
            a, b = map(int, parts[1:])
            union(a, b)
    return len({find(x) for x in parent})


def reference_bracket(diagram: PlatDiagram) -> Laurent:
    """The state sum as it stood on :class:`Laurent` objects, kept as an oracle.

    Every state carries a frozen polynomial and every smoothing multiplies
    it by A^{+-1} or by the loop value, with no integer shortcuts.
    """

    def cupcap(matching: tuple[int, ...], a: int) -> tuple[tuple[int, ...], bool]:
        b = a + 1
        m = list(matching)
        if m[a] == b:
            return matching, True
        x, y = m[a], m[b]
        m[x], m[y] = y, x
        m[a], m[b] = b, a
        return tuple(m), False

    def close_loops(matching: tuple[int, ...]) -> int:
        n = len(matching)
        seen = [False] * n
        loops = 0
        for start in range(n):
            if seen[start]:
                continue
            loops += 1
            x = start
            while not seen[x]:
                seen[x] = True
                y = matching[x]
                seen[y] = True
                x = diagram.top(y + 1) - 1
        return loops

    start = tuple(diagram.bottom(i + 1) - 1 for i in range(diagram.word.strands))
    states: dict[tuple[int, ...], Laurent] = {start: Laurent.one()}
    a_pos = Laurent.unit(1)
    a_neg = Laurent.unit(-1)
    for g in diagram.word.letters:
        i = abs(g) - 1
        cup_coeff, id_coeff = (a_pos, a_neg) if g > 0 else (a_neg, a_pos)
        nxt: dict[tuple[int, ...], Laurent] = {}
        for matching, coeff in states.items():
            straight = coeff * id_coeff
            nxt[matching] = nxt.get(matching, Laurent.zero()) + straight
            rewired, closed = cupcap(matching, i)
            turned = coeff * cup_coeff
            if closed:
                turned = turned * LOOP
            nxt[rewired] = nxt.get(rewired, Laurent.zero()) + turned
        states = {m: c for m, c in nxt.items() if not c.is_zero()}
    total = Laurent.zero()
    for matching, coeff in states.items():
        total = total + coeff * LOOP ** (close_loops(matching) - 1)
    return total


def reference_pd_lines(diagram: PlatDiagram) -> list[str]:
    """The export as it stood with a union-find over every (gap, position)
    node and a level-by-level scan for each arc's next crossing, kept as an
    oracle."""
    word = diagram.word
    n = word.strands
    c = len(word.letters)
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x: tuple[int, int]) -> tuple[int, int]:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x: tuple[int, int], y: tuple[int, int]) -> None:
        parent[find(x)] = find(y)

    for level, g in enumerate(word.letters, start=1):
        i = abs(g)
        for p in range(1, n + 1):
            if p not in (i, i + 1):
                union((level - 1, p), (level, p))

    labels: dict[tuple[int, int], int] = {}

    def label_arc(node: tuple[int, int]) -> bool:
        root = find(node)
        if root in labels:
            return False
        labels[root] = len(labels) + 1
        return True

    def next_crossing(pos: int, gap: int, direction: int) -> int | None:
        levels = range(gap + 1, c + 1) if direction == 1 else range(gap, 0, -1)
        for lv in levels:
            i = abs(word.letters[lv - 1])
            if pos in (i, i + 1):
                return lv
        return None

    for start in range(1, n + 1):
        pos, gap, direction = start, 0, 1
        while label_arc((gap, pos)):
            lv = next_crossing(pos, gap, direction)
            if lv is not None:
                i = abs(word.letters[lv - 1])
                pos = i + 1 if pos == i else i
                gap = lv if direction == 1 else lv - 1
            elif direction == 1:
                pos, gap, direction = diagram.top(pos), c, -1
            else:
                pos, gap, direction = diagram.bottom(pos), 0, 1

    def label_of(node: tuple[int, int]) -> int:
        return labels[find(node)]

    lines = []
    for i, j in diagram.bottom.pairs():
        lines.append(f"CUP {label_of((0, i))} {label_of((0, j))}")
    for level, g in enumerate(word.letters, start=1):
        i = abs(g)
        bl = label_of((level - 1, i))
        br = label_of((level - 1, i + 1))
        tl = label_of((level, i))
        tr = label_of((level, i + 1))
        lines.append(f"X {bl} {br} {tl} {tr}")
    for i, j in diagram.top.pairs():
        lines.append(f"CAP {label_of((c, i))} {label_of((c, j))}")
    return lines


def signed_word(rng: random.Random, strands: int, length: int, signs: str) -> BraidWord:
    """A random word whose letters are all positive, all negative or mixed."""
    letters = []
    for _ in range(length):
        g = rng.randint(1, strands - 1)
        sign = {"+": 1, "-": -1, "+-": rng.choice((1, -1))}[signs]
        letters.append(sign * g)
    return BraidWord(strands, tuple(letters))


class TestPlatClosure:
    def test_even_strands_required(self):
        with pytest.raises(ValueError):
            plat_closure(parse_braid("1 2", 3))

    def test_standard_pairing(self):
        assert Pairing.standard(3).pairs() == ((1, 2), (3, 4), (5, 6))
        assert Pairing.standard(1)(1) == 2

    def test_standard_pairing_strand_guard(self):
        assert Pairing.standard(MAX_STRANDS // 2).size == MAX_STRANDS
        with pytest.raises(BudgetError, match=f"over the limit of {MAX_STRANDS}"):
            Pairing.standard(MAX_STRANDS // 2 + 1)
        with pytest.raises(BudgetError):
            plat_closure(BraidWord(MAX_STRANDS + 2, (1,)))
        with pytest.raises(ValueError, match="negative"):
            Pairing.standard(-1)

    def test_pairing_validation(self):
        with pytest.raises(ValueError):
            Pairing((1, 2, 4, 3))  # fixes 1 and 2
        with pytest.raises(ValueError):
            Pairing((2, 1, 3))  # odd size
        Pairing((2, 1, 4, 3))

    def test_diagram_validation(self):
        with pytest.raises(ValueError):
            PlatDiagram(parse_braid("1", 2), Pairing.standard(1), Pairing.standard(2))

    def test_pairing_partners_stored_as_plain_ints(self):
        pairing = Pairing((2, True))
        assert pairing.partner == (2, 1) and {type(j) for j in pairing.partner} == {int}
        for bad in (1.0, "1", None):
            with pytest.raises(ValueError, match="is not an integer"):
                Pairing((2, bad))

    def test_pairing_holds_a_tuple(self):
        partner = [2, 1, 4, 3]
        pairing = Pairing(partner)
        assert pairing == Pairing((2, 1, 4, 3)) == Pairing.standard(2)
        assert hash(pairing) == hash(Pairing((2, 1, 4, 3)))
        diagram = PlatDiagram(parse_braid("2", 4), pairing, pairing)
        assert hash(diagram) == hash(plat_closure(parse_braid("2", 4)))
        partner[:] = [3, 4, 1, 2]
        assert pairing.partner == (2, 1, 4, 3)
        assert diagram == plat_closure(parse_braid("2", 4))


class TestComponents:
    def test_identity(self):
        for m in range(1, 5):
            assert component_count(plat_closure(BraidWord.identity(2 * m))) == m

    def test_middle_generator_merges(self):
        assert component_count(plat_closure(parse_braid("2", 4))) == 1

    def test_trefoil(self):
        assert component_count(plat_closure(parse_braid("2 2 2", 4))) == 1

    def test_hopf(self):
        assert component_count(plat_closure(parse_braid("2 2", 4))) == 2

    def test_matches_pd_reading(self):
        rng = random.Random(21)
        for _ in range(60):
            m = rng.randint(1, 3)
            w = random_word(rng, 2 * m, rng.randint(0, 10))
            diagram = plat_closure(w)
            assert component_count(diagram) == components_via_pd(diagram)


def orbit_components(diagram: PlatDiagram) -> int:
    """Orbits of the bottom involution and the top involution pulled back
    through the braid's permutation, walked one endpoint at a time."""
    n = diagram.word.strands
    pi = strand_permutation(diagram.word)
    pi_inv = pi.inverse()
    seen = [False] * n
    orbits = 0
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        orbits += 1
        stack = [start]
        while stack:
            x = stack.pop()
            if seen[x - 1]:
                continue
            seen[x - 1] = True
            stack.extend([diagram.bottom(x), pi_inv(diagram.top(pi(x)))])
    return orbits


def random_pairing(rng: random.Random, size: int) -> Pairing:
    points = list(range(1, size + 1))
    rng.shuffle(points)
    partner = [0] * size
    for a, b in zip(points[::2], points[1::2]):
        partner[a - 1], partner[b - 1] = b, a
    return Pairing(tuple(partner))


class TestComponentCountOracle:
    def test_standard_pairings(self):
        rng = random.Random(11)
        for _ in range(300):
            strands = 2 * rng.randint(1, 8)
            diagram = plat_closure(random_word(rng, strands, rng.randint(0, 40)))
            assert component_count(diagram) == orbit_components(diagram)

    def test_random_pairings(self):
        rng = random.Random(12)
        for _ in range(300):
            strands = 2 * rng.randint(1, 8)
            word = random_word(rng, strands, rng.randint(0, 40))
            diagram = PlatDiagram(
                word, random_pairing(rng, strands), random_pairing(rng, strands)
            )
            assert component_count(diagram) == orbit_components(diagram)


def close_loops(diagram: PlatDiagram) -> int:
    """Loops of the carried-up bottom matching capped off by the top pairing,
    walked a matching arc and a top arc at a time."""
    pi = strand_permutation(diagram.word).images
    matching = [0] * len(pi)
    for x, y in zip(pi, diagram.bottom.partner):
        matching[x - 1] = pi[y - 1] - 1
    top = [p - 1 for p in diagram.top.partner]
    seen = [False] * len(pi)
    loops = 0
    for start in range(len(pi)):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = matching[x]  # travel the diagram below
            seen[y] = True
            x = top[y]  # hop across a top arc
    return loops


def planar_pairing(rng: random.Random, size: int) -> Pairing:
    """A random non-crossing pairing: each position opens a pair or closes the last one open."""
    partner = [0] * size
    stack: list[int] = []
    unopened = size // 2
    for p in range(1, size + 1):
        if stack and (not unopened or rng.random() < 0.5):
            q = stack.pop()
            partner[p - 1], partner[q - 1] = q, p
        else:
            stack.append(p)
            unopened -= 1
    return Pairing(tuple(partner))


class TestComponentCountAsCycles:
    """component_count counts the cycles of "top after matching", two per loop."""

    def test_matches_the_loop_walk(self):
        rng = random.Random(13)
        for _ in range(400):
            strands = 2 * rng.randint(1, 8)
            make = rng.choice((planar_pairing, random_pairing))
            word = random_word(rng, strands, rng.randint(0, 40))
            diagram = PlatDiagram(word, make(rng, strands), make(rng, strands))
            assert component_count(diagram) == close_loops(diagram)

    def test_two_strands(self):
        for text in ("", "1", "-1 -1 1", "1 1 1 1"):
            diagram = plat_closure(parse_braid(text, 2))
            assert component_count(diagram) == close_loops(diagram) == 1

    def test_planar_pairings_are_planar(self):
        rng = random.Random(14)
        for _ in range(100):
            pairs = planar_pairing(rng, 2 * rng.randint(1, 8)).pairs()
            for a, b in pairs:
                for c, d in pairs:
                    assert not a < c < b < d


class TestBracket:
    def test_single_positive_crossing(self):
        assert kauffman_bracket(plat_closure(parse_braid("1", 2))) == U(3, -1)

    def test_single_negative_crossing(self):
        assert kauffman_bracket(plat_closure(parse_braid("-1", 2))) == U(-3, -1)

    def test_middle_generator_in_four_strands(self):
        assert kauffman_bracket(plat_closure(parse_braid("2", 4))) == U(-3, -1)

    def test_trefoil(self):
        expected = U(7) - U(3) - U(-5)
        assert kauffman_bracket(plat_closure(parse_braid("2 2 2", 4))) == expected

    def test_unknot(self):
        assert kauffman_bracket(plat_closure(BraidWord.identity(2))) == Laurent.one()

    def test_two_component_unlink(self):
        assert kauffman_bracket(plat_closure(BraidWord.identity(4))) == LOOP

    def test_text_with_a_constant_term(self):
        # the three-component unlink: (-A^2 - A^-2)^2
        bracket = kauffman_bracket(plat_closure(BraidWord.identity(6)))
        assert str(bracket) == "A^4 + 2 + A^-4"
        assert str(-bracket) == "-A^4 - 2 - A^-4"
        assert str(Laurent.zero()) == "0"

    @pytest.mark.parametrize(
        "coeffs",
        [((2, 1), (0, 1)), ((0, 0),), ((1, 2), (1, 3)), ((0, 1.0),), ((0, True),), ((0, "1"),)],
    )
    def test_laurent_refuses_pairs_off_its_invariant(self, coeffs):
        # sorted exponents, strictly increasing, each coefficient a nonzero int
        with pytest.raises(ValueError, match="not sorted"):
            Laurent(coeffs)

    def test_laurent_stores_a_tuple_of_int_pairs(self):
        for coeffs in ([(0, 1)], [[0, 1]], ([0, 1],)):
            p = Laurent(coeffs)
            assert p == Laurent(((0, 1),)) and hash(p) == hash(Laurent.one())
            assert type(p.coeffs) is tuple and type(p.coeffs[0]) is tuple
        # an exponent must be an int, as a coefficient must
        for e in (0.5, True, 1.0, "1"):
            with pytest.raises(ValueError, match="not sorted"):
                Laurent(((e, 1),))

    def test_laurent_refusals(self):
        with pytest.raises(ValueError, match="negative powers"):
            LOOP ** -1
        with pytest.raises(ValueError, match="no degree"):
            Laurent.zero().max_degree()

    def test_mirror_symmetry(self):
        # flipping every crossing substitutes A -> A^-1 in the bracket
        rng = random.Random(31)
        for _ in range(25):
            m = rng.randint(1, 3)
            w = random_word(rng, 2 * m, rng.randint(0, 8))
            mirror = BraidWord(w.strands, tuple(-g for g in w.letters))
            b = kauffman_bracket(plat_closure(w))
            bm = kauffman_bracket(plat_closure(mirror))
            assert bm == Laurent.from_dict({-e: c for e, c in b.coeffs})

    def test_distant_union_multiplies(self):
        # a split diagram contributes the product times one extra loop
        rng = random.Random(32)
        for _ in range(15):
            m1 = rng.randint(1, 2)
            m2 = rng.randint(1, 2)
            w1 = random_word(rng, 2 * m1, rng.randint(0, 6))
            w2 = random_word(rng, 2 * m2, rng.randint(0, 6))
            n = 2 * m1 + 2 * m2
            joined = shift(w1, 0, n) * shift(w2, 2 * m1, n)
            lhs = kauffman_bracket(plat_closure(joined))
            rhs = (
                kauffman_bracket(plat_closure(w1))
                * kauffman_bracket(plat_closure(w2))
                * LOOP
            )
            assert lhs == rhs

    def test_reidemeister_two_exact(self):
        rng = random.Random(33)
        for _ in range(25):
            m = rng.randint(1, 3)
            w = random_word(rng, 2 * m, rng.randint(0, 8))
            pos = rng.randint(0, len(w.letters))
            g = rng.randint(1, 2 * m - 1)
            padded = BraidWord(w.strands, w.letters[:pos] + (g, -g) + w.letters[pos:])
            assert kauffman_bracket(plat_closure(padded)) == kauffman_bracket(
                plat_closure(w)
            )

    def test_budget(self):
        w = BraidWord(2, (1,) * 25)
        with pytest.raises(BudgetError):
            kauffman_bracket(plat_closure(w))
        kauffman_bracket(plat_closure(w), budget=25)

    def test_equal_up_to_unit(self):
        b = kauffman_bracket(plat_closure(parse_braid("2 2 2", 4)))
        assert equal_up_to_unit(b, b * U(3, -1))
        assert equal_up_to_unit(b, b)
        assert not equal_up_to_unit(b, b + Laurent.one())
        assert not equal_up_to_unit(b, Laurent.zero())
        assert equal_up_to_unit(Laurent.zero(), Laurent.zero())


def loop_closures(diagram: PlatDiagram) -> int:
    """How many (letter, matching) steps of the state sweep close a loop."""
    start = tuple(diagram.bottom(i + 1) - 1 for i in range(diagram.word.strands))
    matchings = {start}
    closures = 0
    for g in diagram.word.letters:
        a = abs(g) - 1
        nxt = set()
        for matching in matchings:
            nxt.add(matching)
            if matching[a] == a + 1:
                closures += 1
                continue
            m = list(matching)
            x, y = m[a], m[a + 1]
            m[x], m[y] = y, x
            m[a], m[a + 1] = a + 1, a
            nxt.add(tuple(m))
        matchings = nxt
    return closures


class TestBracketCrossCheck:
    """The packed-int sweep against the Laurent-object oracle."""

    def cases(self, seed: int, count: int):
        rng = random.Random(seed)
        for k in range(count):
            strands = 2 * rng.randint(1, 6)
            length = 0 if k % 10 == 0 else rng.randint(0, 40)
            yield signed_word(rng, strands, length, ("+", "-", "+-")[k % 3])

    def test_matches_oracle(self):
        words = list(self.cases(51, 66))
        assert {w.strands for w in words} == {2, 4, 6, 8, 10, 12}
        assert sum(1 for w in words if not w.letters) >= 6
        for w in words:
            diagram = plat_closure(w)
            assert kauffman_bracket(diagram, budget=40) == reference_bracket(diagram)

    def test_matches_oracle_on_long_words(self):
        rng = random.Random(52)
        for _ in range(4):
            w = signed_word(rng, 12, 40, "+-")
            diagram = plat_closure(w)
            assert kauffman_bracket(diagram, budget=40) == reference_bracket(diagram)

    def test_matches_oracle_on_arbitrary_pairings(self):
        # with a non-planar pairing one matching can hold exponents of both
        # classes mod 4, so the sweep must keep them apart to the end
        rng = random.Random(56)
        for _ in range(300):
            strands = 2 * rng.randint(1, 6)
            w = random_word(rng, strands, rng.randint(0, 18))
            diagram = PlatDiagram(
                w, random_pairing(rng, strands), random_pairing(rng, strands)
            )
            assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_mirror_substitutes_inverse(self):
        for w in self.cases(53, 30):
            mirror = BraidWord(w.strands, tuple(-g for g in w.letters))
            b = kauffman_bracket(plat_closure(w), budget=40)
            bm = kauffman_bracket(plat_closure(mirror), budget=40)
            assert bm == Laurent.from_dict({-e: c for e, c in b.coeffs})

    def test_stabilization_multiplies_by_a_unit(self):
        for w in self.cases(54, 30):
            b = kauffman_bracket(plat_closure(w), budget=41)
            bs = kauffman_bracket(plat_closure(stabilize(w, 1)), budget=41)
            assert equal_up_to_unit(bs, b)
            assert not bs.is_zero()

    def test_one_signed_long_words(self):
        # loops close under both signs, so both merged loop terms are used
        rng = random.Random(55)
        for signs in ("+", "-"):
            for length in (60, 90, 120):
                diagram = plat_closure(signed_word(rng, 8, length, signs))
                assert loop_closures(diagram) > 0
                assert kauffman_bracket(diagram, budget=120) == reference_bracket(diagram)

    def test_alternating_four_plat_has_wide_coefficients(self):
        # a 2-bridge link whose coefficients grow like a Fibonacci number:
        # at 120 crossings they need more than 60 bits of the slot width
        diagram = plat_closure(BraidWord(4, (2, -1) * 60))
        bracket = kauffman_bracket(diagram, budget=120)
        assert max(abs(c) for _, c in bracket.coeffs).bit_length() > 60
        assert bracket == reference_bracket(diagram)

    def test_empty_word_and_single_letters(self):
        for strands in (2, 4, 6, 8):
            diagram = plat_closure(BraidWord.identity(strands))
            assert kauffman_bracket(diagram) == LOOP ** (strands // 2 - 1)
            assert kauffman_bracket(diagram) == reference_bracket(diagram)
            for i in range(1, strands):
                for g in (i, -i):
                    diagram = plat_closure(BraidWord(strands, (g,)))
                    assert kauffman_bracket(diagram) == reference_bracket(diagram)
        # a kink: the loop term sits in the highest slot for +1, the lowest for -1
        assert kauffman_bracket(plat_closure(parse_braid("1", 2))) == U(3, -1)
        assert kauffman_bracket(plat_closure(parse_braid("-1", 2))) == U(-3, -1)

    def test_negative_coefficients_at_both_ends(self):
        diagram = plat_closure(parse_braid("-2 -2 -2 -2", 4))
        bracket = kauffman_bracket(diagram)
        assert bracket == Laurent.from_dict({-10: -1, -6: 1, -2: -1, 6: -1})
        assert bracket == reference_bracket(diagram)


def adjacent_pairing(rng: random.Random, size: int) -> Pairing:
    """A random pairing that joins at least one pair of adjacent positions."""
    p = rng.randint(1, size - 1)
    rest = [q for q in range(1, size + 1) if q not in (p, p + 1)]
    rng.shuffle(rest)
    partner = [0] * size
    partner[p - 1], partner[p] = p + 1, p
    for a, b in zip(rest[::2], rest[1::2]):
        partner[a - 1], partner[b - 1] = b, a
    return Pairing(tuple(partner))


class TestBracketPrePass:
    """Diagrams aimed at each step of the bracket's pre-pass, against the oracle."""

    def test_inverse_pairs_across_commuting_letters(self):
        rng = random.Random(61)
        for _ in range(60):
            strands = 2 * rng.randint(3, 6)
            g = rng.randint(1, strands - 1) * rng.choice((1, -1))
            far = [j for j in range(1, strands) if abs(j - abs(g)) >= 2]
            middle = tuple(rng.choice(far) * rng.choice((1, -1)) for _ in range(rng.randint(0, 4)))
            pair = (g, *middle, -g) if rng.random() < 0.5 else (-g, *middle, g)
            w = random_word(rng, strands, rng.randint(0, 10))
            pos = rng.randint(0, len(w))
            diagram = plat_closure(BraidWord(strands, w.letters[:pos] + pair + w.letters[pos:]))
            assert kauffman_bracket(diagram) == reference_bracket(diagram)
            rest = BraidWord(strands, w.letters[:pos] + middle + w.letters[pos:])
            assert kauffman_bracket(diagram) == kauffman_bracket(plat_closure(rest))
        # a neighbour of g between the two blocks the cancellation
        diagram = plat_closure(parse_braid("2 1 -2", 4))
        assert len(_shrink(diagram)[0]) == 3
        assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_words_that_reduce_to_nothing(self):
        rng = random.Random(62)
        for text, strands in (("1 3 -1 -3", 4), ("2 5 4 -2 -4 -5", 8), ("1 -1 " * 12, 2)):
            word = parse_braid(text, strands)
            assert _shrink(plat_closure(word))[0] == ()
            mixed = PlatDiagram(word, random_pairing(rng, strands), random_pairing(rng, strands))
            for diagram in (plat_closure(word), mixed):
                assert kauffman_bracket(diagram) == reference_bracket(diagram)
        for _ in range(30):
            u = random_word(rng, 2 * rng.randint(1, 5), rng.randint(1, 9))
            diagram = plat_closure(u * u.inverse())
            assert _shrink(diagram)[0] == ()
            assert kauffman_bracket(diagram) == LOOP ** (u.strands // 2 - 1)
            assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_runs_of_kinks_at_both_ends(self):
        rng = random.Random(63)
        # letters at 1 or 3 before the 2 are bottom kinks, after it top kinks;
        # each counts +1 when positive and -1 when negative
        for text, kinks in (("1 1 -1 1 2 1 1 1", 5), ("3 3 2 -3 -3 -3", -1), ("-1 -1 -1", -3)):
            diagram = plat_closure(parse_braid(text, 4))
            assert _shrink(diagram)[3] == kinks
            assert kauffman_bracket(diagram) == reference_bracket(diagram)
        for k in range(120):
            strands = 2 * rng.randint(1, 5)
            bottom = adjacent_pairing(rng, strands) if k % 2 else Pairing.standard(strands // 2)
            top = adjacent_pairing(rng, strands) if k % 3 else Pairing.standard(strands // 2)
            cups = [i for i in range(1, strands) if bottom(i) == i + 1]
            caps = [i for i in range(1, strands) if top(i) == i + 1]
            runs = []
            for ends in (cups, caps):
                i = rng.choice(ends)
                runs.append(tuple(i * rng.choice((1, -1)) for _ in range(rng.randint(1, 4))))
            middle = random_word(rng, strands, rng.randint(0, 8)).letters
            word = BraidWord(strands, runs[0] + middle + runs[1])
            diagram = PlatDiagram(word, bottom, top)
            assert len(_shrink(diagram)[0]) < len(word)
            assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_every_pair_untouched(self):
        rng = random.Random(64)
        for m in range(1, 9):
            for letters in ((), (1,), (-1, -1)):
                diagram = plat_closure(BraidWord(2 * m, letters))
                assert _shrink(diagram)[:3] == ((), (), ())
                assert _shrink(diagram)[4] == m
                assert kauffman_bracket(diagram) == reference_bracket(diagram)
            assert kauffman_bracket(plat_closure(BraidWord.identity(2 * m))) == LOOP ** (m - 1)
            # the same non-standard pairing at both ends: every cap is idle
            # and pulled down, each closing a split loop with its own cup
            pairing = random_pairing(rng, 2 * m)
            diagram = PlatDiagram(BraidWord.identity(2 * m), pairing, pairing)
            assert kauffman_bracket(diagram) == LOOP ** (m - 1)
            assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_idle_caps_pulled_down(self):
        # the idle caps {1,3} and {2,4} chain: pulling {1,3} down joins the
        # cups {1,2} and {3,4} into one cup {2,4}, which the cap {2,4} then
        # closes into a split loop; only positions 5-8 are left
        diagram = PlatDiagram(
            parse_braid("5 7 6 -5", 8),
            pairing_of(8, ((1, 2), (3, 4), (5, 8), (6, 7))),
            pairing_of(8, ((1, 3), (2, 4), (5, 7), (6, 8))),
        )
        assert _shrink(diagram) == ((1, 3, 2, -1), (3, 2, 1, 0), (2, 3, 0, 1), 0, 1)
        assert kauffman_bracket(diagram) == reference_bracket(diagram)
        # the idle cap {1,6} joins the bottom partners 3 and 2 of its strands,
        # both kept: they are renumbered 1 and 2, 0-based
        diagram = PlatDiagram(
            parse_braid("2 3", 6),
            pairing_of(6, ((1, 3), (2, 6), (4, 5))),
            pairing_of(6, ((1, 6), (2, 4), (3, 5))),
        )
        assert _shrink(diagram) == ((1, 2), (1, 0, 3, 2), (2, 3, 0, 1), 0, 0)
        assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_random_diagrams(self):
        # half with random pairings at both ends, some with letters on a
        # few positions only, so that untouched pairs are common
        rng = random.Random(65)
        for k in range(1000):
            strands = 2 * rng.randint(1, 7)
            spots = list(range(1, strands))
            if k % 4 == 1 and strands > 2:
                spots = rng.sample(spots, rng.randint(1, min(3, strands - 1)))
            length = rng.randint(0, 14)
            letters = tuple(rng.choice(spots) * rng.choice((1, -1)) for _ in range(length))
            diagram = plat_closure(BraidWord(strands, letters))
            if k % 2:
                diagram = PlatDiagram(
                    diagram.word, random_pairing(rng, strands), random_pairing(rng, strands)
                )
            assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_budget_counts_the_letters_as_written(self):
        word = BraidWord(4, (1, -1) * 13)
        assert _shrink(plat_closure(word))[0] == ()
        with pytest.raises(BudgetError):
            kauffman_bracket(plat_closure(word), budget=24)
        assert kauffman_bracket(plat_closure(word), budget=26) == LOOP

    def test_untouched_pairs_of_a_wide_plat(self):
        # twelve letters on 2048 strands touch 24 pairs; the other 1000 are
        # split loops, each one more component and one more loop factor
        letters = tuple(range(2, 47, 4))
        wide = plat_closure(BraidWord(2048, letters))
        narrow = plat_closure(BraidWord(48, letters))
        assert component_count(wide) == 1012
        assert component_count(narrow) == 12
        assert kauffman_bracket(wide) == kauffman_bracket(narrow) * loop_power(1000)


def commuting_shuffle(rng: random.Random, word: BraidWord) -> BraidWord:
    """The letters in a random order that keeps every pair at distance < 2 in place."""
    rest = list(word.letters)
    out = []
    while rest:
        ready = [
            k for k, g in enumerate(rest)
            if all(abs(abs(h) - abs(g)) >= 2 for h in rest[:k])
        ]
        out.append(rest.pop(rng.choice(ready)))
    return BraidWord(word.strands, tuple(out))


def pairing_of(strands: int, pairs) -> Pairing:
    partner = [0] * strands
    for a, b in pairs:
        partner[a - 1], partner[b - 1] = b, a
    return Pairing(tuple(partner))


class TestBracketSweep:
    """The sweep in leftmost-ready letter order, capping each finished top pair."""

    def test_matches_oracle_on_wide_plats(self):
        rng = random.Random(57)
        for strands in (14, 16, 18, 20):
            for length in (24, 32, 40):
                diagram = plat_closure(random_word(rng, strands, length))
                assert kauffman_bracket(diagram, budget=40) == reference_bracket(diagram)
            w = random_word(rng, strands, 24)
            diagram = PlatDiagram(w, random_pairing(rng, strands), random_pairing(rng, strands))
            assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_commuting_shuffles_keep_the_bracket(self):
        rng = random.Random(58)
        moved = 0
        for k in range(60):
            strands = 2 * rng.randint(2, 6)
            w = random_word(rng, strands, rng.randint(10, 36))
            bracket = kauffman_bracket(plat_closure(w), budget=40)
            for _ in range(3):
                v = commuting_shuffle(rng, w)
                moved += v != w
                assert kauffman_bracket(plat_closure(v), budget=40) == bracket
            if k % 10 == 0:
                assert bracket == reference_bracket(plat_closure(w))
        assert moved > 150

    def test_non_planar_caps_before_the_first_and_after_the_last_letter(self):
        # letters on the middle positions only, so the outer top pairs are
        # capped on the start matching: a join when the bottom pairing does
        # not join them too, a loop when it does
        rng = random.Random(59)
        for strands in (8, 12, 16):
            middle = [(p + d, p + d + 2) for p in range(3, strands - 2, 4) for d in (0, 1)]
            top = pairing_of(strands, [(1, strands - 1), (2, strands)] + middle)
            for k in range(40):
                w = BraidWord(strands, tuple(
                    rng.randint(3, strands - 3) * rng.choice((1, -1))
                    for _ in range(rng.randint(1, 16))
                ))
                bottom = random_pairing(rng, strands)
                if k % 2:
                    rest = list(range(2, strands - 1)) + [strands]
                    rng.shuffle(rest)
                    bottom = pairing_of(strands, [(1, strands - 1)] + list(zip(rest[::2], rest[1::2])))
                diagram = PlatDiagram(w, bottom, top)
                assert kauffman_bracket(diagram) == reference_bracket(diagram)
        # a written word whose last letters touch one adjacent top pair only:
        # the pre-pass strips them as kinks, so the pair they touch is not
        # left waiting for them
        top = pairing_of(8, [(1, 2), (3, 6), (4, 8), (5, 7)])
        for k in range(40):
            head = random_word(rng, 8, rng.randint(0, 14))
            diagram = PlatDiagram(head * BraidWord(8, (1,) * (1 + k % 3)), random_pairing(rng, 8), top)
            assert len(_shrink(diagram)[0]) <= len(head)
            assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_plat_that_shrinks_to_nothing(self):
        # 1 -1 cancels, 3 3 are kinks under the top cap {3, 4}, and then no
        # letter is left and both pairs are split loops
        diagram = plat_closure(parse_braid("1 3 -1 3", 4))
        assert _shrink(diagram) == ((), (), (), 2, 2)
        assert kauffman_bracket(diagram) == U(6) * LOOP
        assert kauffman_bracket(diagram) == reference_bracket(diagram)

    def test_hilden_words_whose_keys_cancel(self):
        # the state sums of Hilden words and of their stabilizations cancel
        # keys to zero mid-sweep, so zero keys reach the next letter and the
        # caps: they must add nothing there
        rng = random.Random(62)
        for m in (2, 3, 4):
            for _ in range(12):
                h = expand_expression(random_expression(rng, m, rng.randint(2, 10)))
                entries = [0] * m
                entries[rng.randrange(m)] = rng.randint(1, 2)
                stabilized = stabilize_by_profile(h, StabilizationProfile(tuple(entries)))
                for w in (h, stabilized):
                    diagram = plat_closure(w)
                    assert kauffman_bracket(diagram, budget=len(w)) == reference_bracket(diagram)
                    assert triviality_check(diagram, len(w)) is Triviality.CONSISTENT_WITH_TRIVIAL

    def test_wide_plat_against_mirror_and_stabilization(self):
        # a random plat on 32 strands with 128 crossings: a sweep that
        # carries matchings of all 32 endpoints did not finish it in 20 s
        rng = random.Random(26)
        w = BraidWord(32, tuple(rng.randint(1, 31) * rng.choice((1, -1)) for _ in range(128)))
        bracket = kauffman_bracket(plat_closure(w), budget=128)
        mirror = BraidWord(32, tuple(-g for g in w.letters))
        assert kauffman_bracket(plat_closure(mirror), budget=128) == Laurent.from_dict(
            {-e: c for e, c in bracket.coeffs}
        )
        stabilized = kauffman_bracket(plat_closure(stabilize(w, 1)), budget=130)
        assert equal_up_to_unit(stabilized, bracket)
        # at A = 1 a bracket is +-(-2)^(components - 1)
        components = component_count(plat_closure(w))
        assert abs(sum(c for _, c in bracket.coeffs)) == 2 ** (components - 1)


class TestBracketMemo:
    """The one-slot memo of the last diagram swept and its bracket."""

    def test_budget_is_checked_before_the_memo(self):
        diagram = plat_closure(parse_braid("2 2 2", 4))
        assert kauffman_bracket(diagram, 100) == reference_bracket(diagram)
        with pytest.raises(BudgetError, match="diagram has 3 crossings, over the budget of 1"):
            kauffman_bracket(diagram, 1)
        with pytest.raises(BudgetError, match="diagram has 3 crossings, over the budget of 1"):
            triviality_check(diagram, 1)

    def test_call_orders_match_the_oracle(self):
        d1 = plat_closure(parse_braid("2 2 2", 4))
        d2 = plat_closure(parse_braid("1 2 -1 2 3 -2", 6))
        for diagram in (d1, d2, d1):
            assert kauffman_bracket(diagram) == reference_bracket(diagram)
        # the same word under another bottom pairing, straight after its
        # standard closure: a different link with a different bracket
        other = PlatDiagram(d1.word, Pairing((3, 4, 1, 2)), d1.top)
        assert kauffman_bracket(other) == reference_bracket(other) != kauffman_bracket(d1)
        assert triviality_check(other) is Triviality.NOT_TRIVIAL
        assert kauffman_bracket(d1) == reference_bracket(d1)

    def test_one_sweep_per_diagram(self, monkeypatch):
        sweeps = []
        real = plats._shrink

        def counted(diagram):
            sweeps.append(diagram)
            return real(diagram)

        monkeypatch.setattr(plats, "_shrink", counted)
        w1, w2 = parse_braid("2 2 2", 4), parse_braid("1 2 -1 2 3 -2", 6)
        elsewhere = plat_closure(BraidWord.identity(2))

        def count(calls) -> int:
            kauffman_bracket(elsewhere)  # another diagram fills the slot first
            sweeps.clear()
            calls()
            return len(sweeps)

        def bracket_then_verdict():
            d = plat_closure(w1)
            kauffman_bracket(d)
            triviality_check(d)

        def rebuilt():
            kauffman_bracket(plat_closure(w1))
            triviality_check(plat_closure(BraidWord(4, list(w1.letters))))

        def alternating():
            for w in (w1, w2, w1):
                kauffman_bracket(plat_closure(w))

        assert count(bracket_then_verdict) == 1
        assert count(rebuilt) == 1
        assert count(alternating) == 3


class TestTriviality:
    def test_unknot_consistent(self):
        for text, n in (("", 2), ("1", 2), ("1 -1", 2), ("2", 4)):
            diagram = plat_closure(parse_braid(text, n))
            assert triviality_check(diagram) is Triviality.CONSISTENT_WITH_TRIVIAL

    def test_trefoil_not_trivial(self):
        diagram = plat_closure(parse_braid("2 2 2", 4))
        assert triviality_check(diagram) is Triviality.NOT_TRIVIAL

    def test_unlink_consistent(self):
        diagram = plat_closure(BraidWord.identity(4))
        assert triviality_check(diagram) is Triviality.CONSISTENT_WITH_TRIVIAL

    def test_hopf_link(self):
        diagram = plat_closure(parse_braid("2 2", 4))
        assert triviality_check(diagram) is Triviality.NOT_TRIVIAL


class TestDiagramExport:
    def test_line_shapes(self):
        lines = pd_lines(plat_closure(parse_braid("2 2 2", 4)))
        for line in lines:
            parts = line.split()
            assert parts[0] in {"X", "CUP", "CAP"}
            if parts[0] == "X":
                assert len(parts) == 5
            else:
                assert len(parts) == 3
            assert all(p.isdigit() for p in parts[1:])

    def test_counts_and_order(self):
        rng = random.Random(41)
        for _ in range(30):
            m = rng.randint(1, 3)
            w = random_word(rng, 2 * m, rng.randint(0, 8))
            lines = pd_lines(plat_closure(w))
            kinds = [line.split()[0] for line in lines]
            assert kinds.count("CUP") == m
            assert kinds.count("CAP") == m
            assert kinds.count("X") == len(w.letters)
            # cups first, then crossings in word order, then caps
            assert kinds == ["CUP"] * m + ["X"] * len(w.letters) + ["CAP"] * m

    def test_every_arc_has_two_endpoints(self):
        rng = random.Random(42)
        for _ in range(30):
            m = rng.randint(1, 3)
            w = random_word(rng, 2 * m, rng.randint(0, 8))
            lines = pd_lines(plat_closure(w))
            seen: dict[int, int] = {}
            for line in lines:
                for label in map(int, line.split()[1:]):
                    seen[label] = seen.get(label, 0) + 1
            assert set(seen.values()) == {2}
            # labels are 1..count with no gaps
            assert sorted(seen) == list(range(1, len(seen) + 1))
            assert len(seen) == 2 * len(w.letters) + 2 * m

    def test_no_crossing_diagram(self):
        assert pd_lines(plat_closure(BraidWord.identity(2))) == ["CUP 1 2", "CAP 1 2"]


class TestDiagramExportOracle:
    def test_matches_the_union_find_export(self):
        rng = random.Random(43)
        kinds = set()
        for t in range(2000):
            strands = 2 * rng.randint(1, 8)
            length = 0 if t % 50 == 0 else rng.randint(0, 120)
            word = random_word(rng, strands, length)
            standard = rng.random() < 0.5
            if standard:
                diagram = plat_closure(word)
            else:
                diagram = PlatDiagram(
                    word, random_pairing(rng, strands), random_pairing(rng, strands)
                )
            kinds.add((standard, length == 0))
            assert pd_lines(diagram) == reference_pd_lines(diagram)
        assert len(kinds) == 4

    def test_wide_plats_with_bare_positions(self):
        # 64 strands and at most 12 letters: most positions carry no crossing,
        # so their one arc runs from its cup straight to its cap
        rng = random.Random(45)
        for t in range(200):
            word = random_word(rng, 64, t % 13)
            diagram = plat_closure(word)
            if t % 2:
                diagram = PlatDiagram(word, random_pairing(rng, 64), random_pairing(rng, 64))
            assert pd_lines(diagram) == reference_pd_lines(diagram)

    def test_long_word(self):
        rng = random.Random(44)
        word = random_word(rng, 32, 2000)
        diagram = PlatDiagram(word, random_pairing(rng, 32), random_pairing(rng, 32))
        assert pd_lines(plat_closure(word)) == reference_pd_lines(plat_closure(word))
        assert pd_lines(diagram) == reference_pd_lines(diagram)


def test_loop_power_closed_form():
    for k in range(65):
        assert loop_power(k) == LOOP**k, k
    with pytest.raises(ValueError):
        loop_power(-1)
