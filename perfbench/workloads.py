"""Seeded inputs and operations for the four workloads.

Every workload is a list of operations built from ``random.Random(seed)``
alone.  An operation calls platkit's public functions through the tracer,
one call per library function, and returns a plain value.  Its check
compares that value with what the construction guarantees, using the
independent arithmetic in :mod:`checks`.  A check returns ``None`` when the
answer is right, ``("fail", why)`` when no answer was given (a budget
verdict, a wrong exit code), and ``("wrong", why)`` when the answer is
wrong.

Sizes are fixed per workload so that one pass over the list fits in a
25-second run on a 2-core machine even while its CPU runs slow; the run
repeats the list while time is left.  Groups of related inputs (a word,
its mirror, its stabilization) stay next to each other, because the later
ones are checked against the earlier answers.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks
import platkit as pk

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


@dataclass
class Op:
    kind: str
    run: Callable[[Any, list], Any]
    check: Callable[[Any, list], tuple[str, str] | None]
    # facts about the input that per-module counters need
    info: dict = field(default_factory=dict)
    # the part of the output that must not change between versions
    answer: Callable[[Any], Any] = lambda out: out
    # what the run keeps of a checked output for later checks and counters
    keep: Callable[[Any], Any] = lambda out: out


def _random_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """Uniform letters, with no letter followed by its own inverse."""
    out: list[int] = []
    while len(out) < length:
        g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        if not out or out[-1] != -g:
            out.append(g)
    return tuple(out)


def _hilden_factors(rng: random.Random, pairs: int, crossings: int) -> tuple:
    """Random Hilden factors until the expanded word has ``crossings`` letters."""
    count = 1 if pairs == 1 else pairs + 1
    factors: list[tuple[int, int]] = []
    letters = 0
    while letters < crossings:
        f = (rng.randrange(count), rng.choice((1, -1)))
        if factors and factors[-1] == (f[0], -f[1]):
            continue
        factors.append(f)
        letters += 1 if f[0] == 0 else 4
    return tuple(factors)


def _wrong(why: str):
    return ("wrong", why)


def _fail(why: str):
    return ("fail", why)


# --- plat_bracket --------------------------------------------------------------

# (strands, crossings, groups per pass).  A group is a random word and one
# partner, its mirror or its one-pair stabilization.  Cost grows with both
# strands and crossings and varies from word to word, most on 12-16 strands
# (a 16-strand, 120-crossing bracket alone takes seconds), so sizes are
# fixed per row rather than drawn.  The rows are sized so that the median
# falls among the 8-strand, 80-crossing diagrams and the 90th percentile
# among the 8-strand, 120-crossing ones.  A pass holds fewer than a hundred
# independent costs, so its percentiles move with the inputs wherever the
# cost of one word spreads widely: over a factor of three to ten on 12
# strands and more and at 100 crossings, by a third on 8 strands at 80
# crossings and on 10 strands at 70.  Those rows are probes built from
# PROBE_SEED, the same in every run; the seed draws the rows whose cost
# varies least.
PLAT_RANDOM = [(8, 40, 7), (10, 40, 8), (8, 120, 9)]
PLAT_PROBES = [(12, 40, 8), (8, 80, 20), (14, 40, 5), (10, 70, 7), (16, 40, 3), (12, 60, 3),
               (10, 100, 4)]
# Inputs that are the same in every run, whatever its seed
PROBE_SEED = 20210518
# (pairs, crossings, groups per pass): a Hilden word and a profile
# stabilization of it, both closing to trivial links; cheap, as the
# state sum of a trivial plat stays small
PLAT_HILDEN = [(4, 120, 4), (5, 100, 4), (6, 80, 4), (7, 60, 3), (8, 60, 3)]


def _plat_op(kind: str, word: pk.BraidWord, src: int | None, trivial: bool) -> Op:
    diagram = pk.plat_closure(word)
    budget = len(word) + 1

    def run(tr, done):
        components = tr.call("plats", pk.component_count, diagram)
        bracket = tr.call("plats", pk.kauffman_bracket, diagram, budget)
        verdict = tr.call("plats", pk.triviality_check, diagram, budget)
        pd = tr.call("plats", pk.pd_lines, diagram)
        same = None
        if kind.endswith("stabilized"):
            same = tr.call("laurent", pk.equal_up_to_unit, bracket, done[src]["laurent"])
        return {
            "components": components,
            "bracket": dict(bracket.coeffs),
            "laurent": bracket,
            "triviality": verdict.value,
            "pd": pd,
            "unit_equal": same,
        }

    def check(out, done):
        c = out["components"]
        if c != checks.plat_components(word.strands, word.letters):
            return _wrong(f"component_count {c} disagrees with the permutation")
        poly = out["bracket"]
        problem = checks.bracket_problem(poly, c) or checks.pd_problem(
            out["pd"], word.strands, len(word), c
        )
        if problem:
            return _wrong(problem)
        trivial_shape = checks.unit_multiple(poly, checks.loop_power(c - 1))
        want = "ConsistentWithTrivial" if trivial_shape else "NotTrivial"
        if out["triviality"] != want:
            return _wrong(f"triviality {out['triviality']}, bracket says {want}")
        if trivial and want != "ConsistentWithTrivial":
            return _wrong("a Hilden word or its stabilization is not ConsistentWithTrivial")
        if src is not None:
            source = done[src]
            if source is None:
                return _fail("its source operation gave no answer")
            if kind == "mirror" and poly != checks.mirror(source["bracket"]):
                return _wrong("mirror bracket is not the bracket with A -> A^-1")
            if kind.endswith("stabilized"):
                if not checks.unit_multiple(poly, source["bracket"]):
                    return _wrong("stabilized bracket differs by more than a unit")
                if out["unit_equal"] is not True:
                    return _wrong("equal_up_to_unit denies a stabilization")
        return None

    return Op(kind, run, check, {"crossings": len(word)})


def plat_bracket(rng: random.Random, scale: float = 1.0) -> list[Op]:
    groups: list[list[tuple[str, pk.BraidWord, int | None, bool]]] = []
    probes = random.Random(PROBE_SEED)
    rows = [(row, rng) for row in PLAT_RANDOM] + [(row, probes) for row in PLAT_PROBES]
    for (strands, crossings, count), source in rows:
        for k in range(max(1, round(count * scale))):
            w = pk.BraidWord(strands, _random_word(source, strands, crossings))
            if k % 2 or strands >= 16:
                partner = ("mirror", pk.BraidWord(strands, tuple(-g for g in w.letters)), 0, False)
            else:
                partner = ("stabilized", pk.stabilize(w, 1), 0, False)
            groups.append([("random", w, None, False), partner])
    for pairs, crossings, count in PLAT_HILDEN:
        for _ in range(max(1, round(count * scale))):
            expr = pk.HildenExpression(pairs, _hilden_factors(rng, pairs, crossings))
            h = pk.expand_expression(expr)
            entries = [0] * pairs
            entries[rng.randrange(pairs)] = 1
            stab = pk.stabilize_by_profile(h, pk.StabilizationProfile(tuple(entries)))
            groups.append([("hilden", h, None, True), ("hilden_stabilized", stab, 0, True)])
    rng.shuffle(groups)
    ops: list[Op] = []
    for group in groups:
        base = len(ops)
        for kind, word, src, trivial in group:
            ops.append(_plat_op(kind, word, None if src is None else base + src, trivial))
    return ops


# --- word_problem --------------------------------------------------------------

# (kind, strands, |w|, operations per pass).  The cost of the free-group
# fingerprint grows exponentially with |w| and varies widely between words
# of one length, so the seeded rows keep |w| where no single operation costs
# much and a pass holds many of them.
WORD_CASES = [
    ("conjugated_relator", 4, 20, 462), ("conjugated_relator", 4, 30, 308),
    ("conjugated_relator", 6, 30, 370), ("conjugated_relator", 6, 45, 246),
    ("conjugated_relator", 8, 40, 370),
    ("inverse", 4, 25, 246), ("inverse", 6, 40, 185), ("inverse", 8, 50, 185),
    ("unequal", 4, 25, 308), ("unequal", 6, 35, 308), ("unequal", 8, 50, 308),
    ("prefilter", 4, 40, 123), ("prefilter", 8, 80, 123),
    ("fingerprint", 4, 25, 185), ("fingerprint", 6, 35, 185), ("fingerprint", 8, 50, 185),
]
# Long identities, built from PROBE_SEED whatever the run's seed: the same
# inputs in every run, so their large and input-dependent cost does not
# spread the figures.  The 4-strand ones include identities that raise
# BudgetError at the parent of this benchmark instead of answering.  The
# 8-strand, |w| = 60 row takes a quarter of a pass, with the widest spread
# of cost per word, so it is fixed too.
WORD_PROBES = [
    ("conjugated_relator", 4, 60, 4), ("conjugated_relator", 4, 80, 4),
    ("inverse", 4, 80, 2), ("conjugated_relator", 8, 60, 185), ("conjugated_relator", 8, 100, 2),
]


def _relator(rng: random.Random, strands: int) -> tuple[int, ...]:
    if strands >= 4 and rng.random() < 0.5:
        i = rng.randint(1, strands - 3)
        j = rng.randint(i + 2, strands - 1)
        return (i, j, -i, -j)
    i = rng.randint(1, strands - 2)
    return (i, i + 1, i, -(i + 1), -i, -(i + 1))


def _pure_piece(rng: random.Random, strands: int) -> tuple[int, ...]:
    """sigma_i^2 sigma_j^-2 with i != j: exponent sum 0, identity permutation."""
    i, j = rng.sample(range(1, strands), 2)
    return (i, i, -j, -j)


def _equal_op(kind: str, a: pk.BraidWord, b: pk.BraidWord, want: bool) -> Op:
    prefilter = checks.exponent_sum(a.letters) != checks.exponent_sum(b.letters) or (
        checks.permutation(a.strands, a.letters) != checks.permutation(b.strands, b.letters)
    )

    def run(tr, done):
        return tr.call("words", pk.braids_equal, a, b)

    def check(out, done):
        if out is not want:
            return _wrong(f"braids_equal returned {out}, construction says {want}")
        if not want and not prefilter and checks.burau(a.strands, a.letters) == checks.burau(
            b.strands, b.letters
        ):
            return _wrong("Burau evaluation cannot confirm the pair is unequal")
        return None

    return Op(kind, run, check, {"prefilter": prefilter})


def _fingerprint_op(word: pk.BraidWord) -> Op:
    def run(tr, done):
        return tr.call("words", pk.artin_fingerprint, word)

    def check(out, done):
        problem = checks.fingerprint_problem(word.strands, word.letters, out)
        return _wrong(problem) if problem else None

    # the images can run to 10^5 letters; keeping them all would make the
    # benchmark's own memory part of peak_rss_mb
    return Op("fingerprint", run, check, keep=lambda out: sum(len(img) for img in out))


def word_problem(rng: random.Random, scale: float = 1.0) -> list[Op]:
    ops: list[Op] = []
    for table, source in ((WORD_CASES, rng), (WORD_PROBES, random.Random(PROBE_SEED))):
        for kind, strands, length, count in table:
            for _ in range(max(1, round(count * scale))):
                ops.append(_word_op(source, kind, strands, length))
    rng.shuffle(ops)
    return ops


def _word_op(rng: random.Random, kind: str, strands: int, length: int) -> Op:
    w = pk.BraidWord(strands, _random_word(rng, strands, length))
    ident = pk.BraidWord.identity(strands)
    if kind == "conjugated_relator":
        x = w * pk.BraidWord(strands, _relator(rng, strands)) * w.inverse()
        return _equal_op(kind, x, ident, True)
    if kind == "inverse":
        return _equal_op(kind, w * w.inverse(), ident, True)
    if kind == "unequal":
        cut = rng.randint(0, len(w))
        b = pk.BraidWord(strands, w.letters[:cut] + _pure_piece(rng, strands) + w.letters[cut:])
        return _equal_op(kind, w, b, False)
    if kind == "prefilter":
        b = pk.BraidWord(strands, w.letters + (rng.randint(1, strands - 1),))
        return _equal_op(kind, w, b, False)
    return _fingerprint_op(w)


# --- surface_search ------------------------------------------------------------

# (pairs, expression length, operations per pass); the length is also the
# search bound, so a witness of at most that length always exists.  Search
# cost at the deepest bounds varies a hundredfold between words, so those
# rows are probes built from PROBE_SEED, the same in every run.
MEMBERSHIP_CASES = [(2, 3, 126), (2, 4, 126), (2, 5, 94), (3, 3, 126), (3, 4, 126),
                    (3, 5, 63), (4, 3, 126), (4, 4, 94)]
MEMBERSHIP_PROBES = [(2, 6, 3), (3, 6, 3), (4, 5, 3)]
# (degree, entries, slides to the target, operations per pass); the orbit
# ball of that radius stays far inside the default search budget
HURWITZ_CASES = [(3, 4, 2, 126), (3, 5, 2, 126), (3, 6, 2, 94), (4, 4, 2, 126),
                 (4, 5, 2, 94), (3, 4, 3, 94), (4, 4, 3, 94)]
# (case, max_pairs, operations per pass, certificates guaranteed); the
# mixed-sign searches exhaust their bound, in about 0.17 s and 2 s
CERT_CASES = [("toy", 2, 16, True), ("positive", 3, 16, True),
              ("mixed", 3, 9, False), ("mixed", 4, 2, False)]


def _banded(rng: random.Random, case: str) -> pk.BandedBraid:
    t1, t2 = sorted(rng.sample(range(1, 40), 2))
    if case == "toy":
        return pk.BandedBraid(pk.BraidWord.identity(4), (pk.Band(2, 1, Fraction(t1, 40)),))
    second = 1 if case == "positive" else -1
    return pk.BandedBraid(
        pk.BraidWord.identity(6),
        (pk.Band(2, 1, Fraction(t1, 40)), pk.Band(4, second, Fraction(t2, 40))),
    )


def _membership_op(pairs: int, factors: tuple) -> Op:
    word = pk.expand_expression(pk.HildenExpression(pairs, factors))
    bound = len(factors)

    def run(tr, done):
        expr = tr.call("hilden", pk.search_membership, word, bound)
        ok = None if expr is None else tr.call("hilden", pk.verify_membership, word, expr)
        return {"expression": expr, "verified": ok}

    def check(out, done):
        expr = out["expression"]
        if expr is None:
            return _fail(f"no witness within {bound} factors, one exists")
        if len(expr.factors) > bound or out["verified"] is not True:
            return _wrong("witness too long or rejected by verify_membership")
        found = checks.hilden_letters(pairs, expr.factors)
        if checks.burau(word.strands, found) != checks.burau(word.strands, word.letters):
            return _wrong("witness does not evaluate to the word")
        return None

    return Op("membership", run, check)


def _random_system(rng: random.Random, degree: int, r: int) -> pk.BraidSystem:
    entries = []
    for _ in range(r):
        u = pk.BraidWord(degree, _random_word(rng, degree, rng.randint(0, 1)))
        entries.append(pk.MonodromyEntry(u, rng.randint(1, degree - 1), rng.choice((1, -1))))
    return pk.BraidSystem(degree, tuple(entries))


def _same_entries(x: pk.BraidSystem, y: pk.BraidSystem) -> bool:
    return all(
        checks.burau(x.degree, a.letters) == checks.burau(y.degree, b.letters)
        for a, b in zip(x.words(), y.words())
    )


def _hurwitz_op(s1: pk.BraidSystem, s2: pk.BraidSystem) -> Op:
    def run(tr, done):
        return tr.call("systems", pk.hurwitz_search, s1, s2)

    def check(out, done):
        if out.status is pk.HurwitzStatus.UNKNOWN:
            return _fail("Unknown inside the slide radius the target was built at")
        if out.status is not pk.HurwitzStatus.EQUIVALENT:
            return _wrong(f"{out.status.value} for systems a slide sequence joins")
        if not _same_entries(pk.apply_slides(s1, list(out.moves)), s2):
            return _wrong("witness moves do not replay onto the target")
        return None

    return Op("hurwitz", run, check, answer=lambda out: (out.status.value, out.moves))


def _pairs_preserved(strands: int, letters) -> bool:
    pi = checks.permutation(strands, letters)
    return all(
        abs(pi[k] - pi[k + 1]) == 1 and min(pi[k], pi[k + 1]) % 2 == 1
        for k in range(0, strands, 2)
    )


def _surgered(bb: pk.BandedBraid) -> list[int]:
    letters = list(bb.base.letters)
    for pos, letter in pk.surgery_events(bb):
        letters.insert(pos, letter)
    return letters


def _euler_characteristic(bb: pk.BandedBraid) -> int:
    n = bb.base.strands
    c1 = checks.plat_components(n, bb.base.letters)
    c2 = checks.plat_components(n, _surgered(bb))
    return c1 + c2 - len(bb.bands)


def _certificate_op(bb: pk.BandedBraid, max_pairs: int, guaranteed: bool) -> Op:
    surgered_letters = _surgered(bb)
    c1 = checks.plat_components(bb.base.strands, bb.base.letters)
    c2 = checks.plat_components(bb.base.strands, surgered_letters)

    def run(tr, done):
        report = tr.call("bands", pk.admissibility_report, bb)
        certs = tr.call("bands", pk.search_certificates, bb, max_pairs)
        if certs is None:
            return {"admissible": report.admissible, "certs": None}
        surgered = tr.call("bands", pk.band_surgery, bb)
        stab = pk.stabilize_by_profile
        words = (
            tr.call("stabilize", stab, bb.base, certs.profile),
            tr.call("stabilize", stab, surgered, certs.profile),
            tr.call("stabilize", stab, pk.BraidWord.identity(2 * c1), certs.profile1),
            tr.call("stabilize", stab, pk.BraidWord.identity(2 * c2), certs.profile2),
        )
        plan = tr.call("bands", pk.compile_surface, bb, certs)
        picture = tr.call("motion", pk.plan_motion, plan)
        svg = tr.call("motion", pk.motion_svg, picture)
        plan_back = tr.call("bands", pk.plan_from_json, tr.call("bands", pk.plan_to_json, plan))
        pic_back = tr.call(
            "motion", pk.motion_from_json, tr.call("motion", pk.motion_to_json, picture)
        )
        return {
            "admissible": report.admissible,
            "certs": pk.certificates_to_obj(certs),
            "words": tuple(w.letters for w in words),
            "plan": pk.plan_to_obj(plan),
            "svg": svg,
            "roundtrip": (plan_back == plan, pic_back == picture),
        }

    def check(out, done):
        if out["admissible"] is not True:
            return _wrong("an admissible banded braid was reported inadmissible")
        obj = out["certs"]
        if obj is None:
            return _fail("no certificates within a bound that has some") if guaranteed else None
        m = pk.StabilizationProfile.parse(obj["profile"]).total
        n = 2 * m
        beta1, beta2, alpha1, alpha2 = out["words"]
        if (beta1[: len(bb.base)] != bb.base.letters
                or list(beta2[: len(surgered_letters)]) != surgered_letters):
            return _wrong("stabilized words do not extend the base words")

        def side(name: str) -> list[int]:
            expr = pk.parse_expression(obj[name])
            return checks.hilden_letters(expr.pairs, expr.factors)

        for target, left, middle, right in (
            (beta1, "gamma", alpha1, "gamma_prime"),
            (beta2, "delta", alpha2, "delta_prime"),
        ):
            rhs = side(left) + list(middle) + side(right)
            if checks.burau(n, target) != checks.burau(n, rhs):
                return _wrong(f"certificate equation with {left} fails")
        plan = out["plan"]
        if plan["chi"] != _euler_characteristic(bb) or plan["degree"] != n:
            return _wrong("compiled plan has the wrong Euler characteristic or degree")
        if not _pairs_preserved(n, [int(x) for x in plan["boundary"].split()]):
            return _wrong("plan boundary does not preserve the pairing")
        svg = out["svg"]
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            return _wrong("motion picture SVG is malformed")
        if out["roundtrip"] != (True, True):
            return _wrong("plan or motion JSON does not round-trip")
        return None

    return Op("certificate", run, check)


def surface_search(rng: random.Random, scale: float = 1.0) -> list[Op]:
    ops: list[Op] = []
    probes = random.Random(PROBE_SEED)
    for table, source in ((MEMBERSHIP_CASES, rng), (MEMBERSHIP_PROBES, probes)):
        for pairs, length, count in table:
            for _ in range(max(1, round(count * scale))):
                ops.append(_membership_op(pairs, _membership_factors(source, pairs, length)))
    for degree, r, k, count in HURWITZ_CASES:
        for _ in range(max(1, round(count * scale))):
            s1 = _random_system(rng, degree, r)
            moves = [(rng.randint(1, r - 1), rng.random() < 0.5) for _ in range(k)]
            ops.append(_hurwitz_op(s1, pk.apply_slides(s1, moves)))
    for case, max_pairs, count, guaranteed in CERT_CASES:
        for _ in range(max(1, round(count * scale))):
            ops.append(_certificate_op(_banded(rng, case), max_pairs, guaranteed))
    rng.shuffle(ops)
    return ops


def _membership_factors(rng: random.Random, pairs: int, length: int) -> tuple:
    count = 1 if pairs == 1 else pairs + 1
    return tuple((rng.randrange(count), rng.choice((1, -1))) for _ in range(length))


# --- cli_calls -----------------------------------------------------------------

MALFORMED = {
    "system_degree_text.json": '{"degree": "3", "entries": ["1", "2"]}\n',
    "system_list.json": "[1, 2]\n",
    "banded_slot_text.json": (
        '{"strands": 4, "base": "", "bands": [{"slot": "2", "sign": 1, "time": "1/2"}]}\n'
    ),
}


def cli_call(args: list[str]) -> tuple[int, str]:
    """One ``python -m platkit.cli`` process; returns (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # no timeout: with one, subprocess polls for the exit every 50 ms,
    # which rounds every measured call up to that grid
    proc = subprocess.run(
        [sys.executable, "-m", "platkit.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _cli_op(kind: str, args: list[str], want_code: int, check_fields, produces: Path | None = None) -> Op:
    kind = f"cli-{kind}"

    def run(tr, done):
        if produces is not None:
            produces.unlink(missing_ok=True)
        code, stdout = tr.call("cli", cli_call, args)
        text = produces.read_text() if produces is not None and produces.exists() else None
        return {"code": code, "stdout": stdout, "file": text}

    def check(out, done):
        if out["code"] != want_code:
            return _fail(f"exit {out['code']}, want {want_code}")
        if check_fields is None:
            return None
        problem = check_fields(_fields(out["stdout"]), out, done)
        return _wrong(problem) if problem else None

    def answer(out):
        # the explored count is search effort, not part of the answer
        lines = [x for x in out["stdout"].splitlines() if not x.startswith("explored=")]
        return out["code"], lines, out["file"]

    return Op(kind, run, check, answer=answer)


def _bracket_fields(word: pk.BraidWord, src: Op | None, trivial: bool):
    def check(f, out, done):
        poly = checks.parse_poly(f["bracket"])
        c = int(f["components"])
        if c != checks.plat_components(word.strands, word.letters):
            return "components disagree with the permutation"
        problem = checks.bracket_problem(poly, c)
        if problem:
            return problem
        trivial_shape = checks.unit_multiple(poly, checks.loop_power(c - 1))
        if (f["triviality"] == "ConsistentWithTrivial") != trivial_shape:
            return "triviality line disagrees with the bracket"
        if trivial and not trivial_shape:
            return "a stabilized Hilden word is not ConsistentWithTrivial"
        if src is not None:
            source = done[src.info["index"]]
            if source is None:
                return "its source call gave no answer"
            if poly != checks.mirror(checks.parse_poly(_fields(source["stdout"])["bracket"])):
                return "mirror bracket is not the bracket with A -> A^-1"
        return None

    return check


def cli_calls(rng: random.Random, scale: float = 1.0) -> list[Op]:
    work = OUT / "cli"
    work.mkdir(parents=True, exist_ok=True)
    for name, text in MALFORMED.items():
        (work / name).write_text(text)
    groups: list[list[Op]] = []

    def times(count: int) -> range:
        return range(max(1, round(count * scale)))

    # brackets: words and their mirrors, the 12-strand ones with --budget;
    # a 12-strand bracket's cost ranges over a factor of ten, so those are
    # probes, the same in every run
    probes = random.Random(PROBE_SEED)
    for strands, lo, hi, count, source in ((12, 85, 95, 2, probes), (8, 30, 50, 9, rng)):
        for _ in times(count):
            w = pk.BraidWord(strands, _random_word(source, strands, source.randint(lo, hi)))
            m = pk.BraidWord(strands, tuple(-g for g in w.letters))
            group: list[Op] = []
            for word in (w, m):
                args = ["bracket", "--strands", str(strands), "--budget", str(len(word) + 1),
                        "--", word.text()]
                src = group[0] if group else None
                group.append(_cli_op("bracket", args, 0, _bracket_fields(word, src, False)))
            groups.append(group)
    # at most 23 letters plus one stabilizing crossing: inside the default budget
    for _ in times(6):
        pairs = rng.randint(2, 4)
        h = pk.expand_expression(pk.HildenExpression(pairs, _hilden_factors(rng, pairs, 20)))
        stab = pk.stabilize(h, 1)
        args = ["bracket", "--strands", str(stab.strands), "--", stab.text()]
        groups.append([_cli_op("bracket", args, 0, _bracket_fields(stab, None, True))])
    # word problem: identities (exit 0) and prefilter-proof unequal pairs (exit 1)
    for _ in times(14):
        strands = rng.choice((4, 6, 8))
        w = pk.BraidWord(strands, _random_word(rng, strands, rng.randint(8, 20)))
        x = w * pk.BraidWord(strands, _relator(rng, strands)) * w.inverse()
        groups.append([_cli_op("equal", ["equal", "--strands", str(strands), "--", x.text(), ""],
                               0, lambda f, o, d: None if f.get("equal") == "true" else "not equal")])
    for _ in times(14):
        strands = rng.choice((4, 6, 8))
        w = pk.BraidWord(strands, _random_word(rng, strands, rng.randint(8, 20)))
        cut = rng.randint(0, len(w))
        b = pk.BraidWord(strands, w.letters[:cut] + _pure_piece(rng, strands) + w.letters[cut:])

        def unequal(f, o, d, w=w, b=b):
            if f.get("equal") != "false":
                return "equal for an unequal pair"
            if checks.burau(w.strands, w.letters) == checks.burau(b.strands, b.letters):
                return "Burau evaluation cannot confirm the pair is unequal"
            return None

        groups.append([_cli_op("equal", ["equal", "--strands", str(strands), "--", w.text(),
                                         b.text()], 1, unequal)])
    # membership search for a Hilden word of known length
    for _ in times(14):
        pairs = rng.choice((2, 3))
        length = rng.randint(2, 4)
        word = pk.expand_expression(pk.HildenExpression(pairs, _membership_factors(rng, pairs, length)))

        def member(f, o, d, word=word, length=length):
            if f.get("status") != "member":
                return "no membership verdict"
            expr = pk.parse_expression(f["expression"])
            found = checks.hilden_letters(expr.pairs, expr.factors)
            if len(expr.factors) > length or checks.burau(word.strands, found) != checks.burau(
                word.strands, word.letters
            ):
                return "expression does not evaluate to the word"
            return None

        groups.append([_cli_op("adequate", ["adequate", "--strands", str(word.strands),
                                            "--max-len", str(length), "--", word.text()],
                               0, member)])
    # slide equivalence of degree-3 systems a few slides apart
    for _ in times(14):
        s1 = _random_system(rng, 3, rng.randint(3, 4))
        moves = [(rng.randint(1, s1.r - 1), rng.random() < 0.5) for _ in range(2)]
        s2 = pk.apply_slides(s1, moves)
        text1 = ";".join(w.text() for w in s1.words())
        text2 = ";".join(w.text() for w in s2.words())

        def replay(f, o, d, s1=s1, s2=s2):
            if f.get("status") != "Equivalent":
                return "no equivalence verdict"
            tokens = [int(t) for t in f.get("moves", "").split()]
            moved = pk.apply_slides(s1, [(abs(t), t < 0) for t in tokens])
            return None if _same_entries(moved, s2) else "moves do not replay"

        groups.append([_cli_op("hurwitz", ["hurwitz", "--degree", "3", f"--entries={text1}",
                                           f"--entries2={text2}"], 0, replay)])
    # banded braids: admissibility, compile with search, motion-picture export
    for k in times(4):
        case = ("toy", "positive")[k % 2]
        bb = _banded(rng, case)
        path = work / f"banded_{k}.json"
        path.write_text(pk.banded_to_json(bb))
        plan = work / f"plan_{k}.json"
        svg = work / f"plan_{k}.svg"
        chi = _euler_characteristic(bb)

        def admissible(f, o, d, chi=chi):
            ok = f.get("admissible") == "true" and int(f.get("realizing_euler", "99")) == chi
            return None if ok else "admissibility report disagrees with the construction"

        def compiled(f, o, d, chi=chi):
            obj = json.loads(o["file"] or "{}")
            if int(f.get("chi", "99")) != chi or obj.get("chi") != chi:
                return "compiled plan has the wrong Euler characteristic"
            if not _pairs_preserved(obj["degree"], [int(x) for x in obj["boundary"].split()]):
                return "plan boundary does not preserve the pairing"
            return None

        def exported(f, o, d):
            text = o["file"] or ""
            if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
                return "SVG file is malformed"
            return None if f.get("stills") == "9" else "plan motion does not have nine stills"

        groups.append([
            _cli_op("banded-check", ["banded-check", str(path)], 0, admissible),
            _cli_op("compile", ["compile", str(path), "--search", "--out", str(plan)], 0,
                    compiled, plan),
            _cli_op("export-mp", ["export-mp", "plan", str(plan), "--out", str(svg)], 0,
                    exported, svg),
        ])
    # malformed JSON: the exit-code contract says 2; the parent exits 1
    for _ in times(2):
        groups.append([_cli_op("malformed", ["surface-invariants", "--in",
                                             str(work / "system_degree_text.json")], 2, None)])
        groups.append([_cli_op("malformed", ["surface-invariants", "--in",
                                             str(work / "system_list.json")], 2, None)])
        groups.append([_cli_op("malformed", ["banded-check",
                                             str(work / "banded_slot_text.json")], 2, None)])
    rng.shuffle(groups)
    ops = [op for group in groups for op in group]
    # a mirror call is checked against its source call by position
    for i, op in enumerate(ops):
        op.info["index"] = i
    return ops


BUILDERS = {
    "plat_bracket": plat_bracket,
    "word_problem": word_problem,
    "surface_search": surface_search,
    "cli_calls": cli_calls,
}
