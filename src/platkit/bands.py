"""Banded braid words and their compilation into braided surfaces.

A banded braid is a word on 2m strands together with bands: half-twist
surgeries at chosen slots and heights.  Surgering every band inserts one
crossing per band into the word.  When both the original and the surgered
plat close into trivial links, the bands describe a surface-link whose
Euler characteristic is c1 + c2 - (number of bands).

The compiler realises that surface as a braided surface over a square.
Reading the square bottom to top, the cross-section braid evolves through
seven strips:

    E0  trivial               ->  alpha1*  (stabilization scaffold, trivial)
    E1  alpha1*  --bands-->       alpha1   (tail of the first profile)
    E2  alpha1   --sides-->       beta1    (the stabilized base word)
    E3  beta1    --bands-->       beta2    (the stabilized surgered word)
    E4  beta2    --sides-->       alpha2   (tail of the second profile)
    E5  alpha2   --bands-->       alpha2*  (scaffold removed again)
    E6  alpha2*              ->   trivial

The side strips need witnesses: Hilden expressions gamma, gamma' with
beta1 = gamma alpha1 gamma' and delta, delta' with beta2 = delta alpha2
delta'.  Every band event becomes a branch point; insertions carry the
sign of the inserted crossing and the removals in E5 carry the opposite
sign.  Monodromy conjugators are transported along the right-hand edge of
the square, which makes the ordered product of the branch entries equal to
the boundary word gamma^{-1} delta delta' gamma'^{-1}.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations, groupby

from .hilden import (
    HildenExpression,
    _hilden_ball,
    _pair_images,
    expand_expression,
    format_expression,
    parse_expression,
)
from .plats import (
    DEFAULT_BRACKET_BUDGET,
    Triviality,
    bracket_triviality,
    component_count,
    kauffman_bracket,
    plat_closure,
)
from .stabilize import StabilizationProfile, _tail_with_events, stabilization_tail, stabilize_by_profile
from .systems import BraidSystem, MonodromyEntry, _entry_from_obj, _entry_to_obj
from .words import (
    BraidWord,
    BudgetError,
    CertificateError,
    _free_inv,
    _free_reduce,
    _apply,
    _basis,
    _frozen,
    _insert,
    braids_equal,
    json_field,
    parse_braid,
    product,
)


@_frozen
class Band:
    """A half-twist band: slot between strands slot and slot+1, at a height."""

    slot: int
    sign: int
    time: Fraction

    def __post_init__(self) -> None:
        raw = self.time
        # floats go through their decimal string so 0.3 means 3/10 exactly
        time = Fraction(str(raw)) if isinstance(raw, float) else Fraction(raw)
        object.__setattr__(self, "time", time)
        if self.sign not in (1, -1):
            raise ValueError("band sign must be +1 or -1")
        if not 0 < self.time < 1:
            raise ValueError("band time must lie strictly between 0 and 1")


@_frozen
class BandedBraid:
    base: BraidWord
    bands: tuple[Band, ...] = ()

    def __post_init__(self) -> None:
        if self.base.strands % 2 != 0:
            raise ValueError("banded braids live on an even strand count")
        ordered = tuple(sorted(self.bands, key=lambda b: b.time))
        times = [b.time for b in ordered]
        if len(set(times)) != len(times):
            raise ValueError("band times must be distinct")
        for b in ordered:
            if not 1 <= b.slot <= self.base.strands - 1:
                raise ValueError(f"band slot {b.slot} out of range")
        object.__setattr__(self, "bands", ordered)


def _base_index(band: Band, length: int) -> int:
    """Letters of a length-L word sit at heights k/(L+1); count those below."""
    return band.time.numerator * (length + 1) // band.time.denominator


def surgery_events(bb: BandedBraid) -> list[tuple[int, int]]:
    """(insertion position, signed letter) per band, in time order.

    Positions are into the evolving word: band heights are monotone in
    their base positions, so each band's slot in the growing word is its
    base position plus the number of bands already inserted.
    """
    length = len(bb.base)
    events = []
    for rank, band in enumerate(bb.bands):
        events.append((_base_index(band, length) + rank, band.slot * band.sign))
    return events


def band_surgery(bb: BandedBraid) -> BraidWord:
    """The base word with every band's crossing inserted at its height."""
    return BraidWord(bb.base.strands, _insert(bb.base.letters, surgery_events(bb)))


def stabilized_copy(bb: BandedBraid, profile: StabilizationProfile) -> BandedBraid:
    """Carry the bands onto the stabilized base, at the same letter gaps."""
    new_base = stabilize_by_profile(bb.base, profile)
    length = len(bb.base)
    new_length = len(new_base)
    by_gap: dict[int, list[Band]] = {}
    for band in bb.bands:
        by_gap.setdefault(_base_index(band, length), []).append(band)
    new_bands = []
    for gap, group in by_gap.items():
        for rank, band in enumerate(group, start=1):
            t = Fraction(gap * (len(group) + 1) + rank, (len(group) + 1) * (new_length + 1))
            new_bands.append(Band(band.slot, band.sign, t))
    return BandedBraid(new_base, tuple(new_bands))


def _surgered_counts(bb: BandedBraid) -> tuple[BraidWord, int, int]:
    """The surgered word and the component counts c1, c2 of both plat closures."""
    surgered = band_surgery(bb)
    c1 = component_count(plat_closure(bb.base))
    return surgered, c1, component_count(plat_closure(surgered))


@_frozen
class AdmissibilityReport:
    base_components: int
    surgered_components: int
    base_verdict: Triviality
    surgered_verdict: Triviality

    @property
    def admissible(self) -> bool:
        return (
            self.base_verdict is Triviality.CONSISTENT_WITH_TRIVIAL
            and self.surgered_verdict is Triviality.CONSISTENT_WITH_TRIVIAL
        )


def admissibility_report(
    bb: BandedBraid, budget: int = DEFAULT_BRACKET_BUDGET
) -> AdmissibilityReport:
    """Check that both the base and the surgered plat close into trivial links."""
    surgered, c1, c2 = _surgered_counts(bb)
    return AdmissibilityReport(
        base_components=c1,
        surgered_components=c2,
        base_verdict=bracket_triviality(kauffman_bracket(plat_closure(bb.base), budget), c1),
        surgered_verdict=bracket_triviality(kauffman_bracket(plat_closure(surgered), budget), c2),
    )


def realizing_euler_characteristic(bb: BandedBraid) -> int:
    """Euler characteristic of the surface the bands trace between the two links."""
    _, c1, c2 = _surgered_counts(bb)
    return c1 + c2 - len(bb.bands)


@_frozen
class Certificates:
    """Witnesses for one compilation: three profiles and four side expressions."""

    profile: StabilizationProfile
    profile1: StabilizationProfile
    profile2: StabilizationProfile
    gamma: HildenExpression
    gamma_prime: HildenExpression
    delta: HildenExpression
    delta_prime: HildenExpression


@_frozen
class PlanBand:
    slot: int
    sign: int
    position: int
    kind: str


@_frozen
class StripRecord:
    """One horizontal strip of the compiled square, read bottom to top."""

    name: str
    bottom: BraidWord
    top: BraidWord
    left: BraidWord | None = None
    right: BraidWord | None = None
    bands: tuple[PlanBand, ...] = ()


@_frozen
class BraidedSurfacePlan:
    degree: int
    strips: tuple[StripRecord, ...]
    branch_points: tuple[MonodromyEntry, ...]
    boundary: BraidWord
    boundary_factors: tuple[HildenExpression, ...]
    chi: int
    certificates: Certificates

    def as_system(self) -> BraidSystem:
        return BraidSystem(self.degree, self.branch_points)

    @property
    def positive_branch_points(self) -> int:
        return sum(1 for e in self.branch_points if e.sign == 1)

    @property
    def negative_branch_points(self) -> int:
        return sum(1 for e in self.branch_points if e.sign == -1)


def _deletion_events(profile: StabilizationProfile) -> list[int]:
    """Positions that peel a tail back down to its scaffold, in removal order."""
    # each insertion's letter, shifted left by the run letters removed before it
    _, events = _tail_with_events(profile)
    return [pos - rank for rank, (pos, _) in enumerate(events)]


def compile_surface(bb: BandedBraid, certs: Certificates) -> BraidedSurfacePlan:
    """Compile a banded braid and its certificates into a plan.

    Verifies the certificates (side expressions really convert the
    stabilization tails into the stabilized words), then lays out the seven
    strips and derives one branch point per band event, conjugators
    transported along the right edge.  Raises :class:`CertificateError`
    when a verification step fails, and :class:`BudgetError` before the side
    checks past ``MAX_PLAN_SIZE``.  No bracket is evaluated: plat closures
    do not change under Hilden double cosets or stabilization, so the two
    verified side equations prove that the base and surgered plats close
    into the trivial links of c1 and c2 components.
    """
    m0 = bb.base.strands // 2
    surgered, c1, c2 = _surgered_counts(bb)
    lam, lam1, lam2 = certs.profile, certs.profile1, certs.profile2
    if lam.pairs != m0:
        raise CertificateError(f"profile must have {m0} entries")
    if lam1.pairs != c1 or lam2.pairs != c2:
        raise CertificateError(
            f"side profiles must have {c1} and {c2} entries"
        )
    m = lam.total
    if lam1.total != m or lam2.total != m:
        raise CertificateError("all three profiles must stabilize to the same size")
    n = 2 * m
    for expr in (certs.gamma, certs.gamma_prime, certs.delta, certs.delta_prime):
        if expr.pairs != m:
            raise CertificateError(f"side expressions must have {m} pairs")

    beta1 = stabilize_by_profile(bb.base, lam)
    beta2 = stabilize_by_profile(surgered, lam)
    alpha1 = stabilize_by_profile(BraidWord.identity(2 * c1), lam1)
    alpha2 = stabilize_by_profile(BraidWord.identity(2 * c2), lam2)

    gamma_w = expand_expression(certs.gamma)
    gamma_p_w = expand_expression(certs.gamma_prime)
    delta_w = expand_expression(certs.delta)
    delta_p_w = expand_expression(certs.delta_prime)

    letters = sum(map(len, (beta1, beta2, alpha1, alpha2, gamma_w, gamma_p_w, delta_w, delta_p_w)))
    size = letters * (letters + 2 * m - c1 - c2 + len(bb.bands))
    if size > MAX_PLAN_SIZE:
        raise BudgetError(f"the plan has size {size}, over the limit of {MAX_PLAN_SIZE}")
    if not braids_equal(beta1, gamma_w * alpha1 * gamma_p_w):
        raise CertificateError("first side certificate failed")
    if not braids_equal(beta2, delta_w * alpha2 * delta_p_w):
        raise CertificateError("second side certificate failed")

    branch_points: list[MonodromyEntry] = []

    def sweep(section: tuple[int, ...], events, r_below: tuple[int, ...], kind: str):
        """Top section and plan bands of strip E1, E3 or E5; appends its branch points.

        An event ``(pos, letter)`` inserts the letter at ``pos``; a letter of
        None removes the one there, with the opposite sign.  The conjugator
        is the right edge below times the inverse of the section to the right.
        """
        letters = list(section)
        bands = []
        for pos, letter in events:
            removing = letter is None
            if removing:
                letter = letters.pop(pos)
            sign = (1 if letter > 0 else -1) * (-1 if removing else 1)
            right_inv = _free_inv(letters[pos:])
            u = BraidWord(n, _free_reduce(r_below + right_inv))
            branch_points.append(MonodromyEntry(u, abs(letter), sign))
            bands.append(PlanBand(abs(letter), sign, pos, kind))
            if not removing:
                letters.insert(pos, letter)
        return tuple(letters), tuple(bands)

    # E1: rebuild the first tail from its scaffold; no side braids below
    alpha1_star, e1_events = _tail_with_events(lam1)
    top, e1_bands = sweep(alpha1_star, e1_events, (), "stabilize_bottom")
    if top != alpha1.letters:
        raise AssertionError("tail reconstruction out of step")

    # E3: the carried bands, below them the right edge contributes gamma'
    top, e3_bands = sweep(beta1.letters, surgery_events(bb), gamma_p_w.letters, "surgery")
    if top != beta2.letters:
        raise AssertionError("band surgery out of step")

    # E5: peel the second tail; right edge below is gamma' then delta' reversed
    alpha2_star, e5_bands = sweep(
        alpha2.letters,
        [(pos, None) for pos in _deletion_events(lam2)],
        (gamma_p_w * delta_p_w.inverse()).letters,
        "stabilize_top",
    )

    identity = BraidWord.identity(n)
    strips = (
        StripRecord("E0", identity, BraidWord(n, alpha1_star)),
        StripRecord("E1", BraidWord(n, alpha1_star), alpha1, bands=e1_bands),
        StripRecord("E2", alpha1, beta1, left=gamma_w.inverse(), right=gamma_p_w),
        StripRecord("E3", beta1, beta2, bands=e3_bands),
        StripRecord("E4", beta2, alpha2, left=delta_w, right=delta_p_w.inverse()),
        StripRecord("E5", alpha2, BraidWord(n, alpha2_star), bands=e5_bands),
        StripRecord("E6", BraidWord(n, alpha2_star), identity),
    )

    # the boundary gamma^-1 delta delta' gamma'^-1 is the product of these four
    boundary_factors = (
        certs.gamma.inverse(),
        certs.delta,
        certs.delta_prime,
        certs.gamma_prime.inverse(),
    )
    return BraidedSurfacePlan(
        degree=n,
        strips=strips,
        branch_points=tuple(branch_points),
        boundary=product([expand_expression(f) for f in boundary_factors]),
        boundary_factors=boundary_factors,
        chi=n - len(branch_points),
        certificates=certs,
    )


# the largest Hilden factor count a certificate search tries per side expression
_CERTIFICATE_FACTORS = 3
# compile_surface's limit on letters x (letters + band and tail events): its side
# checks take time up to letters squared, and each event stores a conjugator as long
MAX_PLAN_SIZE = 1 << 22


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to ``total``, in
    lexicographic order: stars and bars, without recursion on ``parts``."""
    slots = total + parts - 1
    return [
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))
        for bars in combinations(range(slots), parts - 1)
    ]


def _find_sides(
    target: tuple[int, ...],
    pairs: int,
    m: int,
    ball: dict[tuple, tuple[HildenExpression, tuple[int, ...]]],
) -> tuple[StabilizationProfile, HildenExpression, HildenExpression] | None:
    """The first (profile, left, right) with target = left * middle * right, left in ball order.

    ``target`` is the letters of a word on 2m strands.  The middles are the
    stabilizations of the trivial ``pairs``-pair plat to m pairs, each built
    as its profile comes up.  The ball maps each fingerprint to its
    expression and the letters of that expression's inverse.
    """
    start = _basis(2 * m)
    for profile in map(StabilizationProfile, _compositions(m - pairs, pairs)):
        middle_inverse = _free_inv(stabilization_tail(profile).letters)
        for left, left_inverse in ball.values():
            needed = _free_reduce(middle_inverse + left_inverse + target)
            if _pair_images(2 * m, needed) is not None:
                right = ball.get(_apply(start, needed))
                if right is not None:
                    return profile, left, right[0]
    return None


def search_certificates(
    bb: BandedBraid, max_pairs: int, budget: int = DEFAULT_BRACKET_BUDGET
) -> Certificates | None:
    """Look for compilation certificates with at most ``max_pairs`` total pairs.

    Profiles are enumerated by total size and, for each size, side
    expressions are searched with increasing factor counts, up to
    ``_CERTIFICATE_FACTORS``, so small certificates are found before large
    ones.  Returns None when the bounds are exhausted.  Raises ValueError
    when the bracket rules out a trivial base or surgered plat; that check
    runs only after the pair count alone has not ruled out ``max_pairs``,
    so a small bound stays cheap.
    """
    m0 = bb.base.strands // 2
    surgered, c1, c2 = _surgered_counts(bb)
    if max(m0, c1, c2) > max_pairs:
        return None
    if not admissibility_report(bb, budget).admissible:
        raise ValueError("banded braid is not admissible")

    for m in range(max(m0, c1, c2), max_pairs + 1):
        # both betas per profile, before the ball: an m past the limit stops here
        betas = [
            (lam, stabilize_by_profile(bb.base, lam).letters, stabilize_by_profile(surgered, lam).letters)
            for lam in map(StabilizationProfile, _compositions(m - m0, m0))
        ]
        # one ball per m, grown a factor at a time: depth d searches radius d
        ball: dict[tuple, tuple[HildenExpression, tuple[int, ...]]] = {}
        entries = _hilden_ball(m, _CERTIFICATE_FACTORS)
        for _, layer in groupby(entries, key=lambda entry: len(entry[1].factors)):
            ball.update((fp, (expr, inverse)) for fp, expr, inverse in layer)
            for lam, beta1, beta2 in betas:
                first = _find_sides(beta1, c1, m, ball)
                if first is None:
                    continue
                second = _find_sides(beta2, c2, m, ball)
                if second is None:
                    continue
                return Certificates(
                    profile=lam,
                    profile1=first[0],
                    profile2=second[0],
                    gamma=first[1],
                    gamma_prime=first[2],
                    delta=second[1],
                    delta_prime=second[2],
                )
    return None


def banded_to_obj(bb: BandedBraid) -> dict:
    return {
        "strands": bb.base.strands,
        "base": bb.base.text(),
        "bands": [
            {"slot": b.slot, "sign": b.sign, "time": str(b.time)} for b in bb.bands
        ],
    }


_TIME_TEXT = re.compile(r"[+-]?([0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)")


def banded_from_obj(obj: dict) -> BandedBraid:
    strands = json_field(obj, "strands", int)
    base = parse_braid(json_field(obj, "base", str, ""), strands)
    bands = []
    for item in json_field(obj, "bands", list, []):
        slot = json_field(item, "slot", int)
        raw = json_field(item, "time", object)  # a string or a JSON number
        # exponent notation would have Fraction expand the power of ten
        if isinstance(raw, str) and not _TIME_TEXT.fullmatch(raw):
            raise ValueError(f"band time {raw!r} must be an integer, p/q or a plain decimal")
        try:
            time = Fraction(raw) if isinstance(raw, str) else Fraction(str(raw))
        except ZeroDivisionError as exc:
            raise ValueError(f"band time {raw!r} divides by zero") from exc
        bands.append(Band(slot, json_field(item, "sign", int), time))
    return BandedBraid(base, tuple(bands))


def banded_to_json(bb: BandedBraid) -> str:
    return json.dumps(banded_to_obj(bb), indent=2)


def banded_from_json(text: str) -> BandedBraid:
    return banded_from_obj(json.loads(text))


def certificates_to_obj(certs: Certificates) -> dict:
    return {
        "profile": certs.profile.text(),
        "profile1": certs.profile1.text(),
        "profile2": certs.profile2.text(),
        "gamma": format_expression(certs.gamma),
        "gamma_prime": format_expression(certs.gamma_prime),
        "delta": format_expression(certs.delta),
        "delta_prime": format_expression(certs.delta_prime),
    }


def certificates_from_obj(obj: dict) -> Certificates:
    def profile(key: str) -> StabilizationProfile:
        return StabilizationProfile.parse(json_field(obj, key, str))

    def expression(key: str) -> HildenExpression:
        return parse_expression(json_field(obj, key, str))

    return Certificates(
        profile=profile("profile"),
        profile1=profile("profile1"),
        profile2=profile("profile2"),
        gamma=expression("gamma"),
        gamma_prime=expression("gamma_prime"),
        delta=expression("delta"),
        delta_prime=expression("delta_prime"),
    )


def _strip_to_obj(strip: StripRecord) -> dict:
    return {
        "name": strip.name,
        "bottom": strip.bottom.text(),
        "top": strip.top.text(),
        "left": strip.left.text() if strip.left is not None else None,
        "right": strip.right.text() if strip.right is not None else None,
        "bands": [
            {"slot": b.slot, "sign": b.sign, "position": b.position, "kind": b.kind}
            for b in strip.bands
        ],
    }


def plan_to_obj(plan: BraidedSurfacePlan) -> dict:
    return {
        "degree": plan.degree,
        "chi": plan.chi,
        "boundary": plan.boundary.text(),
        "boundary_factors": [format_expression(e) for e in plan.boundary_factors],
        "branch_points": [_entry_to_obj(e) for e in plan.branch_points],
        "strips": [_strip_to_obj(s) for s in plan.strips],
        "certificates": certificates_to_obj(plan.certificates),
    }


def plan_from_obj(obj: dict) -> BraidedSurfacePlan:
    degree = json_field(obj, "degree", int)

    def word(item: object, key: str) -> BraidWord:
        return parse_braid(json_field(item, key, str), degree)

    def side(strip: dict, key: str) -> BraidWord | None:
        # the side words of a strip are written as null when absent
        return None if key in strip and strip[key] is None else word(strip, key)

    def strip_from_obj(s: object) -> StripRecord:
        return StripRecord(
            name=json_field(s, "name", str),
            bottom=word(s, "bottom"),
            top=word(s, "top"),
            left=side(s, "left"),
            right=side(s, "right"),
            bands=tuple(
                PlanBand(
                    json_field(b, "slot", int),
                    json_field(b, "sign", int),
                    json_field(b, "position", int),
                    json_field(b, "kind", str),
                )
                for b in json_field(s, "bands", list)
            ),
        )

    strips = tuple(strip_from_obj(s) for s in json_field(obj, "strips", list))
    points = json_field(obj, "branch_points", list)
    branch_points = tuple(_entry_from_obj(e, degree) for e in points)
    factors = json_field(obj, "boundary_factors", list)
    if not all(isinstance(t, str) for t in factors):
        raise ValueError(f"'boundary_factors' must be a list of strings, got {factors!r}")
    return BraidedSurfacePlan(
        degree=degree,
        strips=strips,
        branch_points=branch_points,
        boundary=word(obj, "boundary"),
        boundary_factors=tuple(parse_expression(t) for t in factors),
        chi=json_field(obj, "chi", int),
        certificates=certificates_from_obj(json_field(obj, "certificates", dict)),
    )


def plan_to_json(plan: BraidedSurfacePlan) -> str:
    return json.dumps(plan_to_obj(plan), indent=2)


def plan_from_json(text: str) -> BraidedSurfacePlan:
    return plan_from_obj(json.loads(text))
