"""Motion pictures: still sequences for plats, surface plans, and systems.

A motion picture is an ordered list of stills, each a cross-section braid
word decorated with cup/cap wickets and band marks.  Stills are listed
from the capped top of the diagram downward, so a plat reads caps, braid,
cups.  The SVG renderer is plain text emission: strands are polylines,
the under strand of each crossing is broken around the crossing point,
and bands are labelled rectangles.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .plats import Pairing, PlatDiagram
from .systems import BraidSystem, MonodromyEntry, _entry_letters
from .words import BraidWord, BudgetError, _free_reduce, _frozen, _plain_int, json_field, parse_braid

if TYPE_CHECKING:
    from .bands import BraidedSurfacePlan


@_frozen
class BandMark:
    slot: int
    sign: int
    label: str = ""

    def __post_init__(self) -> None:
        # slot and sign are stored as plain ints (a bool too), as letters are
        object.__setattr__(self, "slot", _plain_int(self.slot, "band mark slot"))
        object.__setattr__(self, "sign", _plain_int(self.sign, "band mark sign"))
        if self.sign not in (1, -1):
            raise ValueError("band mark sign must be +1 or -1")
        if not isinstance(self.label, str):
            raise ValueError(f"'label' must be of type str, got {self.label!r}")


def _wicket(pair) -> tuple[int, int]:
    """A cap or cup as a pair of plain ints; ValueError naming it when it is not one."""
    try:
        a, b = pair
        return _plain_int(a), _plain_int(b)
    except (TypeError, ValueError):
        raise ValueError(f"bad wicket {pair!r}: not a pair of integers") from None


@_frozen
class Still:
    label: str
    strands: int
    word: BraidWord
    caps: tuple[tuple[int, int], ...] = ()
    cups: tuple[tuple[int, int], ...] = ()
    bands: tuple[BandMark, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError(f"'label' must be of type str, got {self.label!r}")
        # the strand count is stored as a plain int (a bool too), as the word's is
        object.__setattr__(self, "strands", _plain_int(self.strands, "strand count"))
        if self.word.strands != self.strands:
            raise ValueError("still word must use the still's strand count")
        # wickets are stored as pairs of plain ints (a bool too), as letters are
        object.__setattr__(self, "caps", tuple(map(_wicket, self.caps)))
        object.__setattr__(self, "cups", tuple(map(_wicket, self.cups)))
        for a, b in self.caps + self.cups:
            if not 1 <= a < b <= self.strands:
                raise ValueError(f"bad wicket ({a}, {b})")
        for mark in self.bands:
            if not 1 <= mark.slot <= self.strands - 1:
                raise ValueError(f"band mark slot {mark.slot} out of range")


@_frozen
class MotionPicture:
    stills: tuple[Still, ...] = ()

    def __post_init__(self) -> None:
        if not self.stills:
            raise ValueError("a motion picture needs at least one still")
        counts = {s.strands for s in self.stills}
        if len(counts) != 1:
            raise ValueError("stills must share one strand count")

    @property
    def strands(self) -> int:
        return self.stills[0].strands


def _framed(n: int, stills, caps, cups) -> MotionPicture:
    """The stills between a still of top wickets ``caps`` and one of bottom wickets ``cups``."""
    ident = BraidWord.identity(n)
    return MotionPicture(
        (Still("caps", n, ident, caps=caps), *stills, Still("cups", n, ident, cups=cups))
    )


def plat_motion(diagram: PlatDiagram) -> MotionPicture:
    """Three stills for a plat: top wickets, the braid, bottom wickets."""
    n = diagram.word.strands
    stills = [Still("braid", n, diagram.word)]
    return _framed(n, stills, diagram.top.pairs(), diagram.bottom.pairs())


def plan_motion(plan: BraidedSurfacePlan) -> MotionPicture:
    """Walk a compiled plan from its capped top down through every strip.

    Each strip contributes one still showing the section braid at its
    lower edge together with the strip's band events.
    """
    n = plan.degree
    wickets = Pairing.standard(n // 2).pairs()
    stills = []
    for strip in reversed(plan.strips):
        marks = tuple(BandMark(b.slot, b.sign, b.kind) for b in strip.bands)
        stills.append(Still(strip.name, n, strip.bottom, bands=marks))
    return _framed(n, stills, wickets, wickets)


def system_motion(system: BraidSystem) -> MotionPicture:
    """Cross-sections of a braid system between its branch points.

    Level k shows the freely reduced product of the first k entries, with
    the k-th branch point marked as a band; levels run top (all entries)
    down to zero (trivial section).  Raises :class:`BudgetError` as soon as
    the stills need more than ``MAX_SVG_POINTS`` points, the count
    :func:`motion_svg` checks, so a picture too large to draw is not built.
    """
    n = system.degree
    if n % 2 != 0:
        raise ValueError("plat cross-sections need an even degree")
    # free reduction is confluent: reducing level k-1 times entry k again
    # gives the reduced product of the first k entries
    sections = [BraidWord.identity(n)]
    points = 3 * n  # caps, cups and level 0
    for e in system.entries:
        sections.append(BraidWord(n, _free_reduce(sections[-1].letters + _entry_letters(e))))
        points += n * (len(sections[-1]) + 2)
        if points > MAX_SVG_POINTS:
            raise BudgetError(f"the SVG needs more points than the limit of {MAX_SVG_POINTS}")
    wickets = Pairing.standard(n // 2).pairs()
    stills = []
    for k in range(system.r, -1, -1):
        marks = ()
        if k >= 1:
            e = system.entries[k - 1]
            if isinstance(e, MonodromyEntry):
                index, sign = e.index, e.sign
            else:
                index, sign = abs(e.letters[0]) if e.letters else 1, 1
            marks = (BandMark(index, sign, "branch"),)
        stills.append(Still(f"level {k}", n, sections[k], bands=marks))
    return _framed(n, stills, wickets, wickets)


def motion_to_obj(picture: MotionPicture) -> dict:
    return {
        "strands": picture.strands,
        "stills": [
            {
                "label": s.label,
                "word": s.word.text(),
                "caps": [list(p) for p in s.caps],
                "cups": [list(p) for p in s.cups],
                "bands": [
                    {"slot": b.slot, "sign": b.sign, "label": b.label}
                    for b in s.bands
                ],
            }
            for s in picture.stills
        ],
    }


def motion_from_obj(obj: dict) -> MotionPicture:
    strands = json_field(obj, "strands", int)

    def wickets(still: dict, key: str) -> tuple[tuple[int, int], ...]:
        pairs = json_field(still, key, list, [])
        for pair in pairs:
            if not isinstance(pair, list) or [type(v) for v in pair] != [int, int]:
                raise ValueError(f"{key!r} must be a list of [int, int] pairs, got {pair!r}")
        return tuple((a, b) for a, b in pairs)

    stills = tuple(
        Still(
            label=json_field(s, "label", str),
            strands=strands,
            word=parse_braid(json_field(s, "word", str), strands),
            caps=wickets(s, "caps"),
            cups=wickets(s, "cups"),
            bands=tuple(
                BandMark(
                    json_field(m, "slot", int),
                    json_field(m, "sign", int),
                    json_field(m, "label", str, ""),
                )
                for m in json_field(s, "bands", list, [])
            ),
        )
        for s in json_field(obj, "stills", list)
    )
    return MotionPicture(stills)


def motion_to_json(picture: MotionPicture) -> str:
    return json.dumps(motion_to_obj(picture), indent=2)


def motion_from_json(text: str) -> MotionPicture:
    return motion_from_obj(json.loads(text))


# layout constants for the SVG renderer
_DX = 28
_DY = 26
_MARGIN = 24
_ARC = 14
_GAP = 0.22
# the most polyline points (strands times levels, summed over the stills)
# one SVG may hold: about 6 MB of text, 80 MB while it is built
MAX_SVG_POINTS = 1 << 19


# SVG text escapes for the characters that would end or open markup; a
# translate table, as importing the html module costs a cold CLI call
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(v: float) -> str:
    return f"{v:.1f}".rstrip("0").rstrip(".")


def _still_svg(still: Still, x0: float, parts: list[str]) -> float:
    """Append one panel's elements; return the panel height used."""
    n = still.strands

    def x(pos: int) -> float:
        return x0 + _MARGIN + (pos - 1) * _DX

    def wicket(a: int, b: int, end: float, control: float) -> None:
        parts.append(
            f'<path d="M {_fmt(x(a))} {_fmt(end)} '
            f"Q {_fmt((x(a) + x(b)) / 2)} {_fmt(control)} "
            f'{_fmt(x(b))} {_fmt(end)}" class="s"/>'
        )

    y = _MARGIN
    for a, b in still.caps:
        wicket(a, b, y + _ARC, y - _ARC)
    y += _ARC if still.caps else 0

    # one polyline per unbroken strand run; under strands break at crossings
    runs: dict[int, list[tuple[float, float]]] = {p: [(x(p), y)] for p in range(1, n + 1)}
    finished: list[list[tuple[float, float]]] = []
    for g in still.word.letters:
        y2 = y + _DY
        j = abs(g)
        for p in range(1, n + 1):
            if p not in (j, j + 1):
                runs[p].append((x(p), y2))
        # the over strand steps across; the under strand u ends its run at the
        # gap before the crossing point and starts a new one after it
        over, u = (j, j + 1) if g > 0 else (j + 1, j)
        runs[over].append((x(u), y2))
        x1, x2_ = x(u), x(over)
        runs[u].append((x1 + (x2_ - x1) * (0.5 - _GAP), y + (y2 - y) * (0.5 - _GAP)))
        finished.append(runs[u])
        runs[u] = [(x1 + (x2_ - x1) * (0.5 + _GAP), y + (y2 - y) * (0.5 + _GAP)), (x2_, y2)]
        runs[j], runs[j + 1] = runs[j + 1], runs[j]
        y = y2

    # bands are emitted before the strands, so the strands paint over the rectangles
    for m in still.bands:
        ry = y + _DY * 0.225
        parts.append(
            f'<rect x="{_fmt(x(m.slot) - 4)}" y="{_fmt(ry)}" '
            f'width="{_fmt(_DX + 8)}" height="{_fmt(_DY * 0.55)}" class="b"/>'
        )
        label = m.label.translate(_TEXT_ESCAPES)
        text = ("+" if m.sign > 0 else "-") + (f" {label}" if label else "")
        parts.append(
            f'<text x="{_fmt(x(m.slot) + _DX / 2)}" y="{_fmt(ry + _DY * 0.38)}" '
            f'class="bt">{text}</text>'
        )
        y += _DY
        for p in range(1, n + 1):
            runs[p].append((x(p), y))

    for run in runs.values():
        finished.append(run)
    for run in finished:
        if len(run) < 2:
            continue
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in run)
        parts.append(f'<polyline points="{pts}" class="s"/>')

    for a, b in still.cups:
        wicket(a, b, y, y + 2 * _ARC)
    y += _ARC if still.cups else 0

    label = still.label.translate(_TEXT_ESCAPES)
    parts.append(f'<text x="{_fmt(x0 + _MARGIN)}" y="{_fmt(y + 18)}" class="t">{label}</text>')
    return y + 28


def motion_svg(picture: MotionPicture) -> str:
    """Render the stills side by side as a standalone SVG document.

    Raises :class:`BudgetError` when the picture needs more than
    ``MAX_SVG_POINTS`` points: one per strand per letter, band and still.
    """
    n = picture.strands
    points = n * sum(len(s.word) + len(s.bands) + 1 for s in picture.stills)
    if points > MAX_SVG_POINTS:
        raise BudgetError(f"the SVG needs {points} points, over the limit of {MAX_SVG_POINTS}")
    panel_w = 2 * _MARGIN + (n - 1) * _DX
    body: list[str] = []
    height = 0.0
    for i, still in enumerate(picture.stills):
        height = max(height, _still_svg(still, i * panel_w, body))
    width = panel_w * len(picture.stills)
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_fmt(height)}" viewBox="0 0 {width} {_fmt(height)}">'
        "<style>"
        ".s{fill:none;stroke:#222;stroke-width:1.6}"
        ".b{fill:#f2d16b;stroke:#222;stroke-width:1}"
        ".bt{font:10px monospace;fill:#222;text-anchor:middle}"
        ".t{font:12px monospace;fill:#222}"
        "</style>"
    )
    return head + "".join(body) + "</svg>\n"
