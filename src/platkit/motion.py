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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .plats import Pairing, PlatDiagram
from .systems import BraidSystem, MonodromyEntry, entry_word
from .words import BraidWord, BudgetError, json_field, parse_braid

if TYPE_CHECKING:
    from .bands import BraidedSurfacePlan


@dataclass(frozen=True)
class BandMark:
    slot: int
    sign: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("band mark sign must be +1 or -1")


@dataclass(frozen=True)
class Still:
    label: str
    strands: int
    word: BraidWord
    caps: tuple[tuple[int, int], ...] = ()
    cups: tuple[tuple[int, int], ...] = ()
    bands: tuple[BandMark, ...] = ()

    def __post_init__(self) -> None:
        if self.word.strands != self.strands:
            raise ValueError("still word must use the still's strand count")
        for a, b in self.caps + self.cups:
            if not 1 <= a < b <= self.strands:
                raise ValueError(f"bad wicket ({a}, {b})")
        for mark in self.bands:
            if not 1 <= mark.slot <= self.strands - 1:
                raise ValueError(f"band mark slot {mark.slot} out of range")


@dataclass(frozen=True)
class MotionPicture:
    stills: tuple[Still, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.stills:
            raise ValueError("a motion picture needs at least one still")
        counts = {s.strands for s in self.stills}
        if len(counts) != 1:
            raise ValueError("stills must share one strand count")

    @property
    def strands(self) -> int:
        return self.stills[0].strands


def plat_motion(diagram: PlatDiagram) -> MotionPicture:
    """Three stills for a plat: top wickets, the braid, bottom wickets."""
    n = diagram.word.strands
    ident = BraidWord.identity(n)
    return MotionPicture(
        (
            Still("caps", n, ident, caps=diagram.top.pairs()),
            Still("braid", n, diagram.word),
            Still("cups", n, ident, cups=diagram.bottom.pairs()),
        )
    )


def plan_motion(plan: BraidedSurfacePlan) -> MotionPicture:
    """Walk a compiled plan from its capped top down through every strip.

    Each strip contributes one still showing the section braid at its
    lower edge together with the strip's band events.
    """
    n = plan.degree
    ident = BraidWord.identity(n)
    wickets = Pairing.standard(n // 2).pairs()
    stills = [Still("caps", n, ident, caps=wickets)]
    for strip in reversed(plan.strips):
        marks = tuple(
            BandMark(b.slot, b.sign, b.kind) for b in strip.bands
        )
        stills.append(Still(strip.name, n, strip.bottom, bands=marks))
    stills.append(Still("cups", n, ident, cups=wickets))
    return MotionPicture(tuple(stills))


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
    ident = BraidWord.identity(n)
    # free reduction is confluent: reducing level k-1 times entry k again
    # gives the reduced product of the first k entries
    sections = [ident]
    points = 3 * n  # caps, cups and level 0
    for e in system.entries:
        sections.append((sections[-1] * entry_word(e)).free_reduced())
        points += n * (len(sections[-1]) + 2)
        if points > MAX_SVG_POINTS:
            raise BudgetError(f"the SVG needs more points than the limit of {MAX_SVG_POINTS}")
    wickets = Pairing.standard(n // 2).pairs()
    stills = [Still("caps", n, ident, caps=wickets)]
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
    stills.append(Still("cups", n, ident, cups=wickets))
    return MotionPicture(tuple(stills))


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


def _fmt(v: float) -> str:
    return f"{v:.1f}".rstrip("0").rstrip(".")


def _still_svg(still: Still, x0: float, parts: list[str]) -> float:
    """Append one panel's elements; return the panel height used."""
    n = still.strands

    def x(pos: int) -> float:
        return x0 + _MARGIN + (pos - 1) * _DX

    y = _MARGIN
    for a, b in still.caps:
        parts.append(
            f'<path d="M {_fmt(x(a))} {_fmt(y + _ARC)} '
            f"Q {_fmt((x(a) + x(b)) / 2)} {_fmt(y - _ARC)} "
            f'{_fmt(x(b))} {_fmt(y + _ARC)}" class="s"/>'
        )
    y += _ARC if still.caps else 0

    # one polyline per unbroken strand run; under strands break at crossings
    runs: dict[int, list[tuple[float, float]]] = {p: [(x(p), y)] for p in range(1, n + 1)}
    finished: list[list[tuple[float, float]]] = []

    def break_run(pos: int, pre: tuple[float, float], post: tuple[float, float]):
        runs[pos].append(pre)
        finished.append(runs[pos])
        runs[pos] = [post]

    for g in still.word.letters:
        y2 = y + _DY
        j = abs(g)
        for p in range(1, n + 1):
            if p not in (j, j + 1):
                runs[p].append((x(p), y2))
        over_from = j if g > 0 else j + 1
        for src, dst in ((j, j + 1), (j + 1, j)):
            x1, x2_ = x(src), x(dst)
            if src == over_from:
                runs[src].append((x2_, y2))
            else:
                pre = (x1 + (x2_ - x1) * (0.5 - _GAP), y + (y2 - y) * (0.5 - _GAP))
                post = (x1 + (x2_ - x1) * (0.5 + _GAP), y + (y2 - y) * (0.5 + _GAP))
                break_run(src, pre, post)
                runs[src].append((x2_, y2))
        runs[j], runs[j + 1] = runs[j + 1], runs[j]
        y = y2

    # bands are emitted before the strands, so the strands paint over the rectangles
    for m in still.bands:
        ry = y + _DY * 0.225
        parts.append(
            f'<rect x="{_fmt(x(m.slot) - 4)}" y="{_fmt(ry)}" '
            f'width="{_fmt(_DX + 8)}" height="{_fmt(_DY * 0.55)}" class="b"/>'
        )
        text = ("+" if m.sign > 0 else "-") + (f" {m.label}" if m.label else "")
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
        parts.append(
            f'<path d="M {_fmt(x(a))} {_fmt(y)} '
            f"Q {_fmt((x(a) + x(b)) / 2)} {_fmt(y + 2 * _ARC)} "
            f'{_fmt(x(b))} {_fmt(y)}" class="s"/>'
        )
    y += _ARC if still.cups else 0

    parts.append(
        f'<text x="{_fmt(x0 + _MARGIN)}" y="{_fmt(y + 18)}" class="t">{still.label}</text>'
    )
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
