"""Command-line front end for the plat calculus.

One subcommand per library operation.  Output is line-oriented key=value
text by default and a JSON document under --json; both are deterministic
for fixed inputs.  Exit codes: 0 success, 1 a checked property failed to
hold (unequal words, inadmissible input, failed verification), 2 bad
usage or unparsable input, 3 a search or bracket budget ran out.

Words are whitespace-separated signed generator indices; when a word
starts with a negative letter, put ``--`` before it so it is not read as
a flag.  The PLATKIT_BUDGET environment variable supplies the default
for --budget, --max-len, and --bound when the flag is omitted; a negative
value from either is bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import platkit as pk

# Every subcommand parses words and main catches their errors.  The rest of
# the library is reached as pk.<name>, which imports its module on first use,
# so one call loads only the modules it needs.
from .words import (
    BudgetError,
    CertificateError,
    OpenSystemError,
    braids_equal,
    exponent_sum,
    parse_braid,
    strand_permutation,
)

DEFAULT_MEMBERSHIP_LENGTH = 6
DEFAULT_CERTIFICATE_BOUND = 3


def _pick(flag_value: int | None, fallback: int) -> int:
    """The flag, else PLATKIT_BUDGET, else ``fallback``; a negative value is bad input."""
    value = flag_value
    if value is None:
        raw = os.environ.get("PLATKIT_BUDGET")
        if not raw:
            return fallback
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"PLATKIT_BUDGET must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"a budget must not be negative, got {value}")
    return value


def _read_json(path: str):
    """The UTF-8 JSON document in ``path``; nesting too deep to decode raises
    ValueError, so it exits 2 like any other undecodable file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc


def _emit(
    args, pairs: list[tuple[str, object]], document=None, force_stdout: bool = False
) -> None:
    """Print ``pairs`` as key=value lines, or under --json ``document``
    (``dict(pairs)`` when None); --out takes the text unless ``force_stdout``."""
    if args.json:
        text = json.dumps(dict(pairs) if document is None else document, indent=2) + "\n"
    else:
        lines = []
        for key, value in pairs:
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key}={value}")
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out and not force_stdout:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _entry_text(entry) -> str:
    if isinstance(entry, pk.MonodromyEntry):
        return (
            f"monodromy index={entry.index} sign={entry.sign:+d} "
            f"conjugator=[{entry.conjugator.text()}]"
        )
    return entry.text()


def _load_system(args, suffix: str = "") -> pk.BraidSystem:
    path = getattr(args, "infile" + suffix, None)
    inline = getattr(args, "entries" + suffix, None)
    if path is not None:
        return pk.system_from_obj(_read_json(path), promote=True)
    if inline is None:
        raise ValueError(f"provide --in{suffix} FILE or --entries{suffix} together with --degree")
    degree = getattr(args, "degree", None)
    if degree is None:
        raise ValueError("--entries needs --degree")
    entries = [chunk for chunk in inline.split(";") if chunk.strip()]
    return pk.system_from_obj({"degree": degree, "entries": entries}, promote=True)


def _system_pairs(system: pk.BraidSystem) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = [("degree", system.degree), ("r", system.r)]
    for i, entry in enumerate(system.entries, start=1):
        pairs.append((f"entry_{i}", _entry_text(entry)))
    return pairs


def _cmd_parse(args) -> int:
    word = parse_braid(args.word, args.strands)
    perm = strand_permutation(word)
    _emit(
        args,
        [
            ("strands", word.strands),
            ("length", len(word)),
            ("word", word.text()),
            ("exponent_sum", exponent_sum(word)),
            ("permutation", " ".join(str(i) for i in perm.images)),
            ("reduced", word.free_reduced().text()),
        ],
    )
    return 0


def _cmd_equal(args) -> int:
    a = parse_braid(args.word1, args.strands)
    b = parse_braid(args.word2, args.strands)
    equal = braids_equal(a, b)
    _emit(args, [("equal", equal)])
    return 0 if equal else 1


def _cmd_plat_components(args) -> int:
    diagram = pk.plat_closure(parse_braid(args.word, args.strands))
    _emit(args, [("components", pk.component_count(diagram))])
    return 0


def _cmd_bracket(args) -> int:
    budget = _pick(args.budget, pk.DEFAULT_BRACKET_BUDGET)
    diagram = pk.plat_closure(parse_braid(args.word, args.strands))
    poly = pk.kauffman_bracket(diagram, budget)
    try:
        text = str(poly)
    except ValueError as exc:
        # a coefficient past the interpreter's int-to-str digit limit
        raise BudgetError(
            "a bracket coefficient has more digits than the limit of "
            f"{sys.get_int_max_str_digits()} for printing an integer"
        ) from exc
    components = pk.component_count(diagram)
    _emit(
        args,
        [
            ("bracket", text),
            ("components", components),
            ("triviality", pk.bracket_triviality(poly, components).value),
        ],
    )
    return 0


def _cmd_adequate(args) -> int:
    word = parse_braid(args.word, args.strands)
    if args.verify is not None:
        expression = pk.parse_expression(args.verify)
        ok = pk.verify_membership(word, expression)
        _emit(args, [("verified", ok)])
        return 0 if ok else 1
    if not pk.preserves_pairing(word):
        _emit(
            args,
            [("status", "not_member"), ("reason", "does not preserve the pairing")],
        )
        return 1
    max_len = _pick(args.max_len, DEFAULT_MEMBERSHIP_LENGTH)
    expression = pk.search_membership(word, max_len)
    if expression is None:
        _emit(args, [("status", "unknown"), ("max_len", max_len)])
        return 3
    _emit(
        args,
        [("status", "member"), ("expression", pk.format_expression(expression))],
    )
    return 0


def _cmd_stabilize(args) -> int:
    word = parse_braid(args.word, args.strands)
    if args.profile is not None:
        result = pk.stabilize_by_profile(word, pk.StabilizationProfile.parse(args.profile))
    else:
        result = pk.stabilize(word, args.extra)
    _emit(args, [("strands", result.strands), ("word", result.text())])
    return 0


def _cmd_slide(args) -> int:
    system = _load_system(args)
    for token in args.moves:
        system = pk.slide(system, abs(token), inverse=token < 0)
    _emit(args, _system_pairs(system), pk.system_to_obj(system))
    return 0


def _cmd_hurwitz(args) -> int:
    s1 = _load_system(args)
    s2 = _load_system(args, "2")
    budget = _pick(args.budget, pk.DEFAULT_SEARCH_BUDGET)
    result = pk.hurwitz_search(s1, s2, budget)
    pairs: list[tuple[str, object]] = [
        ("status", result.status.value),
        ("explored", result.explored),
    ]
    if result.moves is not None:
        tokens = " ".join(str(-j if inv else j) for j, inv in result.moves)
        pairs.append(("moves", tokens))
    if result.reason is not None:
        pairs.append(("reason", result.reason))
    _emit(args, pairs)
    if result.status is pk.HurwitzStatus.EQUIVALENT:
        return 0
    if result.status is pk.HurwitzStatus.NOT_EQUIVALENT:
        return 1
    return 3


def _cmd_surface_invariants(args) -> int:
    # the normal Euler number reuses the boundary verdict, so the word
    # problem is decided once per call
    from .systems import _normal_euler_number

    system = _load_system(args)
    closed = pk.is_two_dimensional(system)
    pairs: list[tuple[str, object]] = [
        ("degree", system.degree),
        ("r", system.r),
        ("boundary", pk.boundary_braid(system).free_reduced().text()),
        ("two_dimensional", closed),
    ]
    if system.degree % 2 == 0:
        pairs.append(("chi", pk.plat_euler_characteristic(system)))
    try:
        p, q = pk.branch_signs(system)
        pairs.append(("positive_branch_points", p))
        pairs.append(("negative_branch_points", q))
    except ValueError:
        pass
    euler = _normal_euler_number(system, closed)
    if euler is not None:
        pairs.append(("normal_euler", euler))
    if system.degree == 2:
        try:
            pairs.append(("classification", str(pk.classify_degree_two(system))))
        except ValueError:
            pass
    _emit(args, pairs)
    return 0


def _cmd_to_genuine_plat(args) -> int:
    system = _load_system(args)
    try:
        genuine = pk.to_genuine_plat(system)
    except OpenSystemError:
        _emit(args, [("two_dimensional", False)])
        return 1
    _emit(args, _system_pairs(genuine), pk.system_to_obj(genuine))
    return 0


def _cmd_ribbon_check(args) -> int:
    system = _load_system(args)
    ok = pk.ribbon_criterion(system)
    _emit(args, [("ribbon", ok)])
    return 0 if ok else 1


def _cmd_banded_check(args) -> int:
    bb = pk.banded_from_obj(_read_json(args.file))
    budget = _pick(args.budget, pk.DEFAULT_BRACKET_BUDGET)
    report = pk.admissibility_report(bb, budget)
    _emit(
        args,
        [
            ("base_components", report.base_components),
            ("surgered_components", report.surgered_components),
            ("base_verdict", report.base_verdict.value),
            ("surgered_verdict", report.surgered_verdict.value),
            ("admissible", report.admissible),
            ("realizing_euler", pk.realizing_euler_characteristic(bb)),
            ("surgered_word", pk.band_surgery(bb).text()),
        ],
    )
    return 0 if report.admissible else 1


def _cmd_compile(args) -> int:
    bb = pk.banded_from_obj(_read_json(args.file))
    if args.certs is not None:
        certs = pk.certificates_from_obj(_read_json(args.certs))
    elif args.search:
        bound = _pick(args.bound, DEFAULT_CERTIFICATE_BOUND)
        budget = _pick(args.budget, pk.DEFAULT_BRACKET_BUDGET)
        try:
            certs = pk.search_certificates(bb, bound, budget)
        except ValueError as exc:
            _emit(args, [("admissible", False), ("reason", str(exc))], force_stdout=True)
            return 1
        if certs is None:
            _emit(args, [("certificates", "absent"), ("bound", bound)], force_stdout=True)
            return 3
    else:
        raise ValueError("provide --certs FILE or --search")
    plan = pk.compile_surface(bb, certs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(pk.plan_to_json(plan) + "\n")
    pairs: list[tuple[str, object]] = [
        ("degree", plan.degree),
        ("branch_points", len(plan.branch_points)),
        ("positive_branch_points", plan.positive_branch_points),
        ("negative_branch_points", plan.negative_branch_points),
        ("chi", plan.chi),
        ("boundary", plan.boundary.text()),
        ("boundary_adequate", pk.preserves_pairing(plan.boundary)),
    ]
    _emit(args, pairs, pk.plan_to_obj(plan), force_stdout=True)
    return 0


def _cmd_export_mp(args) -> int:
    if args.kind == "plat":
        if args.strands is None:
            raise ValueError("export-mp plat needs --strands")
        picture = pk.plat_motion(pk.plat_closure(parse_braid(args.input, args.strands)))
    elif args.kind == "plan":
        picture = pk.plan_motion(pk.plan_from_obj(_read_json(args.input)))
    else:
        picture = pk.system_motion(pk.system_from_obj(_read_json(args.input), promote=True))
    if args.out:
        svg = pk.motion_svg(picture)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    pairs: list[tuple[str, object]] = [
        ("strands", picture.strands),
        ("stills", len(picture.stills)),
    ]
    for i, still in enumerate(picture.stills, start=1):
        pairs.append((f"still_{i}", f"{still.label} [{still.word.text()}]"))
    _emit(args, pairs, pk.motion_to_obj(picture), force_stdout=True)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platkit",
        description="Plat calculus for braids, braid systems, and banded braids.",
        epilog='Put -- before a word that starts with a negative letter, e.g. -- "-1 2".',
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument("--out", help="write the output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    def word_cmd(name: str, func, help_text: str):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--strands", type=int, required=True)
        p.set_defaults(func=func)
        return p

    p = word_cmd("parse", _cmd_parse, "normalize a braid word")
    p.add_argument("word")

    p = word_cmd("equal", _cmd_equal, "decide equality of two braid words")
    p.add_argument("word1")
    p.add_argument("word2")

    p = word_cmd(
        "plat-components", _cmd_plat_components, "count components of a plat closure"
    )
    p.add_argument("word")

    p = word_cmd("bracket", _cmd_bracket, "bracket polynomial of a plat closure")
    p.add_argument("word")
    p.add_argument("--budget", type=int, help="crossing budget")

    p = word_cmd(
        "adequate", _cmd_adequate, "search or verify a pairing-subgroup expression"
    )
    p.add_argument("word")
    p.add_argument("--max-len", type=int, dest="max_len", help="search depth")
    p.add_argument("--verify", help='expression to verify, e.g. "m=2 g0 g1^-1"')

    p = word_cmd("stabilize", _cmd_stabilize, "stabilize a plat word")
    p.add_argument("word")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--extra", type=int, help="append this many trivial pairs")
    group.add_argument("--profile", help='per-pair insertion counts, e.g. "2,0,1"')

    def system_cmd(name: str, func, help_text: str):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--degree", type=int)
        p.add_argument("--entries", help='words separated by ";", e.g. "1;1;-1"')
        p.add_argument("--in", dest="infile", help="braid-system JSON file")
        p.set_defaults(func=func)
        return p

    p = system_cmd("slide", _cmd_slide, "apply slide moves to a braid system")
    p.add_argument(
        "moves",
        type=int,
        nargs="+",
        help="slot per move; negative means the inverse move",
    )

    p = system_cmd("hurwitz", _cmd_hurwitz, "bounded slide-equivalence search")
    p.add_argument("--entries2", help="second system, inline")
    p.add_argument("--in2", dest="infile2", help="second system, JSON file")
    p.add_argument("--budget", type=int, help="orbit size budget")

    system_cmd(
        "surface-invariants",
        _cmd_surface_invariants,
        "invariants of the surface a braid system closes into",
    )
    system_cmd(
        "to-genuine-plat",
        _cmd_to_genuine_plat,
        "double a closed system into genuine plat form",
    )
    system_cmd("ribbon-check", _cmd_ribbon_check, "symmetric ribbon criterion")

    p = sub.add_parser(
        "banded-check", parents=[common], help="admissibility report for a banded braid"
    )
    p.add_argument("file", help="banded-braid JSON file")
    p.add_argument("--budget", type=int, help="crossing budget")
    p.set_defaults(func=_cmd_banded_check)

    p = sub.add_parser(
        "compile", parents=[common], help="compile a banded braid into a surface plan"
    )
    p.add_argument("file", help="banded-braid JSON file")
    p.add_argument("--certs", help="certificates JSON file")
    p.add_argument("--search", action="store_true", help="search for certificates")
    p.add_argument("--bound", type=int, help="largest pair count to try")
    p.add_argument("--budget", type=int, help="crossing budget")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser(
        "export-mp", parents=[common], help="motion-picture document and SVG"
    )
    p.add_argument("kind", choices=["plat", "plan", "system"])
    p.add_argument("input", help="braid word (plat) or JSON file (plan, system)")
    p.add_argument("--strands", type=int, help="strand count for plat input")
    p.set_defaults(func=_cmd_export_mp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
