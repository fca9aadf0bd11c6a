"""Self-test of the benchmark: run every workload once, small, and show that
the output checks reject corrupted answers.

    python3 perfbench/selftest.py

Exits 0 when every step passes and 1 otherwise.
"""

from __future__ import annotations

import copy
import math
import random
import sys
from pathlib import Path

import checks
import run
import tracing

sys.path.insert(0, str(run.SRC))

import platkit as pk  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


def tiny(workload: str, seed: int = 7):
    """One pass, untraced, then one traced pass, over a one-per-size pool."""
    ops = workloads.BUILDERS[workload](random.Random(seed), scale=0.0)
    outcomes = run.Outcomes(ops)
    run.run_pass(ops, outcomes, tracing.NullTracer(), True)
    tracer = tracing.Tracer()
    run.run_pass(ops, outcomes, tracer, False)
    metrics = run.layer_metrics(workload, ops, outcomes, tracer)
    return ops, outcomes, metrics


def rejects(op, out, done, what: str) -> None:
    verdict = op.check(out, done)
    expect(verdict is not None and verdict[0] == "wrong", f"check rejects {what}")


def burau_sanity() -> None:
    for n in (2, 3, 4, 6):
        ident = checks.burau(n, ())
        for i in range(1, n):
            expect(checks.burau(n, (i, -i)) == ident and checks.burau(n, (-i, i)) == ident,
                   f"Burau: sigma_{i} times its inverse is the identity on {n} strands")
        for i in range(1, n - 1):
            expect(checks.burau(n, (i, i + 1, i)) == checks.burau(n, (i + 1, i, i + 1)),
                   f"Burau: braid relation at {i} on {n} strands")
        if n >= 4:
            expect(checks.burau(n, (1, 3)) == checks.burau(n, (3, 1)),
                   f"Burau: far generators commute on {n} strands")
        expect(checks.burau(n, (1, 1)) != ident, f"Burau: sigma_1^2 is not trivial on {n} strands")


def main() -> int:
    burau_sanity()
    # parse_poly must invert the library's printing
    for text in ("A^7 - A^3 - A^-5", "2*A^3 + A - 1", "-A^2 - A^-2", "1", "0"):
        p = checks.parse_poly(text)
        laurent = pk.Laurent.from_dict(p)
        expect(str(laurent) == text, f"parse_poly reads {text!r}")

    results = {}
    for workload in run.WORKLOADS:
        ops, outcomes, metrics = tiny(workload)
        results[workload] = (ops, outcomes)
        expect(not outcomes.wrong, f"{workload}: {len(ops)} ops, no wrong answer {outcomes.wrong}")
        expect(all(isinstance(v, (int, float)) for v in metrics.values()),
               f"{workload}: every per-module metric is a number")
    again = workloads.BUILDERS["word_problem"](random.Random(7), scale=0.0)
    ops = results["word_problem"][0]
    expect([op.kind for op in again] == [op.kind for op in ops],
           "the same seed builds the same workload")

    # a wrong bracket, a wrong mirror and a wrong triviality verdict
    ops, outcomes = results["plat_bracket"]
    i = next(k for k, op in enumerate(ops) if op.kind == "random")
    out = copy.deepcopy(outcomes.first[i])
    e = max(out["bracket"])
    out["bracket"][e] += 1
    rejects(ops[i], out, outcomes.first, "a bracket with one coefficient changed")
    out = copy.deepcopy(outcomes.first[i])
    out["triviality"] = "ConsistentWithTrivial" if out["triviality"] == "NotTrivial" else "NotTrivial"
    rejects(ops[i], out, outcomes.first, "a flipped triviality verdict")
    j = i + 1
    out = copy.deepcopy(outcomes.first[j])
    out["bracket"] = checks.mirror(out["bracket"]) if out["bracket"] != checks.mirror(
        out["bracket"]) else {0: 1}
    rejects(ops[j], out, outcomes.first, "a mirror bracket that is not the mirror image")
    out = copy.deepcopy(outcomes.first[i])
    out["pd"] = out["pd"][:-1]
    rejects(ops[i], out, outcomes.first, "a PD export with a line missing")

    # wrong equality verdicts, both ways, and a broken fingerprint
    ops, outcomes = results["word_problem"]
    for kind in ("conjugated_relator", "unequal"):
        i = next(k for k, op in enumerate(ops) if op.kind == kind and outcomes.first[k] is not None)
        rejects(ops[i], not outcomes.first[i], outcomes.first, f"a flipped verdict on {kind}")
    i = next(k for k, op in enumerate(ops) if op.kind == "fingerprint")
    images = list(ops[i].run(tracing.NullTracer(), outcomes.first))
    images[0] = images[0] + (1, -1)
    rejects(ops[i], tuple(images), outcomes.first, "a fingerprint image that is not reduced")

    # witnesses that do not replay or do not evaluate to the word
    ops, outcomes = results["surface_search"]
    i = next(k for k, op in enumerate(ops) if op.kind == "hurwitz" and outcomes.first[k].moves)
    res = outcomes.first[i]
    bad = pk.HurwitzResult(res.status, moves=res.moves + ((1, False),) * 2, explored=res.explored)
    rejects(ops[i], bad, outcomes.first, "a Hurwitz witness that does not replay")
    i = next(k for k, op in enumerate(ops)
             if op.kind == "membership" and outcomes.first[k]["expression"].factors)
    expr = outcomes.first[i]["expression"]
    idx, exp = expr.factors[0]
    wrong = pk.HildenExpression(expr.pairs, ((idx, -exp),) + expr.factors[1:])
    rejects(ops[i], {"expression": wrong, "verified": True}, outcomes.first,
            "a Hilden witness that does not evaluate to the word")
    i = next(k for k, op in enumerate(ops)
             if op.kind == "certificate" and outcomes.first[k]["certs"] is not None)
    out = copy.deepcopy(outcomes.first[i])
    out["plan"]["chi"] += 1
    rejects(ops[i], out, outcomes.first, "a compiled plan with the wrong Euler characteristic")

    # CLI: a wrong printed bracket and a wrong exit code
    ops, outcomes = results["cli_calls"]
    i = next(k for k, op in enumerate(ops) if op.kind == "cli-bracket")
    out = dict(outcomes.first[i])
    out["stdout"] = out["stdout"].replace("bracket=", "bracket=2*A^40 + ", 1)
    rejects(ops[i], out, outcomes.first, "a CLI bracket line with an extra term")
    i = next(k for k, op in enumerate(ops) if op.kind == "cli-malformed")
    expect(outcomes.first[i] is None and outcomes.exit_mismatch >= 1,
           "a malformed input answered with exit 1 counts as failed, not as right")
    malformed = sum(1 for op in ops if op.kind == "cli-malformed")
    expect(outcomes.executions == 2 * len(ops) and outcomes.failed == malformed
           and outcomes.attempted == len(ops),
           "an operation that fails on both passes counts once in failed and attempted")
    expect(math.isclose(outcomes.pass_seconds() * 2, sum(outcomes.latencies)),
           "with two whole passes, one pass takes half the time of both")

    # the speed factor reads a run at the reference speed
    speed = run.Speed()
    for _ in range(3):
        speed.sample()
    expect(math.isclose(speed.factor(), run.PROBE_REF_S / (sum(speed.samples) / 3)),
           "the speed factor is the reference probe time over the mean probe time")

    # answers recorded for a seed are compared on the next run
    ops, outcomes = results["surface_search"]
    spare = Path(run.OUT) / "selftest-reference"
    spare.mkdir(parents=True, exist_ok=True)
    original = run.reference_path
    try:
        run.reference_path = lambda w, s: spare / f"{w}-{s}.json"
        run.write_reference("surface_search", 7, outcomes)
        run.compare_reference("surface_search", 7, outcomes)
        expect(not outcomes.wrong, "the recorded reference matches the run that wrote it")
        k = next(k for k, m in enumerate(outcomes.first_digest) if m != "-")
        outcomes.first_digest[k] = "000000000000"
        run.compare_reference("surface_search", 7, outcomes)
        expect(len(outcomes.wrong) == 1, "a changed answer is caught by the reference")
    finally:
        run.reference_path = original

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
