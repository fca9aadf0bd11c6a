"""Benchmark for platkit: seeded workloads, end-to-end and per-module metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plat_bracket --seed 1 --seconds 25 --trace 0

One client calls platkit in a closed loop: the next operation starts when
the previous one returns.  A run always finishes one full pass over the
seeded operations, then repeats them until ``--seconds`` have passed.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one pass untraced and the same pass traced, reports
per-module metrics from the traced pass, and reports the tracing overhead
as the difference between the two.  Spans go to
``.bench_out/trace-<workload>-<seed>.json``.

Every output is checked.  ``attempted`` and ``failed`` count distinct
operations of the seeded pass, so they do not depend on how many repeats
fit in the time.  Times are scaled to a reference CPU speed measured by a
fixed probe interleaved with the operations (see ``Speed``).  Report lines
come first; the last line of standard output is one JSON object.  The
command exits 1 when an answer is wrong and 2 when the checkout has no
platkit sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("plat_bracket", "word_problem", "surface_search", "cli_calls")

# A fresh interpreter imports platkit and finishes one small operation of
# the workload; set-up time is the median of SETUP_RUNS of these.
SETUP_RUNS = 7
# The speed probe runs after an operation once PROBE_EVERY seconds have
# passed since the last probe; reported times are scaled as if each probe
# had taken its reference time: PROBE_REF_S for the in-process probe,
# CHILD_PROBE_REF_S for the bare-interpreter probe that paces child processes.
PROBE_EVERY = 0.1
PROBE_REF_S = 0.0025
CHILD_PROBE_REF_S = 0.0125
WARMUP = {
    "plat_bracket": (
        "import platkit as p; d = p.plat_closure(p.parse_braid('2 1 3 2 -1 2', 4)); "
        "p.triviality_check(d); p.pd_lines(d)"
    ),
    "word_problem": (
        "import platkit as p; w = p.parse_braid('1 2 -1 3 2', 4); "
        "p.braids_equal(w * w.inverse(), p.BraidWord.identity(4))"
    ),
    "surface_search": (
        "import platkit as p; from fractions import Fraction; "
        "b = p.BandedBraid(p.BraidWord.identity(4), (p.Band(2, 1, Fraction(1, 2)),)); "
        "p.motion_svg(p.plan_motion(p.compile_surface(b, p.search_certificates(b, 2))))"
    ),
}
CLI_WARMUP = ["-m", "platkit.cli", "bracket", "--strands", "4", "2 2 2"]

UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "ok_ratio": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def _probe_work() -> int:
    """Fixed pure-Python work, independent of platkit: dicts, ints, a sort.

    The small containers of the second loop die at once, so the probe never
    sets off a garbage collection that would scan what the operations left
    behind.
    """
    table: dict = {}
    acc = 0
    items = []
    for i in range(3000):
        key = (i % 61) * 64 + i % 53
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i * i) % 1000003
        items.append(key ^ acc)
    items.sort()
    for i in range(1500):
        small = {i % 7: i, (i % 5, 3): [i, acc]}
        acc = (acc + len(small) + small.get(i % 7, 0)) % 1000003
    return acc + len(table) + len(items)


def _probe_child() -> None:
    """A bare interpreter that starts and exits: no site, no platkit."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], cwd=ROOT, check=True)


class Speed:
    """How fast the CPU runs right now, from a fixed probe.

    The CPU of a shared host runs at a speed that wanders by tens of
    percent over seconds and minutes, and every operation's time moves
    with it.  The probe is timed between operations throughout the run;
    times are multiplied by ``factor()`` = the probe's reference time over
    its mean time, which reads them at one reference speed.  The probe
    calls no platkit code, so a change to platkit moves the scaled times in
    full.  Work done in child processes (the CLI calls, the set-up
    interpreters) slows with process start-up more than with plain Python,
    so it is paced by a bare interpreter instead.
    """

    def __init__(self, child: bool = False) -> None:
        self.work = _probe_child if child else _probe_work
        self.ref = CHILD_PROBE_REF_S if child else PROBE_REF_S
        self.samples: list[float] = []
        self.last = perf_counter()

    def sample(self) -> None:
        start = perf_counter()
        self.work()
        self.last = perf_counter()
        self.samples.append(self.last - start)

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY:
            self.sample()

    def factor(self) -> float:
        return self.ref / statistics.fmean(self.samples)


def time_child(args: list[str]) -> float:
    """Wall time of one fresh interpreter run with the checkout's sources.

    No timeout: with one, subprocess polls for the exit every 50 ms.
    """
    start = perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median raw set-up time, and the speed factor probed around the set-ups."""
    args = CLI_WARMUP if workload == "cli_calls" else ["-c", WARMUP[workload]]
    speed = Speed(child=True)
    times = []
    for _ in range(SETUP_RUNS):
        speed.sample()
        times.append(time_child(args))
    speed.sample()
    return statistics.median(times), speed.factor()


class Outcomes:
    """Per-operation results of the passes over one workload."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.first: list = [None] * len(ops)  # kept pass-one output, None when no answer
        self.first_digest = ["-"] * len(ops)
        self.latencies: list[float] = []
        # per operation, over its executions
        self.op_seconds = [0.0] * len(ops)
        self.op_runs = [0] * len(ops)
        self.executions = 0
        self.failed_ops: set[int] = set()
        self.wrong: list[str] = []
        self.reasons: dict[str, int] = {}
        # counted on the first pass only
        self.budget_errors = 0
        self.exit_mismatch = 0

    @property
    def attempted(self) -> int:
        """Distinct operations run: the whole seeded pass once a run is over."""
        return len(self.ops) if self.executions >= len(self.ops) else self.executions

    @property
    def failed(self) -> int:
        """Distinct operations that failed on any pass."""
        return len(self.failed_ops)

    def pass_seconds(self) -> float:
        """One pass, each operation at the mean time of its executions.

        The last pass of a run stops part way, so the executions over-weigh
        the operations early in the order by a share that depends on the
        speed; the mean per operation gives every operation the same weight.
        """
        return sum(t / n for t, n in zip(self.op_seconds, self.op_runs))

    def record(self, i: int, out, error: Exception | None, first_pass: bool) -> None:
        self.executions += 1
        op = self.ops[i]
        if error is not None:
            verdict = ("fail", f"raised {type(error).__name__}")
            self.budget_errors += first_pass and type(error).__name__ == "BudgetError"
        else:
            verdict = op.check(out, self.first)
        if verdict is None:
            mark = checks.digest(op.answer(out))
            if first_pass:
                self.first[i], self.first_digest[i] = op.keep(out), mark
            elif self.first_digest[i] not in ("-", mark):
                verdict = ("wrong", "answer changed between passes")
        if verdict is not None:
            self.exit_mismatch += first_pass and verdict[1].startswith("exit ")
            self.fail(i, *verdict)

    def fail(self, i: int, kind: str, why: str) -> None:
        if kind == "wrong":
            self.wrong.append(f"{self.ops[i].kind} #{i}: {why}")
        if i in self.failed_ops:
            return
        self.failed_ops.add(i)
        key = f"{self.ops[i].kind}: {why}" if kind == "fail" else f"WRONG {self.ops[i].kind}: {why}"
        self.reasons[key] = self.reasons.get(key, 0) + 1


def run_pass(ops, outcomes: Outcomes, tracer, first_pass: bool, until: float | None = None,
             speed: Speed | None = None) -> bool:
    """One pass in order; a repeat pass stops early once ``until`` has passed."""
    for i, op in enumerate(ops):
        if until is not None and not first_pass and perf_counter() >= until:
            return False
        tracer.begin_op(i, op.kind)
        out, error = None, None
        start = perf_counter()
        try:
            out = op.run(tracer, outcomes.first)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        took = perf_counter() - start
        outcomes.latencies.append(took)
        outcomes.op_seconds[i] += took
        outcomes.op_runs[i] += 1
        tracer.end_op()
        outcomes.record(i, out, error, first_pass)
        if speed is not None:
            speed.maybe_sample()
    return True


def reference_path(workload: str, seed: int) -> Path:
    return HERE / "reference" / f"{workload}-{seed}.json"


def write_reference(workload: str, seed: int, outcomes: Outcomes) -> None:
    marks = outcomes.first_digest
    answered = [m for m in marks if m != "-"]
    path = reference_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "ops": len(marks),
        "no_answer": [i for i, m in enumerate(marks) if m == "-"],
        "digest": checks.digest(answered),
    }) + "\n")


def compare_reference(workload: str, seed: int, outcomes: Outcomes) -> None:
    """Answers must hash to the recorded digest.

    The digest covers the operations that answered when it was recorded.
    One listed under no_answer (a budget error, a wrong exit code) may
    answer now, so fixing a known failure is not a mismatch.  When an
    operation that answered then fails now, that failure is already
    counted and the digest is not compared.
    """
    path = reference_path(workload, seed)
    if not path.exists():
        return
    ref = json.loads(path.read_text())
    marks = outcomes.first_digest
    if ref["ops"] != len(marks):
        outcomes.wrong.append(f"reference has {ref['ops']} operations, this run {len(marks)}")
        return
    skip = set(ref["no_answer"])
    answered = [m for i, m in enumerate(marks) if i not in skip]
    if "-" not in answered and checks.digest(answered) != ref["digest"]:
        outcomes.wrong.append("answers differ from the recorded reference")


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_calls" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def prepare(workload: str, seed: int):
    import workloads  # imports platkit, so only after the sources were found

    ops = workloads.BUILDERS[workload](random.Random(seed))
    if workload in WARMUP:
        exec(WARMUP[workload], {})
    # keep the benchmark's own inputs out of the collector's way, so garbage
    # collection during the loop scans only what the library allocates
    gc.collect()
    gc.freeze()
    return ops


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Outcomes, dict, dict]:
    setup_raw, setup_factor = setup_seconds(workload)
    ops = prepare(workload, seed)
    outcomes = Outcomes(ops)
    tracer = tracing.NullTracer()
    speed = Speed(child=workload == "cli_calls")
    speed.sample()
    until = perf_counter() + seconds
    first = True
    while run_pass(ops, outcomes, tracer, first, until, speed) and perf_counter() < until:
        first = False
    speed.sample()
    factor = speed.factor()
    raw = sorted(outcomes.latencies)
    lat = [x * factor for x in raw]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    metrics = {
        # operations per second of time spent inside them: the checks the
        # benchmark runs between operations are not the program's time;
        # the operations of one pass, each at the mean of its executions
        "ops_per_s": len(ops) / (outcomes.pass_seconds() * factor),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": p90 * 1000,
        "ok_ratio": (outcomes.attempted - outcomes.failed) / outcomes.attempted,
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": setup_raw * setup_factor,
    }
    notes = {
        "operations per pass": len(ops),
        "latency samples (executions)": len(lat),
        "samples beyond p90": sum(1 for x in lat if x > p90),
        "fail_ratio": f"{outcomes.failed / outcomes.attempted:.6g} ratio "
                      f"({outcomes.failed} of {outcomes.attempted} distinct operations)",
        "speed factor": f"{factor:.4f} over {len(speed.samples)} probes "
                        f"(set-up {setup_factor:.4f})",
        "unscaled": f"ops_per_s {len(ops) / outcomes.pass_seconds():.6g}, "
                    f"p50 {statistics.median(raw) * 1000:.6g} ms, setup {setup_raw:.6g} s",
    }
    return outcomes, metrics, notes


def traced(workload: str, seed: int) -> tuple[Outcomes, dict, dict]:
    ops = prepare(workload, seed)
    outcomes = Outcomes(ops)
    run_pass(ops, outcomes, tracing.NullTracer(), True)
    tracer = tracing.Tracer()
    run_pass(ops, outcomes, tracer, False)
    # time inside the operations of each pass; checks between them excluded
    untraced = sum(outcomes.latencies[: len(ops)])
    with_spans = sum(outcomes.latencies[len(ops):])
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.json")
    metrics = layer_metrics(workload, ops, outcomes, tracer)
    metrics["trace.overhead_ratio"] = with_spans / untraced - 1.0
    notes = {
        "operations per pass": len(ops),
        "untraced pass, time in operations": f"{untraced:.4f} s",
        "traced pass, time in operations": f"{with_spans:.4f} s",
        "spans": len(tracer.spans),
    }
    return outcomes, metrics, notes


def layer_metrics(workload: str, ops, outcomes: Outcomes, tracer: tracing.Tracer) -> dict:
    """Per-module metrics of the traced pass, named as in BENCHMARK.json."""
    t = tracer.times()

    def secs(*names: str) -> float:
        return sum(t["by_name"].get(x, 0.0) for x in names)

    def calls(name: str) -> int:
        return t["calls"].get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def answers(*kinds: str) -> list:
        return [out for op, out in zip(ops, outcomes.first) if out is not None and op.kind in kinds]

    def count(kind: str) -> int:
        return sum(1 for op in ops if op.kind == kind)

    plat = answers("random", "mirror", "stabilized", "hilden", "hilden_stabilized")
    equal_ops = [op for op in ops if "prefilter" in op.info]
    prints = answers("fingerprint")
    found = [out["expression"] for out in answers("membership") if out["expression"] is not None]
    hurwitz = answers("hurwitz")
    compiled = [out for out in answers("certificate") if out["certs"] is not None]
    explored = sum(out.explored for out in hurwitz)
    bracket_s = secs("plats.kauffman_bracket")
    m = {
        "words.equal_calls": calls("words.braids_equal"),
        "words.equal_s": secs("words.braids_equal"),
        "words.prefilter_decided_ratio": ratio(
            sum(op.info["prefilter"] for op in equal_ops), len(equal_ops)
        ),
        "words.fingerprint_s": secs("words.artin_fingerprint"),
        "words.fingerprint_peak_letters": max(prints, default=0),
        "words.budget_errors": outcomes.budget_errors,
        "laurent.bracket_terms": ratio(sum(len(out["bracket"]) for out in plat), len(plat)),
        "laurent.unit_compare_s": secs("laurent.equal_up_to_unit"),
        "plats.bracket_calls": calls("plats.kauffman_bracket"),
        "plats.bracket_s": bracket_s,
        "plats.crossings_per_s": ratio(sum(op.info.get("crossings", 0) for op in ops), bracket_s),
        "plats.triviality_s": secs("plats.triviality_check"),
        "plats.components_s": secs("plats.component_count"),
        "plats.pd_s": secs("plats.pd_lines"),
        "hilden.search_calls": calls("hilden.search_membership"),
        "hilden.search_s": secs("hilden.search_membership"),
        "hilden.found_ratio": ratio(len(found), count("membership")),
        "hilden.witness_factors": ratio(sum(len(e.factors) for e in found), len(found)),
        "hilden.verify_s": secs("hilden.verify_membership"),
        "systems.hurwitz_calls": calls("systems.hurwitz_search"),
        "systems.hurwitz_s": secs("systems.hurwitz_search"),
        "systems.explored": explored,
        "systems.explored_per_s": ratio(explored, secs("systems.hurwitz_search")),
        "systems.witness_moves": ratio(sum(len(out.moves or ()) for out in hurwitz), len(hurwitz)),
        "stabilize.calls": sum(c for name, c in t["calls"].items() if name.startswith("stabilize.")),
        "stabilize.s": t["busy"].get("stabilize", 0.0),
        "bands.admissibility_s": secs("bands.admissibility_report"),
        "bands.cert_search_calls": calls("bands.search_certificates"),
        "bands.cert_search_s": secs("bands.search_certificates"),
        "bands.cert_found_ratio": ratio(len(compiled), count("certificate")),
        "bands.compile_s": secs("bands.compile_surface"),
        "motion.render_s": secs("motion.plan_motion", "motion.motion_svg"),
        "motion.svg_bytes": ratio(sum(len(out["svg"]) for out in compiled), len(compiled)),
        "motion.roundtrip_s": secs("motion.motion_to_json", "motion.motion_from_json"),
        "cli.calls": calls("cli.cli_call"),
        "cli.call_s": secs("cli.cli_call"),
        "cli.startup_s": (
            statistics.median(time_child(["-c", "import platkit.cli"]) for _ in range(SETUP_RUNS))
            if workload == "cli_calls" else 0.0
        ),
        "cli.exit_mismatch": outcomes.exit_mismatch,
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.busy_s"] = t["busy"].get(layer, 0.0)
        m[f"{layer}.self_s"] = t["self"].get(layer, 0.0)
    return m


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's answers under perfbench/reference/")
    args = parser.parse_args(argv)

    if not (SRC / "platkit" / "__init__.py").is_file():
        print(f"no platkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        outcomes, metrics, notes = traced(args.workload, args.seed)
    else:
        outcomes, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
    if args.write_reference:
        write_reference(args.workload, args.seed, outcomes)
    compare_reference(args.workload, args.seed, outcomes)

    units = layer_units() if args.trace else UNITS
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"answers digest={checks.digest(outcomes.first_digest)}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for why, n in sorted(outcomes.reasons.items()):
        print(f"  failed {n}x: {why}")
    for line in outcomes.wrong[:10]:
        print(f"  wrong answer: {line}")
    print(json.dumps({
        "correct": not outcomes.wrong,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not outcomes.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
