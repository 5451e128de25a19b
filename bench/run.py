"""The repository benchmark: certified time-to-verdict on seeded workloads.

    python3 bench/run.py --workload chain --seed 3 --seconds 20 --trace 0

One process, one client, closed loop: each instance starts only after
the previous one has finished.  An instance is the library flow of the
README, from ``.hq`` text (plus word text for the synthetic families) to
a verdict, its elimination table, its abelianization certificate and a
replay check.  Every outcome is checked against an answer known without
the library.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints per-layer self times and counters from a traced run.  The last
line of stdout is one JSON object; the exit code is 1 on any failure.
See README.md for the metrics, workloads and predictions.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Timings are scaled to a nominal machine speed, because the CPU speed a
# shared virtual machine lends a process can drift by 1.6x within minutes
# (README.md).  A fixed kernel that calls no library code runs between
# instances and around each subprocess probe; a time t measured next to
# kernel runs of median r is reported as t * REFERENCE_S / r.
REFERENCE_S = 0.0025
REFERENCE_DATA = tuple((i % 31, (i * 7) % 13, str(i)) for i in range(30_000))
REFERENCE_WINDOW = 2  # kernel runs on each side of an instance that scale it

PROBES = 11  # fresh-interpreter imports and CLI reports per run
PROBE_REFERENCES = 3  # kernel runs on each side of a probe
TRACED_REPORTS = 3  # in-process CLI reports in a traced run
TAIL_BEYOND = 10  # samples beyond the tail percentile
REPORT_ARGS = ["report", "--machine", "--ascii"]
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import homophonic.cli; "
    "print(time.perf_counter() - t)"
)
ACCOUNTING_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "instances_per_s": "1/s",
    "cli_report_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer self times, in seconds per instance, keyed by span name.
LAYER_TIMES = {
    "datasets.parse_s": "datasets.parse",
    "datasets.to_presentation_s": "datasets.to_presentation",
    "datasets.serialize_s": "datasets.serialize",
    "hangul.decompose_text_s": "hangul.decompose_text",
    "words.parse_word_s": "words.parse_word",
    "words.substitute_s": "words.substitute",
    "words.cyclic_reduce_s": "words.cyclic_reduce",
    "words.free_reduce_s": "words.free_reduce",
    "presentation.from_relations_s": "presentation.from_relations",
    "presentation.normalize_s": "presentation.normalize",
    "presentation.eliminable_s": "presentation.eliminable",
    "presentation.eliminate_s": "presentation.eliminate",
    "presentation.simplify_self_s": "presentation.simplify_self",
    "presentation.replay_s": "presentation.replay",
    "presentation.render_s": "presentation.render",
    "abelianization.exponent_matrix_s": "abelianization.exponent_matrix",
    "abelianization.snf_s": "abelianization.snf",
}
# Counters, per instance.
LAYER_COUNTS = (
    "datasets.records",
    "hangul.syllables",
    "words.substitute_calls",
    "words.letters_substituted",
    "presentation.normalize_calls",
    "presentation.dedup_dropped",
    "presentation.candidates",
    "presentation.rounds",
    "presentation.relators_rebuilt",
    "presentation.relators_touched",
    "presentation.relator_letters",
    "abelianization.matrix_cells",
)
# Largest value seen in the run.
LAYER_MAXIMA = ("presentation.max_relator_len", "abelianization.torsion_bits")
BENCH_SPANS = ("bench.instance", "bench.check", "bench.reference")


def pin_to_one_cpu() -> int | None:
    """Run this process, and the probes it starts, on one CPU.

    The reference kernel then measures the CPU a probe runs on.  Returns
    the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def load_library():
    """Import the library from this checkout's ``src``; exit if it is missing."""
    if not (SRC / "homophonic" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    import homophonic
    import homophonic.cli

    if Path(homophonic.__file__).resolve().parent != SRC / "homophonic":
        raise SystemExit(f"bench: imported homophonic from {homophonic.__file__}, not {SRC}")
    return homophonic


# --- one instance -------------------------------------------------------------


@dataclass
class Outcome:
    dataset: object
    round_trip: object
    verdict: object
    invariants: object
    certificate: str
    table: str
    replayed: object


def solve(hp, instance: workloads.Instance) -> Outcome:
    """Input text to a certified, replay-checked verdict (the README flow)."""
    dataset = hp.parse_dataset(instance.text)
    round_trip = hp.parse_dataset(hp.serialize_dataset(dataset))
    if instance.words:
        alphabet = dataset.alphabet()
        relations = [
            hp.Relation(hp.parse_word(alphabet, lhs), hp.parse_word(alphabet, rhs))
            for lhs, rhs in instance.words
        ]
        presentation = hp.Presentation.from_relations(alphabet, relations)
    else:
        presentation = hp.to_presentation(dataset)
    verdict, trace = hp.simplify(presentation)
    table = hp.render_trace(trace, verdict)
    invariants = hp.abelian_invariants(presentation)
    certificate = hp.certificate_line(invariants, verdict)
    replayed = hp.replay(trace, presentation)
    return Outcome(dataset, round_trip, verdict, invariants, certificate, table, replayed)


def verdict_kind(hp, verdict) -> str:
    if isinstance(verdict, hp.Trivial):
        return "trivial"
    if isinstance(verdict, hp.FreeOfRank):
        return "free"
    return "unresolved"


def check(hp, expected: workloads.Expected, outcome: Outcome) -> list[str]:
    """Everything wrong with an outcome; empty when it is correct."""
    problems = []
    verdict = outcome.verdict
    kind = verdict_kind(hp, verdict)
    if kind != expected.verdict:
        problems.append(f"verdict {kind}, expected {expected.verdict}")
    elif kind == "free" and verdict.rank != expected.free_rank:
        problems.append(f"free of rank {verdict.rank}, expected {expected.free_rank}")
    if expected.basis is not None and (
        kind != "free" or tuple(g.glyph for g in verdict.basis) != expected.basis
    ):
        problems.append(f"basis differs from {' '.join(expected.basis)}")
    found = (outcome.invariants.free_rank, tuple(outcome.invariants.torsion))
    if found != (expected.free_rank, expected.torsion):
        problems.append(f"invariants {found}, expected {(expected.free_rank, expected.torsion)}")
    if not hp.consistent(verdict, outcome.invariants) or "consistent: yes" not in outcome.certificate:
        problems.append(f"inconsistent certificate: {outcome.certificate}")
    if outcome.replayed != verdict:
        problems.append("replay gives another verdict")
    if outcome.round_trip != outcome.dataset:
        problems.append("serialize/parse round trip changed the dataset")
    return problems


@dataclass
class Sample:
    seconds: float  # input to verdict, as measured
    busy: float  # seconds plus the gate's checks
    resolved: bool
    problems: list[str]
    signature: str = ""  # elimination table and certificate
    scale: float = 1.0  # REFERENCE_S over the kernel time measured around it

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def reference_seconds() -> float:
    """Time one run of the fixed reference kernel, with the collector off.

    A collection of the benchmark's own heap would otherwise land in
    some kernel runs and not others.
    """
    gc.disable()
    try:
        start = perf_counter()
        counts: dict[tuple[int, int], int] = {}
        stack: list[tuple[int, int]] = []
        for a, b, text in REFERENCE_DATA[::3]:
            key = (a, b)
            counts[key] = counts.get(key, 0) + len(text)
            if stack and stack[-1][0] == a:
                stack.pop()
            else:
                stack.append(key)
        sorted(counts.items())
        return perf_counter() - start
    finally:
        gc.enable()


def run_instance(hp, instance, tracer=None) -> Sample:
    span = tracer.span if tracer else lambda name: nullcontext()
    start = perf_counter()
    try:
        with span("bench.instance"):
            outcome = solve(hp, instance)
    except Exception as exc:  # the loop records the failure and goes on
        traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - start
        return Sample(elapsed, elapsed, False, [f"{instance.name}: raised {exc!r}"])
    seconds = perf_counter() - start
    with span("bench.check"):
        problems = [f"{instance.name}: {p}" for p in check(hp, instance.expected, outcome)]
        resolved = verdict_kind(hp, outcome.verdict) != "unresolved"
        signature = outcome.table + "\n" + outcome.certificate
    return Sample(seconds, perf_counter() - start, resolved, problems, signature)


@dataclass
class Loop:
    samples: list[Sample]
    references: list[float]  # kernel times: one before each sample, one after the last
    wall: float

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.references)


def closed_loop(hp, instances, seconds=None, count=None, tracer=None, first=0) -> Loop:
    """Run instances back to back, cycling from index ``first``, for
    ``seconds`` or ``count`` of them.

    The reference kernel runs before the first instance and after each.
    """
    span = tracer.span if tracer else lambda name: nullcontext()
    samples: list[Sample] = []
    references: list[float] = []
    start = perf_counter()
    while True:
        with span("bench.reference"):
            references.append(reference_seconds())
        if tracer:
            tracer.fold()
        if (perf_counter() - start >= seconds) if count is None else (len(samples) >= count):
            break
        instance = instances[(first + len(samples)) % len(instances)]
        samples.append(run_instance(hp, instance, tracer))
    wall = perf_counter() - start
    for i, sample in enumerate(samples):
        around = references[max(0, i + 1 - REFERENCE_WINDOW) : i + 1 + REFERENCE_WINDOW]
        sample.scale = REFERENCE_S / statistics.median(around)
    return Loop(samples, references, wall)


# --- subprocess probes --------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds(env) -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def cli_report(env) -> tuple[float, list[str]]:
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "homophonic", *REPORT_ARGS],
        env=env, cwd=ROOT, capture_output=True, timeout=60,
    )
    seconds = perf_counter() - start
    return seconds, check_report(done.stdout.decode("utf-8"), done.returncode)


def expected_lines(answer: workloads.Expected) -> tuple[str, str]:
    """Verdict-line prefix and certificate line the report must print."""
    if answer.verdict == "trivial":
        verdict = "verdict: trivial"
    else:
        verdict = f"verdict: free of rank {answer.free_rank}; basis:"
        if answer.basis:
            verdict += " " + " ".join(answer.basis)
    torsion = ", ".join(str(d) for d in answer.torsion)
    certificate = (
        f"abelianization: free rank {answer.free_rank}, torsion [{torsion}]; consistent: yes"
    )
    return verdict, certificate


def check_report(stdout: str, returncode: int) -> list[str]:
    """Verdict and certificate lines of ``report`` against the README table."""
    problems = [] if returncode == 0 else [f"report exited {returncode}"]
    blocks = {b.splitlines()[0]: b.splitlines() for b in stdout.split("\n\n") if b.strip()}
    for name, answer in workloads.CORPORA.items():
        lines = blocks.get(f"== {name} ==", [])
        verdict, certificate = expected_lines(answer)
        if not any(line.startswith(verdict) for line in lines):
            problems.append(f"report: {name} verdict is not {verdict!r}")
        if certificate not in lines:
            problems.append(f"report: {name} lacks {certificate!r}")
    return problems


def warm_up(env) -> None:
    """Compile bytecode once, as a first user run would."""
    import_seconds(env)
    cli_report(env)


def probe(env, with_cli: bool) -> list[Sample]:
    """One import and, with ``with_cli``, one CLI report.

    Both take the scale of the median of the kernel runs just before and
    just after them, which one stray slow kernel run does not move.
    """
    references = [reference_seconds() for _ in range(PROBE_REFERENCES)]
    seconds = import_seconds(env)
    samples = [Sample(seconds, seconds, True, [])]
    if with_cli:
        seconds, problems = cli_report(env)
        samples.append(Sample(seconds, seconds, True, problems))
    references += [reference_seconds() for _ in range(PROBE_REFERENCES)]
    for sample in samples:
        sample.scale = REFERENCE_S / statistics.median(references)
    return samples


# --- metrics --------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(times)
    kept = len(ordered) - TAIL_BEYOND
    if kept < 1:
        raise ValueError(f"{len(ordered)} samples; the tail needs more than {TAIL_BEYOND}")
    return ordered[kept - 1], 100.0 * kept / len(ordered)


def src_lines() -> int:
    """Lines of the package modules, as the ROADMAP counts them."""
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("homophonic/*.py"))


@dataclass
class Run:
    samples: list[Sample]  # one per instance
    reports: list[Sample]  # CLI reports
    metrics: dict[str, float]
    units: dict[str, str]
    context: dict
    problems: list[str]  # failures of the run as a whole


def end_to_end(hp, instances, seconds) -> Run:
    """The loop in PROBES parts, each after one import and one CLI report,
    so that the probes sample the whole run."""
    env = child_env()
    warm_up(env)
    imports, reports, samples, references, wall = [], [], [], [], 0.0
    for _ in range(PROBES):
        imported, reported = probe(env, with_cli=True)
        imports.append(imported)
        reports.append(reported)
        part = closed_loop(hp, instances, seconds=seconds / PROBES, first=len(samples))
        samples += part.samples
        references += part.references
        wall += part.wall
    times = [s.scaled for s in samples]
    tail_value, tail_percentile = tail(times)
    metrics = {
        "setup_s": statistics.median(s.scaled for s in imports),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": tail_value,
        "instances_per_s": len(times) / sum(s.busy * s.scale for s in samples),
        "cli_report_s": statistics.median(s.scaled for s in reports),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    context = {
        "tail_percentile": tail_percentile,
        "tail_samples": len(times),
        "loop_s": wall,
        "reference_s": statistics.median(references),
        "unscaled": {
            "setup_s": statistics.median(s.seconds for s in imports),
            "verdict_s.p50": statistics.median(s.seconds for s in samples),
            "cli_report_s": statistics.median(s.seconds for s in reports),
        },
    }
    return Run(samples, reports, metrics, END_TO_END_UNITS, context, [])


def per_layer(hp, instances, seconds) -> Run:
    """Untraced half, then the same instances traced, then traced CLI reports.

    Layer metrics come from the traced instances alone; the CLI reports,
    traced apart, give ``cli.report_self_s``.
    """
    env = child_env()
    warm_up(env)
    imports = [probe(env, with_cli=False)[0] for _ in range(PROBES)]
    plain = closed_loop(hp, instances, seconds=seconds / 2)
    count = len(plain.samples)
    tracer, cli_tracer = tracing.Tracer(), tracing.Tracer()
    with tracing.traced(tracer):
        traced = closed_loop(hp, instances, count=count, tracer=tracer)
    reports = []
    references = [reference_seconds() for _ in range(PROBE_REFERENCES)]
    start = perf_counter()
    with tracing.traced(cli_tracer):
        for _ in range(TRACED_REPORTS):
            out = io.StringIO()
            with redirect_stdout(out):
                code = hp.cli.main(REPORT_ARGS)
            cli_tracer.fold()
            reports.append(Sample(0.0, 0.0, True, check_report(out.getvalue(), code)))
    report_wall = perf_counter() - start
    references += [reference_seconds() for _ in range(PROBE_REFERENCES)]
    report_scale = REFERENCE_S / statistics.median(references)
    for k, (a, b) in enumerate(zip(plain.samples, traced.samples)):
        if a.signature != b.signature:
            b.problems.append(f"{instances[k % len(instances)].name}: traced run gives another outcome")

    own = tracer.self_time
    accounted = (sum(own.values()) + sum(cli_tracer.self_time.values())) / (traced.wall + report_wall)
    problems = []
    if abs(accounted - 1) > ACCOUNTING_TOLERANCE:
        problems.append(f"self times account for {accounted:.3f} of the traced wall time")
    per_instance = traced.scale / count
    metrics = {
        "cli.import_s": statistics.median(s.scaled for s in imports),
        "cli.report_self_s": cli_tracer.self_time["cli.report"] * report_scale / TRACED_REPORTS,
    }
    units = {"cli.import_s": "s", "cli.report_self_s": "s"}
    for metric, span in LAYER_TIMES.items():
        metrics[metric], units[metric] = own[span] * per_instance, "s"
    for name in LAYER_COUNTS:
        metrics[name], units[name] = tracer.counts[name] / count, "count"
    for name in LAYER_MAXIMA:
        metrics[name], units[name] = tracer.maxima[name], "count"
    rebuilt = tracer.counts["presentation.relators_rebuilt"]
    metrics["presentation.touched_ratio"] = (
        tracer.counts["presentation.relators_touched"] / rebuilt if rebuilt else 0.0
    )
    plain_s, traced_s = plain.wall * plain.scale, traced.wall * traced.scale
    metrics["bench.self_s"] = sum(own[s] for s in BENCH_SPANS) * per_instance
    metrics["trace.overhead_s"] = (traced_s - plain_s) / count
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
    metrics["trace.accounted_ratio"] = accounted
    for name in ("presentation.touched_ratio", "trace.overhead_ratio", "trace.accounted_ratio"):
        units[name] = "ratio"
    units["bench.self_s"] = units["trace.overhead_s"] = "s"
    context = {
        "untraced_s": plain.wall,
        "traced_s": traced.wall,
        "traced_reports_s": report_wall,
        "reference_s": statistics.median(traced.references),
    }
    return Run(plain.samples + traced.samples, reports, metrics, units, context, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hp = load_library()
    cpu = pin_to_one_cpu()
    instances = workloads.generate(args.workload, args.seed)
    run = (per_layer if args.trace else end_to_end)(hp, instances, args.seconds)

    operations = run.samples + run.reports
    failed = [s for s in operations if s.problems]
    problems = [p for s in failed for p in s.problems] + run.problems
    run.context.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        pinned_cpu=cpu,
        instances=len(run.samples),
        distinct_instances=min(len(run.samples), len(instances)),
        resolved_ratio=sum(s.resolved for s in run.samples) / len(run.samples),
        failed_ratio=sum(1 for s in run.samples if s.problems) / len(run.samples),
        src_lines=src_lines(),  # informational; gates nothing
    )
    for p in problems[:20]:
        print(f"FAIL {p}", file=sys.stderr)
    print(
        f"{args.workload}: "
        + " | ".join(f"{name}={value:.6g} {run.units[name]}" for name, value in run.metrics.items())
    )
    print(json.dumps({"context": run.context}, ensure_ascii=False))
    result = {
        "correct": not problems,
        "attempted": len(operations),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": run.units[n]} for n, v in run.metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
