"""Benchmark of the contextuality library: seeded workloads, timed with
tracing off, every result checked against ground truth.

    python3 benchmarks/run.py --workload {corpus,parity,onehot} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.  One
run sets up several times (import, parse, ``support_model()``) and then
repeats passes until ``--seconds`` have elapsed.  A pass makes, for every
model of the workload, six calls: ``classify``, ``all_obstructions`` over
Z/2 and over Z, ``build_report`` (both rings, with witnesses), and
``emit_report`` as JSON and as text.  Each call is one operation; it fails
if it raises or if the gate (gate.py) rejects its result.

Times are seconds at reference speed (clock.py).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics,
built from the median time of each operation over passes.  With ``--trace 1``
passes alternate between untraced and traced; the traced ones record spans
around each module's public functions (spans.py), and the last line carries
the per-layer metrics.  The spans are written to
``.bench_out/spans-<workload>-<seed>.json``.

A hard deadline, kept by the same SIGALRM timer in the main thread, ends a
run that cannot finish; the operations it cut short count as failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import families
import gate
import spans
from clock import MIN_CALL_S, Clock, DeadlineExpired

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "contextuality"
OUT = ROOT / ".bench_out"

WORKLOADS = ("corpus", "parity", "onehot")
HASH_SEED = "0"
SETUP_REPEATS = 9
CALLS_PER_MODEL = 6
LAYERS = ("documents", "model", "extendability", "cohomology", "linalg", "analysis", "report")

# Per-layer metrics read off span summaries: (metric, span name, field).
SPAN_METRICS = (
    ("model.support_of.s", "model.support_of", "s"),
    ("model.check_no_signalling.s", "model.check_no_signalling", "s"),
    ("model.support_violations.calls", "model.support_violations", "calls"),
    ("model.support_violations.s", "model.support_violations", "s"),
    ("extendability.global_sections.calls", "extendability.global_sections", "calls"),
    ("extendability.global_sections.s", "extendability.global_sections", "s"),
    ("extendability.global_sections.found", "extendability.global_sections", "found"),
    ("extendability.classify.calls", "extendability.classify", "calls"),
    ("cohomology.build_obstruction_system.calls", "cohomology.build_obstruction_system", "calls"),
    ("cohomology.build_obstruction_system.s", "cohomology.build_obstruction_system", "s"),
    ("cohomology.build_obstruction_system.rows", "cohomology.build_obstruction_system", "rows"),
    ("cohomology.build_obstruction_system.cols", "cohomology.build_obstruction_system", "cols"),
    ("cohomology.build_obstruction_system.nnz", "cohomology.build_obstruction_system", "nnz"),
    ("cohomology.obstruction.self_s", "cohomology.obstruction", "self_s"),
    ("cohomology.verify_witness.calls", "cohomology.verify_witness", "calls"),
    ("cohomology.verify_witness.s", "cohomology.verify_witness", "s"),
    ("linalg.solve_linear.z.calls", "linalg.solve_linear.z", "calls"),
    ("linalg.solve_linear.z.self_s", "linalg.solve_linear.z", "self_s"),
    ("linalg.solve_linear.z2.calls", "linalg.solve_linear.z2", "calls"),
    ("linalg.solve_linear.z2.self_s", "linalg.solve_linear.z2", "self_s"),
    ("linalg.check_certificate.calls", "linalg.check_certificate", "calls"),
    ("linalg.check_certificate.s", "linalg.check_certificate", "s"),
    ("linalg.certificate.max_denominator_bits", "linalg.solve_linear.z", "max_denominator_bits"),
    ("analysis.false_positives.s", "analysis.false_positives", "s"),
    ("report.build_report.self_s", "report.build_report", "self_s"),
    ("report.emit_report.s", "report.emit_report", "s"),
)


@dataclass
class Model:
    name: str
    document: object
    support: object
    truth: families.Truth


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str, error: BaseException) -> None:
        self.failed += 1
        print(f"FAILED {what}: {type(error).__name__}: {error}", file=sys.stderr)


def inputs(workload: str, seed: int, corpus) -> list[tuple[str, str, families.Truth]]:  # noqa: ANN001
    """The workload's scenario documents with their ground truth; the seed
    fixes everything random."""
    if workload == "corpus":
        return [(name, corpus.example_text(name), truth) for name, truth in gate.CORPUS.items()]
    rng = random.Random(seed)
    if workload == "parity":
        generated = [families.ghz(3), families.ghz(4), families.parity_chain(16, rng.randrange(16))]
    else:
        generated = [families.ring_cover(11)] + [families.random_cover(11, rng) for _ in range(2)]
    return [(g.name, g.text, g.truth) for g in generated]


def import_package():
    """A fresh import of the library, as a user's process would pay for it."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    package = importlib.import_module(PACKAGE)
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    return package


def set_up(documents, traced: bool):  # noqa: ANN001
    """Import, parse and extract supports; returns the package, the models
    and, when traced, the spans."""
    package = import_package()
    tracer = spans.Tracer(PACKAGE) if traced else None
    if tracer:
        tracer.install()
    try:
        models = []
        for name, text, truth in documents:
            document = package.documents.parse_scenario(text)
            models.append(Model(name, document, document.support_model(), truth))
    finally:
        if tracer:
            tracer.remove()
    return package, models, tracer.spans if tracer else None


def run_pass(package, models: list[Model], tally: Tally, clock: Clock, traced: bool = False):  # noqa: ANN001
    """One pass over the models.  Returns the seconds each operation took,
    at reference speed and keyed by (phase, operation), and the support
    sections verified per ring.  Every call is looked up on its module at
    call time, so a tracer's wrappers are seen; a traced pass makes each
    call once, so that its call counts repeat exactly."""
    planned = CALLS_PER_MODEL * len(models)
    tally.attempted += planned
    finished = 0
    times: dict[tuple[str, str], float] = {}
    verified = {"z2": 0, "z": 0}
    ring = package.cohomology.Ring

    def attempt(model: Model, phase: str, operation: str, call, check):  # noqa: ANN001
        nonlocal finished
        where = f"{position}.{model.name} {operation}"
        results, error, times[phase, where] = clock.time(call, at_least=0 if traced else MIN_CALL_S)
        tally.attempted += max(len(results) + (error is not None) - 1, 0)
        ok = error is None
        if error is not None:
            tally.fail(where, error)
        for result in results:
            try:
                check(result)
            except gate.GateError as failure:
                tally.fail(where, failure)
                ok = False
        finished += 1
        return results[-1] if ok else None

    try:
        for position, m in enumerate(models):
            truth = m.truth
            attempt(
                m,
                "classify",
                "classify",
                lambda: package.extendability.classify(m.support),
                lambda r: gate.check_classification(r, truth),
            )
            for key in ("z2", "z"):
                results = attempt(
                    m,
                    key,
                    f"all_obstructions.{key}",
                    lambda: package.cohomology.all_obstructions(m.support, ring(key)),
                    lambda r: gate.check_obstructions(r, m.support, ring(key), truth),
                )
                verified[key] += len(results or ())
            report = attempt(
                m,
                "report",
                "build_report",
                lambda: package.report.build_report(m.document, include_witnesses=True),
                lambda r: gate.check_report(r, truth),
            )
            if report is None:
                for operation in ("emit_report.json", "emit_report.text"):
                    tally.fail(f"{position}.{m.name} {operation}", RuntimeError("no report"))
                    finished += 1
                continue
            attempt(
                m,
                "report",
                "emit_report.json",
                lambda: package.report.emit_report(report, True),
                lambda text: gate.check_json(text, report),
            )
            attempt(
                m,
                "report",
                "emit_report.text",
                lambda: package.report.emit_report(report, False, include_witnesses=True),
                lambda text: gate.check_text(text, truth),
            )
    except DeadlineExpired:
        tally.failed += planned - finished
        raise
    return times, verified


def end_to_end(passes) -> dict[str, float]:  # noqa: ANN001
    """Pass-level metrics from the median time of each operation across
    passes, which damps a pause that hits one operation of one pass."""
    median_time = {
        key: statistics.median(times[key] for times, _ in passes if key in times)
        for key in passes[0][0]
    }

    def phase(name: str) -> float:
        return sum(t for (p, _), t in median_time.items() if p == name)

    verified = {ring: statistics.median(v[ring] for _, v in passes) for ring in ("z2", "z")}
    return {
        "wall_s": sum(median_time.values()),
        "report_s": phase("report"),
        "classify_s": phase("classify"),
        "z2_sections_per_s": verified["z2"] / phase("z2"),
        "z_sections_per_s": verified["z"] / phase("z"),
    }


def layer_metrics(pass_spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Shares are of the pass's raw
    wall time: every operation is one call of a traced function."""
    summary = spans.summarize(pass_spans)
    wall = sum(end - start for _, start, end, parent, _ in pass_spans if parent < 0)
    out = {
        metric: summary.get(span, {}).get(field, 0) for metric, span, field in SPAN_METRICS
    }
    for layer in LAYERS[1:]:
        busy = sum(v["self_s"] for name, v in summary.items() if name.startswith(layer + "."))
        out[f"share.{layer}"] = 100 * busy / wall
    return out


def measure(args, documents, tally: Tally, clock: Clock) -> dict[str, float]:  # noqa: ANN001
    """Set up, run passes until the time is up, and return the metrics of
    the completed passes (none if the deadline cut the first one short)."""
    setups, traced_setups = [], []
    for _ in range(SETUP_REPEATS):
        if args.trace:
            traced_setups.append(set_up(documents, traced=True)[2])
        made, error, seconds = clock.time(lambda: set_up(documents, traced=False))
        if error is not None:
            raise error
        package, models, _ = made[-1]
        setups.append(seconds)

    plain, traced = [], []
    start = perf_counter()
    try:
        while True:
            began = perf_counter()
            plain.append(run_pass(package, models, tally, clock))
            print(
                f"pass {len(plain)}: {sum(plain[-1][0].values()):.3f} s at reference speed, "
                f"{perf_counter() - began:.3f} s elapsed",
                file=sys.stderr,
            )
            if args.trace:
                tracer = spans.Tracer(PACKAGE)
                tracer.install()
                try:
                    times, verified = run_pass(package, models, tally, clock, traced=True)
                finally:
                    tracer.remove()
                if tracer.missing:
                    print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
                traced.append((times, verified, tracer.spans))
            if perf_counter() - start >= args.seconds:
                break
    except DeadlineExpired:
        print("FAILED: deadline expired; unfinished operations count as failed", file=sys.stderr)
    if not plain or (args.trace and not traced):
        return {}

    e2e = end_to_end(plain)
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if not args.trace:
        return e2e

    per_layer = {}
    rows = [layer_metrics(s) for _, _, s in traced]
    for metric in rows[0]:
        per_layer[metric] = statistics.median(row[metric] for row in rows)
    per_layer["documents.parse_scenario.s"] = statistics.median(
        spans.summarize(s).get("documents.parse_scenario", {}).get("s", 0.0)
        for s in traced_setups
    )
    per_layer["trace.overhead_s"] = (
        end_to_end([(t, v) for t, v, _ in traced])["wall_s"] - e2e["wall_s"]
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "span": ["name", "start", "end", "parent", "sizes"],
                "setups": traced_setups,
                "passes": [
                    {"operations": [[*key, t] for key, t in times.items()], "spans": s}
                    for times, _, s in traced
                ],
            }
        )
    )
    print(f"spans written to {path}", file=sys.stderr)
    return per_layer


UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "report_s": "s",
    "classify_s": "s",
    "z2_sections_per_s": "1/s",
    "z_sections_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.startswith("share."):
        return "%"
    field = metric.rsplit(".", 1)[-1]
    if field.endswith("_bits"):
        return "bits"
    return "s" if field in ("s", "self_s", "overhead_s") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED and sys.executable:
        # String hashing is randomized per process, and with it the layout
        # of every dict and set; that alone spread corpus throughput by 12%
        # from run to run.  Run again, in this process, with one fixed seed.
        environment = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], environment)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The deadline leaves a run well inside the three minutes it may take.
    clock = Clock(deadline=perf_counter() + min(2 * args.seconds + 60, 150))
    tally = Tally()
    try:
        package = import_package()
        documents = inputs(args.workload, args.seed, package.corpus)
        metrics = measure(args, documents, tally, clock)
    except DeadlineExpired:
        print("FAILED: deadline expired during set-up", file=sys.stderr)
        tally.attempted = max(tally.attempted, 1)
        tally.failed = tally.attempted
        metrics = {}
    finally:
        clock.stop()

    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {unit_of(name)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
