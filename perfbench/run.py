"""machina benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload oracle-mix --seed 7 --seconds 20 --trace 0

Run from the root of a machina checkout; the program is imported from its
``src/`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code
is 0 when every item was correct, 1 when any check failed and 2 when there is
no program to measure. See README.md in this directory for the workloads and
what each metric predicts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
ITEM_TIMEOUT_S = 30.0  # an item running longer counts as failed
CROSS_CHECK_PER_VARIANT = 10
TAIL_PERCENTILE = 95  # the highest with >= 10 samples beyond it on every workload
ERRORS_SHOWN = 5

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p95", "ms"),
    ("cpu_ms_per_item", "ms"),
    ("exact_match", "fraction"),
    ("completed_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
)
# Printed on every run but kept out of the JSON: they read 0 on some
# workloads (resume-loop makes no provider calls, and no item fails at the
# seed), and a bound relative to 0 means nothing.
REPORTED_ONLY = (
    ("calls_per_item", "calls"),
    ("prompt_bytes_per_item", "bytes"),
    ("reply_bytes_per_item", "bytes"),
    ("failed_frac", "fraction"),
)

# Runs in a fresh interpreter: times the import, then scales it by that
# interpreter's own reference timings, as it may run on the other core.
IMPORT_PROBE = """
import time
begin = time.perf_counter()
import machina.harness, machina.engine
elapsed = time.perf_counter() - begin
import hostspeed
print(hostspeed.around(lambda: None)[2] * elapsed)
"""


def fail_without_program() -> None:
    if not (SRC / "machina" / "__init__.py").is_file():
        print(f"no machina package under {SRC}; run from a machina checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import machina

    if Path(machina.__file__).resolve().parent != SRC / "machina":
        print(f"imported machina from {machina.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter, scaled to
    host speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(Path(__file__).parent))))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_guarded(workload, item, latency):
    from workloads import Outcome

    try:
        return workload.run_item(item, latency)
    except Exception as exc:  # an item that raises is a failed item, not a crash
        return Outcome(False, False, 0, 0, 0, f"raised {exc!r}")


class Checks:
    """Correctness and cost accounting over every item run, shared by the
    client threads. It keeps one outcome per distinct input, so the
    benchmark's own memory does not grow with the number of runs."""

    def __init__(self) -> None:
        self.first: dict[int, object] = {}  # input position -> its first outcome
        self.attempted = self.correct = self.completed = self.failed = self.problems = 0
        self.errors: list[str] = []  # the first ERRORS_SHOWN problems
        self._lock = threading.Lock()

    def add(self, position: int, outcome, seconds: float) -> None:
        with self._lock:
            self.attempted += 1
            self.correct += outcome.correct
            self.completed += outcome.completed
            if not (outcome.completed and outcome.correct) or seconds > ITEM_TIMEOUT_S:
                self.failed += 1
                self._problem(f"input {position}: {outcome.detail or f'took {seconds:.1f} s'}")
            known = self.first.setdefault(position, outcome)
            counts = (outcome.calls, outcome.prompt_bytes, outcome.reply_bytes)
            if counts != (known.calls, known.prompt_bytes, known.reply_bytes):
                self._problem(f"input {position}: counts {counts} differ from its first run")

    def _problem(self, text: str) -> None:
        self.problems += 1
        if len(self.errors) < ERRORS_SHOWN:
            self.errors.append(text)


class Timings:
    """Per-item times of one timed phase, in seconds, as flat arrays."""

    def __init__(self) -> None:
        self.scaled = array("d")  # wall time, all but simulated delay scaled to host speed
        self.scaled_cpu = array("d")
        self.raw = array("d")
        self.scales = array("d")


def timed_phase(workload, items, seconds, cursor, checks, tracer=None) -> Timings:
    """Closed loop: ``workload.clients`` threads each take the next input
    (cycling through ``items``) as soon as their previous item finishes. A
    client times the host-speed reference between stretches of about
    ``hostspeed.EVERY_S`` and scales the items in between: their CPU time,
    and their wall time except the simulated provider delay. The rest of the
    wall time (waiting for the other client's interpreter turn, waking from
    a sleep) also stretches when the host is slow."""
    lock = threading.Lock()
    timings = Timings()
    deadline = time.perf_counter() + seconds

    def client():
        pending: list[tuple[float, float, float]] = []  # (wall, cpu, simulated delay)
        before = hostspeed.reference_seconds()
        stretch = time.perf_counter()
        while True:  # at least one item per client, however short the phase
            with lock:
                k = next(cursor)
            begin, cpu = time.perf_counter(), time.thread_time()
            if tracer is None:
                outcome = run_guarded(workload, items[k % len(items)], workload.latency)
            else:
                with tracer.item(k):
                    outcome = run_guarded(workload, items[k % len(items)], workload.latency)
            end, cpu = time.perf_counter(), time.thread_time() - cpu
            checks.add(k % len(items), outcome, end - begin)
            pending.append((end - begin, cpu, outcome.waited_s))
            if end - stretch >= hostspeed.EVERY_S or end >= deadline:
                after = hostspeed.reference_seconds()
                scale = hostspeed.factor(before, after)
                with lock:
                    for wall, cpu, waited in pending:
                        timings.scaled.append(waited + (wall - waited) * scale)
                        timings.scaled_cpu.append(cpu * scale)
                        timings.raw.append(wall)
                        timings.scales.append(scale)
                pending, before, stretch = [], after, time.perf_counter()
            if end >= deadline:
                return

    threads = [threading.Thread(target=client, daemon=True) for _ in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + ITEM_TIMEOUT_S)
        if thread.is_alive():
            print(f"an item ran past {ITEM_TIMEOUT_S} s after the deadline", file=sys.stderr)
            sys.exit(1)
    return timings


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def audit(workload, items, checks: Checks) -> None:
    """Run every distinct input the timed phases missed, without latency, so
    the count metrics cover the same inputs on every run of a seed."""
    from workloads import ZERO_LATENCY

    for position, item in enumerate(items):
        if position not in checks.first:
            begin = time.perf_counter()
            outcome = run_guarded(workload, item, ZERO_LATENCY)
            checks.add(position, outcome, time.perf_counter() - begin)


def cross_check(workload, items, seed, checks: Checks) -> list[str]:
    """Per-variant exact match and mean calls on a slice must equal what
    ``machina.harness.run_eval`` reports for the same items."""
    from machina import harness
    from workloads import VARIANTS

    if workload.eval_factory is None:
        return []
    by_index = {item.data.index: item for item in items}
    errors = []
    for variant in VARIANTS:
        chosen = [p for p, item in enumerate(items) if item.variant == variant][:CROSS_CHECK_PER_VARIANT]
        dataset = harness.Dataset(seed, tuple(items[p].data for p in chosen))
        report = harness.run_eval(workload.eval_factory(variant, by_index), dataset)
        ours_match = statistics.fmean(1.0 if checks.first[p].correct else 0.0 for p in chosen)
        ours_calls = statistics.fmean(checks.first[p].calls for p in chosen)
        if not (
            math.isclose(report.exact_match_accuracy, ours_match)
            and math.isclose(report.avg_provider_calls, ours_calls)
        ):
            errors.append(
                f"{variant}: run_eval exact_match {report.exact_match_accuracy}, calls "
                f"{report.avg_provider_calls}; benchmark {ours_match}, {ours_calls}"
            )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fail_without_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    # Set-up: import, input generation and warm-up items, each repeated. The
    # warm-up skips simulated latency: sleeping warms nothing up.
    def prepare():
        items = workload.make_inputs(args.seed)
        for item in items[: workload.warmup]:
            workload.run_item(item, workloads.ZERO_LATENCY)
        return items

    prepare_s = []
    for _ in range(SETUP_REPEATS):
        items, seconds, scale = hostspeed.around(prepare)
        prepare_s.append(seconds * scale)
    setup_s = import_seconds() + statistics.median(prepare_s)
    print(f"inputs {workload.name} seed={args.seed} items={len(items)} sha256={workloads.inputs_digest(items)}")

    checks = Checks()
    cursor = itertools.count()
    tracer = None
    if args.trace:
        plain = timed_phase(workload, items, args.seconds / 2, cursor, checks)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            timings = timed_phase(workload, items, args.seconds / 2, cursor, checks, tracer)
        finally:
            tracer.uninstall()
    else:
        timings = timed_phase(workload, items, args.seconds, cursor, checks)
    audit(workload, items, checks)
    mismatches = cross_check(workload, items, args.seed, checks)

    counted = [(o.calls, o.prompt_bytes, o.reply_bytes) for o in checks.first.values()]
    durations = timings.scaled
    values = {
        "setup_s": setup_s,
        "items_per_s": workload.clients * len(durations) / sum(durations),
        "item_ms_p50": 1e3 * statistics.median(durations),
        "item_ms_p95": 1e3 * percentile(durations, TAIL_PERCENTILE),
        "cpu_ms_per_item": 1e3 * statistics.fmean(timings.scaled_cpu),
        "exact_match": checks.correct / checks.attempted,
        "completed_frac": checks.completed / checks.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls_per_item": statistics.fmean(c[0] for c in counted),
        "prompt_bytes_per_item": statistics.fmean(c[1] for c in counted),
        "reply_bytes_per_item": statistics.fmean(c[2] for c in counted),
        "failed_frac": checks.failed / checks.attempted,
    }
    print(
        f"timed {workload.name}{' (traced half)' if tracer else ''}: clients={workload.clients} "
        f"seconds={args.seconds} samples={len(durations)} attempted={checks.attempted} failed={checks.failed}"
    )
    print(
        f"host factor median {statistics.median(timings.scales):.4f}; unscaled items_per_s "
        f"{workload.clients * len(timings.raw) / sum(timings.raw):.6g}, item_ms_p50 {1e3 * statistics.median(timings.raw):.6g}"
    )
    for name, unit in END_TO_END + REPORTED_ONLY:
        print(f"  {name:<24} {values[name]:>14.6g} {unit}")

    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, statistics.median(timings.scales))
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(durations) / statistics.median(plain.scaled) - 1.0,
            "unit": "fraction",
        }
        spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"per-layer ({len(durations)} traced items; spans in {spans_path.relative_to(ROOT)}):")
        for name, _ in tracing.LAYER_METRICS:
            m = metrics[name]
            shown = f"{m['value']:>14.6g}" if m["value"] is not None else f"absent: {m['absent']}"
            print(f"  {name:<28} {shown} {m['unit']}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for error in checks.errors + mismatches:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = checks.problems == 0 and not mismatches
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
