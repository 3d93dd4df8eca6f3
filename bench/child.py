"""Run one workload in this process and print its result as a JSON line.

bench/run.py starts this script in a fresh interpreter with PYTHONPATH set
to the checkout's src/ and the BLAS thread variables pinned; it is not
meant to be run by hand.  Untraced (--trace 0) it sets up several times,
warms up, then repeats the workload's steps for --seconds and reports
medians of times scaled to reference speed (bench/calibration.py).
Traced (--trace 1) it times one untraced pass, installs the tracer, sets
up again and times one traced pass, and reports the per-layer counts of
the traced set-up and pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibration import Clock, Span
from tracing import Tracer
from workloads import REFERENCE, WORKLOADS

SETUP_REPEATS = 3
# Set-up is imports, eigensolves (build_operator, ground_state) and passes
# over sample arrays; over ten runs per workload the bulk kernel tracked it
# best.
SETUP_KERNEL = "bulk"
MIN_SAMPLES = 5


class Runner:
    """Runs steps, times them, and tallies checked operations."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.xi: dict[str, dict] = {}

    def run_step(self, step) -> Span | None:
        """Run and check one step; its span, or None if it raised."""
        gc.collect()
        try:
            span, output = self.clock.time(step.run)
            failures, record = step.check(output)
        except Exception as exc:  # a failing step is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.attempted += step.count
            self.failed += step.count
            self.failures.append(f"{step.label}: {type(exc).__name__}: {exc}")
            return None
        self.attempted += step.count
        self.failed += min(len(failures), step.count)
        self.failures.extend(f"{step.label}: {f}" for f in failures)
        self.xi.setdefault(step.label, record)
        return span


def measure(runner: Runner, steps, seconds: float) -> dict[str, list[Span]]:
    """Repeat the steps until the time is used; at least one full pass.

    Within a pass each step runs step.repeat times in a row, each run one
    sample.  After the first pass a step runs again if its median so far
    fits in the time left, so short steps keep collecting samples after a
    long one stops fitting.  A step also runs until it has MIN_SAMPLES
    samples when that many of it fit in `seconds`, even past the deadline.
    Returns each step's spans.
    """
    spans: dict[str, list[Span]] = {step.metric: [] for step in steps}
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        ran = False
        for step in steps:
            done = spans[step.metric]
            if not first:
                typical = statistics.median(sp.end - sp.start for sp in done) if done else math.inf
                wanted = len(done) < MIN_SAMPLES and typical * MIN_SAMPLES <= seconds
                if not (wanted or typical * step.repeat <= deadline - time.perf_counter()):
                    continue
            for _ in range(step.repeat):
                span = runner.run_step(step)
                ran = True
                if span is not None:
                    done.append(span)
        first = False
        if not ran:
            return spans


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0  # 0: every sample failed


def _stat(values: list[float], unit: str) -> dict:
    return {"value": _median(values), "unit": unit, "n": len(values)}


def untraced(workload, runner: Runner, import_span: Span, seconds: float) -> dict:
    clock = runner.clock
    setup_spans = [clock.time(workload.setup)[0] for _ in range(SETUP_REPEATS)]
    warmup, _ = clock.time(workload.warmup)
    steps = workload.steps()
    spans = measure(runner, steps, seconds)

    def ref(spans_, kernel):
        return [span.reference_s(kernel) for span in spans_]

    def raw(spans_):
        return [span.end - span.start for span in spans_]

    metrics = {
        "setup_s": {
            "value": import_span.reference_s(SETUP_KERNEL) + _median(ref(setup_spans, SETUP_KERNEL)),
            "unit": "s",
            "n": SETUP_REPEATS,
        },
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB", "n": 1},
    }
    raw_metrics = {"setup_s": raw([import_span])[0] + _median(raw(setup_spans))}
    for step in steps:
        metrics[step.metric] = {**_stat(ref(spans[step.metric], step.kernel), "s"), "label": step.label}
        raw_metrics[step.metric] = _median(raw(spans[step.metric]))
    # One pass runs each step once, so its typical time is the sum of the
    # step medians.
    metrics["wall_s"] = {
        "value": sum(metrics[step.metric]["value"] for step in steps),
        "unit": "s",
        "how": "sum of the step medians",
    }
    raw_metrics["wall_s"] = sum(raw_metrics[step.metric] for step in steps)
    return {
        "metrics": metrics,
        "raw_s": raw_metrics,
        "warmup_s": warmup.end - warmup.start,
        "spans": {
            "import": [import_span],
            "setup": setup_spans,
            **{step.label: spans[step.metric] for step in steps},
        },
    }


def one_pass(workload, runner: Runner) -> float:
    start = time.perf_counter()
    for step in workload.steps():
        runner.run_step(step)
    return time.perf_counter() - start


def traced(workload, runner: Runner, per_layer: list[dict]) -> dict:
    workload.setup()
    workload.warmup()
    wall_untraced = one_pass(workload, runner)
    tracer = Tracer()
    tracer.install()
    workload.setup()
    wall_traced = one_pass(workload, runner)
    names = [m["name"] for m in per_layer]
    values = tracer.metrics(names)
    values["trace.wall_s"] = wall_traced
    values["trace.overhead_s"] = wall_traced - wall_untraced
    units = {m["name"]: m["unit"] for m in per_layer}
    calls = {name: s["calls"] for name, s in tracer.table().items()}
    anchors = REFERENCE["trace_calls"][workload.name]
    return {
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
        "untraced_wall_s": wall_untraced,
        "overhead_estimate_s": sum(calls.values()) * Tracer.per_call_cost(),
        "functions": tracer.table(),
        "absent": tracer.absent,
        "anchor_mismatches": {
            name: {"recorded": n, "now": calls.get(name, 0)}
            for name, n in anchors.items()
            if calls.get(name, 0) != n
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    import gkpsq
    import numpy
    import scipy

    import_end = time.perf_counter()
    import_start = import_end - (time.monotonic() - args.spawned_at)
    source = Path(gkpsq.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"error: imported gkpsq from {source}, not from {root / 'src'}", file=sys.stderr)
        return 2
    per_layer = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]

    runs_dir = root / ".bench_runs"
    runs_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        clock = Clock(calibrate=not args.trace)
        runner = Runner(clock)
        if args.trace:
            result = traced(workload, runner, per_layer)
        else:
            result = untraced(workload, runner, clock.span(import_start, import_end), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
            "xi": {**workload.setup_record(), **runner.xi},
            "versions": {
                "gkpsq": gkpsq.__version__,
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            "blas_threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
