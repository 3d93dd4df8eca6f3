"""gkpsq benchmark: run the workloads, check their outputs, print the metrics.

Run from the root of a checkout (no install needed; the package is taken
from src/):

    python3 bench/run.py                      # all three workloads
    python3 bench/run.py --workload sweeps --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload estimate --trace 1 --report BENCH_x.json

Each workload runs in a fresh child process (bench/child.py) with BLAS
pinned to one thread.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, with times scaled to a reference machine speed
(bench/calibration.py); --trace 1 reports its per-layer metrics.  The
human-readable summary comes first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
Metric definitions: bench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("sweeps", "channel", "estimate")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The matrices here are small (at most 500 x 500).  In five runs each on a
# shared 2-CPU machine, two BLAS threads made a channel pass slower (3.9 s
# against 2.8 s median) and its run-to-run spread wider (0.42 against 0.11).
BLAS_THREADS = 1


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def run_child(root: Path, workload: str, args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summary(result: dict, trace: int) -> list[str]:
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  attempted {attempted}  failed {failed}  "
        f"error_rate {failed / attempted if attempted else 0.0:.3g}"
    ]
    for message, times in Counter(result["failures"]).items():
        lines.append(f"  FAILED (x{times}) {message}")
    if trace:
        lines.append(
            f"  traced pass {result['metrics']['trace.wall_s']['value']:.3f} s, untraced "
            f"{result['untraced_wall_s']:.3f} s, overhead {result['metrics']['trace.overhead_s']['value']:+.3f} s "
            f"(calls x wrapper cost: {result['overhead_estimate_s']:.3f} s)"
        )
        for name, stat in result["functions"].items():
            extra = "".join(f"  {k} {v:.6g}" for k, v in stat.items() if k not in ("calls", "self_s", "errors"))
            lines.append(f"  {name:42s} calls {stat['calls']:6d}  self {stat['self_s']:9.4f} s  errors {stat['errors']}{extra}")
        if result["anchor_mismatches"]:
            lines.append(f"  call counts differ from bench/reference.json: {json.dumps(result['anchor_mismatches'])}")
    else:
        for name, metric in result["metrics"].items():
            label = f" ({metric['label']})" if "label" in metric else ""
            raw = f"  (measured {result['raw_s'][name]:.6g} s)" if name in result["raw_s"] else ""
            how = metric.get("how") or f"median of {metric['n']}"
            lines.append(f"  {name + label:38s} {metric['value']:12.6g} {metric['unit']:3s} {how}{raw}")
    lines.append(f"  xi {json.dumps(result['xi'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help="also write the full report as JSON to this path")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "gkpsq" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} is not a gkpsq checkout (needs src/gkpsq and BENCHMARK.json)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_child(root, name, args)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        (root / ".bench_runs").rmdir()
    except OSError:  # still holds another run's directory
        pass

    first = next(iter(results.values()))
    report = {
        "provenance": {
            "versions": first["versions"],
            "blas_threads": BLAS_THREADS,
            "blas_threads_env": first["blas_threads_env"],
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(root),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "argv": sys.argv,
        },
        "workloads": results,
    }
    for result in results.values():
        print("\n".join(summary(result, args.trace)))
    print("provenance " + json.dumps(report["provenance"]))
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")

    prefix = len(results) > 1
    metrics = {
        (f"{name}." if prefix else "") + metric: {"value": value["value"], "unit": value["unit"]}
        for name, result in results.items()
        for metric, value in result["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
