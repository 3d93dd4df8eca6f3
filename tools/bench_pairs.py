"""Paired before/after benchmark: alternate `bench/run.py` over two checkouts.

    python3 tools/bench_pairs.py --before DIR --after DIR \
        --pairs sweeps=10 channel=3 estimate=3 --seed 4200 --out BENCH_topic.json
    python3 tools/bench_pairs.py --same DIR --pairs estimate=10 --seed 4200 --out BENCH_topic_aa.json

`--same DIR` is the A/A mode: it copies DIR into a temporary directory,
runs the copy as the `before` side and DIR as the `after` side, and removes
the copy at the end, so every difference the output shows is the spread of
one tree against itself.  Read a claimed gain against it.

Each pair runs `bench/run.py --workload W --report FILE` once in the
`before` checkout and once in the `after` checkout, with the same seed, and
alternates which side goes first; the seed is `--seed` plus the pair index,
so every pair of a workload sees new inputs.  Each `--pairs` item must be
`WORKLOAD=N` with N >= 1 and a workload of the `after` checkout's
`BENCHMARK.json`; any other item exits 2 before any run.  Running the two sides back to
back keeps both in the same machine-speed regime.  The output
holds, per workload and metric, both sides' medians and quartiles, how
many pairs the `after` side won, every run's checks, and every `xi` value
both sides computed with the largest difference between them, overall
(`xi_max_abs_diff`) and per field, the last key on each value's path
(`xi_max_abs_diff_by_field`, so the `channel` workload's measured `xi`
shows apart from its closed-form `predicted` and `gap`).

After writing `--out` it prints one line per workload and metric: both
medians, the `before` side's quartile spread (q3 - q1), the `after` side's
wins, `WORSE` where the `after` median is past the metric's relative
`bound` in the `after` checkout's `BENCHMARK.json`, and `GAIN` where at
least ten pairs ran, the `after` side won at least 9 of 10 of them, and
its median is better by more than that spread.  The table is a reading aid, not a gate: the exit code
does not depend on it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# what `--same` leaves out of its copy: version control and run, test and bytecode caches
_NOT_COPIED = (".git", ".bench_runs", ".hypothesis", ".pytest_cache", "__pycache__")


def run_once(root: Path, workload: str, seed: int, report: Path) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--report", str(report)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with {proc.returncode}")
    return json.loads(report.read_text())


def numeric_leaves(value, prefix: str = "", field: str = "") -> dict[str, tuple[str, float]]:
    """Each numeric leaf's path -> (field, value); the field is the last key on the path."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(numeric_leaves(item, f"{prefix}.{key}" if prefix else str(key), str(key)))
        return out
    if isinstance(value, list):
        out = {}
        for index, item in enumerate(value):
            out.update(numeric_leaves(item, f"{prefix}[{index}]", field))
        return out
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {prefix: (field, float(value))}
    return {}


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "values": values}


def compare(runs: list[tuple[dict, dict]]) -> dict:
    sides = {"before": [b for b, _ in runs], "after": [a for _, a in runs]}
    metrics = {}
    for name, first in runs[0][0]["metrics"].items():
        before = [r["metrics"][name]["value"] for r in sides["before"]]
        after = [r["metrics"][name]["value"] for r in sides["after"]]
        metrics[name] = {
            "unit": first["unit"],
            "before": spread(before),
            "after": spread(after),
            "after_wins": sum(a < b for b, a in zip(before, after)),
            "pairs": len(runs),
        }
    xi_before = [numeric_leaves(r["xi"]) for r in sides["before"]]
    xi_after = [numeric_leaves(r["xi"]) for r in sides["after"]]
    diffs = [(b[k][0], abs(b[k][1] - a[k][1])) for b, a in zip(xi_before, xi_after) for k in b.keys() & a.keys()]
    by_field: dict[str, float] = {}
    for field, diff in diffs:
        by_field[field] = max(by_field.get(field, 0.0), diff)
    return {
        "metrics": metrics,
        "checks": {
            side: [{"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
                    "failures": sorted(set(r["failures"]))} for r in results]
            for side, results in sides.items()
        },
        "xi": {"before": [r["xi"] for r in sides["before"]], "after": [r["xi"] for r in sides["after"]]},
        "xi_max_abs_diff": max((diff for _, diff in diffs), default=0.0),
        "xi_max_abs_diff_by_field": dict(sorted(by_field.items())),
    }


def summary_lines(workloads: dict, benchmark: dict) -> list[str]:
    """One line per workload and metric, flagged WORSE past the metric's bound or GAIN.

    Each line also gives the `before` side's quartile spread, q3 - q1.  GAIN
    needs at least ten pairs, the `after` side to win at least 9 of 10 of
    them, and its median to be better than the `before` median by more
    than that spread.
    """
    declared = {spec["name"]: spec for spec in benchmark.get("end_to_end", [])}
    lines = []
    for workload, result in workloads.items():
        for name, metric in result["metrics"].items():
            before, after = metric["before"]["median"], metric["after"]["median"]
            spread = metric["before"]["q3"] - metric["before"]["q1"]
            spec = declared.get(name, {})
            sign = -1.0 if spec.get("better") == "higher" else 1.0
            wins = sum(sign * (a - b) < 0 for b, a in zip(metric["before"]["values"], metric["after"]["values"]))
            worse = "bound" in spec and sign * (after - before) > spec["bound"] * abs(before)
            gain = metric["pairs"] >= 10 and 10 * wins >= 9 * metric["pairs"] and sign * (before - after) > spread
            lines.append(
                f"{workload:<10} {name:<12} {before:10.4g} -> {after:10.4g} {metric['unit']:<3}"
                f" spread {spread:9.3g}  after wins {wins}/{metric['pairs']}"
                + ("  WORSE" if worse else "") + ("  GAIN" if gain else "")
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="checkout of the parent commit")
    parser.add_argument("--after", type=Path, help="checkout of the change")
    parser.add_argument("--same", type=Path, metavar="DIR", help="A/A: pair DIR with a copy of itself")
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seed", type=int, required=True, help="first seed; pair i uses seed + i")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.same is None and (args.before is None or args.after is None) or \
            args.same is not None and (args.before, args.after) != (None, None):
        parser.error("give --before and --after, or --same alone")

    after = (args.same or args.after).resolve()
    benchmark = json.loads((after / "BENCHMARK.json").read_text())
    names = [spec["name"] for spec in benchmark["workloads"]]
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if workload not in names or not count.isdecimal() or int(count) < 1:
            parser.error(f"--pairs {item!r}: expected WORKLOAD=N with N >= 1 and WORKLOAD one of {', '.join(names)}")
        plan.append((workload, int(count)))
    out: dict = {"seed": args.seed, "pairs": dict(plan), "same": args.same is not None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        before = args.before.resolve() if args.same is None else \
            shutil.copytree(after, Path(tmp) / "same", ignore=shutil.ignore_patterns(*_NOT_COPIED))
        roots = {"before": before, "after": after}
        for workload, count in plan:
            runs = []
            for index in range(count):
                seed = args.seed + index
                # alternate which side runs first
                order = ("before", "after") if index % 2 == 0 else ("after", "before")
                done = {side: run_once(roots[side], workload, seed, Path(tmp) / f"{side}.json") for side in order}
                pair = (done["before"], done["after"])
                if index == 0:
                    out.setdefault("provenance", {})[workload] = {
                        side: report["provenance"] for side, report in zip(("before", "after"), pair)
                    }
                runs.append(tuple(report["workloads"][workload] for report in pair))
                print(f"{workload} pair {index + 1}/{count} done", file=sys.stderr, flush=True)
            out["workloads"][workload] = compare(runs)
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    print("\n".join(summary_lines(out["workloads"], benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
