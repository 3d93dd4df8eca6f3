"""Time large-N ground states in process, with BLAS pinned to one thread.

    PYTHONPATH=<tree>/src python3 tools/large_n.py [--repeat R] [--out FILE]

For q0 and hex at N = 400 and 1000, times `build_operator` and
`ground_state` separately (median of R runs, default 3) and prints JSON
with the seconds, `xi_min` and `degeneracy` of each case, plus the numpy
and package versions, so two trees' outputs can be set side by side.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import gkpsq  # noqa: E402
from gkpsq.operators import build_operator, ground_state, preset_grid  # noqa: E402

CASES = [(name, dim) for name in ("q0", "hex") for dim in (400, 1000)]


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def measure(name: str, dim: int, repeat: int) -> dict:
    build_s, ground_s = [], []
    for _ in range(repeat):
        seconds, op = timed(build_operator, preset_grid(name), dim)
        build_s.append(seconds)
        seconds, gs = timed(ground_state, op)
        ground_s.append(seconds)
    return {
        "topology": name,
        "N": dim,
        "build_operator_s": statistics.median(build_s),
        "ground_state_s": statistics.median(ground_s),
        "xi_min": gs.xi_min,
        "degeneracy": gs.degeneracy,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per case; the median is reported")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    report = {
        "provenance": {"numpy": np.__version__, "gkpsq": gkpsq.__version__, "blas_threads": 1},
        "repeat": args.repeat,
        "cases": [measure(name, dim, args.repeat) for name, dim in CASES],
    }
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
