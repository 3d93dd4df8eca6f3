"""Time sample-file I/O in process, with BLAS pinned to one thread.

    PYTHONPATH=<tree>/src python3 tools/sample_io.py [--repeat R] [--samples S] [--out FILE]

Writes a seeded sample file (the q0 ground state at N = 40, S samples at
each of the angles 0 and pi/2, default S = 2e5) into a temporary
directory, then times `load_samples` and `save_samples` on it (median of R
runs, default 5).  One further call of each runs under tracemalloc for its
peak.  Prints JSON with the seconds and peaks, a SHA-256 digest of the
loaded records (angle and value bits, in record order), and the plain q0
`xi` estimated from the loaded records, plus the numpy and package
versions, so two trees' outputs can be set side by side.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gkpsq  # noqa: E402
from gkpsq.estimator import estimate_xi, load_samples, save_samples, synthesize_samples  # noqa: E402
from gkpsq.operators import build_operator, ground_state, preset_grid  # noqa: E402

DIM = 40
ANGLES = (0.0, math.pi / 2.0)
SEED = 20260


def digest(samples) -> str:
    h = hashlib.sha256()
    for angle, values in samples.records:
        h.update(np.float64(angle).tobytes())
        h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()


def measure(fn, repeat: int) -> dict:
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"median_s": statistics.median(seconds), "runs_s": seconds, "tracemalloc_peak_mb": peak / 1e6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per call; the median is reported")
    parser.add_argument("--samples", type=int, default=200_000, help="samples per angle")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    state = ground_state(build_operator(preset_grid("q0"), DIM)).state
    samples = synthesize_samples(state, list(ANGLES), args.samples, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        save_samples(samples, path)
        size = path.stat().st_size
        loaded = load_samples(path)
        load = measure(lambda: load_samples(path), args.repeat)
        save = measure(lambda: save_samples(loaded, Path(tmp) / "copy.csv"), args.repeat)
    report = {
        "provenance": {"numpy": np.__version__, "gkpsq": gkpsq.__version__, "python": sys.version.split()[0],
                       "blas_threads": 1},
        "file": {"topology": "q0", "N": DIM, "angles": list(ANGLES), "samples_per_angle": args.samples,
                 "seed": SEED, "bytes": size},
        "repeat": args.repeat,
        "load_samples": {**load, "records_sha256": digest(loaded)},
        "save_samples": save,
        "xi_q0_plain": estimate_xi(loaded, preset_grid("q0")).xi,
    }
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
