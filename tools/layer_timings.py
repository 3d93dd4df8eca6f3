"""Time the layers the benchmark does not reach, in process, with BLAS pinned to one thread.

    PYTHONPATH=<tree>/src python3 tools/layer_timings.py [GROUP ...] [--out FILE]

Runs the named groups, or all three.  `large_n`: `build_operator` and
`ground_state` for q0 and hex at N = 400 and 1000, for q0 at N = 2000, and
at N = 400 and 1000 for the custom grid of `tools/cli_outputs.py` (rows of
unequal length, offsets that break parity) and for hex with the
parity-breaking offsets (0.3, -0.7), with `xi_min` (also as `float.hex`),
`degeneracy`, the bytes of the arrays the built operator holds, and the
tracemalloc peaks of one solve and of one build and solve.  `channel`:
one `apply_channel` call for loss, noise and both at cutoffs 40, 100 and
200, on seeded pure states of support 12 and of full support, with the
tracemalloc peak of one call and a SHA-256 digest of each output.
`sample_io`: `load_samples` and `save_samples` on a seeded 2 x 2e5-row q0
sample file, each with its tracemalloc peak, a digest of the loaded
records and their plain q0 `xi`; then `optimize_xi` on those records,
constrained and free, with the `float.hex` of every result field.
Every timing is the median and quartiles of a fixed number of runs.  The
reported values are deterministic, so two trees' outputs must match bit
for bit; the JSON carries the numpy, Python and package versions.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gkpsq  # noqa: E402
from gkpsq.estimator import estimate_xi, load_samples, optimize_xi, save_samples, synthesize_samples  # noqa: E402
from gkpsq.fock import FockState  # noqa: E402
from gkpsq.operators import ChannelConvergenceWarning, ChannelParams, apply_channel  # noqa: E402
from gkpsq.operators import GridSpec, build_operator, ground_state, preset_grid  # noqa: E402

CHANNELS = {"loss": ChannelParams(0.9), "noise": ChannelParams(1.0, 0.1), "composed": ChannelParams(0.8, 0.1)}
SAMPLE_ANGLES = (0.0, math.pi / 2.0)
SAMPLES_PER_ANGLE = 200_000


def timed(fn, runs: int) -> tuple[dict, object]:
    """Median and quartiles of `runs` calls of fn, and the last call's result."""
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        out = fn()
        seconds.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median_s": float(median), "q1_s": float(q1), "q3_s": float(q3)}, out


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


CUSTOM_GRIDS = {"custom": GridSpec(0.8, 0.3, -0.5, 2.1, d1=0.25, d2=-1.1, label="custom"),
                "hex_offsets": dataclasses.replace(preset_grid("hex"), d1=0.3, d2=-0.7, label="hex_offsets")}
LARGE_N_CASES = (("q0", 400), ("q0", 1000), ("hex", 400), ("hex", 1000), ("q0", 2000),
                 ("custom", 400), ("custom", 1000), ("hex_offsets", 400), ("hex_offsets", 1000))


def held_bytes(op) -> int:
    """Bytes of the arrays among the operator's fields, tuples of arrays included."""
    total = 0
    for field in dataclasses.fields(op):
        value = getattr(op, field.name)
        total += sum(item.nbytes for item in (value if isinstance(value, tuple) else (value,))
                     if isinstance(item, np.ndarray))
    return total


def large_n() -> dict:
    cases = []
    for name, dim in LARGE_N_CASES:
        grid = CUSTOM_GRIDS[name] if name in CUSTOM_GRIDS else preset_grid(name)
        build, op = timed(lambda: build_operator(grid, dim), 3)
        solve, gs = timed(lambda: ground_state(op), 3)
        solve_peak = peak_mb(lambda: ground_state(op))
        held = held_bytes(op)
        del op
        peak = peak_mb(lambda: ground_state(build_operator(grid, dim)))
        cases.append({"topology": name, "N": dim, "build_operator": build, "ground_state": solve,
                      "operator_bytes": held, "solve_tracemalloc_peak_mb": solve_peak, "tracemalloc_peak_mb": peak,
                      "xi_min": gs.xi_min, "xi_min_hex": gs.xi_min.hex(), "degeneracy": gs.degeneracy})
    return {"runs": 3, **{f"{name}_grid": grid.rows() for name, grid in CUSTOM_GRIDS.items()}, "cases": cases}


def channel() -> dict:
    cases = []
    with warnings.catch_warnings():
        # full support leaks trace past the cutoff under noise; the digest records the output
        warnings.simplefilter("ignore", ChannelConvergenceWarning)
        for cutoff in (40, 100, 200):
            for support in (12, cutoff):
                rng = np.random.default_rng(12 + support)
                raw = rng.normal(size=support) + 1j * rng.normal(size=support)
                rho = FockState.normalized(raw).density_matrix().padded(cutoff)
                for kind, params in CHANNELS.items():
                    timing, out = timed(lambda: apply_channel(rho, params, cutoff), 15)
                    digest = hashlib.sha256(np.ascontiguousarray(out.entries).tobytes()).hexdigest()
                    peak = peak_mb(lambda: apply_channel(rho, params, cutoff))
                    cases.append({"cutoff": cutoff, "support": support, "channel": kind, **timing,
                                  "tracemalloc_peak_mb": peak, "digest": digest})
    return {"runs": 15, "cases": cases}


def records_digest(samples) -> str:
    h = hashlib.sha256()
    for angle, values in samples.records:
        h.update(np.float64(angle).tobytes())
        h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()


def optimize_fields(res) -> dict:
    """Every field of an `optimize_xi` result, floats as `float.hex`."""
    grid = {k: v.hex() if isinstance(v, float) else v for k, v in dataclasses.asdict(res.best_grid).items()}
    return {"best_grid": grid, "xi_opt": res.xi_opt.hex(), "std_error": res.std_error.hex(),
            "m_gkp": res.m_gkp.hex(), "angles_used": [a.hex() for a in res.angles_used]}


def sample_io() -> dict:
    state = ground_state(build_operator(preset_grid("q0"), 40)).state
    samples = synthesize_samples(state, list(SAMPLE_ANGLES), SAMPLES_PER_ANGLE, seed=20260)
    with tempfile.TemporaryDirectory() as tmp:
        path, copy = Path(tmp) / "samples.csv", Path(tmp) / "copy.csv"
        save_samples(samples, path)
        load, loaded = timed(lambda: load_samples(path), 5)
        load["tracemalloc_peak_mb"] = peak_mb(lambda: load_samples(path))
        save, _ = timed(lambda: save_samples(loaded, copy), 5)
        save["tracemalloc_peak_mb"] = peak_mb(lambda: save_samples(loaded, copy))
        size = path.stat().st_size
    optimize = {}
    for mode, constrained in (("constrained", True), ("free", False)):
        run = functools.partial(optimize_xi, loaded, constrain_gkp_valid=constrained)
        timing, res = timed(run, 5)
        optimize[mode] = {**timing, "tracemalloc_peak_mb": peak_mb(run), "result": optimize_fields(res)}
    return {
        "runs": 5,
        "file": {"topology": "q0", "N": 40, "angles": list(SAMPLE_ANGLES), "samples_per_angle": SAMPLES_PER_ANGLE,
                 "seed": 20260, "bytes": size},
        "load_samples": {**load, "records_sha256": records_digest(loaded)},
        "save_samples": save,
        "xi_q0_plain": estimate_xi(loaded, preset_grid("q0")).xi,
        "optimize_xi": optimize,
    }


GROUPS = {"large_n": large_n, "channel": channel, "sample_io": sample_io}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP", help=f"any of {', '.join(GROUPS)} (default: all)")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    if unknown := sorted(set(args.groups) - set(GROUPS)):
        parser.error(f"unknown group(s) {', '.join(unknown)}; choose from {', '.join(GROUPS)}")
    report = {"provenance": {"numpy": np.__version__, "python": platform.python_version(),
                             "gkpsq": gkpsq.__version__, "blas_threads": 1}}
    for name, run in GROUPS.items():
        if name in args.groups or not args.groups:
            report[name] = run()
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
