"""Time `apply_channel` at larger cutoffs in process, with BLAS pinned to one thread.

    PYTHONPATH=<tree>/src python3 tools/channel_cutoff.py [--repeat R] [--out FILE]

For cutoffs 40, 100 and 200, each at input support 12 and at full support
(a seeded random pure state on the first `support` number states, padded
to the cutoff), times one `apply_channel` call for loss (eta 0.9), noise
(eta 1, n_thermal 0.1) and both (eta 0.8, n_thermal 0.1): the median and
quartiles of R calls (default 15).  Each case also carries a SHA-256
digest of the output entries, so two trees' outputs can be compared bit
for bit, and the report carries the numpy, Python and package versions.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import gkpsq  # noqa: E402
from gkpsq.fock import FockState  # noqa: E402
from gkpsq.operators import ChannelConvergenceWarning, ChannelParams, apply_channel  # noqa: E402

CUTOFFS = (40, 100, 200)
SUPPORT = 12
CHANNELS = {
    "loss": ChannelParams(0.9),
    "noise": ChannelParams(1.0, 0.1),
    "composed": ChannelParams(0.8, 0.1),
}
SEED = 12


def input_state(support: int, cutoff: int):
    rng = np.random.default_rng(SEED + support)
    raw = rng.normal(size=support) + 1j * rng.normal(size=support)
    return FockState.normalized(raw).density_matrix().padded(cutoff)


def measure(cutoff: int, support: int, kind: str, repeat: int) -> dict:
    rho = input_state(support, cutoff)
    seconds = []
    with warnings.catch_warnings():
        # full support leaks trace past the cutoff under noise; the digest records the output
        warnings.simplefilter("ignore", ChannelConvergenceWarning)
        for _ in range(repeat):
            start = time.perf_counter()
            out = apply_channel(rho, CHANNELS[kind], cutoff)
            seconds.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {
        "cutoff": cutoff,
        "support": support,
        "channel": kind,
        "median_s": float(median),
        "q1_s": float(q1),
        "q3_s": float(q3),
        "digest": hashlib.sha256(np.ascontiguousarray(out.entries).tobytes()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="calls per case; median and quartiles reported")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    report = {
        "provenance": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "gkpsq": gkpsq.__version__,
            "blas_threads": 1,
        },
        "repeat": args.repeat,
        "cases": [
            measure(cutoff, support, kind, args.repeat)
            for cutoff in CUTOFFS
            for support in (SUPPORT, cutoff)
            for kind in CHANNELS
        ],
    }
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
