"""Write the output of every README command into one directory, for diffing trees.

    PYTHONPATH=<tree>/src python3 tools/cli_outputs.py OUTDIR

Each command runs in-process through `gkpsq.cli.main` and writes one file
into OUTDIR: the five sweeps, `thresholds` (text and `--json`) for every
preset, and `estimate` plain, `--bootstrap 500 --seed 1`, `--optimize` and
`--optimize --no-gkp-valid` on two seeded sample files (a q0 ground state
and the vacuum, 2 x 2e4 samples each) that the script writes into OUTDIR
first.  Commands run inside OUTDIR with relative file names, so the
reports' `input` fields do not depend on where OUTDIR is.  Run it once per
tree and compare with `diff -r OUTDIR_A OUTDIR_B`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from gkpsq.cli import main
from gkpsq.estimator import save_samples, synthesize_samples
from gkpsq.fock import FockState
from gkpsq.operators import PRESET_NAMES, build_operator, ground_state, preset_grid

SAMPLES_PER_ANGLE = 20000
SWEEPS = {
    "ground.csv": ["ground-sweep", "--topology", *PRESET_NAMES, "--dims", "3", "5", "10", "20", "50"],
    "wigner.csv": ["wigner", "--topology", "q0", "--dims", "20", "--extent", "6", "--resolution", "81"],
    "fidelity.csv": ["fidelity-sweep", "--g", "0.05", "0.1", "0.2", "0.4", "--fidelity-grid", "0", "1", "101"],
    "channel.csv": ["channel-sweep", "--eta", "1.0", "0.95", "0.9", "0.8", "--xi-in", "0", "2", "81"],
    "peaks.csv": ["peaks-sweep", "--g", "0.05", "0.1", "0.2", "0.4", "--smax", "0", "1", "2", "3", "4", "5", "6"],
}
ESTIMATES = {
    "plain": ["--topology", "s0"],
    "bootstrap": ["--bootstrap", "500", "--seed", "1"],
    "optimize": ["--optimize"],
    "optimize_free": ["--optimize", "--no-gkp-valid"],
}


def commands() -> dict[str, list[str]]:
    """Output file name -> CLI arguments, with the sample files written first."""
    states = {
        "q0": ground_state(build_operator(preset_grid("q0"), 40)).state,
        "vacuum": FockState.number_state(0, 2),
    }
    out = dict(SWEEPS)
    for seed, (name, state) in enumerate(states.items(), start=1):
        samples_path = f"samples_{name}.csv"
        save_samples(synthesize_samples(state, [0.0, math.pi / 2.0], SAMPLES_PER_ANGLE, seed=seed), samples_path)
        for mode, flags in ESTIMATES.items():
            out[f"estimate_{name}_{mode}.json"] = ["estimate", "--input", samples_path, *flags]
    for name in PRESET_NAMES:
        out[f"thresholds_{name}.txt"] = ["thresholds", "--topology", name]
        out[f"thresholds_{name}.json"] = ["thresholds", "--topology", name, "--json"]
    return out


def run(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    failed = 0
    for filename, argv in commands().items():
        code = main([*argv, "--output", filename])
        if code != 0:
            print(f"{filename}: gkpsq {' '.join(argv)} exited with {code}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    sys.exit(run(parser.parse_args().outdir))
