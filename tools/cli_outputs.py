"""Write the output of every README command into one directory, for diffing trees.

    PYTHONPATH=<tree>/src python3 tools/cli_outputs.py OUTDIR

Each command runs in-process through `gkpsq.cli.main` and writes one file
into OUTDIR: the five sweeps, a `fidelity-sweep` of 10001 rows that spans
three of the CSV writer's blocks and one of 3001 rows on each of four g
(12004 rows, its block seams inside the g groups), `thresholds` (text and `--json`) for every
preset and for one custom grid (rows of unequal length, nonzero offsets),
and `estimate` plain, `--bootstrap 500 --seed 1`, `--optimize`,
`--optimize --no-gkp-valid` and `--optimize --bootstrap 500 --seed 1` on
two seeded sample files (a q0 ground state and the vacuum, 2 x 2e4 samples
each), and `estimate --topology hex` and `--optimize` on a third (a hex
ground state sampled at 0, pi/2 and hex's two row directions, 4 x 2e4
samples, so each Hermite table block serves four angles and the optimizer runs
over six angle pairs).  The script writes the sample files into OUTDIR
first.  Commands run inside OUTDIR
with relative file names, so the reports' `input` fields do not depend on
where OUTDIR is.  Run it once per tree and compare with
`diff -r OUTDIR_A OUTDIR_B`, or with

    python3 tools/cli_outputs.py --compare OUTDIR_A OUTDIR_B

which names the files present on one side only and, for each file that
differs, prints the largest absolute difference of every numeric CSV column
or JSON field that changed (with the count of changed values) and every
non-numeric difference verbatim.  It exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

SAMPLES_PER_ANGLE = 20000
# ground.csv, which needs the preset names, is added by `commands`.
SWEEPS = {
    "wigner.csv": ["wigner", "--topology", "q0", "--dims", "20", "--extent", "6", "--resolution", "81"],
    "fidelity.csv": ["fidelity-sweep", "--g", "0.05", "0.1", "0.2", "0.4", "--fidelity-grid", "0", "1", "101"],
    "channel.csv": ["channel-sweep", "--eta", "1.0", "0.95", "0.9", "0.8", "--xi-in", "0", "2", "81"],
    "peaks.csv": ["peaks-sweep", "--g", "0.05", "0.1", "0.2", "0.4", "--smax", "0", "1", "2", "3", "4", "5", "6"],
    # 10001 rows of 9 cells: three of the CSV writer's blocks, so a diff sees both seams
    "fidelity_blocks.csv": ["fidelity-sweep", "--g", "0.1", "--fidelity-grid", "0", "1", "10001"],
    # 12004 rows of 9 cells: the writer's block seams fall inside the g groups
    "fidelity_multi_g.csv": ["fidelity-sweep", "--g", "0.05", "0.1", "0.2", "0.4",
                             "--fidelity-grid", "0", "1", "3001"],
}
# A custom grid for `thresholds`: unequal row lengths put the symmetric
# root away from every preset's.
CUSTOM_GRID = ["--grid", "0.8", "0.3", "-0.5", "2.1", "0.25", "-1.1"]
ESTIMATES = {
    "plain": ["--topology", "s0"],
    "bootstrap": ["--bootstrap", "500", "--seed", "1"],
    "optimize": ["--optimize"],
    "optimize_free": ["--optimize", "--no-gkp-valid"],
    "optimize_bootstrap": ["--optimize", "--bootstrap", "500", "--seed", "1"],
}


def commands() -> dict[str, list[str]]:
    """Output file name -> CLI arguments, with the sample files written first."""
    from gkpsq.estimator import save_samples, synthesize_samples
    from gkpsq.fock import FockState
    from gkpsq.operators import PRESET_NAMES, build_operator, ground_state, preset_grid

    states = {
        "q0": ground_state(build_operator(preset_grid("q0"), 40)).state,
        "vacuum": FockState.number_state(0, 2),
    }
    out = {"ground.csv": ["ground-sweep", "--topology", *PRESET_NAMES, "--dims", "3", "5", "10", "20", "50"], **SWEEPS}
    for seed, (name, state) in enumerate(states.items(), start=1):
        samples_path = f"samples_{name}.csv"
        save_samples(synthesize_samples(state, [0.0, math.pi / 2.0], SAMPLES_PER_ANGLE, seed=seed), samples_path)
        for mode, flags in ESTIMATES.items():
            out[f"estimate_{name}_{mode}.json"] = ["estimate", "--input", samples_path, *flags]
    hex_grid = preset_grid("hex")
    hex_angles = [0.0, math.pi / 2.0, *(phi % math.pi for _, phi, _ in hex_grid.row_waves())]
    hex_state = ground_state(build_operator(hex_grid, 40)).state
    save_samples(synthesize_samples(hex_state, hex_angles, SAMPLES_PER_ANGLE, seed=3), "samples_hex.csv")
    out["estimate_hex_plain.json"] = ["estimate", "--input", "samples_hex.csv", "--topology", "hex"]
    out["estimate_hex_optimize.json"] = ["estimate", "--input", "samples_hex.csv", "--optimize"]
    for name in PRESET_NAMES:
        out[f"thresholds_{name}.txt"] = ["thresholds", "--topology", name]
        out[f"thresholds_{name}.json"] = ["thresholds", "--topology", name, "--json"]
    out["thresholds_custom.txt"] = ["thresholds", *CUSTOM_GRID]
    out["thresholds_custom.json"] = ["thresholds", *CUSTOM_GRID, "--json"]
    return out


def run(outdir: Path) -> int:
    from gkpsq.cli import main

    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    failed = 0
    for filename, argv in commands().items():
        code = main([*argv, "--output", filename])
        if code != 0:
            print(f"{filename}: gkpsq {' '.join(argv)} exited with {code}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


def _number(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _csv_cells(path: Path) -> tuple[list[str], dict[str, str]]:
    """Preamble lines, and every body cell keyed by `row <i> <column>`."""
    lines = path.read_text().splitlines()
    preamble = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    header = body[0] if body else []
    cells = {}
    for index, row in enumerate(body[1:]):
        for column, cell in zip(header, row):
            cells[f"row {index} {column}"] = cell
        if len(row) != len(header):
            cells[f"row {index} width"] = str(len(row))
    return preamble, cells


def _json_leaves(value, prefix: str = "") -> dict[str, object]:
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    out = {}
    for key, item in items:
        out.update(_json_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _compare_values(before: dict, after: dict, group) -> list[str]:
    """Largest numeric difference per group of keys; other changes verbatim."""
    worst: dict[str, list] = {}
    lines = []
    for key in sorted(before.keys() | after.keys(), key=str):
        a, b = before.get(key), after.get(key)
        if a == b:
            continue
        num_a = _number(a) if isinstance(a, str) else a
        num_b = _number(b) if isinstance(b, str) else b
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                      for v in (num_a, num_b))
        if numeric:
            entry = worst.setdefault(group(key), [0.0, 0])
            entry[0] = max(entry[0], abs(num_a - num_b))
            entry[1] += 1
        else:
            lines.append(f"  {key}: {a!r} -> {b!r}")
    for name, (diff, count) in sorted(worst.items()):
        lines.append(f"  {name}: max |diff| {diff!r} over {count} changed values")
    return lines


def compare_file(path_a: Path, path_b: Path) -> list[str]:
    if path_a.suffix == ".csv":
        pre_a, cells_a = _csv_cells(path_a)
        pre_b, cells_b = _csv_cells(path_b)
        lines = [f"  preamble: {a!r} -> {b!r}" for a, b in zip(pre_a, pre_b) if a != b]
        if len(pre_a) != len(pre_b):
            lines.append(f"  preamble: {len(pre_a)} lines -> {len(pre_b)} lines")
        return lines + _compare_values(cells_a, cells_b, lambda key: "column " + key.split(" ", 2)[2])
    if path_a.suffix == ".json":
        leaves_a = _json_leaves(json.loads(path_a.read_text()))
        leaves_b = _json_leaves(json.loads(path_b.read_text()))
        return _compare_values(leaves_a, leaves_b, lambda key: key)
    lines_a, lines_b = path_a.read_text().splitlines(), path_b.read_text().splitlines()
    lines = [f"  line {i + 1}: {a!r} -> {b!r}" for i, (a, b) in enumerate(zip(lines_a, lines_b)) if a != b]
    if len(lines_a) != len(lines_b):
        lines.append(f"  {len(lines_a)} lines -> {len(lines_b)} lines")
    return lines


def compare(dir_a: Path, dir_b: Path) -> int:
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    differs = False
    for name in sorted(names_a ^ names_b):
        print(f"only in {dir_a if name in names_a else dir_b}: {name}")
        differs = True
    for name in sorted(names_a & names_b):
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            print(f"{name}:")
            print("\n".join(compare_file(dir_a / name, dir_b / name) or ["  differs in whitespace only"]))
            differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("outdir", type=Path, nargs="?")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args()
    sys.exit(compare(*args.compare) if args.compare else run(args.outdir))
