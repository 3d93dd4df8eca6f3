"""Command-line surface: sweeps to CSV, sample-file evaluation, thresholds.

Every command is deterministic given its flags (including --seed).  Floats
are written with repr, i.e. the shortest string that parses back to the
same value, so emitted CSVs round-trip bit-identically.

Exit codes: 0 success, 2 configuration error, 3 resource cap exceeded,
4 input parse error.  `main` may be called repeatedly in one process; the
parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np

from .analytic import (
    THRESHOLDS,
    _superposition_xis,
    channel_affine_xi,
    classical_bound_grid,
    db,
    fidelity_bounds,
    gaussian_bound_grid,
    grid_squeezing_bounds_from_xi,
    loss_to_noise_variance,
    min_eta_for_band,
    xi_approx_symmetric,
    ApproxGKPParams,
)
from .estimator import (
    DEFAULT_ANGLE_TOLERANCE,
    SampleParseError,
    UnmeasurableGridError,
    _check_bootstrap,
    estimate_xi,
    load_samples,
    optimize_xi,
)
from .fock import ResourceCapError, _check_float_budget, _wigner_lattice, check_build_dim, wigner
from .operators import GridSpec, build_operator, build_operators, ground_state, ground_values, preset_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_PARSE = 4

_CSV_BLOCK = 2**15  # cells `_write_csv` formats and writes at a time

THRESHOLD_NOTES = [
    "q0 classical bound follows the vacuum Gaussian integral: with rows "
    "(sqrt(pi)/2) x and sqrt(pi) p it equals 2 - exp(-pi/4) - exp(-pi) "
    "~= 1.5008; the variant 2 - exp(-pi/2) - exp(-pi) ~= 1.7489 that "
    "sometimes circulates substitutes pi/2 for the squared row length "
    "pi/4 and is inconsistent with that integral.",
    "fault-tolerance constants are quoted to two significant figures and "
    "were derived for peak-superposition reference states; the bands are "
    "reported verbatim without claiming exactness.",
    "scaled-basis loss map: the ft-necessary band (xi <= 0.312) becomes "
    "unreachable below eta ~= 0.9025 (roughly 10% loss); the ft-guaranteed "
    "band (xi <= 0.135) below eta ~= 0.9574.",
]


def _fmt(value) -> str:
    # repr of a plain float is the shortest string that round-trips exactly;
    # numpy scalars must be coerced first (their repr carries the dtype).
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _six_places(value: float) -> str:
    """Six decimals inside [1e-3, 1e6), six significant digits in exponent form outside it."""
    return f"{value:.6f}" if 1e-3 <= value < 1e6 else f"{value:.6e}"


def _write_text(path: str | None, chunks) -> None:
    """Write each text chunk in turn to `path`, or to stdout when it is None or '-'."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _csv_block(columns, floats: list[int], start: int, stop: int) -> str:
    """Rows start..stop as CSV text: repr for the `floats` columns' cells, _fmt for the others'."""
    out = ([None, ","] * (len(columns) - 1) + [None, "\n"]) * (stop - start)
    # int64 bits keep 0.0 and -0.0 apart; every NaN reprs as "nan"
    bits = np.array([columns[i][start:stop] for i in floats]).view(np.int64)
    # below a few hundred cells np.unique costs more than the reprs it saves
    bits, inverse = np.unique(bits, return_inverse=True) if bits.size > 256 else (bits.ravel(), np.arange(bits.size))
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    cells = dict(zip(floats, texts[inverse.reshape(len(floats), stop - start)]))
    for i, column in enumerate(columns):
        out[2 * i :: 2 * len(columns)] = cells[i].tolist() if i in cells else map(_fmt, column[start:stop])
    return "".join(out)


def _write_csv(path, header, columns, preamble=()) -> None:
    """Write equal-length `columns` under '# ' preamble lines and `header`, _CSV_BLOCK cells at a time.

    A float64 array, or a list of floats, is written with repr, once per distinct
    bit pattern in a block past 256 such cells; any other cell goes through _fmt.
    """
    floats = [i for i, column in enumerate(columns) if (column.dtype == np.float64 if isinstance(column, np.ndarray)
                                                         else all(isinstance(v, float) for v in column))]
    head = "".join(f"# {line}\n" for line in preamble) + ",".join(header) + "\n"
    rows, step = len(columns[0]), _CSV_BLOCK // len(columns)
    blocks = (_csv_block(columns, floats, start, min(start + step, rows)) for start in range(0, rows, step))
    _write_text(path, itertools.chain([head], blocks))


def _grid_from_args(args) -> GridSpec:
    if getattr(args, "grid", None) is not None:
        c11, c12, c21, c22, d1, d2 = args.grid
        return GridSpec(c11, c12, c21, c22, d1=d1, d2=d2, label="custom")
    return preset_grid(args.topology)


def _grid_dict(grid: GridSpec) -> dict:
    return {**dataclasses.asdict(grid), "gkp_valid": grid.gkp_valid}


def _linspace_arg(flag: str, triple, repeats: int, columns: int) -> np.ndarray:
    """np.linspace of a START STOP COUNT flag, with finite values and a whole COUNT >= 1.

    The output holds COUNT * `repeats` rows of `columns` cells; that count
    must fit the float budget (`fock._check_float_budget`) before any array.
    """
    if not all(math.isfinite(value) for value in triple):
        raise ValueError(f"{flag} values must be finite, got {tuple(triple)!r}")
    start, stop, count = triple
    if count != int(count):
        raise ValueError(f"{flag} count must be a whole number, got {count!r}")
    if count < 1:
        raise ValueError(f"{flag} count must be >= 1")
    rows = count * repeats
    _check_float_budget(rows * columns, flag, f"{rows:.4g} rows of {columns} columns", f"use a smaller {flag} count")
    return np.linspace(start, stop, int(count))


def cmd_ground_sweep(args) -> int:
    dims = list(args.dims)
    if min(dims) < 1:
        raise ValueError(f"--dims must be >= 1, got {dims}")
    if dims != sorted(dims):
        raise ValueError("--dims must be ascending")
    # every name is checked before any Fock work
    grids = [preset_grid(name) for name in args.topology]
    # Each truncation is the exact compression of Q, hence the corner of
    # the largest one: build that once per grid and solve its corners.
    levels = [ground_values(largest, dim) for largest in build_operators(grids, dims[-1]) for dim in dims]
    xi_min, degeneracy = zip(*levels)
    names = [name for name in args.topology for _ in dims]
    columns = (names, dims * len(grids), xi_min, [db(xi) for xi in xi_min], degeneracy)
    _write_csv(args.output, ("topology", "N", "xi_min", "xi_min_db", "degeneracy"), columns)
    return EXIT_OK


def cmd_wigner(args) -> int:
    if not (math.isfinite(args.extent) and args.extent > 0.0):
        raise ValueError(f"--extent must be finite and > 0, got {args.extent!r}")
    if args.resolution < 1:
        raise ValueError(f"--resolution must be >= 1, got {args.resolution}")
    dim = args.dims[0]
    # `wigner`'s cap checks, from the spacing, extent and count, before any axis exists
    check_build_dim(dim)
    dx, p_max = (2.0 * args.extent / (args.resolution - 1), args.extent) if args.resolution > 1 else (None, 0.0)
    _wigner_lattice(dim, dx, p_max, args.resolution, args.resolution)
    grid = preset_grid(args.topology[0])
    gs = ground_state(build_operator(grid, dim))
    axis = np.linspace(-args.extent, args.extent, args.resolution) if args.resolution > 1 else np.array([0.0])
    values = wigner(gs.state, axis, axis)
    preamble = [f"topology={args.topology[0]} N={dim} extent={_fmt(float(args.extent))} "
                f"resolution={args.resolution} xi_min={_fmt(gs.xi_min)}"]
    columns = (np.tile(axis, axis.size), np.repeat(axis, axis.size), values.T.ravel())  # x varies fastest
    _write_csv(args.output, ("x", "p", "w"), columns, preamble)
    return EXIT_OK


def cmd_fidelity_sweep(args) -> int:
    f_values = _linspace_arg("--fidelity-grid", args.fidelity_grid, len(args.g), 9)
    count = f_values.size
    xi_exact, bounds = [], np.empty((2, len(args.g), count))
    for k, g in enumerate(args.g):  # each g is checked before its fidelities
        xi_exact.append(xi_approx_symmetric(g))
        bounds[:, k] = fidelity_bounds(f_values, g)
    s0 = preset_grid("s0")
    constants = (classical_bound_grid(s0), gaussian_bound_grid(s0), THRESHOLDS.ft_sufficient_xi0,
                 THRESHOLDS.ft_necessary_xi0)
    columns = (np.tile(f_values, len(args.g)), np.repeat(args.g, count), *bounds.reshape(2, -1),
               np.repeat(xi_exact, count), *(np.full(len(args.g) * count, value) for value in constants))
    header = ("f", "g", "xi_lower", "xi_upper", "xi_exact_state", "classical_bound", "gaussian_bound",
              "ft_guaranteed_xi", "ft_possible_xi")
    _write_csv(args.output, header, columns)
    return EXIT_OK


def cmd_channel_sweep(args) -> int:
    if not math.isfinite(args.nbar):
        raise ValueError(f"--nbar must be finite, got {args.nbar!r}")
    if args.nbar < 0:
        raise ValueError(f"--nbar must be >= 0, got {args.nbar!r}")
    xi_in_values = _linspace_arg("--xi-in", args.xi_in, len(args.eta), 4)
    count = xi_in_values.size
    variances, xi_out = [], np.empty((len(args.eta), count))
    for k, eta in enumerate(args.eta):
        variances.append(loss_to_noise_variance(eta) + args.nbar / eta)
        xi_out[k] = channel_affine_xi(xi_in_values, v=variances[-1])
    columns = (np.repeat(args.eta, count), np.repeat(variances, count), np.tile(xi_in_values, len(args.eta)),
               xi_out.ravel())
    preamble = [
        f"nbar={_fmt(float(args.nbar))}",
        f"eta_min_ft_guaranteed={_fmt(min_eta_for_band(THRESHOLDS.ft_sufficient_xi0))}",
        f"eta_min_ft_possible={_fmt(min_eta_for_band(THRESHOLDS.ft_necessary_xi0))}",
    ]
    _write_csv(args.output, ("eta", "v_equivalent", "xi_in", "xi_out"), columns, preamble)
    return EXIT_OK


def cmd_peaks_sweep(args) -> int:
    a = math.sqrt(math.pi / 2.0)
    pairs = [(g, s_max) for g in args.g for s_max in args.smax]
    for g, s_max in pairs:  # each pair's parameters, then its peak count, before any table
        ApproxGKPParams(g=g, a=a, s_max=s_max)
        check_build_dim(2 * s_max + 1)
    xi = [v for by_s in _superposition_xis(args.g, a, args.smax, 0, preset_grid("s0")) for v in by_s]
    _write_csv(args.output, ("g", "s_max", "xi"), (*zip(*pairs), xi))
    return EXIT_OK


def cmd_estimate(args) -> int:
    _check_bootstrap(args.bootstrap)  # before the samples are read and the optimizer runs
    samples = load_samples(args.input)
    report_dict: dict = {"schema_version": 1, "command": "estimate", "input": str(args.input)}
    if args.optimize:
        result = optimize_xi(
            samples,
            constrain_gkp_valid=args.gkp_valid,
            angle_tolerance=args.angle_tolerance,
        )
        report = result.report
        if args.bootstrap is not None:
            report = estimate_xi(samples, result.best_grid, args.angle_tolerance,
                                 bootstrap=args.bootstrap, seed=args.seed)
        report_dict.update(
            {
                "optimized": True,
                "m_gkp": result.m_gkp,
                "angles_used": list(result.angles_used),
                "notes": [result.note],
            }
        )
    else:
        grid = _grid_from_args(args)
        report = estimate_xi(samples, grid, args.angle_tolerance,
                             bootstrap=args.bootstrap, seed=args.seed)
        report_dict.update({"optimized": False, "m_gkp": None, "notes": []})
    report_dict["std_error_method"] = "bootstrap" if args.bootstrap else "delta"
    report_dict.update(
        {
            "xi": report.xi,
            "std_error": report.std_error,
            "xi_db": report.xi_db if math.isfinite(report.xi_db) else None,
            "grid": _grid_dict(report.grid),
            "classification": report.classification,
            "sample_counts": {repr(a): n for a, n in report.sample_counts.items()},
        }
    )
    _write_text(args.output, [json.dumps(report_dict, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


def cmd_thresholds(args) -> int:
    grid = _grid_from_args(args)
    try:
        classical = classical_bound_grid(grid)
        gaussian = gaussian_bound_grid(grid)
        bounds = grid_squeezing_bounds_from_xi(THRESHOLDS.ft_symmetric_xi0, grid)
    except ValueError as exc:
        if args.grid is None:
            raise
        raise ValueError(f"--grid {' '.join(map(repr, args.grid))}: {exc}") from exc
    gaussian_db = db(gaussian)  # -inf on a singular grid, whose floor is 0
    payload = {
        "schema_version": 1,
        "command": "thresholds",
        "grid": _grid_dict(grid),
        "classical_bound": classical,
        "classical_bound_db": db(classical),
        "gaussian_bound": gaussian,
        "gaussian_bound_db": gaussian_db if math.isfinite(gaussian_db) else None,
        "ft_sufficient_xi0": THRESHOLDS.ft_sufficient_xi0,
        "ft_sufficient_db": db(THRESHOLDS.ft_sufficient_xi0),
        "ft_necessary_xi0": THRESHOLDS.ft_necessary_xi0,
        "ft_necessary_db": db(THRESHOLDS.ft_necessary_xi0),
        "ft_symmetric_xi0": THRESHOLDS.ft_symmetric_xi0,
        "ft_symmetric_db": db(THRESHOLDS.ft_symmetric_xi0),
        "grid_ft_delta_sq": THRESHOLDS.grid_ft_delta_sq,
        "grid_ft_db": THRESHOLDS.grid_ft_db,
        "bound_formulas": {
            grid.label or "custom": [
                f"delta_{i}_sq(u={_six_places(2.0 * z)}) <= -ln(1 - xi) / {_six_places(z * z)}"
                for i, (z, _, _) in enumerate(grid.row_waves(), start=1)
            ],
        },
        "bounds_at_ft_symmetric": dataclasses.asdict(bounds),
        "notes": THRESHOLD_NOTES,
    }
    if args.json:
        _write_text(args.output, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
        return EXIT_OK
    lines = [
        f"grid: {grid.label or 'custom'} (gkp_valid={grid.gkp_valid})",
        f"classical bound: {classical:.6f} ({db(classical):+.2f} dB)",
        f"gaussian bound:  {gaussian:.6f} ({gaussian_db:+.2f} dB)",
        f"ft sufficient:   {THRESHOLDS.ft_sufficient_xi0:.3f} ({db(THRESHOLDS.ft_sufficient_xi0):+.2f} dB)",
        f"ft necessary:    {THRESHOLDS.ft_necessary_xi0:.3f} ({db(THRESHOLDS.ft_necessary_xi0):+.2f} dB)",
        f"ft symmetric:    {THRESHOLDS.ft_symmetric_xi0:.3f} ({db(THRESHOLDS.ft_symmetric_xi0):+.2f} dB)",
        f"grid ft band:    delta_sq <= {THRESHOLDS.grid_ft_delta_sq:.3f} ({THRESHOLDS.grid_ft_db:+.1f} dB)",
        "grid-squeezing bounds:",
    ]
    for name, formulas in payload["bound_formulas"].items():
        for f in formulas:
            lines.append(f"  {name}: {f}")
    lines.append("notes:")
    for note in THRESHOLD_NOTES:
        lines.append(f"  - {note}")
    _write_text(args.output, ["\n".join(lines) + "\n"])
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkpsq",
        description="Grid-state squeezing: operator sweeps, closed forms, sample estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground-sweep", help="minimal xi per topology and dimension, CSV")
    p.add_argument("--topology", nargs="+", default=["q0", "q1", "s0", "s1", "hex"])
    p.add_argument("--dims", type=int, nargs="+", required=True, help="ascending dimensions")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_ground_sweep)

    p = sub.add_parser("wigner", help="Wigner function of a ground state on a square grid, CSV")
    p.add_argument("--topology", nargs=1, default=["q0"])
    p.add_argument("--dims", type=int, nargs=1, required=True)
    p.add_argument("--extent", type=float, default=6.0, help="half-width of the grid")
    p.add_argument("--resolution", type=int, default=81, help="points per axis")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("fidelity-sweep", help="squeezing bounds versus fidelity, CSV")
    p.add_argument("--g", type=float, nargs="+", required=True, help="peak variances")
    p.add_argument("--fidelity-grid", type=float, nargs=3, default=(0.0, 1.0, 101),
                   metavar=("START", "STOP", "COUNT"))
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fidelity_sweep)

    p = sub.add_parser("channel-sweep", help="scaled-basis loss map xi_in -> xi_out, CSV")
    p.add_argument("--eta", type=float, nargs="+", required=True, help="transmissions")
    p.add_argument("--nbar", type=float, default=0.0, help="added thermal photons")
    p.add_argument("--xi-in", type=float, nargs=3, default=(0.0, 2.0, 81),
                   metavar=("START", "STOP", "COUNT"))
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_channel_sweep)

    p = sub.add_parser("peaks-sweep", help="squeezing of finite peak superpositions, CSV")
    p.add_argument("--g", type=float, nargs="+", required=True)
    p.add_argument("--smax", type=int, nargs="+", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_peaks_sweep)

    p = sub.add_parser("estimate", help="evaluate a homodyne sample file, JSON report")
    p.add_argument("--input", required=True, help="CSV with header angle,value")
    p.add_argument("--topology", default="s0", help="preset grid to evaluate")
    p.add_argument("--grid", type=float, nargs=6, default=None,
                   metavar=("C11", "C12", "C21", "C22", "D1", "D2"))
    p.add_argument("--optimize", action="store_true", help="minimize over measured-angle grids")
    p.add_argument("--no-gkp-valid", dest="gkp_valid", action="store_false")
    p.add_argument("--restarts", type=int, default=None,
                   help="accepted and ignored: the optimizer is a fixed scan with closed-form offsets")
    p.add_argument("--angle-tolerance", type=float, default=DEFAULT_ANGLE_TOLERANCE)
    p.add_argument("--bootstrap", type=int, default=None,
                   help="resample count for bootstrap error bars (default: delta method)")
    p.add_argument("--seed", type=int, default=0, help="bootstrap resampling seed")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("thresholds", help="classification constants and bound formulas")
    p.add_argument("--topology", default="q0")
    p.add_argument("--grid", type=float, nargs=6, default=None,
                   metavar=("C11", "C12", "C21", "C22", "D1", "D2"))
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_thresholds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_CONFIG
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SampleParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, UnmeasurableGridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
