import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gkpsq.analytic import THRESHOLDS
from gkpsq import analytic, cli, estimator, fock
from gkpsq.cli import main
from gkpsq.estimator import (
    QuadratureSamples,
    estimate_xi,
    load_samples,
    optimize_xi,
    save_samples,
    synthesize_samples,
)
from gkpsq.fock import FockState, wigner
from gkpsq.operators import build_operator, ground_state, preset_grid
from oracles import symmetric_root_bisect


def read_csv(path):
    preamble, rows = [], []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            preamble.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return preamble, header, rows


def test_ground_sweep_csv(tmp_path):
    out = tmp_path / "gs.csv"
    code = main(["ground-sweep", "--topology", "q0", "s1", "--dims", "1", "3", "5",
                 "--output", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["topology", "N", "xi_min", "xi_min_db", "degeneracy"]
    assert len(rows) == 6
    # dimension-1 rows equal the classical floor of each topology
    per_topology = {}
    for topo, n, xi, xi_db, degeneracy in rows:
        per_topology.setdefault(topo, []).append((int(n), float(xi)))
        assert int(degeneracy) >= 1
    q0_one = dict(per_topology["q0"])[1]
    assert q0_one == pytest.approx(2 - math.exp(-math.pi / 4) - math.exp(-math.pi), abs=1e-8)
    for topo, pairs in per_topology.items():
        xis = [xi for _, xi in sorted(pairs)]
        assert all(a >= b - 1e-12 for a, b in zip(xis, xis[1:]))  # non-increasing


def test_csv_roundtrip_precision(tmp_path):
    out = tmp_path / "gs.csv"
    main(["ground-sweep", "--topology", "s0", "--dims", "4", "--output", str(out)])
    _, _, rows = read_csv(out)
    for row in rows:
        for field in row[2:4]:
            assert repr(float(field)) == field  # shortest round-trip form


def test_ground_sweep_rejects_unsorted_dims(tmp_path):
    code = main(["ground-sweep", "--topology", "q0", "--dims", "5", "3",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("dims", [["0", "5"], ["-1", "5"]])
def test_ground_sweep_rejects_nonpositive_dims(tmp_path, capsys, dims):
    assert main(["ground-sweep", "--topology", "q0", "--dims", *dims,
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert "--dims" in capsys.readouterr().err


def test_ground_sweep_corners_match_direct_builds(tmp_path):
    out = tmp_path / "gs.csv"
    dims = (1, 3, 5, 10, 20, 50)
    assert main(["ground-sweep", "--dims", *map(str, dims), "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 5 * len(dims)
    for topo, n, xi, _, degeneracy in rows:
        direct = ground_state(build_operator(preset_grid(topo), int(n)))
        assert abs(float(xi) - direct.xi_min) <= 1e-13, (topo, n)
        assert int(degeneracy) == direct.degeneracy


def test_ground_sweep_checks_every_topology_before_any_fock_work(tmp_path, capsys):
    out = tmp_path / "gs.csv"
    with mock.patch.object(fock, "hermite_functions", wraps=fock.hermite_functions) as tables:
        code = main(["ground-sweep", "--topology", "q0", "nosuch", "--dims", "2000", "--output", str(out)])
    assert code == 2
    assert "nosuch" in capsys.readouterr().err
    assert tables.call_count == 0
    assert not out.exists()


def test_readme_ground_sweep_reads_one_table_per_row_length_and_no_eigenvectors(tmp_path):
    # four row lengths (q1 reads q0's two, s1 reads s0's one, hex's equal rows
    # one), all tabulated side by side by one Hermite call
    with mock.patch.object(fock, "hermite_functions", wraps=fock.hermite_functions) as tables, \
            mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        assert main(["ground-sweep", "--topology", "q0", "q1", "s0", "s1", "hex",
                     "--dims", "3", "5", "10", "20", "50", "--output", str(tmp_path / "gs.csv")]) == 0
    assert tables.call_count == 1
    assert solve.call_count == 0  # eigenvectors come from `ground_state`'s solves alone


def test_wigner_single_point(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["wigner", "--topology", "q0", "--dims", "5", "--resolution", "1",
                 "--output", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["x", "p", "w"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0


def test_wigner_normalization_and_negativity(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["wigner", "--topology", "q0", "--dims", "5", "--extent", "5.5",
                 "--resolution", "45", "--output", str(out)])
    assert code == 0
    preamble, _, rows = read_csv(out)
    assert any("topology=q0" in line for line in preamble)
    w = np.array([float(r[2]) for r in rows])
    xs = sorted({float(r[0]) for r in rows})
    step = xs[1] - xs[0]
    assert w.sum() * step * step == pytest.approx(1.0, abs=1e-2)
    assert w.min() < 0.0  # non-Gaussian ground state


def test_wigner_csv_rows_run_p_outer_x_inner(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--topology", "q0", "--dims", "6", "--extent", "2",
                 "--resolution", "5", "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    axis = np.linspace(-2.0, 2.0, 5)
    w = wigner(ground_state(build_operator(preset_grid("q0"), 6)).state, axis, axis)
    expected = [[repr(float(x)), repr(float(p)), repr(float(w[i, j]))]
                for j, p in enumerate(axis) for i, x in enumerate(axis)]
    assert rows == expected


def test_wigner_csv_bytes_match_per_cell_formatting(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--topology", "q0", "--dims", "20", "--extent", "6",
                 "--resolution", "81", "--output", str(out)]) == 0
    gs = ground_state(build_operator(preset_grid("q0"), 20))
    axis = np.linspace(-6.0, 6.0, 81)
    w = wigner(gs.state, axis, axis)
    lines = [f"# topology=q0 N=20 extent=6.0 resolution=81 xi_min={cli._fmt(gs.xi_min)}", "x,p,w"]
    lines += [",".join(cli._fmt(v) for v in (x, p, w[i, j])) for j, p in enumerate(axis) for i, x in enumerate(axis)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def per_cell_csv(header, columns, preamble=()) -> str:
    """The CSV text of `columns` with every cell formatted on its own by `cli._fmt`."""
    lines = [f"# {line}" for line in preamble] + [",".join(header)]
    lines += [",".join(cli._fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


# NaNs of either sign, quiet and signalling, with different payloads: each
# is its own int64 bit pattern, and every one must still read "nan".
NAN_PAYLOADS = np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64).tolist()
# Values that share a repr, differ only in sign, never compare equal, sit at
# the float range's ends, or are not plain floats.
csv_floats = st.sampled_from([0.1, 1 / 3, -2.5, 5e-324, -5e-324, math.inf, -math.inf, 1e308, *NAN_PAYLOADS])
csv_values = st.one_of(
    csv_floats,
    st.floats(allow_nan=True),
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(),
    st.booleans(),
    st.text(max_size=4),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.1]), csv_floats, csv_values, csv_values), max_size=25),
    repeat=st.sampled_from([1, 20]),
    preamble=st.lists(st.text(alphabet="abc= 0.1", max_size=8), max_size=2),
)
def test_write_csv_bytes_match_per_cell_formatting(tmp_path, rows, repeat, preamble):
    # a list of floats, a float64 array and two mixed lists; 20 repeats put
    # the float cells past the size at which a block reprs each distinct value once
    zero, floats, u, v = ([list(column) * repeat for column in zip(*rows)] if rows else [[], [], [], []])
    columns = (zero, np.array(floats, dtype=np.float64), u, v)
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), ("zero", "float", "u", "v"), columns, preamble)
    assert out.read_bytes() == per_cell_csv(("zero", "float", "u", "v"), columns, preamble).encode()


@pytest.mark.parametrize("blocks", [0, 1, 3])
def test_write_csv_streams_whole_blocks_with_per_cell_bytes(tmp_path, blocks):
    # 0 rows, one full block, and 2 blocks plus one row: every seam must match per-cell formatting
    step = cli._CSV_BLOCK // 4
    rows = {0: 0, 1: step, 3: 2 * step + 1}[blocks]
    pattern = np.array([0.0, -0.0, 0.1, 1 / 3, math.inf, -math.inf, 5e-324, *NAN_PAYLOADS])
    columns = (np.resize(pattern, rows), np.resize(pattern[::-1], rows).tolist(), list(range(rows)),
               [("a", True, np.float64(-0.0))[i % 3] for i in range(rows)])
    out = tmp_path / "blocks.csv"
    with mock.patch.object(cli, "_csv_block", wraps=cli._csv_block) as block:
        cli._write_csv(str(out), ("a", "b", "n", "s"), columns, ["seams"])
    assert block.call_count == blocks
    assert out.read_bytes() == per_cell_csv(("a", "b", "n", "s"), columns, ["seams"]).encode()


@pytest.mark.parametrize("path", [None, "-"])
def test_write_csv_to_stdout(capsys, path):
    columns = (np.array([0.5, -0.0, math.nan]), [1, 2, 3], ["x", "y", "z"])
    cli._write_csv(path, ("w", "n", "s"), columns, ["stdout"])
    assert capsys.readouterr().out == per_cell_csv(("w", "n", "s"), columns, ["stdout"])


def test_fidelity_sweep_peak_is_under_twice_its_counted_floats(tmp_path):
    # 1e5 rows of 9 float64 cells are what the float budget counts; the
    # columns plus one block of text must stay under twice that
    out = tmp_path / "f.csv"
    tracemalloc.start()
    try:
        code = main(["fidelity-sweep", "--g", "0.1", "--fidelity-grid", "0", "1", "100000", "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 8 * 9 * 100000


@pytest.mark.parametrize("flags, named", [
    (["--extent", "nan"], "--extent"),
    (["--extent", "inf"], "--extent"),
    (["--extent", "0", "--resolution", "3"], "--extent"),
    (["--extent", "-3"], "--extent"),
    (["--resolution", "0"], "--resolution"),
])
def test_wigner_rejects_bad_grid_before_fock_work(tmp_path, monkeypatch, capsys, flags, named):
    def no_fock_work(*args, **kwargs):
        raise AssertionError("ground state built before the grid was checked")

    monkeypatch.setattr(cli, "build_operator", no_fock_work)
    out = tmp_path / "w.csv"
    assert main(["wigner", "--dims", "5", *flags, "--output", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_wigner_resource_cap_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "4")
    assert main(["wigner", "--dims", "5", "--output", str(tmp_path / "w.csv")]) == 3
    # N = 5 fits the cap, but one x row's phases for 401 p values do not
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "20")
    assert main(["wigner", "--dims", "5", "--resolution", "401",
                 "--output", str(tmp_path / "w.csv")]) == 3


def test_wigner_output_past_the_budget_exits_before_any_axis(tmp_path, capsys, monkeypatch):
    # at cap 100 one x row fits, but the 401 x 401 output alone exceeds the 150000 floats
    def no_fock_work(*args):
        raise AssertionError("ground state built past the budget")

    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "100")
    monkeypatch.setattr(cli, "build_operator", no_fock_work)
    out = tmp_path / "w.csv"
    tracemalloc.start()
    try:
        code = main(["wigner", "--dims", "5", "--extent", "20.5", "--resolution", "401", "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and not out.exists()
    assert "floats for one x row and the output" in capsys.readouterr().err
    assert peak < 10**5


def test_wigner_cap_fires_before_any_axis(tmp_path):
    # 10^6 points per axis: the axis alone would be 8 MB, its checks 24 bytes per point
    out = tmp_path / "w.csv"
    tracemalloc.start()
    try:
        code = main(["wigner", "--dims", "20", "--resolution", str(10**6), "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and not out.exists()
    assert peak < 2 * 10**6


@pytest.mark.parametrize("extent", ["1e12", "1e20", "1e200", "1e300"])
def test_wigner_extreme_extent_exits_on_the_cap(tmp_path, capsys, extent):
    out = tmp_path / "w.csv"
    assert main(["wigner", "--dims", "5", "--extent", extent, "--resolution", "3", "--output", str(out)]) == 3
    assert "floats for one x row" in capsys.readouterr().err
    assert not out.exists()


def test_fidelity_sweep(tmp_path):
    out = tmp_path / "f.csv"
    code = main(["fidelity-sweep", "--g", "0.1", "--fidelity-grid", "0", "1", "5",
                 "--output", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    xi1 = 2 - 2 * math.exp(-math.pi * 0.1 / 2)
    first = rows[0]
    assert float(first[0]) == 0.0
    assert (float(first[2]), float(first[3])) == (0.0, 4.0)
    last = rows[-1]
    assert float(last[0]) == 1.0
    assert float(last[2]) == pytest.approx(xi1, abs=1e-12)
    assert float(last[3]) == pytest.approx(xi1, abs=1e-12)
    assert "classical_bound" in header and "gaussian_bound" in header


@pytest.mark.parametrize("gs, error", [
    (["0.1", "nan"], "error: fidelity must be in [0, 1], got -0.5\n"),
    (["nan", "0.1"], "error: need finite g > 0, got nan\n"),
])
def test_fidelity_sweep_checks_each_g_before_its_fidelities(tmp_path, capsys, gs, error):
    out = tmp_path / "f.csv"
    assert main(["fidelity-sweep", "--g", *gs, "--fidelity-grid", "-0.5", "1", "3", "--output", str(out)]) == 2
    assert capsys.readouterr().err == error
    assert not out.exists()


def test_fidelity_sweep_works_out_the_exact_state_xi_per_g_not_per_row(tmp_path):
    spy = mock.Mock(wraps=analytic.xi_approx_symmetric)
    with mock.patch.object(cli, "xi_approx_symmetric", spy), mock.patch.object(analytic, "xi_approx_symmetric", spy):
        code = main(["fidelity-sweep", "--g", "0.1", "--fidelity-grid", "0", "1", "100000",
                     "--output", str(tmp_path / "f.csv")])
    assert code == 0
    assert spy.call_count <= 2


def test_channel_sweep(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["channel-sweep", "--eta", "1.0", "0.9", "--xi-in", "0", "1", "3",
                 "--output", str(out)])
    assert code == 0
    preamble, _, rows = read_csv(out)
    annotations = dict(line.split("=") for line in preamble)
    assert float(annotations["eta_min_ft_possible"]) == pytest.approx(0.9025495, abs=1e-6)
    assert float(annotations["eta_min_ft_guaranteed"]) == pytest.approx(0.9574042, abs=1e-6)
    for eta, v, xi_in, xi_out in ((float(x) for x in row) for row in rows):
        if eta == 1.0:
            assert xi_out == xi_in
        else:
            assert v == pytest.approx(0.0555556, abs=1e-6)
    lossy = [row for row in rows if float(row[0]) == 0.9]
    assert float(lossy[0][3]) == pytest.approx(0.3203016, abs=1e-6)


@pytest.mark.parametrize("flags, named", [
    (["--nbar", "nan"], "--nbar"),
    (["--nbar", "inf"], "--nbar"),
    (["--xi-in", "0", "nan", "3"], "--xi-in"),
    (["--xi-in", "inf", "2", "3"], "--xi-in"),
    (["--xi-in", "0", "2", "inf"], "--xi-in"),
    (["--nbar", "-0.2"], "--nbar"),
])
def test_channel_sweep_rejects_non_finite_values(tmp_path, capsys, flags, named):
    out = tmp_path / "c.csv"
    assert main(["channel-sweep", "--eta", "0.9", *flags, "--output", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["fidelity-sweep", "--g", "nan", "--fidelity-grid", "0", "1", "2"], "finite g > 0"),
    (["fidelity-sweep", "--g", "0.1", "--fidelity-grid", "0", "1", "inf"], "--fidelity-grid"),
    (["peaks-sweep", "--g", "nan", "--smax", "1"], "finite g > 0"),
    (["peaks-sweep", "--g", "inf", "--smax", "1"], "finite g > 0"),
])
def test_closed_form_sweeps_reject_non_finite_values(tmp_path, capsys, argv, named):
    out = tmp_path / "s.csv"
    assert main([*argv, "--output", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    (["fidelity-sweep", "--g", "0.1"], "--fidelity-grid"),
    (["channel-sweep", "--eta", "0.9"], "--xi-in"),
])
def test_sweep_count_must_be_a_whole_number(tmp_path, capsys, command, flag):
    out = tmp_path / "s.csv"
    assert main([*command, flag, "0", "1", "2.9", "--output", str(out)]) == 2
    assert f"{flag} count must be a whole number" in capsys.readouterr().err
    assert not out.exists()
    # a whole COUNT written as a float is accepted, with the same bytes
    whole, as_float = tmp_path / "whole.csv", tmp_path / "float.csv"
    assert main([*command, flag, "0", "1", "3", "--output", str(whole)]) == 0
    assert main([*command, flag, "0", "1", "3.0", "--output", str(as_float)]) == 0
    assert as_float.read_bytes() == whole.read_bytes()


def test_peaks_sweep(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["peaks-sweep", "--g", "0.1", "--smax", "0", "2", "4", "6",
                 "--output", str(out)])
    assert code == 0
    _, _, rows = read_csv(out)
    xis = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(xis, xis[1:]))  # more peaks approach the ideal
    assert xis[-1] == pytest.approx(2 - 2 * math.exp(-math.pi * 0.1 / 2), abs=1e-6)


@pytest.mark.parametrize("cap", [None, "50"])
def test_peaks_sweep_past_the_cap_exits_before_any_array(tmp_path, monkeypatch, capsys, cap):
    def no_arrays(*args, **kwargs):
        raise AssertionError("peak array built past the cap")

    if cap is None:
        monkeypatch.delenv("GKPSQ_MAX_BUILD_DIM", raising=False)
    else:
        monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", cap)
    monkeypatch.setattr(np, "arange", no_arrays)
    out = tmp_path / "p.csv"
    assert main(["peaks-sweep", "--g", "0.1", "--smax", "100000", "--output", str(out)]) == 3
    assert f"dimension 200001 exceeds cap {cap or 2000}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, fits", [
    (["fidelity-sweep", "--g", "0.1", "--fidelity-grid", "0", "1"], "1"),  # 9 cells per row
    (["fidelity-sweep", "--g", "0.1", "0.2", "--fidelity-grid", "0", "1"], None),
    (["channel-sweep", "--eta", "0.9", "--xi-in", "0", "2"], "3"),  # 4 cells per row
    (["channel-sweep", "--eta", "0.9", "0.8", "--xi-in", "0", "2"], "1"),
])
@pytest.mark.parametrize("count", ["1000", "1e300"])
def test_sweep_counts_past_the_budget_exit_before_any_array(tmp_path, monkeypatch, capsys, argv, fits, count):
    # cap 1 allows 15 floats: COUNT times the repeats times the columns must fit
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "1")
    out = tmp_path / "s.csv"
    if fits is not None:
        assert main([*argv, fits, "--output", str(out)]) == 0
        out.unlink()
    with mock.patch.object(np, "linspace", wraps=np.linspace) as linspace:
        tracemalloc.start()
        try:
            code = main([*argv, count, "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 3 and not out.exists()
    assert linspace.call_count == 0
    assert "rows of" in capsys.readouterr().err
    assert peak < 10**5


def test_estimate_bootstrap_past_the_budget_exits_3(tmp_path, monkeypatch, capsys):
    samples = synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 200, seed=5)
    path = tmp_path / "vac.csv"
    save_samples(samples, path)
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "1")
    out = tmp_path / "e.json"
    assert main(["estimate", "--input", str(path), "--bootstrap", "16", "--output", str(out)]) == 3
    assert "16 bootstrap resamples" in capsys.readouterr().err
    assert not out.exists()
    assert main(["estimate", "--input", str(path), "--bootstrap", "15", "--output", str(out)]) == 0


@pytest.mark.parametrize("count, cap, code", [("1", None, 2), ("16", "1", 3)])
def test_estimate_bootstrap_count_is_checked_before_the_optimizer(tmp_path, monkeypatch, count, cap, code):
    samples = synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 200, seed=5)
    path = tmp_path / "vac.csv"
    save_samples(samples, path)
    if cap is not None:
        monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", cap)
    out = tmp_path / "e.json"
    with mock.patch.object(cli, "optimize_xi", wraps=cli.optimize_xi) as optimizer:
        assert main(["estimate", "--input", str(path), "--optimize", "--bootstrap", count, "--output", str(out)]) == code
    assert optimizer.call_count == 0
    assert not out.exists()


def test_estimate_command_vacuum(tmp_path):
    # same seed/size as the estimator test: the point estimate lands above
    # the classical bound, which vacuum sits exactly on
    samples = synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 10**5, seed=1236)
    path = tmp_path / "vac.csv"
    save_samples(samples, path)
    out = tmp_path / "report.json"
    code = main(["estimate", "--input", str(path), "--topology", "s0", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["classification"] == "none"
    assert report["m_gkp"] is None
    assert abs(report["xi"] - (2 - 2 * math.exp(-math.pi / 2))) < 4 * report["std_error"]
    assert set(report["sample_counts"].values()) == {10**5}


def test_estimate_command_ground_state(tmp_path):
    gs = ground_state(build_operator(preset_grid("q0"), 50))
    samples = synthesize_samples(gs.state, [0.0, math.pi / 2], 10**5, seed=33)
    path = tmp_path / "gs.csv"
    save_samples(samples, path)
    out = tmp_path / "report.json"
    code = main(["estimate", "--input", str(path), "--topology", "q0", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    # a non-Gaussianity witness at minimum; the point estimate usually lands
    # in a stronger band, so accept any of them
    assert report["classification"] in {"sub-Gaussian", "ft-possible", "ft-guaranteed"}
    assert report["xi"] + 3 * report["std_error"] < 1.0


def test_estimate_command_optimize(tmp_path):
    samples = synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 10**4, seed=40)
    path = tmp_path / "vac.csv"
    save_samples(samples, path)
    out = tmp_path / "report.json"
    code = main(["estimate", "--input", str(path), "--optimize", "--restarts", "4",
                 "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["optimized"] is True
    assert report["m_gkp"] == pytest.approx(-math.log(report["xi"]), abs=1e-9)
    assert report["grid"]["gkp_valid"] is True
    assert report["notes"]


def test_estimate_optimize_with_bootstrap_error_bar(tmp_path):
    # --bootstrap keeps the optimizer's grid and estimate and only swaps the
    # error bar for a resampled one on that grid
    save_samples(synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 2000, seed=44),
                 tmp_path / "vac.csv")
    reports = []
    for flags in ([], ["--bootstrap", "200", "--seed", "1"]):
        out = tmp_path / "report.json"
        assert main(["estimate", "--input", str(tmp_path / "vac.csv"), "--optimize", *flags,
                     "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    delta, boot = reports
    for key in ("grid", "xi", "m_gkp", "angles_used"):
        assert boot[key] == delta[key]
    assert (delta["std_error_method"], boot["std_error_method"]) == ("delta", "bootstrap")
    samples = load_samples(tmp_path / "vac.csv")
    best_grid = optimize_xi(samples).best_grid
    assert boot["std_error"] == estimate_xi(samples, best_grid, bootstrap=200, seed=1).std_error


def test_unconstrained_optimize_on_vacuum_is_not_fault_tolerant(tmp_path):
    # the free scales shrink the grid until the vacuum sits near both floors;
    # the ft bands belong to GKP-valid grids and must not be reported here
    samples = synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 2 * 10**4, seed=5)
    path = tmp_path / "vac.csv"
    save_samples(samples, path)
    out = tmp_path / "report.json"
    assert main(["estimate", "--input", str(path), "--optimize", "--no-gkp-valid",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["grid"]["gkp_valid"] is False
    assert report["xi"] < THRESHOLDS.ft_sufficient_xi0
    assert report["classification"] in {"none", "sub-classical"}


def test_no_gkp_valid_reaches_optimizer(tmp_path, monkeypatch):
    import gkpsq.cli as cli

    seen = []
    real = cli.optimize_xi

    def spy(samples, **kwargs):
        seen.append(kwargs["constrain_gkp_valid"])
        return real(samples, **kwargs)

    monkeypatch.setattr(cli, "optimize_xi", spy)
    samples = synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 2000, seed=41)
    path = tmp_path / "vac.csv"
    save_samples(samples, path)
    args = ["estimate", "--input", str(path), "--optimize", "--restarts", "1",
            "--output", str(tmp_path / "report.json")]
    assert main(args + ["--no-gkp-valid"]) == 0
    assert main(args) == 0
    assert seen == [False, True]
    # the redundant store-true spelling is gone
    assert main(args + ["--gkp-valid"]) == 2
    assert seen == [False, True]


def test_estimate_rejects_near_duplicate_records(tmp_path):
    vac = synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 500, seed=42)
    samples = QuadratureSamples([vac.records[0], (5e-7, np.zeros(500)), vac.records[1]])
    path = tmp_path / "dup.csv"
    save_samples(samples, path)
    for extra in ([], ["--optimize"]):
        assert main(["estimate", "--input", str(path), "--topology", "q0",
                     "--output", str(tmp_path / "r.json")] + extra) == 2


@pytest.mark.parametrize("tolerance", ["nan", "-0.5", "inf"])
@pytest.mark.parametrize("extra", [[], ["--optimize"]], ids=["plain", "optimize"])
def test_estimate_rejects_an_invalid_angle_tolerance_before_any_scan(tmp_path, capsys, tolerance, extra):
    path, out = tmp_path / "vac.csv", tmp_path / "r.json"
    save_samples(synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 200, seed=7), path)
    with mock.patch.object(estimator, "_scan", wraps=estimator._scan) as scan:
        code = main(["estimate", "--input", str(path), "--angle-tolerance", tolerance, "--output", str(out)] + extra)
    assert code == 2 and scan.call_count == 0 and not out.exists()
    assert f"angle_tolerance must be finite and >= 0, got {float(tolerance)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--bootstrap", "50"], ["--optimize"],
                                   ["--grid", "1", "0", "0", "1", "1e308", "0"]],
                         ids=["plain", "bootstrap", "optimize", "offset"])
def test_estimate_rejects_samples_that_overflow(tmp_path, capsys, extra):
    # s0 reads angle 0 at frequency sqrt(pi/2), the optimizer's grid at 2z
    # > 1.06, and the custom grid at 1 with offset 1e308, so 1.7e308 overflows
    # each phase: exit 2 naming the record, no NaN report and no numpy warning
    path = tmp_path / "huge.csv"
    path.write_text("angle,value\n0.0,0.25\n0,1.7e308\n0,-1.6e308\n1.5707963267948966,0.5\n"
                    "1.5707963267948966,-0.3\n0.0,-0.1\n")
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--input", str(path), "--topology", "s0", "--output", str(out)] + extra)
    assert code == 2
    assert not caught
    assert not out.exists()
    err = capsys.readouterr().err
    assert "samples at angle 0.0 reach magnitude 1.7e+308, which overflows the phase" in err


@pytest.mark.parametrize("huge_first", [True, False], ids=["huge-first", "huge-last"])
def test_optimize_rejects_an_overflowing_record_in_either_order(tmp_path, capsys, huge_first):
    # angle 0's record overflows high in every pair's box, so it is rejected
    # before any pair is scanned, whether its rows open or close the file
    huge = "0.0,0.25\n0.0,1.7e308\n"
    rest = "1.0471975511965976,0.5\n1.0471975511965976,-0.3\n1.5707963267948966,0.2\n1.5707963267948966,-0.1\n"
    path, out = tmp_path / "huge.csv", tmp_path / "r.json"
    path.write_text("angle,value\n" + (huge + rest if huge_first else rest + huge))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--input", str(path), "--optimize", "--output", str(out)])
    assert code == 2
    assert not caught
    assert not out.exists()
    assert "samples at angle 0.0 reach magnitude 1.7e+308, which overflows the phase" in capsys.readouterr().err


def test_estimate_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("angle,value\n0.0,nope\n")
    assert main(["estimate", "--input", str(bad)]) == 4
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["estimate", "--input", str(empty)]) == 4
    assert main(["estimate", "--input", str(tmp_path / "missing.csv")]) == 4


def test_config_error_exit_codes(tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["ground-sweep", "--topology", "nope", "--dims", "3",
                 "--output", str(tmp_path / "x.csv")]) == 2


def test_resource_cap_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "50")
    assert main(["ground-sweep", "--topology", "q0", "--dims", "60",
                 "--output", str(tmp_path / "x.csv")]) == 3


def test_oversample_flag_is_rejected(tmp_path):
    assert main(["ground-sweep", "--topology", "q0", "--dims", "3", "--oversample", "10",
                 "--output", str(tmp_path / "x.csv")]) == 2


def test_thresholds_json(tmp_path):
    out = tmp_path / "t.json"
    code = main(["thresholds", "--topology", "q0", "--json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ft_sufficient_xi0"] == 0.135
    assert payload["ft_sufficient_db"] == pytest.approx(-8.70, abs=0.01)
    assert payload["ft_necessary_db"] == pytest.approx(-5.06, abs=0.01)
    assert payload["ft_symmetric_db"] == pytest.approx(-11.67, abs=0.05)
    assert payload["classical_bound"] == pytest.approx(
        2 - math.exp(-math.pi / 4) - math.exp(-math.pi), abs=1e-12
    )
    assert payload["notes"]  # the bound-variant discrepancy is documented
    assert any("exp(-pi/2)" in note for note in payload["notes"])


def test_thresholds_text(capsys):
    assert main(["thresholds", "--topology", "s0"]) == 0
    text = capsys.readouterr().out
    assert "classical bound: 1.584241" in text
    assert "-8.70 dB" in text
    assert "notes:" in text


def test_thresholds_bounds_follow_requested_grid(tmp_path):
    out = tmp_path / "t.json"
    assert main(["thresholds", "--topology", "hex", "--json", "--output", str(out)]) == 0
    bounds = json.loads(out.read_text())["bounds_at_ft_symmetric"]
    assert bounds["grid"] == "hex"
    # both hex rows have squared length pi / sqrt(3)
    expected = -math.log1p(-0.068) * math.sqrt(3.0) / math.pi
    assert bounds["max_delta_x_sq"] == pytest.approx(expected, rel=1e-12)
    assert bounds["max_delta_p_sq"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "grid",
    [
        ("1e200", "0", "0", "1e-200", "0", "0"),  # squares overflow and underflow
        ("1e-160", "0", "0", "1", "0", "0"),  # a subnormal square puts its bound past the float range
        ("1.2e154", "1.2e154", "0", "1", "0", "0"),  # the sum of squares overflows
    ],
)
def test_thresholds_rejects_extreme_rows(grid, capsys):
    assert main(["thresholds", "--grid", *grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --grid ") and "NaN" not in err


def test_thresholds_solves_rows_far_apart(tmp_path):
    # squared lengths 1e-200 and 1e200: the symmetric root needs no bracket
    out = tmp_path / "t.json"
    assert main(["thresholds", "--grid", "1e-100", "0", "0", "1e100", "0", "0", "--json", "--output", str(out)]) == 0
    ref = symmetric_root_bisect(1e-100**2, 1e100**2, THRESHOLDS.ft_symmetric_xi0)
    got = json.loads(out.read_text())["bounds_at_ft_symmetric"]["symmetric_delta_sq"]
    assert abs(got - ref) <= 4.0 * math.ulp(ref)


def test_thresholds_formulas_print_tiny_and_huge_rows_in_exponent_form(tmp_path):
    # fixed-point would print a division by 0.000000 and a 200-digit divisor
    grid = ["--grid", "1e-100", "0", "0", "1e100", "0", "0"]
    formulas = [
        "delta_1_sq(u=2.000000e-100) <= -ln(1 - xi) / 1.000000e-200",
        "delta_2_sq(u=2.000000e+100) <= -ln(1 - xi) / 1.000000e+200",
    ]
    assert main(["thresholds", *grid, "--json", "--output", str(tmp_path / "t.json")]) == 0
    assert json.loads((tmp_path / "t.json").read_text())["bound_formulas"] == {"custom": formulas}
    assert main(["thresholds", *grid, "--output", str(tmp_path / "t.txt")]) == 0
    lines = (tmp_path / "t.txt").read_text().splitlines()
    assert [line for line in lines if "delta_" in line and "sq(" in line] == [f"  custom: {f}" for f in formulas]
    # the switch sits at 1e-3 and 1e6: u = 2z and z^2 straddle it on these rows
    assert main(["thresholds", "--grid", "0.001", "0", "0", "1000", "0", "0", "--json",
                 "--output", str(tmp_path / "e.json")]) == 0
    assert json.loads((tmp_path / "e.json").read_text())["bound_formulas"] == {"custom": [
        "delta_1_sq(u=0.002000) <= -ln(1 - xi) / 1.000000e-06",
        "delta_2_sq(u=2000.000000) <= -ln(1 - xi) / 1.000000e+06",
    ]}


def test_thresholds_report_the_requested_grid(tmp_path):
    out = tmp_path / "t.json"
    assert main(["thresholds", "--grid", "0.5", "0", "0", "0.5", "0", "0", "--json",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    # |det| = 1/4 < ln 2: the Gaussian floor drops below 1; on these equal
    # orthogonal rows the vacuum is the best Gaussian state
    assert payload["gaussian_bound"] == pytest.approx(2 - 2 * math.exp(-0.25), abs=1e-12)
    assert payload["gaussian_bound"] == pytest.approx(payload["classical_bound"], abs=1e-12)
    assert payload["bound_formulas"] == {
        "custom": [
            "delta_1_sq(u=1.000000) <= -ln(1 - xi) / 0.250000",
            "delta_2_sq(u=1.000000) <= -ln(1 - xi) / 0.250000",
        ]
    }
    # a singular grid (parallel rows) has the floor 0, reported without -Infinity
    assert main(["thresholds", "--grid", "1", "2", "0.5", "1", "0", "0", "--json",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["gaussian_bound"], payload["gaussian_bound_db"]) == (0.0, None)
    assert main(["thresholds", "--topology", "q0", "--json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["gaussian_bound"] == 1.0
    assert payload["bound_formulas"] == {
        "q0": [
            "delta_1_sq(u=1.772454) <= -ln(1 - xi) / 0.785398",
            "delta_2_sq(u=3.544908) <= -ln(1 - xi) / 3.141593",
        ]
    }


# Minimal arguments for each command, to read its parsed defaults.
COMMAND_MINIMA = [
    ["ground-sweep", "--dims", "3"],
    ["wigner", "--dims", "3"],
    ["fidelity-sweep", "--g", "0.1"],
    ["channel-sweep", "--eta", "1.0"],
    ["peaks-sweep", "--g", "0.1", "--smax", "1"],
    ["estimate", "--input", "samples.csv"],
    ["thresholds"],
]


def test_repeated_in_process_calls_write_identical_files(tmp_path, capsys):
    samples = tmp_path / "vac.csv"
    save_samples(synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 500, seed=44), samples)
    runs = {
        "ground.csv": ["ground-sweep", "--dims", "3", "6"],  # the default --topology list
        "fidelity.csv": ["fidelity-sweep", "--g", "0.05", "0.2", "--fidelity-grid", "0", "1", "11"],
        "channel.csv": ["channel-sweep", "--eta", "1.0", "0.9", "--nbar", "0.1", "--xi-in", "0", "2", "9"],
        "peaks.csv": ["peaks-sweep", "--g", "0.1", "0.3", "--smax", "0", "3"],
        "estimate.json": ["estimate", "--input", str(samples), "--bootstrap", "20"],
        "thresholds.txt": ["thresholds", "--topology", "hex"],
        "thresholds.json": ["thresholds", "--json"],
    }
    parser = cli.build_parser()
    defaults = [vars(parser.parse_args(argv)) for argv in COMMAND_MINIMA]
    snapshot = json.dumps(defaults, default=repr)

    def run_round(name):
        outdir = tmp_path / name
        outdir.mkdir()
        for filename, argv in runs.items():
            assert main([*argv, "--output", str(outdir / filename)]) == 0, argv
        return {path.name: path.read_bytes() for path in outdir.iterdir()}

    first = run_round("first")
    assert main(["ground-sweep", "--dims", "3", "--no-such-flag"]) == 2
    assert main(["--help"]) == 0
    assert "ground-sweep" in capsys.readouterr().out
    second = run_round("second")
    assert sorted(first) == sorted(runs) and first == second
    # argparse hands every call the same default objects: none was mutated
    assert json.dumps(defaults, default=repr) == snapshot
    assert json.dumps([vars(parser.parse_args(argv)) for argv in COMMAND_MINIMA], default=repr) == snapshot
    assert cli.build_parser() is parser


def test_cli_outputs_compare_runs_without_the_package_on_the_path(tmp_path):
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for path, text in zip(dirs, ("x,y\n1,2\n", "x,y\n1,2\n", "x,y\n1,3\n")):
        path.mkdir()
        (path / "out.csv").write_text(text)

    def compare(a, b):
        return subprocess.run([sys.executable, str(tool), "--compare", str(a), str(b)],
                              cwd=tmp_path, env=env, capture_output=True, text=True)

    same = compare(dirs[0], dirs[1])
    assert (same.returncode, same.stdout, same.stderr) == (0, "", "")
    changed = compare(dirs[0], dirs[2])
    assert changed.returncode == 1 and changed.stderr == ""
    assert "out.csv:" in changed.stdout and "column y" in changed.stdout


def test_bench_pairs_reports_xi_differences_per_field():
    tool = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", tool)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def report(predicted):
        xi = {"loss": {"state0 eta=0.9": {"xi": 1.5, "predicted": predicted, "gap": abs(1.5 - predicted)}},
              "file_xi": [0.25, 0.5]}
        metric = {"unit": "s", "value": 1.0}
        return {"metrics": {"wall_s": metric}, "xi": xi, "seed": 0, "attempted": 1, "failed": 0, "failures": []}

    result = bench_pairs.compare([(report(1.5), report(1.5 + 2**-40)), (report(1.5), report(1.5))])
    assert result["xi_max_abs_diff"] == 2**-40
    assert result["xi_max_abs_diff_by_field"] == {"file_xi": 0.0, "gap": 2**-40, "predicted": 2**-40, "xi": 0.0}


def test_bench_pairs_flags_a_gain_past_the_parent_spread():
    tool = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", tool)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    benchmark = {"end_to_end": [{"name": "stage1_s", "better": "lower", "bound": 0.25}]}
    before = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # q1 1.225, q3 1.675: spread 0.45

    def line(after):
        pairs = [({"metrics": {"stage1_s": {"unit": "s", "value": b}}, "xi": {}, "seed": 0, "attempted": 1,
                   "failed": 0, "failures": []},
                  {"metrics": {"stage1_s": {"unit": "s", "value": a}}, "xi": {}, "seed": 0, "attempted": 1,
                   "failed": 0, "failures": []}) for b, a in zip(before, after)]
        [text] = bench_pairs.summary_lines({"sweeps": bench_pairs.compare(pairs)}, benchmark)
        return text

    nine_wins = [b - 0.6 for b in before[:9]] + [before[9] + 0.1]
    assert "spread      0.45" in line(nine_wins) and "after wins 9/10" in line(nine_wins)
    assert line(nine_wins).endswith("GAIN")
    eight_wins = [b - 0.6 for b in before[:8]] + [before[8] + 0.1, before[9] + 0.1]
    assert "GAIN" not in line(eight_wins)
    within_spread = [b - 0.4 for b in before]  # wins every pair, gap 0.4 <= 0.45
    assert "after wins 10/10" in line(within_spread) and "GAIN" not in line(within_spread)
    slower = [b * 1.3 for b in before]
    assert line(slower).endswith("WORSE")
    del before[5:]  # five pairs, all won far past the spread: too few to flag
    assert "after wins 5/5" in line([b - 1.0 for b in before]) and "GAIN" not in line([b - 1.0 for b in before])


def test_bench_pairs_same_pairs_a_tree_with_a_copy_of_itself(tmp_path):
    tool = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", tool)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    tree = tmp_path.resolve() / "tree"
    for name in ("bench/run.py", ".git/HEAD", ".hypothesis/db"):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text(name)
    (tree / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "sweeps"}]}))
    seen = []

    def run_once(root, workload, seed, report):
        files = sorted(path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file())
        seen.append((root, seed, files, (root / "bench/run.py").read_text()))
        result = {"metrics": {"wall_s": {"unit": "s", "value": 1.0 + seed}}, "xi": {"file_xi": [0.25]},
                  "seed": seed, "attempted": 1, "failed": 0, "failures": []}
        return {"provenance": {"root": str(root)}, "workloads": {workload: result}}

    argv = ["--same", str(tree), "--pairs", "sweeps=2", "--seed", "3", "--out", str(tmp_path / "aa.json")]
    with mock.patch.object(bench_pairs, "run_once", run_once):
        assert bench_pairs.main(argv) == 0
    copy = seen[0][0]  # the first pair runs the copy first
    assert [(root, seed) for root, seed, _, _ in seen] == [(copy, 3), (tree, 3), (tree, 4), (copy, 4)]
    assert copy != tree and not copy.exists()
    assert seen[0][2] == ["BENCHMARK.json", "bench/run.py"] and seen[0][3] == "bench/run.py"
    out = json.loads((tmp_path / "aa.json").read_text())
    assert out["same"] is True
    wall = out["workloads"]["sweeps"]["metrics"]["wall_s"]
    assert wall["before"]["values"] == wall["after"]["values"] == [4.0, 5.0]
    assert out["workloads"]["sweeps"]["xi_max_abs_diff"] == 0.0


@pytest.mark.parametrize("sides", [[], ["--before", "B"], ["--after", "A"], ["--same", "S", "--before", "B"],
                                   ["--same", "S", "--after", "A"]])
def test_bench_pairs_needs_both_sides_or_same_alone(tmp_path, capsys, sides):
    tool = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", tool)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    argv = sides + ["--pairs", "sweeps=1", "--seed", "1", "--out", str(tmp_path / "o.json")]
    with mock.patch.object(bench_pairs, "run_once", side_effect=AssertionError("ran")), \
            pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert "give --before and --after, or --same alone" in capsys.readouterr().err


@pytest.mark.parametrize("item", ["sweeps", "nosuch=0", "nosuch=2", "sweeps=0", "sweeps=-1", "sweeps=x", "sweeps=²"])
def test_bench_pairs_rejects_a_malformed_pairs_item_before_any_run(tmp_path, capsys, item):
    tool = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", tool)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "sweeps"}, {"name": "estimate"}]}))
    argv = ["--before", str(tmp_path), "--after", str(tmp_path), "--seed", "1", "--out", str(tmp_path / "o.json"),
            "--pairs", "estimate=1", item]
    with mock.patch.object(bench_pairs, "run_once", side_effect=AssertionError("ran")), \
            pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert f"--pairs {item!r}: expected WORKLOAD=N with N >= 1 and WORKLOAD one of sweeps, estimate" in \
        capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_layer_timings_tool_imports_the_package():
    # --help loads every package name the timing groups use, and times nothing
    tool = Path(__file__).resolve().parent.parent / "tools" / "layer_timings.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    help_run = subprocess.run([sys.executable, str(tool), "--help"], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
    assert help_run.returncode == 0, help_run.stderr
    assert "large_n, channel, sample_io" in help_run.stdout


EVERY_COMMAND = """
import sys
import threading

started = []
start_thread = threading.Thread.start


def record_start(self):
    started.append(self.name)
    start_thread(self)


threading.Thread.start = record_start

from gkpsq import cli

runs = [
    ["ground-sweep", "--topology", "q0", "hex", "--dims", "3", "6"],
    ["wigner", "--dims", "6", "--resolution", "5"],
    ["fidelity-sweep", "--g", "0.1", "--fidelity-grid", "0", "1", "3"],
    ["channel-sweep", "--eta", "1.0", "0.9", "--xi-in", "0", "1", "3"],
    ["peaks-sweep", "--g", "0.1", "--smax", "0", "2"],
    ["thresholds"],
    ["thresholds", "--json"],
    ["estimate", "--input", "vac.csv"],
    ["estimate", "--input", "vac.csv", "--bootstrap", "50"],
    ["estimate", "--input", "vac.csv", "--optimize"],
    ["estimate", "--input", "vac.csv", "--optimize", "--no-gkp-valid"],
]
for i, argv in enumerate(runs):
    if cli.main([*argv, "--output", f"out{i}"]) != 0:
        sys.exit(f"failed: {argv}")
print(" ".join(sorted(
    name for name in sys.modules if name.split(".")[0] == "scipy" or name == "concurrent.futures"
)))
print(started, threading.active_count())
"""


def test_no_command_imports_scipy_or_concurrent_futures(tmp_path):
    """Start-up guard: no command loads scipy or concurrent.futures, or starts a thread.

    One fresh interpreter runs every command: the five sweeps, `thresholds`
    as text and as JSON, and `estimate` plain, with `--bootstrap`, with
    `--optimize` and with `--optimize --no-gkp-valid`.  numpy is the only
    runtime dependency; `thresholds`' symmetric root and `estimate
    --optimize`'s polish are in-house Newton iterations, so a scipy import
    anywhere in gkpsq, even one deferred into a function, fails this test.
    Every command runs on the calling thread: the interpreter records each
    `threading.Thread.start`, and a started thread, or a thread pool from
    concurrent.futures, fails this test.  Modules imported by the test
    session do not count.
    """
    save_samples(synthesize_samples(FockState.number_state(0, 2), [0.0, math.pi / 2], 2000, seed=43),
                 tmp_path / "vac.csv")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", EVERY_COMMAND], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["", "[] 1"]  # no scipy module; no thread started, one alive
    assert json.loads((tmp_path / "out6").read_text())["command"] == "thresholds"
    assert json.loads((tmp_path / "out9").read_text())["optimized"] is True
    assert json.loads((tmp_path / "out10").read_text())["optimized"] is True


README_BYTES = """
import math
import sys

from gkpsq.cli import main
from gkpsq.estimator import synthesize_samples
from gkpsq.operators import build_operator, ground_state, preset_grid

main(["ground-sweep", "--topology", "q0", "q1", "s0", "s1", "hex",
      "--dims", "3", "5", "10", "20", "50", "--output", "ground.csv"])
state = ground_state(build_operator(preset_grid("q0"), 50)).state
samples = synthesize_samples(state, [0.0, math.pi / 2.0], 3000, seed=11)
with open("samples.bin", "wb") as fh:
    for _, values in samples.records:
        fh.write(values.tobytes())
"""


def test_outputs_keep_their_bytes_at_two_blas_threads(tmp_path):
    """Byte-identity is promised at one BLAS thread; two threads must keep it for these outputs.

    The README ground sweep and a q0 (N = 50) sampler run, whose pdfs come
    from 8192-point `quadrature_pdf` grids, each run in a fresh interpreter
    with every BLAS thread variable at 1 and then at 2; both runs must
    write the same bytes.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
        (tmp_path / threads).mkdir()
        run = subprocess.run([sys.executable, "-c", README_BYTES], cwd=tmp_path / threads, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
    for name in ("ground.csv", "samples.bin"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
