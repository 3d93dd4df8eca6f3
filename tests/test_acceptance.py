"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line when its criterion holds; run with
`pytest tests/test_acceptance.py -v` (add -s to see the lines inline).
Statistical checks use fixed seeds, so the suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from gkpsq.analytic import (
    THRESHOLDS,
    ApproxGKPParams,
    channel_output_xi,
    breeding_step_xi,
    approx_state_displacement_mean,
    db,
    fidelity_bounds,
    grid_squeezing_bounds_from_xi,
    loss_to_noise_variance,
    xi_approx_symmetric,
    xi_finite_superposition,
)
from gkpsq.cli import main
from gkpsq.estimator import estimate_xi, optimize_xi, synthesize_samples
from gkpsq.fock import DensityMatrix, FockState, hermite_functions
from gkpsq.operators import (
    ChannelParams,
    GridSpec,
    apply_channel,
    approx_gkp_state,
    build_operator,
    expectation,
    ground_state,
    preset_grid,
    sin2_expectation,
)
from oracles import ladder_matrices, peak_superposition_xi_bruteforce

PRESETS = ("q0", "q1", "s0", "s1", "hex")
SQRT_PI_2 = math.sqrt(math.pi / 2.0)


def test_criterion_1_operator_property_suite():
    start = time.monotonic()
    for name in PRESETS:
        grid = preset_grid(name)
        for dim in (1, 5, 10, 20, 50):
            op = build_operator(grid, dim)
            herm = np.abs(op.matrix - op.matrix.conj().T).max()
            assert herm < 1e-10, (name, dim, herm)
            vals = np.linalg.eigvalsh(op.matrix)
            assert vals.min() >= -1e-6, (name, dim, vals.min())
            assert vals.max() <= 4.0 + 1e-6, (name, dim, vals.max())
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f} s"
    print(f"criterion 1 PASS: presets x dims Hermitian and spectrum-bounded ({elapsed:.1f} s)")


def test_criterion_2_closed_form_anchor(tmp_path):
    s0_entry = build_operator(preset_grid("s0"), 1).matrix[0, 0].real
    assert s0_entry == pytest.approx(2 - 2 * math.exp(-math.pi / 2), abs=1e-8)
    q0_entry = build_operator(preset_grid("q0"), 1).matrix[0, 0].real
    assert q0_entry == pytest.approx(2 - math.exp(-math.pi / 4) - math.exp(-math.pi), abs=1e-8)
    # the bound-variant discrepancy must be spelled out in the output notes
    out = tmp_path / "thresholds.json"
    assert main(["thresholds", "--topology", "q0", "--json", "--output", str(out)]) == 0
    notes = " ".join(json.loads(out.read_text())["notes"])
    assert "exp(-pi/4)" in notes and "exp(-pi/2)" in notes
    print("criterion 2 PASS: vacuum anchors match closed forms within 1e-8, notes emitted")


def test_criterion_3_ground_sweep_properties():
    start = time.monotonic()
    dims = (3, 5, 10, 20, 50)
    minima = {}
    for name in PRESETS:
        grid = preset_grid(name)
        minima[name] = [ground_state(build_operator(grid, n)).xi_min for n in dims]
    for name, xis in minima.items():
        assert all(a > b for a, b in zip(xis, xis[1:])), (name, xis)  # strictly decreasing
        assert xis[-1] < THRESHOLDS.ft_necessary_xi0, (name, xis[-1])
    assert minima["q1"][0] < 1.0  # non-Gaussian already at dimension 3
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 3 PASS: minima strictly decrease, q1@3 sub-Gaussian, all@50 < 0.312 ({elapsed:.1f} s)")


def test_criterion_4_peak_superposition_convergence():
    g = 0.1
    s0 = preset_grid("s0")
    at6 = xi_finite_superposition(ApproxGKPParams(g=g, a=SQRT_PI_2, s_max=6), s0)
    oracle6 = peak_superposition_xi_bruteforce(g, SQRT_PI_2, 6, 0, s0.c11, s0.c22)
    assert at6 == pytest.approx(oracle6, abs=1e-12)
    assert abs(at6 - xi_approx_symmetric(g)) < 1e-6
    # Fock-space cross-check on the explicitly built superposition
    params = ApproxGKPParams(g=0.3, a=SQRT_PI_2, s_max=2)
    state = approx_gkp_state(params, 80)
    fock_value = expectation(build_operator(s0, 80), state)
    assert fock_value == pytest.approx(xi_finite_superposition(params, s0), abs=1e-5)
    print("criterion 4 PASS: peak sums converge to the closed form and match the Fock route")


def test_criterion_5_fidelity_sandwich():
    g = 0.1
    xi1 = xi_approx_symmetric(g)
    lo, hi = fidelity_bounds(1.0, g)
    assert lo == hi == pytest.approx(xi1, abs=1e-14)
    assert fidelity_bounds(0.0, g) == (0.0, 4.0)

    rng = np.random.default_rng(2718)
    dim = 80
    op = build_operator(preset_grid("s0"), dim)
    g_values = np.linspace(0.08, 0.3, 10)
    references = {}
    for gv in g_values:
        psi = approx_gkp_state(ApproxGKPParams(g=float(gv), a=SQRT_PI_2, s_max=3), dim)
        references[float(gv)] = (psi, expectation(op, psi))
    violations = 0
    closed_violations = 0
    for trial in range(1000):
        gv = float(g_values[trial % len(g_values)])
        psi, xi_ref = references[gv]
        f = float(rng.uniform(0.0, 1.0))
        raw = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        raw -= np.outer(psi.amplitudes, psi.amplitudes.conj() @ raw)
        q, _ = np.linalg.qr(raw)
        w = rng.dirichlet([1.0, 1.0])
        sigma = w[0] * np.outer(q[:, 0], q[:, 0].conj()) + w[1] * np.outer(q[:, 1], q[:, 1].conj())
        rho = DensityMatrix(f * np.outer(psi.amplitudes, psi.amplitudes.conj()) + (1 - f) * sigma)
        f_measured = float((psi.amplitudes.conj() @ rho.entries @ psi.amplitudes).real)
        xi = expectation(op, rho)
        # sandwich anchored at the reference state's own squeezing: exact
        if not (f_measured * xi_ref - 1e-9 <= xi <= f_measured * xi_ref + 4 * (1 - f_measured) + 1e-9):
            violations += 1
        # closed-form anchor is a small-g asymptote; checked where it is provably safe
        if gv <= 0.12 and f_measured <= 0.99:
            c_lo, c_hi = fidelity_bounds(f_measured, gv)
            if not (c_lo - 1e-9 <= xi <= c_hi + 1e-9):
                closed_violations += 1
    assert violations == 0
    assert closed_violations == 0
    print("criterion 5 PASS: 1000 fidelity-sandwich trials, zero violations beyond 1e-9")


def test_criterion_6_channel_consistency():
    start = time.monotonic()
    assert loss_to_noise_variance(0.9) == pytest.approx(1.0 / 18.0, abs=1e-12)
    assert round(loss_to_noise_variance(0.9), 3) == 0.056  # quoted photon number

    rng = np.random.default_rng(424242)
    grid = preset_grid("s0")
    cutoff = 40
    op = build_operator(grid, cutoff)
    worst = 0.0
    for _ in range(20):
        raw = (rng.normal(size=12) + 1j * rng.normal(size=12)) * np.exp(-np.arange(12) / 3.0)
        state = FockState.normalized(raw)
        rho = state.density_matrix().padded(cutoff)
        for eta in (1.0, 0.95, 0.9, 0.8):
            scale = math.sqrt(eta)
            terms = (
                sin2_expectation(state, grid.c11 * scale, 0.0),
                sin2_expectation(state, 0.0, grid.c22 * scale),
            )
            for nbar in (0.0, 0.1):
                ch = ChannelParams(eta=eta, n_thermal=nbar)
                predicted = channel_output_xi(terms, ch, grid)
                measured = expectation(op, apply_channel(rho, ch, cutoff))
                worst = max(worst, abs(predicted - measured))
    assert worst < 1e-4, worst
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 6 PASS: analytic map vs apply_channel, worst gap {worst:.2e} ({elapsed:.0f} s)")


def _balanced_beam_splitter(dim: int) -> np.ndarray:
    """exp(-i pi/4 H) on two modes of dimension `dim`, H = i(a^dag b - a b^dag), from one `eigh`."""
    alow, adag = ladder_matrices(dim)
    hop = 1j * (np.kron(adag, alow) - np.kron(alow, adag))
    vals, vecs = np.linalg.eigh(hop)
    return (vecs * np.exp(-1j * (math.pi / 4.0) * vals)) @ vecs.conj().T


def _breeding_simulation(psi: FockState, bs: np.ndarray, a_out: float, b_out: float) -> float:
    """Balanced beam splitter `bs`, ideal p measurement, feed-forward, then <Q>.

    The feed-forward exp(-i pm x) of every outcome pm is applied at once in
    the position representation: each conditional state's wavefunction is
    tabulated on an x grid, multiplied by the phase and projected back onto
    the first `dim` number states.  The trapezoid rule is exact there up to
    an exponentially small alias (step 0.05, |x| <= sqrt(2 dim + 1) + 6),
    so this is the truncated block of exp(-i pm x), as `coherent_displacement`
    gives it, applied to each state.
    """
    dim = psi.dim
    joint = bs @ np.kron(psi.amplitudes, psi.amplitudes)

    span = math.sqrt(2.0 * dim + 1.0) + 5.0
    p_grid = np.arange(-span, span, 0.015)
    mom = ((-1j) ** np.arange(dim))[:, None] * hermite_functions(dim - 1, p_grid).astype(complex)
    conditional = joint.reshape(dim, dim) @ mom
    dp = p_grid[1] - p_grid[0]
    kept = np.sum(np.abs(conditional) ** 2, axis=0) * dp >= 1e-18
    conditional, p_kept = conditional[:, kept], p_grid[kept]

    dx = 0.05
    reach = math.sqrt(2.0 * dim + 1.0) + 6.0
    x_grid = np.arange(-reach, reach + dx, dx)
    h = hermite_functions(dim - 1, x_grid)
    wave = np.exp(-1j * np.outer(x_grid, p_kept)) * (h.T @ conditional)
    shifted = (h @ wave) * dx
    rho = (shifted * dp) @ shifted.conj().T
    rho /= np.trace(rho).real
    op = build_operator(GridSpec(a_out, 0.0, 0.0, b_out, label="bred"), dim)
    return float(np.trace(rho @ op.matrix).real)


def test_criterion_7_breeding_step():
    # inputs chosen to fit per-mode dimension 30; softer peaks (larger g)
    # keep the beam-splitter and feed-forward truncation far below 1e-4
    dim = 30
    bs = _balanced_beam_splitter(dim)
    for g, s_max in ((0.4, 1), (0.5, 1)):
        psi = approx_gkp_state(ApproxGKPParams(g=g, a=SQRT_PI_2, s_max=s_max), dim)
        a_out, b_out = math.sqrt(2.0) * SQRT_PI_2, SQRT_PI_2 / math.sqrt(2.0)
        t = sin2_expectation(psi, a_out / math.sqrt(2.0), 0.0)
        s = sin2_expectation(psi, 0.0, b_out * math.sqrt(2.0))
        formula = breeding_step_xi(t, s)
        simulated = _breeding_simulation(psi, bs, a_out, b_out)
        assert simulated == pytest.approx(formula, abs=1e-4), (g, simulated, formula)

    # formula-level scan: one step never improves on the matched input value
    for g in np.linspace(0.05, 1.0, 24):
        params = ApproxGKPParams(g=float(g), a=SQRT_PI_2)
        tx = 0.5 * (1.0 - approx_state_displacement_mean(params, 2 * SQRT_PI_2, 0.0).real)
        tp = 0.5 * (1.0 - approx_state_displacement_mean(params, 0.0, 2 * SQRT_PI_2).real)
        assert breeding_step_xi(tx, tp) >= 2 * tx + 2 * tp - 1e-12
    print("criterion 7 PASS: two-mode simulation matches the one-step formula; no improvement over g scan")


def test_criterion_8_estimator_end_to_end():
    vac = FockState.number_state(0, 2)
    samples = synthesize_samples(vac, [0.0, math.pi / 2.0], 10**6, seed=11)
    report = estimate_xi(samples, preset_grid("s0"))
    target = 2 - 2 * math.exp(-math.pi / 2)
    assert abs(report.xi - target) < 3.0 * report.std_error
    assert report.std_error < 0.002

    op = build_operator(preset_grid("q0"), 50)
    gs = ground_state(op)
    fock_value = expectation(op, gs.state)
    gs_samples = synthesize_samples(gs.state, [0.0, math.pi / 2.0], 4 * 10**5, seed=12)
    gs_report = estimate_xi(gs_samples, preset_grid("q0"))
    assert abs(gs_report.xi - fock_value) < 3.0 * gs_report.std_error

    worst = -math.inf
    for seed in range(100, 150):
        trial = synthesize_samples(vac, [0.0, math.pi / 2.0], 10**4, seed=seed)
        res = optimize_xi(trial)
        worst = max(worst, (1.0 - res.xi_opt) / res.std_error)
    assert worst < 3.0, f"false non-Gaussianity at {worst:.2f} sigma"
    print(f"criterion 8 PASS: vacuum and ground-state estimates in 3-sigma, optimizer worst z={worst:.2f}")


def test_criterion_9_threshold_constants():
    assert db(THRESHOLDS.ft_sufficient_xi0) == pytest.approx(-8.70, abs=0.01)
    assert db(THRESHOLDS.ft_necessary_xi0) == pytest.approx(-5.06, abs=0.01)
    assert db(THRESHOLDS.ft_symmetric_xi0) == pytest.approx(-11.67, abs=0.05)
    bounds = grid_squeezing_bounds_from_xi(THRESHOLDS.ft_symmetric_xi0, "q0")
    # plain-arithmetic oracle for the bound formulas
    assert bounds.max_delta_x_sq == pytest.approx(-4 / math.pi * math.log1p(-0.068), abs=1e-12)
    assert bounds.max_delta_p_sq == pytest.approx(-1 / math.pi * math.log1p(-0.068), abs=1e-12)
    # both bounds sit at or below the -10.5 dB band; the x bound saturates it
    # and clears only at the two-significant-figure precision of the constants
    assert bounds.max_delta_p_sq <= THRESHOLDS.grid_ft_delta_sq
    assert bounds.max_delta_x_sq <= THRESHOLDS.grid_ft_delta_sq * 1.01
    assert bounds.max_delta_x_sq == pytest.approx(THRESHOLDS.grid_ft_delta_sq, rel=0.01)
    print("criterion 9 PASS: dB constants and grid-squeezing bounds reproduce the quoted band")
