import cmath
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from gkpsq import fock
from gkpsq.fock import (
    DensityMatrix,
    FockState,
    ResourceCapError,
    coherent_displacement,
    displacement_blocks,
    fidelity,
    hermite_functions,
    quadrature_pdf,
    wigner,
)
from gkpsq.analytic import ApproxGKPParams, xi_finite_superposition
from gkpsq.estimator import synthesize_samples
from gkpsq.operators import (
    ChannelParams,
    GridSpec,
    apply_channel,
    approx_gkp_state,
    build_operator,
    build_operators,
    preset_grid,
    sin2_expectation,
)
from oracles import (
    chunked_trapezoid_real_block,
    density_matrix_full_checks,
    displaced_parity_wigner,
    hermite_functions_two_pass,
    hermite_wavefunction_direct,
    laguerre_displacement_element,
    ladder_matrices,
    quadrature_matrices,
    quadrature_pdf_one_angle,
    trapezoid_displacement,
    vacuum_characteristic,
)


def test_ladder_entries():
    a, adag = ladder_matrices(2)
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(adag, a.conj().T)
    a3, _ = ladder_matrices(3)
    assert a3[1, 2] == pytest.approx(math.sqrt(2))
    a1, adag1 = ladder_matrices(1)
    assert np.all(a1 == 0) and np.all(adag1 == 0)


def test_ladder_invalid_dimension():
    with pytest.raises(ValueError):
        ladder_matrices(0)


def test_commutator_exact_off_corner():
    n = 30
    x, p = quadrature_matrices(n)
    comm = x @ p - p @ x
    expected = 1j * np.eye(n)
    # truncation corrupts only the last basis state
    assert np.abs(comm[: n - 1, : n - 1] - expected[: n - 1, : n - 1]).max() < 1e-12
    assert abs(comm[n - 1, n - 1] - 1j * (1 - n)) < 1e-10


def test_vacuum_quadrature_moments():
    x, _ = quadrature_matrices(8)
    vac = np.zeros(8)
    vac[0] = 1.0
    assert vac @ (x @ x) @ vac == pytest.approx(0.5, abs=1e-12)
    assert vac @ x @ vac == pytest.approx(0.0, abs=1e-14)


def test_displacement_identity_case():
    assert np.abs(coherent_displacement(0.0, 6) - np.eye(6)).max() < 1e-12
    # the quadrature path, not only the alpha == 0 shortcut
    assert np.abs(coherent_displacement(1e-13, 6) - np.eye(6)).max() < 1e-12


def test_vacuum_characteristic_function():
    # <0|exp(i u x)|0> against the direct Gaussian-integral oracle
    u = 1.0
    target = vacuum_characteristic(u)
    assert target == pytest.approx(math.exp(-0.25), abs=1e-12)
    block = coherent_displacement(1j * u / math.sqrt(2.0), 20)
    assert block[0, 0].real == pytest.approx(target, abs=1e-8)
    assert abs(block[0, 0].imag) < 1e-10


def laguerre_block(alpha, dim):
    return np.array([[laguerre_displacement_element(alpha, m, n) for n in range(dim)] for m in range(dim)])


@pytest.mark.parametrize("cx,cp", [(0.7, 0.0), (0.0, -1.1), (0.9, 0.4), (-1.3, 0.8)])
def test_displacement_matches_laguerre_oracle(cx, cp):
    # exp(i(cx x + cp p)) = D(alpha) with alpha = (-cp + i cx)/sqrt(2)
    alpha = complex(-cp, cx) / math.sqrt(2.0)
    exact = coherent_displacement(alpha, 11)
    ref = laguerre_block(alpha, 11)
    assert np.abs(exact - ref).max() < 1e-11
    # the operator assembled from the same exponential (rows are halved
    # because each sin^2 term doubles its argument)
    grid = GridSpec(cx / 2.0, cp / 2.0, 0.35, -0.2, d1=0.25)
    second = laguerre_block(math.sqrt(2.0) * complex(0.2, 0.35), 11)
    first = np.exp(0.5j) * ref
    expected = 2.0 * np.eye(11) - 0.5 * (first + first.conj().T) - 0.5 * (second + second.conj().T)
    assert np.abs(build_operator(grid, 11).matrix - expected).max() < 1e-11


def test_displacement_matches_fine_trapezoid_at_dimension_1000():
    # hex's first row, exp(2i(c1 x + c2 p)) = D(sqrt(2)(-c2 + i c1)): the
    # Nyquist-step single table against two tables at a tenth of the step
    c1, c2, _ = preset_grid("hex").rows()[0]
    beta = math.sqrt(2.0) * complex(-c2, c1)
    assert np.abs(coherent_displacement(beta, 1000) - trapezoid_displacement(beta, 1000)).max() <= 1e-12


def test_displacement_at_dimension_2000_matches_a_finer_wider_lattice():
    # q0's longer row at the cap, every eighth order up to the top one, 1999:
    # the Nyquist step pi/reach on |t| <= reach against half that step on
    # |t| <= reach + 6, where both the alias and the cut tail are far smaller
    dim, shift, rows = 2000, 2.0 * math.sqrt(math.pi), slice(7, None, 8)
    [block] = displacement_blocks(shift, dim, (rows,))
    wider = fock._lattice_reach(dim) + 6.0
    reference = chunked_trapezoid_real_block(shift, dim, rows, math.pi / (2.0 * wider), wider)
    assert np.abs(block - reference).max() <= 1e-12


def test_displacement_phase_offset():
    d = 0.4
    plain = build_operator(GridSpec(0.5, -0.2, 0.0, 1.0), 8).matrix
    shifted = build_operator(GridSpec(0.5, -0.2, 0.0, 1.0, d1=d), 8).matrix
    block = coherent_displacement(math.sqrt(2.0) * complex(0.2, 0.5), 8)
    # only the first row's exponential picks up the phase e^{2id}
    change = -0.5 * ((np.exp(2j * d) - 1.0) * block)
    change = change + change.conj().T
    assert np.abs(shifted - plain - change).max() < 1e-12


def test_truncated_block_is_not_unitary():
    c = 2.0 * math.sqrt(math.pi)
    block = coherent_displacement(1j * c / math.sqrt(2.0), 10)
    defect = np.abs(block.conj().T @ block - np.eye(10)).max()
    assert defect > 1e-3  # callers must not assume unitarity


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "100")
    assert coherent_displacement(0.5, 100).shape == (100, 100)
    with pytest.raises(ResourceCapError):
        coherent_displacement(0.5, 101)
    with pytest.raises(ResourceCapError):
        build_operator(preset_grid("q0"), 101)
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "not-a-number")
    with pytest.raises(ValueError):
        coherent_displacement(0.5, 20)


_STATE_20 = FockState.normalized(np.arange(1.0, 21.0))
_SQRT_PI_2 = math.sqrt(math.pi / 2.0)
DENSE_ENTRY_POINTS = {
    "build_operator": lambda: build_operator(preset_grid("hex"), 20),
    "build_operators": lambda: list(build_operators([preset_grid("q0"), preset_grid("hex")], 20)),
    "coherent_displacement": lambda: coherent_displacement(0.5, 20),
    "displacement_blocks": lambda: displacement_blocks(1.0, 20, (slice(None),)),
    "hermite_functions": lambda: hermite_functions(19, np.linspace(-5.0, 5.0, 11)),
    "wigner": lambda: wigner(_STATE_20, [0.0], [0.0]),
    "quadrature_pdf": lambda: quadrature_pdf(_STATE_20, [0.3], np.linspace(-8.0, 8.0, 101)),
    "sin2_expectation": lambda: sin2_expectation(_STATE_20, 1.0, 0.5),
    "approx_gkp_state": lambda: approx_gkp_state(ApproxGKPParams(g=0.3, a=_SQRT_PI_2, s_max=2), 20),
    "synthesize_samples": lambda: synthesize_samples(_STATE_20, [0.0], 10, seed=0),
    "apply_channel": lambda: apply_channel(_STATE_20.density_matrix(), ChannelParams(0.9), 20),
    "xi_finite_superposition": lambda: xi_finite_superposition(
        ApproxGKPParams(g=0.3, a=_SQRT_PI_2, s_max=5), preset_grid("s0")),
}


@pytest.mark.parametrize("entry", DENSE_ENTRY_POINTS)
def test_every_dense_entry_point_checks_the_cap(monkeypatch, entry):
    # each runs at cap 20 and raises at cap 10: dimension 20, or 11 peaks
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "20")
    DENSE_ENTRY_POINTS[entry]()
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "10")
    with pytest.raises(ResourceCapError, match="exceeds cap 10"):
        DENSE_ENTRY_POINTS[entry]()


def test_build_operator_checks_the_cap_before_any_array(monkeypatch):
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "10")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="dimension 3000 exceeds cap 10"):
            build_operator(preset_grid("q0"), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5  # a 3000-square complex matrix is 144 MB


def test_coherent_displacement_large_amplitude_column():
    # first column carries the exact Poisson amplitudes for any amplitude
    from scipy.special import gammaln

    beta = 11.0 * np.exp(1j * 0.35)
    block = coherent_displacement(beta, 250)
    ms = np.arange(250)
    col = np.exp(-0.5 * abs(beta) ** 2 + ms * math.log(abs(beta)) - 0.5 * gammaln(ms + 1))
    col = col * np.exp(1j * ms * 0.35)
    assert np.abs(block[:, 0] - col).max() < 1e-12
    # exact block of a unitary: singular values never exceed one
    assert np.linalg.svd(block, compute_uv=False).max() < 1.0 + 1e-10


def test_fidelity_basic():
    v0 = FockState.number_state(0, 3)
    v1 = FockState.number_state(1, 3)
    plus = FockState.normalized([1.0, 1.0])
    assert fidelity(v0, v0) == pytest.approx(1.0)
    assert fidelity(v0, v1) == pytest.approx(0.0, abs=1e-15)
    assert fidelity(v0, plus) == pytest.approx(0.5)
    # mismatched dimensions are zero-padded
    assert fidelity(FockState.number_state(0, 2), FockState.number_state(0, 7)) == pytest.approx(1.0)


def test_quadrature_pdf_vacuum_and_rotation():
    vac = FockState.number_state(0, 2)
    q = np.linspace(-8, 8, 2001)
    res, rotated = quadrature_pdf(vac, [0.0, 0.7], q)
    assert np.abs(res.density - np.exp(-q * q) / math.sqrt(math.pi)).max() < 1e-12
    assert res.mass == pytest.approx(1.0, abs=1e-9)
    assert not res.grid_too_narrow
    assert np.abs(rotated.density - res.density).max() < 1e-12
    var = np.trapezoid(q * q * res.density, q)
    assert var == pytest.approx(0.5, abs=1e-9)


def test_quadrature_pdf_single_photon_node():
    one = FockState.number_state(1, 2)
    [res] = quadrature_pdf(one, [0.0], np.array([0.0]))
    assert res.density[0] == pytest.approx(0.0, abs=1e-15)


def test_quadrature_pdf_narrow_grid_flag():
    vac = FockState.number_state(0, 2)
    [res] = quadrature_pdf(vac, [0.0], np.linspace(-1.0, 1.0, 101))
    assert res.grid_too_narrow
    assert res.mass < 1.0 - 1e-6


def test_quadrature_pdf_matches_direct_hermite_series(rng):
    # oracle: wavefunction assembled from scipy Hermite polynomials
    raw = rng.normal(size=12) + 1j * rng.normal(size=12)
    state = FockState.normalized(raw)
    q = np.linspace(-7, 7, 801)
    angle = 0.9
    psi = np.zeros_like(q, dtype=complex)
    for n in range(12):
        psi += state.amplitudes[n] * np.exp(-1j * n * angle) * hermite_wavefunction_direct(n, q)
    [res] = quadrature_pdf(state, [angle], q)
    assert np.abs(res.density - np.abs(psi) ** 2).max() < 1e-10


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_quadrature_pdf_flags_a_non_finite_mass(angle):
    with np.errstate(invalid="ignore"):
        [pdf] = quadrature_pdf(_STATE_20, [angle], np.linspace(-8.0, 8.0, 101))
    assert math.isnan(pdf.mass) and pdf.grid_too_narrow


@pytest.mark.parametrize("angles", [[], [0.3], [0.0, 1.1, 2.2, 3.0], [0.5] * 6])
def test_one_hermite_table_per_call_whatever_the_angle_count(monkeypatch, angles):
    # one table per column block, in order, shared by every angle; the
    # last block takes the remainder, and a grid under two blocks is one
    grids = []

    def recorded(n_max, q):
        grids.append((n_max, q.copy()))
        return hermite_functions(n_max, q)

    monkeypatch.setattr(fock, "hermite_functions", recorded)
    block = fock._PDF_BLOCK
    for size, widths in ((101, [101]), (2 * block - 1, [2 * block - 1]), (3 * block + 3, [block, block, block + 3])):
        grids.clear()
        q = np.linspace(-8.0, 8.0, size)
        assert len(quadrature_pdf(_STATE_20, angles, q)) == len(angles)
        assert [(n_max, part.size) for n_max, part in grids] == [(19, width) for width in widths]
        assert np.concatenate([part for _, part in grids]).tobytes() == q.tobytes()
    if angles:
        grids.clear()
        assert synthesize_samples(_STATE_20, angles, 10, seed=0).angles == angles
        assert [(n_max, part.size) for n_max, part in grids] == [(19, block)] * (8192 // block)


def test_sampler_holds_one_block_of_tables():
    # A block's float table (8 N w bytes) and its complex buffer (16 N w)
    # are the only arrays of size N x w; the rest is a few dozen arrays the
    # size of the 8192-point grid or of the samples, under 1 MiB at N = 1000
    # with 4 angles of 2000 samples.  The whole table would take 24 N 8192.
    dim = 1000
    state = random_state(np.random.default_rng(6), dim)
    tracemalloc.start()
    try:
        synthesize_samples(state, [0.0, 0.7, 1.4, 2.1], 2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * dim * fock._PDF_BLOCK + 2**20


def _blocked_linspace(k, r, lo, hi):
    """A grid of k blocks and r more points, so `quadrature_pdf`'s last block holds a remainder of r."""
    return np.linspace(lo, hi, k * fock._PDF_BLOCK + r)


_GRIDS = st.one_of(
    st.lists(st.floats(-45.0, 45.0), max_size=60).map(np.array),
    st.builds(np.linspace, st.floats(-45.0, 0.0), st.floats(0.0, 45.0), st.integers(0, 400)),
    st.builds(_blocked_linspace, st.integers(1, 4), st.sampled_from([0, 1, 2, 3, fock._PDF_BLOCK - 1]),
              st.floats(-45.0, 0.0), st.floats(0.0, 45.0)),
)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    angles=st.lists(st.sampled_from([0.0, 0.7, math.pi / 2.0]) | st.floats(0.0, math.pi, exclude_max=True),
                    max_size=6),
    q=_GRIDS,
)
@example(dim=300, seed=1, angles=[0.7, 0.0, 0.7, 0.7], q=np.linspace(-40.0, 40.0, 801))  # repeats, |q| > 32
@example(dim=300, seed=2, angles=[0.0, 2.5], q=np.linspace(-(math.sqrt(601.0) + 6.0), math.sqrt(601.0) + 6.0, 8192))
@example(dim=50, seed=3, angles=[], q=np.linspace(-8.0, 8.0, 11))
@example(dim=5, seed=4, angles=[1.0, 1.0], q=np.array([]))
@example(dim=5, seed=5, angles=[0.2], q=np.array([36.0]))
# a one-point remainder where the pdf is not 0, taken alone, has other bits at one BLAS thread
@example(dim=300, seed=6, angles=[0.0, 1.0], q=_blocked_linspace(1, 1, -40.0, 10.0))
@example(dim=300, seed=7, angles=[0.3], q=_blocked_linspace(4, 1, -80.0, 10.0))  # far columns in three blocks
@example(dim=2, seed=8, angles=[2.0], q=_blocked_linspace(2, fock._PDF_BLOCK - 1, -45.0, 10.0))
def test_quadrature_pdf_is_bit_identical_to_one_table_per_angle(dim, seed, angles, q):
    state = random_state(np.random.default_rng(seed), dim)
    pdfs = quadrature_pdf(state, angles, q)
    assert len(pdfs) == len(angles)
    for angle, pdf in zip(angles, pdfs):
        one = quadrature_pdf_one_angle(state, angle, q)
        assert pdf.density.tobytes() == one.density.tobytes()
        assert np.float64(pdf.mass).tobytes() == np.float64(one.mass).tobytes()
        assert pdf.grid_too_narrow == one.grid_too_narrow


def test_wigner_known_points():
    vac = FockState.number_state(0, 2)
    one = FockState.number_state(1, 3)
    assert wigner(vac, [0.0], [0.0])[0, 0] == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert wigner(one, [0.0], [0.0])[0, 0] == pytest.approx(-1.0 / math.pi, abs=1e-12)


def test_wigner_normalization(rng):
    state = FockState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
    ax = np.linspace(-6.5, 6.5, 101)
    w = wigner(state, ax, ax)
    dx = ax[1] - ax[0]
    assert w.sum() * dx * dx == pytest.approx(1.0, abs=1e-3)


def test_wigner_bounded(rng):
    state = FockState.normalized(rng.normal(size=25) + 1j * rng.normal(size=25))
    ax = np.linspace(-7, 7, 29)
    w = wigner(state, ax, ax)
    assert np.abs(w).max() <= 1.0 / math.pi + 1e-12


def random_state(rng, dim):
    return FockState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def assert_matches_displaced_parity(state, xs, ps):
    w = wigner(state, xs, ps)
    expected = displaced_parity_wigner(state, [(x, p) for x in xs for p in ps])
    assert w.shape == (len(xs), len(ps))
    assert np.abs(w.ravel() - expected).max() <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 5, 20, 100])
def test_wigner_matches_displaced_parity(rng, dim):
    state = random_state(rng, dim)
    # off-centre, asymmetric axes of different lengths and steps
    assert_matches_displaced_parity(state, np.linspace(-2.3, 3.1, 6), np.linspace(-4.1, 1.7, 4))
    # single-point axes (CLI --resolution 1), alone and against a full axis
    assert_matches_displaced_parity(state, [0.0], [0.0])
    assert_matches_displaced_parity(state, [0.4], np.linspace(-1.0, 1.0, 3))
    assert_matches_displaced_parity(state, np.linspace(-1.0, 1.5, 3), [-0.6])


def test_wigner_matches_displaced_parity_large_dim(rng):
    # 9 points at N = 300, one x row at |x| > 32, where hermite_functions rescales
    assert_matches_displaced_parity(random_state(rng, 300), np.linspace(-0.7, 33.1, 3), [-1.4, 0.3, 2.0])


def test_wigner_matches_displaced_parity_at_large_extent(rng):
    # rows past the reach sqrt(2N + 1) + 6 = 12.40 are written as exact zeros
    # without tabulating psi; the rows inside still match the oracle
    state = random_state(rng, 20)
    xs, ps = np.linspace(-100.0, 100.0, 81), [-30.0, -1.3, 0.0, 2.2]
    assert_matches_displaced_parity(state, xs, ps)
    past = np.abs(xs) > math.sqrt(41.0) + 6.0
    assert np.all(wigner(state, xs, ps)[past] == 0.0)


def test_wigner_origin_is_mean_parity(rng):
    # W(0, 0) = (1/pi) sum (-1)^n |c_n|^2 exactly
    for dim in (1, 2, 5, 20, 100, 300):
        state = random_state(rng, dim)
        parity = np.sum((-1.0) ** np.arange(dim) * np.abs(state.amplitudes) ** 2)
        assert wigner(state, [0.0], [0.0])[0, 0] == pytest.approx(parity / math.pi, abs=1e-13)


def test_wigner_coherent_state_past_seed_underflow():
    # a coherent state centred at x0 = 33 needs Hermite orders near 800 at
    # |q| > 37.6, where exp(-q^2/2) underflows; W is a unit Gaussian there
    x0, p0, dim = 33.0, -1.5, 800
    alpha = complex(x0, p0) / math.sqrt(2.0)
    n = np.arange(dim)
    log_mag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1)
    state = FockState.normalized(np.exp(log_mag + 1j * n * cmath.phase(alpha)))
    xs, ps = np.linspace(31.5, 34.5, 7), np.linspace(-3.0, 0.0, 5)
    expected = np.exp(-((xs[:, None] - x0) ** 2) - (ps[None, :] - p0) ** 2) / math.pi
    assert np.abs(wigner(state, xs, ps) - expected).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 60),
    number=st.none() | st.integers(0, 59),
    seed=st.integers(0, 2**32 - 1),
    x0=st.floats(-10.0, 10.0),
    dx=st.floats(0.01, 3.0),
    nx=st.integers(1, 12),
    p0=st.floats(-10.0, 10.0),
    dp=st.floats(0.01, 3.0),
    n_p=st.integers(1, 12),
)
def test_wigner_bounded_property(dim, number, seed, x0, dx, nx, p0, dp, n_p):
    if number is None:
        state = random_state(np.random.default_rng(seed), dim)
    else:
        state = FockState.number_state(number % dim, dim)
    w = wigner(state, x0 + dx * np.arange(nx), p0 + dp * np.arange(n_p))
    assert np.abs(w).max() <= 1.0 / math.pi + 1e-12


def test_wigner_rejects_bad_axes():
    vac = FockState.number_state(0, 2)
    for xs, ps in [([0.0, 1.0, 3.0], [0.0]), ([1.0, 0.0], [0.0]), ([0.0, 0.0], [0.0]),
                   ([], [0.0]), ([0.0], []), ([0.0, math.nan], [0.0]), ([0.0], [math.inf]),
                   ([[0.0, 1.0]], [0.0])]:
        with pytest.raises(ValueError):
            wigner(vac, xs, ps)


def test_wigner_resource_cap(monkeypatch, rng):
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "100")
    assert wigner(random_state(rng, 100), [0.0], [0.0]).shape == (1, 1)
    with pytest.raises(ResourceCapError):
        wigner(random_state(rng, 101), [0.0], [0.0])
    state = random_state(rng, 5)
    xs, ps = np.linspace(-4.0, 4.0, 41), np.linspace(-1.0, 1.0, 3)
    full = wigner(state, xs, ps)
    # at cap 20 the 41 x rows no longer fit in 15 cap^2 floats at once
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "20")
    tables = []

    def recorded(n_max, q):
        tables.append((n_max + 1) * np.size(q))
        return hermite_functions(n_max, q)

    monkeypatch.setattr(fock, "hermite_functions", recorded)
    assert np.abs(wigner(state, xs, ps) - full).max() <= 1e-15
    assert len(tables) > 1 and max(tables) <= 15 * 20**2
    with pytest.raises(ResourceCapError):  # one row's phases alone exceed the budget
        wigner(state, xs, np.linspace(-1.0, 1.0, 200))


@pytest.mark.parametrize("xs, ps", [
    *[(np.linspace(-e, e, 3),) * 2 for e in (1e-300, 1e12, 1e20, 1e200, 1e300)],
    ([0.0, 1e308], [0.0]),  # x step over the alias limit overflows to inf
])
def test_wigner_lattice_past_the_budget_raises_before_allocating(monkeypatch, xs, ps):
    # the y lattice is counted before any array is made: no table is built, and
    # no count overflows, however wide or finely stepped the axes are
    def no_table(*args, **kwargs):
        raise AssertionError("Hermite table built past the budget")

    monkeypatch.setattr(fock, "hermite_functions", no_table)
    with pytest.raises(ResourceCapError):
        wigner(FockState.number_state(0, 5), xs, ps)


def test_wigner_counts_its_output_in_the_budget(monkeypatch):
    # one x row needs 2233 of the 6000 floats at cap 20; the 10^4 x 11 output does not fit
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "20")
    xs, ps = np.linspace(-1e4, 1e4, 10**4 + 1), np.linspace(-1.0, 1.0, 11)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="floats for one x row and the output"):
            wigner(FockState.number_state(0, 5), xs, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5  # the output would be 0.88 MB
    assert wigner(FockState.number_state(0, 5), xs[:300], ps).shape == (300, 11)  # 3300 + 2233 floats


def test_wigner_far_apart_rows():
    # each chunk tabulates from its own first row, so rows 1e300 apart index nothing huge
    w = wigner(FockState.number_state(0, 5), [-1e300, 0.0, 1e300], [0.0])
    assert w[0, 0] == w[2, 0] == 0.0
    assert w[1, 0] == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_hermite_functions_orthonormal():
    q = np.linspace(-12, 12, 4001)
    h = hermite_functions(14, q)
    gram = h @ h.T * (q[1] - q[0])
    assert np.abs(gram - np.eye(15)).max() < 1e-8


def test_hermite_functions_orthonormal_past_seed_underflow():
    # turning points sqrt(2n + 1) of n >= 700 lie where exp(-q^2/2) underflows
    q = np.linspace(-50.0, 50.0, 8001)
    top = hermite_functions(900, q)[650:]
    gram = top @ top.T * (q[1] - q[0])
    assert np.abs(gram - np.eye(251)).max() < 1e-10


def _displacement_lattice(dim: int, origin: float) -> np.ndarray:
    """The sorted lattice `displacement_blocks` tabulates, moved to `origin`."""
    return fock._displacement_lattice(dim)[1] + origin


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 900), origin=st.floats(-40.0, 40.0))
@example(dim=900, origin=0.0)  # far columns on both sides of the near hull
@example(dim=700, origin=-3.5)
@example(dim=12, origin=1.77)
def test_hermite_table_is_bit_identical_to_two_pass_oracle_on_lattices(dim, origin):
    # each column is computed once, by the recurrence the two-pass table ends with
    q = _displacement_lattice(dim, origin)
    assert hermite_functions(dim - 1, q).tobytes() == hermite_functions_two_pass(dim - 1, q).tobytes()


@settings(max_examples=60, deadline=None)
@given(n_max=st.integers(0, 400), q=st.lists(st.floats(-80.0, 80.0), max_size=40).map(np.array))
@example(n_max=300, q=np.array([0.0, 40.0, -5.0, -35.0, 10.0, 33.0, 2.0]))  # far columns inside the near hull
@example(n_max=300, q=np.array([40.0, -50.0, 33.0]))  # every column far
@example(n_max=400, q=np.linspace(-20.0, 60.0, 40))  # one run of far columns after the near ones
@example(n_max=10, q=np.array([]))
@example(n_max=5, q=np.array([1.3]))
@example(n_max=5, q=np.array([-40.0]))
def test_hermite_table_is_bit_identical_to_two_pass_oracle_on_any_grid(n_max, q):
    assert hermite_functions(n_max, q).tobytes() == hermite_functions_two_pass(n_max, q).tobytes()


def test_wigner_checks_the_budget_before_any_axis_sized_array():
    # 10^6 points per axis: a bool or float per point would be 1 or 8 MB
    xs = np.linspace(-6.0, 6.0, 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="floats for one x row"):
            wigner(FockState.number_state(0, 20), xs, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_state_validation():
    with pytest.raises(ValueError):
        FockState(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        FockState(np.array([]))
    state = FockState.normalized([1.0, 1.0, 0.0])
    assert state.dim == 3
    padded = state.padded(5)
    assert padded.dim == 5
    with pytest.raises(ValueError):
        state.padded(2)


def test_density_matrix_validation():
    good = FockState.number_state(0, 3).density_matrix()
    assert good.dim == 3
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    neg = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(neg)


def test_density_matrix_rejects_empty():
    with pytest.raises(ValueError, match="density matrix needs at least one entry"):
        DensityMatrix(np.zeros((0, 0)))


def test_density_matrix_large_norm_goes_to_the_eigensolve():
    # trace one but far outside any trace-one PSD matrix's norm: the Cholesky
    # test is skipped and eigvalsh rejects it with the eigensolve's message
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
            mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        with pytest.raises(ValueError, match=r"^density matrix not positive semidefinite: min eigenvalue -1e\+08$"):
            DensityMatrix(np.diag([1e8, 1.0 - 1e8]))
    assert eigvalsh.call_count == 1
    assert cholesky.call_count == 0


@pytest.mark.parametrize(
    "entries",
    [np.full((2, 2), np.nan), [[1.0, np.nan], [np.nan, 0.0]], [[1.0, np.inf], [np.inf, 0.0]]],
)
def test_density_matrix_rejects_non_finite_entries(entries):
    # every other check is a comparison, which NaN passes by comparing false
    with pytest.raises(ValueError, match="density matrix entries must be finite"):
        DensityMatrix(np.asarray(entries))


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 14),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_density_matrix_psd_check_matches_full_spectrum(dim, data, seed):
    # A Hermitian block on a random support, zero elsewhere, with eigenvalues
    # that may be clearly negative, near the floor or zero: accepting or
    # rejecting it must agree with eigvalsh of the whole matrix.
    support = sorted(data.draw(st.sets(st.integers(0, dim - 1), min_size=1), label="support"))
    eigenvalue = st.one_of(st.floats(-0.3, 1.0), st.sampled_from([0.0, -5e-10, -2e-9, -1e-6]))
    lams = np.array(data.draw(st.lists(eigenvalue, min_size=len(support), max_size=len(support)),
                              label="eigenvalues"))
    assume(lams.sum() > 0.1)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(len(support),) * 2) + 1j * rng.normal(size=(len(support),) * 2))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.ix_(support, support)] = (u * (lams / lams.sum())) @ u.conj().T
    full_min = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
    assume(abs(full_min - fock.PSD_FLOOR) > 1e-12)  # no rounding-level ties at the floor
    try:
        DensityMatrix(mat)
        accepted = True
    except ValueError as exc:
        assert "positive semidefinite" in str(exc)
        accepted = False
    assert accepted == (full_min >= fock.PSD_FLOOR)


# at, inside and past the Cholesky test's margin |PSD_FLOOR|/2, both sides of
# the floor by one part in 1e6, and clearly negative
EDGE_EIGENVALUES = (0.0, -2.5e-10, -5e-10, -7.5e-10, fock.PSD_FLOOR * (1 + 1e-6), fock.PSD_FLOOR * (1 - 1e-6),
                    -2e-9, -1e-6)


def eigensolve_psd_message(mat):
    """The eigensolve-only check on the Hermitized support block: None to accept, else its message."""
    nonzero = mat != 0
    s = int(np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))[-1]) + 1
    block = mat[:s, :s]
    min_eig = float(np.linalg.eigvalsh(0.5 * (block + block.conj().T)).min())
    if min_eig < fock.PSD_FLOOR:
        return f"density matrix not positive semidefinite: min eigenvalue {min_eig:g}"
    return None


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0))


@settings(max_examples=120, deadline=None)
@given(dim=st.integers(1, 12), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_density_matrix_support_checks_match_full_matrix_checks(dim, data, seed):
    # A Hermitian block on a random leading support (none: the zero matrix),
    # maybe off trace, maybe with one non-Hermitian entry and with NaN or inf
    # anywhere: checking finiteness and Hermiticity on the support block
    # alone must give the full-matrix checks' message, or else the
    # eigensolve's.
    rng = np.random.default_rng(seed)
    s = data.draw(st.integers(0, dim), label="support")
    mat = np.zeros((dim, dim), dtype=complex)
    if s:
        g = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        block = g @ g.conj().T if data.draw(st.booleans(), label="psd") else g + g.conj().T
        mat[:s, :s] = block / np.trace(block).real
    mat *= data.draw(st.sampled_from([1.0, 1.0, 0.5, 1.0 + 2e-10]), label="trace")
    index = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    if data.draw(st.booleans(), label="non-Hermitian"):
        mat[data.draw(index, label="at")] += data.draw(st.sampled_from([5e-11, 2e-10, 0.3, 0.3j]), label="by")
    for _ in range(data.draw(st.integers(0, 2), label="non-finite entries")):
        mat[data.draw(index, label="at")] = data.draw(st.sampled_from(NON_FINITE), label="value")
    expected = density_matrix_full_checks(mat) or eigensolve_psd_message(mat)
    try:
        DensityMatrix(mat)
        message = None
    except ValueError as exc:
        message = str(exc)
    assert message == expected


@pytest.mark.parametrize(
    "mat, message",
    [
        (np.zeros((1, 1)), "density matrix trace must be 1, got 0j"),
        (np.zeros((7, 7)), "density matrix trace must be 1, got 0j"),
        (np.diag([0.5, 0.5 + 0.3j, 0.0]), "density matrix not Hermitian: defect 0.6"),  # in the block's last row only
        (np.diag([1.0, 0.0, np.nan]), "density matrix entries must be finite"),  # NaN widens the support
    ],
    ids=["zero-1", "zero-7", "last-diagonal-imaginary", "nan-past-the-rest"],
)
def test_density_matrix_support_edge_cases(mat, message):
    assert density_matrix_full_checks(mat) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DensityMatrix(mat)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 200), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_density_matrix_psd_check_matches_eigensolve_up_to_dim_200(dim, data, seed):
    # A trace-one Hermitian matrix on a random support of any size, with
    # eigenvalues at the edge values above and random positive ones: the
    # Cholesky test with its eigensolve fallback must give the eigensolve's
    # decision and message, and agree with eigvalsh of the whole matrix.
    rng = np.random.default_rng(seed)
    size = dim - data.draw(st.integers(0, dim - 1), label="zero rows")
    support = np.sort(rng.choice(dim, size, replace=False))
    edges = data.draw(st.lists(st.sampled_from(EDGE_EIGENVALUES), max_size=size - 1), label="edge eigenvalues")
    positive = rng.uniform(0.01, 1.0, size - len(edges))
    lams = np.concatenate([edges, positive * ((1.0 - sum(edges)) / positive.sum())])
    u, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.ix_(support, support)] = (u * lams) @ u.conj().T
    expected = eigensolve_psd_message(mat)
    try:
        DensityMatrix(mat)
        message = None
    except ValueError as exc:
        message = str(exc)
    assert message == expected
    full_min = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
    if abs(full_min - fock.PSD_FLOOR) > 1e-12:  # rounding-level ties are decided by the block's eigvalsh above
        assert (message is None) == (full_min >= fock.PSD_FLOOR)
    if message is not None:
        reported = float(message.rsplit(" ", 1)[1])
        assert abs(reported - full_min) <= 1e-5 * abs(full_min) + 1e-14
