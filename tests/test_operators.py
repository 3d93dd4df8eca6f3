import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gkpsq import fock, operators
from gkpsq.fock import DensityMatrix, FockState, ResourceCapError, coherent_displacement, displacement_blocks
from gkpsq.operators import (
    GKP_DET,
    KAPPA_MINUS,
    KAPPA_PLUS,
    PRESET_NAMES,
    ChannelConvergenceWarning,
    ChannelParams,
    GridSpec,
    TruncatedOperator,
    _invariant_blocks,
    apply_channel,
    approx_gkp_state,
    build_operator,
    build_operators,
    expectation,
    gaussian_route_from_q0,
    ground_state,
    ground_values,
    preset_grid,
    sin2_expectation,
    transform_grid,
)
from gkpsq.analytic import ApproxGKPParams, channel_affine_xi, channel_output_xi, xi_finite_superposition
from oracles import (
    binomial_shift_full_slices,
    dense_mean,
    dense_sin2_expectation,
    full_block_ground_state,
    full_block_operator,
    gauss_hermite_channel,
    trapezoid_operator,
    vacuum_sin2_integral,
)
from strategies import reshaped_grids, symplectic_maps

SQRT_PI = math.sqrt(math.pi)
SQRT_PI_2 = math.sqrt(math.pi / 2.0)


def test_preset_coefficients_and_validity():
    q0 = preset_grid("q0")
    assert (q0.c11, q0.c22) == (SQRT_PI / 2.0, SQRT_PI)
    assert q0.det == pytest.approx(GKP_DET, abs=1e-12)
    assert q0.gkp_valid

    s0 = preset_grid("s0")
    assert s0.c11 == s0.c22 == pytest.approx(SQRT_PI_2)
    assert s0.c11 * s0.c22 == pytest.approx(math.pi / 2.0)  # determinant check
    assert s0.gkp_valid

    hexg = preset_grid("hex")
    assert KAPPA_PLUS**2 - KAPPA_MINUS**2 == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert hexg.gkp_valid

    q1 = preset_grid("q1")
    assert q1.d1 == pytest.approx(math.pi / 2.0)
    assert (q1.c11, q1.c22) == (q0.c11, q0.c22)

    assert not preset_grid("general", a=1.0, b=1.0).gkp_valid


def test_preset_unknown_topology():
    with pytest.raises(ValueError):
        preset_grid("square")
    with pytest.raises(ValueError):
        preset_grid("general", a=-1.0, b=2.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 0.0, math.inf)


def test_row_waves():
    grid = GridSpec(1.0, 1.0, 0.0, 2.0, d1=0.3, d2=0.4)
    (z1, phi1, d1), (z2, phi2, d2) = grid.row_waves()
    assert z1 == pytest.approx(math.sqrt(2.0))
    assert phi1 == pytest.approx(math.pi / 4.0)
    assert (d1, d2) == (0.3, 0.4)
    assert z2 == pytest.approx(2.0)
    assert phi2 == pytest.approx(math.pi / 2.0)


def test_transform_identity_displacement_gives_q1():
    q0 = preset_grid("q0")
    out = transform_grid(q0, np.eye(2), (SQRT_PI, 0.0))
    q1 = preset_grid("q1")
    assert out.d1 == pytest.approx(q1.d1, abs=1e-12)
    assert out.d2 == pytest.approx(0.0, abs=1e-12)
    assert out.coefficient_matrix == pytest.approx(q1.coefficient_matrix)
    A, alpha = gaussian_route_from_q0("q1")
    assert np.abs(A - np.eye(2)).max() < 1e-12
    assert alpha == pytest.approx([SQRT_PI, 0.0], abs=1e-12)


def test_transform_squeeze_gives_s0_s1():
    q0 = preset_grid("q0")
    for target in ("s0", "s1"):
        A, alpha = gaussian_route_from_q0(target)
        out = transform_grid(q0, A, alpha)
        ref = preset_grid(target)
        assert np.abs(out.coefficient_matrix - ref.coefficient_matrix).max() < 1e-12
        assert out.d1 == pytest.approx(ref.d1, abs=1e-12)
        assert out.d2 == pytest.approx(ref.d2, abs=1e-12)
        assert out.gkp_valid


def test_transform_hex_route():
    q0 = preset_grid("q0")
    A, alpha = gaussian_route_from_q0("hex")
    out = transform_grid(q0, A, alpha)
    ref = preset_grid("hex")
    assert np.abs(out.coefficient_matrix - ref.coefficient_matrix).max() < 1e-10
    assert out.gkp_valid
    # the q0 -> s0 squeeze, then a squeeze by ln(3)/4 along the diagonals
    r = math.log(3.0) / 4.0
    diagonal = np.array([[math.cosh(r), -math.sinh(r)], [-math.sinh(r), math.cosh(r)]])
    assert np.abs(A - np.diag([math.sqrt(2.0), 1.0 / math.sqrt(2.0)]) @ diagonal).max() < 1e-12
    assert not alpha.any()


def test_transform_rejects_nonsymplectic():
    with pytest.raises(ValueError):
        transform_grid(preset_grid("q0"), np.diag([2.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(
    start=st.one_of(
        st.sampled_from(PRESET_NAMES).map(preset_grid),
        st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)).map(lambda ab: preset_grid("general", *ab)),
    ),
    maps=st.lists(symplectic_maps, min_size=1, max_size=4),
    shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
def test_transform_preserves_validity_for_any_symplectic_map(start, maps, shift):
    assume(abs(abs(start.det) - GKP_DET) > 1e-6 or start.gkp_valid)
    grid = start
    for A in maps:
        grid = transform_grid(grid, A, shift)
        assert grid.gkp_valid == start.gkp_valid
        assert grid.det == pytest.approx(start.det, rel=1e-12)


def test_transform_preserves_validity(rng):
    grid = preset_grid("s0")
    for _ in range(20):
        r = rng.uniform(-0.8, 0.8)
        th1, th2 = rng.uniform(0, 2 * math.pi, size=2)

        def rot(t):
            return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])

        A = rot(th1) @ np.diag([math.exp(r), math.exp(-r)]) @ rot(th2)
        grid = transform_grid(grid, A, rng.normal(size=2))
        assert grid.gkp_valid


def test_single_entry_matches_vacuum_value():
    # 1x1 truncation equals the vacuum expectation of the untruncated operator
    s0 = preset_grid("s0")
    target = 2.0 - 2.0 * math.exp(-math.pi / 2.0)
    op = build_operator(s0, 1)
    assert op.matrix.shape == (1, 1)
    assert op.matrix[0, 0].real == pytest.approx(target, abs=1e-8)

    for a, b in [(0.6, 1.3), (1.0, 1.0), (SQRT_PI_2, SQRT_PI_2)]:
        grid = preset_grid("general", a=a, b=b)
        entry = build_operator(grid, 1).matrix[0, 0].real
        assert entry == pytest.approx(2.0 - math.exp(-a * a) - math.exp(-b * b), abs=1e-8)
        # independent quadrature-integral oracle
        assert entry == pytest.approx(vacuum_sin2_integral(a) + vacuum_sin2_integral(b), abs=1e-8)


@pytest.mark.parametrize("name", ["q0", "q1", "s0", "s1", "hex"])
@pytest.mark.parametrize("dim", [1, 4, 9])
def test_operator_invariants(name, dim):
    op = build_operator(preset_grid(name), dim)
    herm = np.abs(op.matrix - op.matrix.conj().T).max()
    assert herm < 1e-10
    vals = np.linalg.eigvalsh(op.matrix)
    assert vals.min() > -1e-6
    assert vals.max() < 4.0 + 1e-6


@settings(max_examples=25, deadline=None)
@given(grid=st.one_of(st.sampled_from(PRESET_NAMES).map(preset_grid), reshaped_grids), dim=st.integers(1, 60))
@example(grid=dataclasses.replace(preset_grid("q0"), d1=1.0), dim=9)  # one real block with odd gaps
def test_operator_is_hermitian_entry_for_entry(grid, dim):
    op = build_operator(grid, dim)
    assert np.array_equal(op.matrix, op.matrix.conj().T)
    # ground_state's phase convention: the largest amplitude is real positive
    amps = ground_state(op).state.amplitudes
    lead = amps[np.argmax(np.abs(amps))]
    assert abs(lead.imag) < 1e-12 and lead.real > 0


nested_dims = st.integers(1, 59).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 60)))


@settings(max_examples=25, deadline=None)
@given(grid=reshaped_grids, dims=nested_dims)
def test_truncations_are_exact_compressions(grid, dims):
    # exact blocks make the N-truncation the corner of the M-truncation, so
    # the ground values interlace and inherit positivity from Q
    n, m = dims
    assert grid.gkp_valid
    small, large = build_operator(grid, n), build_operator(grid, m)
    assert np.abs(large.matrix[:n, :n] - small.matrix).max() < 1e-12
    xi_n, xi_m = ground_state(small).xi_min, ground_state(large).xi_min
    assert xi_m <= xi_n + 1e-12
    assert xi_m >= -1e-12


def test_hex_ground_sweep_reaches_dimension_400():
    grid = preset_grid("hex")
    xis = [ground_state(build_operator(grid, n)).xi_min for n in (50, 200, 400)]
    assert xis[0] > xis[1] > xis[2] > 0.0


def test_ground_state_q1_beats_gaussian_bound_at_dim_3():
    gs = ground_state(build_operator(preset_grid("q1"), 3))
    assert gs.xi_min < 1.0


def test_ground_state_monotone_in_dimension():
    grid = preset_grid("q0")
    values = [ground_state(build_operator(grid, n)).xi_min for n in (5, 10, 20)]
    assert values[0] > values[1] > values[2]


def test_ground_state_dim1_equals_entry():
    gs = ground_state(build_operator(preset_grid("s0"), 1))
    assert gs.xi_min == pytest.approx(2.0 - 2.0 * math.exp(-math.pi / 2.0), abs=1e-8)
    assert gs.degeneracy == 1


def test_ground_state_eigen_identity():
    op = build_operator(preset_grid("q0"), 12)
    gs = ground_state(op)
    assert expectation(op, gs.state) == pytest.approx(gs.xi_min, abs=1e-9)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_readme_ground_sweep_matches_fine_trapezoid_operator(name):
    grid = preset_grid(name)
    for dim in (3, 5, 10, 20, 50):
        reference = np.linalg.eigvalsh(trapezoid_operator(grid, dim))[0]
        assert abs(ground_state(build_operator(grid, dim)).xi_min - reference) <= 1e-12


def assert_matches_full_eigensolve(op):
    vals = np.linalg.eigvalsh(op.matrix)
    gs = ground_state(op)
    assert abs(gs.xi_min - vals[0]) <= 1e-12
    assert gs.degeneracy == np.count_nonzero(vals < vals[0] + max(1e-8, 1e-8 * abs(vals[0])))
    assert abs(expectation(op, gs.state) - gs.xi_min) <= 1e-12


half_pi_offsets = st.tuples(st.sampled_from((0.0, math.pi / 2.0)), st.sampled_from((0.0, math.pi / 2.0)))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), A=symplectic_maps, offsets=half_pi_offsets, dim=st.integers(1, 40))
def test_parity_split_matches_full_eigensolve(name, A, offsets, dim):
    grid = dataclasses.replace(transform_grid(preset_grid(name), A), d1=offsets[0], d2=offsets[1])
    assert len(_invariant_blocks(grid)) == 2
    op = build_operator(grid, dim)
    # the even-odd coupling the split discards
    assert np.abs(op.matrix[0::2, 1::2]).max(initial=0.0) <= 1e-13
    assert_matches_full_eigensolve(op)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), A=symplectic_maps,
       d1=st.floats(-math.pi, math.pi), d2=st.floats(-math.pi, math.pi), dim=st.integers(1, 40))
def test_general_offsets_solve_one_block(name, A, d1, d2, dim):
    assume(max(abs(math.sin(2.0 * d1)), abs(math.sin(2.0 * d2))) > 1e-6)
    grid = dataclasses.replace(transform_grid(preset_grid(name), A), d1=d1, d2=d2)
    assert _invariant_blocks(grid) == (slice(None),)
    assert_matches_full_eigensolve(build_operator(grid, dim))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), A=symplectic_maps,
       d1=st.floats(-math.pi, math.pi), d2=st.floats(-math.pi, math.pi), dim=st.integers(1, 60))
def test_odd_gaps_match_full_blocks(name, A, d1, d2, dim):
    # one route for every grid: the entry at gap g is u^g cos 2d (g even) or
    # u^g i sin 2d (g odd) times the real block, and (-1)^g conj of it at -g
    assume(max(abs(math.sin(2.0 * d1)), abs(math.sin(2.0 * d2))) > 1e-6)
    grid = dataclasses.replace(transform_grid(preset_grid(name), A), d1=d1, d2=d2)
    assert np.abs(build_operator(grid, dim).matrix - full_block_operator(grid, dim)).max() <= 1e-13


def test_full_blocks_share_the_build_phases():
    # coherent_displacement puts build_operator's powers u^g on the gap, so the
    # full-block route agrees to a few roundings; phases e^{i theta n} would
    # carry the rounding of theta n, about 1e-14 at this size
    grid = GridSpec(0.8, 0.3, -0.5, 2.1, d1=0.25, d2=-1.1)
    assert np.abs(build_operator(grid, 301).matrix - full_block_operator(grid, 301)).max() <= 1e-15


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), A=st.one_of(st.just(np.eye(2)), symplectic_maps),
       offsets=half_pi_offsets, dim=st.integers(1, 40))
@example(name="hex", A=np.eye(2), offsets=(0.0, 0.0), dim=40)
@example(name="hex", A=np.eye(2), offsets=(math.pi / 2.0, 0.0), dim=33)
def test_parity_halves_match_full_block_oracle(name, A, offsets, dim):
    # the halves route and its real solves against full complex blocks and complex solves
    grid = dataclasses.replace(transform_grid(preset_grid(name), A), d1=offsets[0], d2=offsets[1])
    xi_min, amps, degeneracy = full_block_ground_state(grid, dim)
    gs = ground_state(build_operator(grid, dim))
    assert abs(gs.xi_min - xi_min) <= 1e-13
    assert gs.degeneracy == degeneracy
    if degeneracy == 1:
        assert abs(abs(np.vdot(amps, gs.state.amplitudes)) - 1.0) <= 1e-10
    # the eigenvalues-only solve holds the same bound and the same count
    values_min, values_degeneracy = ground_values(build_operator(grid, dim))
    assert abs(values_min - xi_min) <= 1e-13
    assert values_degeneracy == degeneracy


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("dim", [1, 2, 7, 50, 301])
def test_preset_parity_halves_are_real_after_the_rotation(name, dim):
    grid = preset_grid(name)
    op = build_operator(grid, dim)
    for p in (0, 1):
        half = op.matrix[p::2, p::2]
        # exact quarter turns (-i)^(i - j) on hex, none on the axis-aligned grids
        turns = np.subtract.outer(np.arange(half.shape[0]), np.arange(half.shape[0])) * (name == "hex")
        assert not (half * (-1j) ** (turns % 4)).imag.any()
    # so every block takes the real eigvalsh, and the lowest one the real solves
    _, values, solves = _solver_calls(op)
    assert [block.dtype for block in values] == [np.float64] * min(dim, 2)
    assert [block.dtype for block in solves] == [np.float64] * 2


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("dim", [1, 2, 7, 50, 301])
def test_presets_hold_only_real_halves(name, dim):
    # two float64 parity halves and no N x N complex array
    op = build_operator(preset_grid(name), dim)
    assert [block.dtype for block in op.blocks] == [np.float64] * 2
    assert sum(block.nbytes for block in op.blocks) == 8 * (((dim + 1) // 2) ** 2 + (dim // 2) ** 2)
    ground_state(op)
    assert "matrix" not in vars(op)  # assembled only when read


any_offsets = st.one_of(half_pi_offsets, st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), A=st.one_of(st.just(np.eye(2)), symplectic_maps),
       offsets=any_offsets, dims=nested_dims)
@example(name="hex", A=np.eye(2), offsets=(0.3, -0.7), dims=(7, 50))
@example(name="q0", A=np.eye(2), offsets=(1.0, 0.0), dims=(2, 9))
def test_corner_of_a_build_is_the_smaller_build(name, A, offsets, dims):
    # replace(op, dim=n) reads the leading corner of the larger build's blocks
    grid = dataclasses.replace(transform_grid(preset_grid(name), A), d1=offsets[0], d2=offsets[1])
    n, m = dims
    op = build_operator(grid, m)
    corner = dataclasses.replace(op, dim=n)
    assert np.array_equal(corner.matrix, op.matrix[:n, :n])
    assert ground_values(op, n) == ground_values(corner)
    assert abs(ground_state(corner).xi_min - full_block_ground_state(grid, n)[0]) <= 1e-13


@pytest.mark.parametrize("grid", [
    preset_grid("q0"),
    preset_grid("hex"),  # turned halves
    dataclasses.replace(preset_grid("hex"), d1=0.3, d2=-0.7),  # one complex block
    GridSpec(0.8, 0.3, -0.5, 2.1, d1=0.25, d2=-1.1),
])
@pytest.mark.parametrize("dims", [(600, 600), (301, 600)])
def test_matrix_is_assembled_in_place(grid, dims):
    # each block is copied into its view and turned there: the result is the only
    # full-size array, with the bits of u[:, None] * block * conj(u); numpy's
    # casting buffers for strided views add a fixed few hundred kB
    n, m = dims
    op = dataclasses.replace(build_operator(grid, m), dim=n)
    tracemalloc.start()
    try:
        mat = op.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n**2 + 2**19
    expected = np.zeros((n, n), dtype=complex)
    for sel, block in zip(_invariant_blocks(grid), op.blocks):
        u = op.turn[: len(range(n)[sel])]
        expected[sel, sel] = u[:, None] * block[: u.size, : u.size] * u.conj()
    assert mat.tobytes() == expected.tobytes()


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


# Presets, their images (rotations keep every row length, so tables are shared
# across grids with other turns) and parity-breaking offsets: split and unsplit
# grids mix, and drawing from a small pool repeats grids.
sweep_grids = st.one_of(
    st.sampled_from(PRESET_NAMES).map(preset_grid),
    st.builds(transform_grid, st.sampled_from(PRESET_NAMES).map(preset_grid), symplectic_maps),
    st.builds(transform_grid, st.sampled_from(PRESET_NAMES).map(preset_grid),
              st.floats(0.0, 2.0 * math.pi).map(_rotation)),
    st.builds(lambda name, offsets: dataclasses.replace(preset_grid(name), d1=offsets[0], d2=offsets[1]),
              st.sampled_from(PRESET_NAMES), any_offsets),
)
grid_sequences = st.lists(sweep_grids, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(grids=grid_sequences, dim=st.integers(1, 60))
@example(grids=[preset_grid(name) for name in PRESET_NAMES], dim=50)
@example(grids=[preset_grid("q0"), dataclasses.replace(preset_grid("q0"), d1=0.3), preset_grid("q1")], dim=9)
def test_shared_tables_give_the_bits_of_one_grid_builds(grids, dim):
    ops = list(build_operators(grids, dim))
    assert [op.grid for op in ops] == list(grids)
    for grid, op in zip(grids, ops):
        alone = build_operator(grid, dim)
        assert len(op.blocks) == len(alone.blocks)
        for block, expected in zip(op.blocks, alone.blocks):
            assert block.dtype == expected.dtype and np.array_equal(block, expected)
        assert np.array_equal(op.turn, alone.turn)


def _tables_read(grids, dim):
    """(every Hermite table's float count, every displacement table the builds read) of one `build_operators` pass."""
    read, build = {}, operators._build_from_tables

    def spy(grid, dim, tables):
        read.update(tables)
        return build(grid, dim, tables)

    with mock.patch.object(fock, "hermite_functions", wraps=fock.hermite_functions) as tables, \
            mock.patch.object(operators, "_build_from_tables", side_effect=spy):
        list(build_operators(grids, dim))
    return [(call.args[0] + 1) * call.args[1].size for call in tables.call_args_list], read


def test_one_grid_build_makes_one_hermite_table():
    # q0's two row lengths, tabulated side by side
    sizes, read = _tables_read([preset_grid("q0")], 20)
    assert len(sizes) == 1 and len(read) == 2


_SETS = {1: (slice(None),), 2: (slice(0, None, 2), slice(1, None, 2))}


@settings(max_examples=30, deadline=None)
@given(grids=grid_sequences, dim=st.integers(1, 400))
@example(grids=[preset_grid(name) for name in PRESET_NAMES], dim=50)
@example(grids=[preset_grid(name) for name in PRESET_NAMES], dim=300)  # joint, with columns past |q| = 32
@example(grids=[preset_grid(name) for name in PRESET_NAMES], dim=400)  # one table per shift
def test_joint_table_gives_the_bits_of_one_table_per_shift(grids, dim):
    sizes, read = _tables_read(grids, dim)
    one = dim * fock._displacement_lattice(dim)[1].size  # the floats of one shift's table
    joint = len(read) * one <= fock._SMALL_TABLE_FLOATS
    # one joint call when it fits in 2^20 floats, else one call per shift
    assert sizes == ([len(read) * one] if joint else [one] * len(read))
    for (shift, count), blocks in read.items():
        alone = displacement_blocks(shift, dim, _SETS[count])
        assert len(blocks) == count
        assert all(block.tobytes() == expected.tobytes() for block, expected in zip(blocks, alone))


def test_five_preset_build_peak_at_dimension_1000():
    # one table per shift at this size; the half-step lattice that the
    # pi/reach step replaced peaked at 56.6 MB in this call
    tracemalloc.start()
    try:
        for _ in build_operators([preset_grid(name) for name in PRESET_NAMES], 1000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56_605_537


@pytest.mark.parametrize("dim", [0, 8])
def test_corner_outside_the_build_raises(dim):
    op = build_operator(preset_grid("hex"), 7)
    with pytest.raises(ValueError, match="the states the blocks hold"):
        dataclasses.replace(op, dim=dim)
    with pytest.raises(ValueError, match="the states of the operator"):
        ground_values(op, dim)


def _solver_calls(op):
    """ground_state(op), the matrices its `eigvalsh` calls read, and those its `solve` calls read."""
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
            mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        gs = ground_state(op)
    return gs, [call.args[0] for call in eigvalsh.call_args_list], [call.args[0] for call in solve.call_args_list]


@pytest.mark.parametrize("dim", [1, 2, 7, 50, 201])
def test_non_split_block_is_solved_unturned(dim):
    # hex's mirrored rows with offsets that break parity: one block, complex
    # past N = 1, never turned, handed to eigvalsh as the operator's own block
    # and to the solves as a copy whose diagonal alone is shifted
    op = build_operator(dataclasses.replace(preset_grid("hex"), d1=0.3, d2=-0.7), dim)
    assert len(op.blocks) == 1 and op.blocks[0].dtype == (np.float64 if dim == 1 else np.complex128)
    assert np.array_equal(op.turn, np.ones(dim))
    gs, blocks, solves = _solver_calls(op)
    assert len(blocks) == 1 and blocks[0].shape == (dim, dim) and np.shares_memory(blocks[0], op.blocks[0])
    assert len(solves) == 2 and all(m.dtype == op.blocks[0].dtype and m.shape == (dim, dim) for m in solves)
    off_diagonal = ~np.eye(dim, dtype=bool)
    assert all(np.array_equal(m[off_diagonal], op.blocks[0][off_diagonal]) for m in solves)
    assert gs.xi_min.hex() == float(np.linalg.eigvalsh(op.matrix)[0]).hex()


@pytest.mark.parametrize("dim", [7, 50, 201])
def test_split_halves_the_turn_cannot_make_real_take_the_complex_eigh(dim):
    grid = transform_grid(preset_grid("q0"), [[1.0, 0.3], [0.0, 1.0]])
    assert len(_invariant_blocks(grid)) == 2
    gs, blocks, solves = _solver_calls(build_operator(grid, dim))
    assert [block.dtype for block in blocks] == [np.complex128] * 2
    assert [block.dtype for block in solves] == [np.complex128] * 2
    xi_min, amps, degeneracy = full_block_ground_state(grid, dim)
    assert abs(gs.xi_min - xi_min) <= 1e-13
    assert gs.degeneracy == degeneracy


@pytest.mark.parametrize("dim", [7, 50, 201])
def test_split_halves_the_turn_makes_real_take_the_real_eigh(dim):
    # rows along the diagonals with unequal lengths: u^2 = -i and +i on two
    # tables, so each half is complex and its turn is exactly real
    c = SQRT_PI / 2.0
    grid = GridSpec(c, c, -2.0 * c, 2.0 * c)
    gs, blocks, solves = _solver_calls(build_operator(grid, dim))
    assert [block.dtype for block in blocks] == [np.float64] * 2
    assert [block.dtype for block in solves] == [np.float64] * 2
    xi_min, amps, degeneracy = full_block_ground_state(grid, dim)
    assert abs(gs.xi_min - xi_min) <= 1e-13
    assert gs.degeneracy == degeneracy
    if degeneracy == 1:
        assert abs(abs(np.vdot(amps, gs.state.amplitudes)) - 1.0) <= 1e-10
    # the eigenvalues-only solve holds the same bound and the same count
    values_min, values_degeneracy = ground_values(build_operator(grid, dim))
    assert abs(values_min - xi_min) <= 1e-13
    assert values_degeneracy == degeneracy


def test_degeneracy_counts_both_parity_blocks():
    gs = ground_state(TruncatedOperator(preset_grid("q0"), 7, (2.0 * np.eye(4), 2.0 * np.eye(3)), np.ones(4)))
    assert gs.xi_min == 2.0
    assert gs.degeneracy == 7


# offsets that break parity: the whole basis is one invariant set
ONE_SET = dataclasses.replace(preset_grid("hex"), d1=0.3, d2=-0.7)


def _one_block_operator(block):
    block = np.asarray(block, dtype=float)
    return TruncatedOperator(ONE_SET, len(block), (block,), np.ones(len(block)))


def _residual_and_bound(op, gs):
    """|Q v - xi_min v| of the returned state, and the bound `ground_state` derives for it.

    The block holding the state gives its corner's size n and scale s, and
    delta = 16 eps max(1, s).  The solves leave (3 + n^2/4) delta; the phase
    and the norm applied afterwards round v by at most 3 eps |v|, which
    |A - xi_min I| <= 2 n s turns into at most n delta / 2 more.
    """
    amps = gs.state.amplitudes
    for sel, block in zip(_invariant_blocks(op.grid), op.blocks):
        n = len(range(op.dim)[sel])
        if np.any(amps[sel]):
            break
    delta = 16.0 * np.finfo(float).eps * max(1.0, float(np.abs(block[:n, :n]).max()))
    return float(np.linalg.norm(op.matrix @ amps - gs.xi_min * amps)), (3.0 + n / 2.0 + n * n / 4.0) * delta


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), A=st.one_of(st.just(np.eye(2)), symplectic_maps),
       offsets=st.one_of(st.none(), any_offsets), dim=st.integers(1, 200))
@example(name="hex", A=np.eye(2), offsets=(0.3, -0.7), dim=200)  # one complex block
@example(name="q0", A=np.array([[1.0, 0.3], [0.0, 1.0]]), offsets=None, dim=120)  # sheared: complex halves
@example(name="q1", A=np.eye(2), offsets=None, dim=1)
def test_ground_state_reads_ground_values_level_within_its_residual_bound(name, A, offsets, dim):
    grid = transform_grid(preset_grid(name), A)  # a preset's own offsets when `offsets` is None
    if offsets is not None:
        grid = dataclasses.replace(grid, d1=offsets[0], d2=offsets[1])
    op = build_operator(grid, dim)
    gs = ground_state(op)
    values_min, values_degeneracy = ground_values(op)
    assert np.float64(gs.xi_min).tobytes() == np.float64(values_min).tobytes()
    assert gs.degeneracy == values_degeneracy
    residual, bound = _residual_and_bound(op, gs)
    assert residual <= bound
    assert abs(gs.xi_min - full_block_ground_state(grid, dim)[0]) <= 1e-13


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_small_preset_corners_with_an_exact_level(name, dim):
    # at N <= 5 some corners hold their level exactly, so corner - xi_min I is singular
    grid = preset_grid(name)
    op = build_operator(grid, dim)
    gs = ground_state(op)
    residual, bound = _residual_and_bound(op, gs)
    assert residual <= bound
    xi_min, _, degeneracy = full_block_ground_state(grid, dim)
    assert abs(gs.xi_min - xi_min) <= 1e-13
    assert gs.degeneracy == degeneracy


def test_one_by_one_corner_returns_its_entry_and_the_single_state():
    gs = ground_state(_one_block_operator([[0.75]]))
    assert gs.xi_min == 0.75 and gs.degeneracy == 1
    assert np.array_equal(gs.state.amplitudes, [1.0])


@pytest.mark.parametrize("n, diagonal, gap", [(2, 2.0, 2.0), (4, 3.0, 2.0 * (math.cos(0.6 * math.pi) - math.cos(0.8 * math.pi)))])
def test_antisymmetric_lowest_vector_is_found(n, diagonal, gap):
    # tridiagonal Toeplitz blocks (1 off the diagonal): the lowest vector,
    # sin(j n pi / (n + 1)), is antisymmetric, so a start of ones has no share of it
    block = diagonal * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    op = _one_block_operator(block)
    gs = ground_state(op)
    exact = np.sin(np.arange(1, n + 1) * n * math.pi / (n + 1))
    assert np.allclose(exact, -exact[::-1], rtol=0.0, atol=1e-15)
    residual, bound = _residual_and_bound(op, gs)
    assert residual <= bound
    # eigvalsh's backward error beta = n^2 eps s, the scale s being the diagonal here
    assert abs(gs.xi_min - (diagonal + 2.0 * math.cos(n * math.pi / (n + 1)))) <= n * n * diagonal * np.finfo(float).eps
    # sin of the angle to the exact vector is at most residual / gap
    overlap = abs(np.vdot(exact / np.linalg.norm(exact), gs.state.amplitudes))
    assert overlap >= 1.0 - (bound / gap) ** 2 - 4.0 * np.finfo(float).eps


def test_level_degenerate_within_a_block_returns_a_vector_of_its_eigenspace():
    op = _one_block_operator(np.diag([1.0, 1.0, 3.0]))
    gs = ground_state(op)
    assert gs.xi_min == 1.0 and gs.degeneracy == 2
    residual, bound = _residual_and_bound(op, gs)
    assert residual <= bound


def test_start_orthogonal_to_the_level_raises():
    # a start of ones has no share of the lowest vector (1, -1): the residual check refuses the result
    with mock.patch.object(np, "sin", np.ones_like), pytest.raises(np.linalg.LinAlgError, match="residual"):
        ground_state(_one_block_operator([[2.0, 1.0], [1.0, 2.0]]))


def test_ground_state_peak_is_one_copy_of_the_lowest_block():
    # the solves read one shifted copy of the lowest block; nothing else of its size is held
    op = build_operator(ONE_SET, 400)
    tracemalloc.start()
    try:
        ground_state(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= op.blocks[0].nbytes + 16 * 16 * 400  # and at most 16 complex vectors of length N


def test_expectation_vacuum_equals_classical_oracle():
    op = build_operator(preset_grid("s0"), 10)
    vac = FockState.number_state(0, 10)
    target = vacuum_sin2_integral(SQRT_PI_2) * 2.0
    assert expectation(op, vac) == pytest.approx(target, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), dim=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
def test_expectation_is_linear_for_any_mixture(name, dim, seed, weights):
    op = build_operator(preset_grid(name), dim)
    rng = np.random.default_rng(seed)
    states = [FockState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim)) for _ in weights]
    probs = np.array(weights) / sum(weights)
    mix = DensityMatrix(sum(w * s.density_matrix().entries for w, s in zip(probs, states)))
    mixed = sum(w * expectation(op, s) for w, s in zip(probs, states))
    assert expectation(op, mix) == pytest.approx(mixed, abs=1e-10)


def test_expectation_linear_in_density_matrix(rng):
    op = build_operator(preset_grid("hex"), 14)
    s1 = FockState.normalized(rng.normal(size=14) + 1j * rng.normal(size=14))
    s2 = FockState.normalized(rng.normal(size=14) + 1j * rng.normal(size=14))
    lam = 0.37
    mix = DensityMatrix(lam * s1.density_matrix().entries + (1 - lam) * s2.density_matrix().entries)
    lhs = expectation(op, mix)
    rhs = lam * expectation(op, s1) + (1 - lam) * expectation(op, s2)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_expectation_dimension_mismatch():
    op = build_operator(preset_grid("q0"), 5)
    with pytest.raises(ValueError, match=r"^state dim 6 != operator dim 5$"):
        expectation(op, FockState.number_state(0, 6))
    with pytest.raises(ValueError, match=r"^density matrix dim 6 != operator dim 5$"):
        expectation(op, FockState.number_state(0, 6).density_matrix())
    with pytest.raises(TypeError, match=r"^expected FockState or DensityMatrix, got <class 'numpy.ndarray'>$"):
        expectation(op, np.eye(5) / 5.0)


U = 2.0 ** -53  # unit roundoff of float64
HEX_OFFSET = GridSpec(KAPPA_PLUS, -KAPPA_MINUS, -KAPPA_MINUS, KAPPA_PLUS, d1=0.3, d2=-0.7)  # one complex block
CUSTOM = GridSpec(0.8, 0.3, -0.5, 2.1, d1=0.25, d2=-1.1)  # unsplit, rows of unequal length
contraction_grids = st.sampled_from([preset_grid(n) for n in PRESET_NAMES] + [HEX_OFFSET, CUSTOM]) | reshaped_grids


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): the relative error of a product of k roundings."""
    return k * U / (1.0 - k * U)


def _random_state(seed: int, dim: int, mixed: bool):
    rng = np.random.default_rng(seed)
    if not mixed:
        return FockState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    vecs = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    entries = vecs @ vecs.conj().T
    return DensityMatrix(entries / np.trace(entries).real)


def _contraction_bound(state, matrix: np.ndarray, turn_roundings: int = 0) -> float:
    """Bound on |block contraction - dense contraction| of one mean, from both routes' rounding.

    S is the sum of the magnitudes of the terms: sum |psi_i| |M_ij| |psi_j|,
    or sum |rho_ij| |M_ji|.  A complex dot of length n errs by at most
    gamma_{n+2} times the magnitudes of its terms (Higham, section 3.6), so
    the dense route, M psi then `vdot` or the n diagonal dots of rho M then
    their sum, errs by 2 gamma_{n+2} S.  The block route reads a real block
    with a complex vector's two parts, sqrt(2) gamma_n per entry, then one
    `vdot`: (sqrt(2) + 1) gamma_{n+5} S with slack for the turn's product;
    or, on rho, one `einsum` row sum of at most n products of three factors
    (two complex multiplications each), then a `vdot` with the turn:
    2 gamma_{n+6} S.  Adding the blocks' means costs u S.  `turn_roundings`
    r counts the roundings in the turns of either route, each entry's
    relative error gamma_r.
    """
    n, mags = state.dim, np.abs(matrix)
    if isinstance(state, FockState):
        amps = np.abs(state.amplitudes)
        scale, block_route = float(amps @ mags @ amps), (math.sqrt(2.0) + 1.0) * _gamma(n + 5)
    else:
        scale, block_route = float(np.sum(np.abs(state.entries) * mags.T)), 2.0 * _gamma(n + 6)
    return (2.0 * _gamma(n + 2) + block_route + U + _gamma(turn_roundings)) * scale


@settings(max_examples=200, deadline=None)
@given(grid=contraction_grids, dim=st.integers(1, 80), corner=st.none() | st.integers(1, 80),
       seed=st.integers(0, 2**32 - 1), mixed=st.booleans())
@example(grid=preset_grid("hex"), dim=80, corner=None, seed=1, mixed=True)
@example(grid=HEX_OFFSET, dim=80, corner=None, seed=2, mixed=True)
@example(grid=CUSTOM, dim=80, corner=37, seed=3, mixed=False)
@example(grid=preset_grid("q0"), dim=1, corner=None, seed=4, mixed=True)
def test_block_expectation_matches_dense_contraction(grid, dim, corner, seed, mixed):
    # expectation reads the blocks, never `matrix`; the dense oracle reads it afterwards
    op = build_operator(grid, dim)
    if corner is not None:
        op = dataclasses.replace(op, dim=min(corner, dim))
    state = _random_state(seed, op.dim, mixed)
    got = expectation(op, state)
    assert "matrix" not in vars(op)
    want = dense_mean(state, op.matrix).real
    assert abs(got - want) <= _contraction_bound(state, op.matrix)


@settings(max_examples=200, deadline=None)
@given(c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0), d=st.floats(-4.0, 4.0) | st.just(0.0),
       zero_row=st.booleans(), dim=st.integers(1, 80), seed=st.integers(0, 2**32 - 1), mixed=st.booleans())
@example(c1=0.0, c2=0.0, d=0.7, zero_row=True, dim=40, seed=5, mixed=True)
@example(c1=SQRT_PI / 2.0, c2=0.0, d=0.0, zero_row=False, dim=80, seed=6, mixed=True)
def test_sin2_expectation_matches_dense_coherent_displacement(c1, c2, d, zero_row, dim, seed, mixed):
    if zero_row:
        c1 = c2 = 0.0
    state = _random_state(seed, dim, mixed)
    with mock.patch.object(fock, "coherent_displacement", side_effect=AssertionError("dense block built")):
        got = sin2_expectation(state, c1, c2, d)
    dense = coherent_displacement(math.sqrt(2.0) * complex(-c2, c1), dim)
    # the turns: powers of u, each of at most n factors rounded 6 times (|u| = 1 to 3 ulps, and the
    # product), u^m conj(u^n) in one route against u^(m - n) in the other, and the offset's product
    mean_bound = _contraction_bound(state, dense, turn_roundings=18 * dim + 10)
    assert abs(got - dense_sin2_expectation(state, c1, c2, d)) <= 0.5 * mean_bound + 4.0 * U


def test_sin2_expectation_never_reads_coherent_displacement():
    assert not hasattr(operators, "coherent_displacement")
    rho = FockState.normalized(np.arange(1.0, 11.0)).density_matrix()
    with mock.patch.object(fock, "coherent_displacement", side_effect=AssertionError("dense block built")):
        assert 0.0 <= sin2_expectation(rho, 0.4, -1.2, 0.3) <= 1.0


@pytest.mark.parametrize("grid", [preset_grid("q0"), CUSTOM], ids=["q0", "custom"])
def test_expectation_on_a_fresh_operator_holds_no_square_array(grid):
    # pure: a few complex vectors of length N; mixed: also `einsum`'s buffers, one per operand and the output
    n = 1000
    op = build_operator(grid, n)
    for mixed in (False, True):
        state = _random_state(7, n, mixed)
        tracemalloc.start()
        try:
            expectation(op, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 16 * n + mixed * 4 * 16 * np.getbufsize(), mixed
    assert "matrix" not in vars(op)


def test_two_displacement_routes_agree(rng):
    # assembled operator against the per-row sin^2 expectations
    state = FockState.normalized((rng.normal(size=20) + 1j * rng.normal(size=20)) * np.exp(-np.arange(20) / 4))
    for grid in (preset_grid("hex"), preset_grid("q1"), GridSpec(0.83, -0.41, 0.37, 0.64, d1=0.3, d2=1.1)):
        direct = expectation(build_operator(grid, 20), state)
        split = 2.0 * sin2_expectation(state, grid.c11, grid.c12, grid.d1)
        split += 2.0 * sin2_expectation(state, grid.c21, grid.c22, grid.d2)
        assert split == pytest.approx(direct, abs=1e-9)


def test_equivalent_grids_converge_together():
    # q0 and s0 reshape into each other, so their truncated minima track;
    # measured gap at dimension 50 is ~11%, tolerance set at 12%
    xi_q0 = ground_state(build_operator(preset_grid("q0"), 50)).xi_min
    xi_s0 = ground_state(build_operator(preset_grid("s0"), 50)).xi_min
    assert abs(xi_q0 - xi_s0) / xi_q0 < 0.12


def test_channel_params():
    ch = ChannelParams(eta=0.9, n_thermal=0.05)
    assert ch.noise_variance == pytest.approx(0.05 + 0.05)
    with pytest.raises(ValueError):
        ChannelParams(eta=0.0)
    with pytest.raises(ValueError):
        ChannelParams(eta=0.5, n_thermal=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="n_thermal"):
            ChannelParams(eta=1.0, n_thermal=bad)


def test_channel_composition_is_physical():
    # pure loss composes multiplicatively with no spurious thermal photons
    c1, c2 = ChannelParams(eta=0.9), ChannelParams(eta=0.8)
    both = c1.then(c2)
    assert both.eta == pytest.approx(0.72)
    assert both.n_thermal == 0.0
    # noise added early is attenuated by later loss
    noisy = ChannelParams(eta=1.0, n_thermal=0.2).then(ChannelParams(eta=0.5))
    assert noisy.n_thermal == pytest.approx(0.1)
    assert noisy.noise_variance == pytest.approx(0.1 + 0.25)


def test_apply_channel_identity():
    rho = FockState.normalized([1.0, 0.5, 0.2]).density_matrix()
    out = apply_channel(rho, ChannelParams(eta=1.0), cutoff=6)
    assert np.abs(out.entries[:3, :3] - rho.entries).max() < 1e-12
    assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-12)


def test_apply_channel_vacuum_fixed_point():
    vac = FockState.number_state(0, 4).density_matrix()
    out = apply_channel(vac, ChannelParams(eta=0.6), cutoff=8)
    target = np.zeros((8, 8), dtype=complex)
    target[0, 0] = 1.0
    assert np.abs(out.entries - target).max() < 1e-12


def test_apply_channel_matches_analytic_map(rng):
    grid = preset_grid("s0")
    cutoff = 36
    op = build_operator(grid, cutoff)
    raw = (rng.normal(size=10) + 1j * rng.normal(size=10)) * np.exp(-np.arange(10) / 3)
    state = FockState.normalized(raw)
    ch = ChannelParams(eta=0.85, n_thermal=0.08)
    scale = math.sqrt(ch.eta)
    terms = (
        sin2_expectation(state, grid.c11 * scale, 0.0),
        sin2_expectation(state, 0.0, grid.c22 * scale),
    )
    predicted = channel_output_xi(terms, ch, grid)
    rho_out = apply_channel(state.density_matrix().padded(cutoff), ch, cutoff)
    assert expectation(op, rho_out) == pytest.approx(predicted, abs=1e-6)


def test_apply_channel_warns_when_cutoff_leaks():
    rho = FockState.number_state(8, 10).density_matrix()
    with pytest.warns(ChannelConvergenceWarning):
        apply_channel(rho, ChannelParams(eta=1.0, n_thermal=1.5), cutoff=12)


def test_apply_channel_cutoff_precondition():
    rho = FockState.number_state(0, 6).density_matrix()
    with pytest.raises(ValueError):
        apply_channel(rho, ChannelParams(eta=0.9), cutoff=4)


@pytest.mark.parametrize("ch", [ChannelParams(eta=0.9), ChannelParams(eta=1.0, n_thermal=0.1),
                                ChannelParams(eta=0.9, n_thermal=0.1)],
                         ids=["loss", "noise", "composed"])
def test_apply_channel_resource_cap(monkeypatch, ch):
    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "20")
    rho = FockState.number_state(1, 4).density_matrix()
    assert apply_channel(rho, ch, cutoff=20).dim == 20
    with pytest.raises(ResourceCapError):
        apply_channel(rho, ch, cutoff=21)


def test_apply_channel_matches_gauss_hermite_oracle(rng):
    # The rule's error grows with the noise variance; each order below
    # resolves its variance to rounding (order 21 alone is off by 4e-10 at
    # n_thermal 0.3 and 4e-4 at 1.0).
    cases = [(ChannelParams(1.0, 0.05), 21), (ChannelParams(0.9, 0.1), 21),
             (ChannelParams(0.7, 0.3), 41), (ChannelParams(0.95, 1.0), 61)]
    cutoff = 30
    for _ in range(2):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = FockState.normalized(raw).density_matrix().padded(cutoff)
        for ch, order in cases:
            expected = gauss_hermite_channel(rho.entries, ch.eta, ch.n_thermal, order)
            got = apply_channel(rho, ch, cutoff).entries
            assert np.abs(got - expected).max() < 1e-12, (ch, order)


# Up to four photons and cutoff 40: every channel drawn below (and any
# composition of two) leaks less than 1e-13 of the trace past the cutoff.
CHANNEL_CUTOFF = 40
low_photon_states = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4
).filter(lambda amps: sum(re * re + im * im for re, im in amps) > 1e-2).map(
    lambda amps: FockState.normalized([complex(re, im) for re, im in amps])
    .density_matrix()
    .padded(CHANNEL_CUTOFF)
)
channels = st.builds(ChannelParams, eta=st.floats(0.3, 1.0), n_thermal=st.floats(0.0, 0.25))


@st.composite
def supported_density_matrices(draw):
    """(rho, cutoff): a mixed state on the first `support` number states, support in 1..cutoff."""
    cutoff = draw(st.integers(1, 30))
    support = draw(st.integers(1, cutoff))
    rank = draw(st.integers(1, support))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(support, rank)) + 1j * rng.normal(size=(support, rank))
    mat = amps @ amps.conj().T
    return DensityMatrix(mat / np.trace(mat).real), cutoff


# loss only, noise only, and both
one_or_both_branches = st.one_of(
    st.builds(ChannelParams, eta=st.floats(0.3, 0.99)),
    st.builds(ChannelParams, eta=st.just(1.0), n_thermal=st.floats(1e-3, 0.5)),
    st.builds(ChannelParams, eta=st.floats(0.3, 0.99), n_thermal=st.floats(1e-3, 0.5)),
)


@settings(max_examples=60, deadline=None)
@given(rho_cutoff=supported_density_matrices(), ch=one_or_both_branches)
def test_apply_channel_equals_full_slice_route(rho_cutoff, ch):
    # the support bound skips only exact zeros and keeps each weight's
    # arithmetic, so the result is bit-identical to running every shift
    rho, cutoff = rho_cutoff
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChannelConvergenceWarning)
        got = apply_channel(rho, ch, cutoff).entries
        with mock.patch.object(operators, "_binomial_shift", binomial_shift_full_slices):
            expected = apply_channel(rho, ch, cutoff).entries
    assert np.array_equal(got, expected)
    assert np.array_equal(got, got.conj().T)  # Hermitized over the whole support


def channel_input(cutoff, support):
    rng = np.random.default_rng(12 + support)
    raw = rng.normal(size=support) + 1j * rng.normal(size=support)
    return FockState.normalized(raw).density_matrix().padded(cutoff)


BRANCHES = (ChannelParams(0.9), ChannelParams(1.0, 0.1), ChannelParams(0.8, 0.1))


@pytest.mark.parametrize("cutoff, support", [(120, 12), (120, 120), (200, 12), (200, 200)])
def test_grouped_shifts_equal_full_slice_route(cutoff, support):
    # support 12 runs every shift in groups; full support runs its large
    # slices one shift at a time and groups only the small ones at the end
    rho = channel_input(cutoff, support)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChannelConvergenceWarning)
        for ch in BRANCHES:
            got = apply_channel(rho, ch, cutoff).entries
            with mock.patch.object(operators, "_binomial_shift", binomial_shift_full_slices):
                expected = apply_channel(rho, ch, cutoff).entries
            assert got.tobytes() == expected.tobytes(), ch


@pytest.mark.parametrize("ch", BRANCHES)
def test_apply_channel_memory_at_full_support(ch):
    # the groups' terms stay within a fixed budget, so the peak is a few cutoff^2 entries
    cutoff = 200
    rho = channel_input(cutoff, cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ChannelConvergenceWarning)
        tracemalloc.start()
        try:
            apply_channel(rho, ch, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 8 * 16 * cutoff**2


@pytest.mark.parametrize("cutoff, support", [(40, 12), (40, 40), (200, 12), (200, 200)])
def test_cholesky_test_alone_accepts_every_channel_output(cutoff, support):
    # a channel output is PSD by construction, so its check never needs the eigensolve
    rho = channel_input(cutoff, support)
    with warnings.catch_warnings(), \
            mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigensolve reached")):
        warnings.simplefilter("ignore", ChannelConvergenceWarning)
        for ch in BRANCHES:
            assert apply_channel(rho, ch, cutoff).dim == cutoff


@settings(max_examples=30, deadline=None)
@given(rho=low_photon_states, c1=channels, c2=channels)
def test_apply_channel_composes(rho, c1, c2):
    twice = apply_channel(apply_channel(rho, c1, CHANNEL_CUTOFF), c2, CHANNEL_CUTOFF)
    once = apply_channel(rho, c1.then(c2), CHANNEL_CUTOFF)
    assert np.abs(twice.entries - once.entries).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(rho=low_photon_states, ch=channels)
def test_apply_channel_mean_photon_number(rho, ch):
    ns = np.arange(CHANNEL_CUTOFF)
    n_in = float(np.real(np.diag(rho.entries)) @ ns)
    out = apply_channel(rho, ch, CHANNEL_CUTOFF)
    n_out = float(np.real(np.diag(out.entries)) @ ns)
    assert n_out == pytest.approx(ch.eta * n_in + ch.n_thermal, abs=1e-11)


@settings(max_examples=30, deadline=None)
@given(rho=low_photon_states, ch=channels, theta=st.floats(-math.pi, math.pi))
def test_apply_channel_phase_covariant(rho, ch, theta):
    phase = np.exp(1j * theta * np.arange(CHANNEL_CUTOFF))
    rotate = np.outer(phase, phase.conj())
    rotated_in = DensityMatrix(rotate * rho.entries)
    out = apply_channel(rho, ch, CHANNEL_CUTOFF).entries
    assert np.abs(apply_channel(rotated_in, ch, CHANNEL_CUTOFF).entries - rotate * out).max() < 1e-13


@settings(max_examples=30, deadline=None)
@given(rho=low_photon_states, ch=channels, grid=reshaped_grids)
def test_channel_output_xi_matches_apply_channel_on_any_grid(rho, ch, grid):
    # the channel is phase-covariant, so a tilted or displaced row is damped
    # by its length alone; scored against the exact channel and operator
    scale = math.sqrt(ch.eta)
    terms = tuple(sin2_expectation(rho, scale * c1, scale * c2, d) for c1, c2, d in grid.rows())
    measured = expectation(build_operator(grid, CHANNEL_CUTOFF), apply_channel(rho, ch, CHANNEL_CUTOFF))
    assert channel_output_xi(terms, ch, grid) == pytest.approx(measured, abs=1e-12)


def test_channel_sweep_map_on_ground_states():
    # channel-sweep's scaled-basis map xi_out = gamma xi_in + 2 (1 - gamma)
    # on real s0 ground states, read out on the grid stretched by 1/sqrt(eta)
    s0 = preset_grid("s0")
    cutoff = 200
    for dim in (20, 50):
        gs = ground_state(build_operator(s0, dim))
        rho = gs.state.density_matrix().padded(cutoff)
        for eta, nbar in ((1.0, 0.0), (0.95, 0.0), (0.9, 0.0), (0.8, 0.0), (0.9, 0.1)):
            c = s0.c11 / math.sqrt(eta)
            op = build_operator(GridSpec(c, 0.0, 0.0, c), cutoff)
            measured = expectation(op, apply_channel(rho, ChannelParams(eta, nbar), cutoff))
            v = (1.0 - eta) / (2.0 * eta) + nbar / eta
            assert channel_affine_xi(gs.xi_min, v=v) == pytest.approx(measured, abs=1e-12), (dim, eta, nbar)


def test_approx_state_matches_peak_sum():
    params = ApproxGKPParams(g=0.35, a=SQRT_PI_2, s_max=1)
    state = approx_gkp_state(params, 50)
    op = build_operator(preset_grid("s0"), 50)
    assert expectation(op, state) == pytest.approx(
        xi_finite_superposition(params, preset_grid("s0")), abs=1e-6
    )


def test_approx_state_logical_bit_shifts_peaks():
    even = approx_gkp_state(ApproxGKPParams(g=0.4, a=SQRT_PI_2, s_max=1, logical_bit=0), 40)
    odd = approx_gkp_state(ApproxGKPParams(g=0.4, a=SQRT_PI_2, s_max=1, logical_bit=1), 40)
    # the shifted superposition has larger mean photon number
    ns = np.arange(40)
    n_even = float(np.sum(ns * np.abs(even.amplitudes) ** 2))
    n_odd = float(np.sum(ns * np.abs(odd.amplitudes) ** 2))
    assert n_odd > n_even


@pytest.mark.parametrize("g, s_max, dim", [(1e-6, 2, 2000), (1e-5, 20, 400)])
def test_approx_state_quadrature_past_the_budget_raises_before_any_array(monkeypatch, g, s_max, dim):
    # dim times 176214 and 284012 points: 2.8 and 0.91 GB tables against 15 cap^2 floats (0.48 GB)
    def no_table(*args, **kwargs):
        raise AssertionError("Hermite table built past the budget")

    monkeypatch.setattr(operators, "hermite_functions", no_table)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="quadrature points"):
            approx_gkp_state(ApproxGKPParams(g=g, a=SQRT_PI_2, s_max=s_max), dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_approx_state_default_peak_count():
    params = ApproxGKPParams(g=0.3, a=SQRT_PI_2)
    centers, _ = params.peak_centers_weights()
    s_max = (centers.size - 1) // 2
    # the 1e-12 weight cutoff keeps |centre| <= sqrt(2 ln(1e12) / g) = 13.6
    assert s_max == 6
    explicit = approx_gkp_state(ApproxGKPParams(g=0.3, a=SQRT_PI_2, s_max=s_max), 60)
    assert np.array_equal(approx_gkp_state(params, 60).amplitudes, explicit.amplitudes)
