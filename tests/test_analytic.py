import math
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkpsq import analytic
from gkpsq.analytic import (
    CLASSIFICATIONS,
    PESSIMISTIC_FIXED_P_SQ,
    THRESHOLDS,
    ApproxGKPParams,
    UnphysicalEstimateWarning,
    approx_state_displacement_mean,
    breeding_step_xi,
    channel_affine_xi,
    channel_output_xi,
    classical_bound,
    classical_bound_grid,
    classify_xi,
    db,
    fidelity_bounds,
    gaussian_bound,
    gaussian_bound_grid,
    grid_squeezing,
    grid_squeezing_bounds_from_xi,
    loss_to_noise_variance,
    min_eta_for_band,
    xi_approx_symmetric,
    xi_finite_superposition,
    xi_from_grid_squeezing,
)
from gkpsq.fock import ResourceCapError
from gkpsq.operators import (
    PRESET_NAMES,
    ChannelParams,
    GridSpec,
    approx_gkp_state,
    build_operator,
    expectation,
    preset_grid,
)
from oracles import peak_superposition_xi_bruteforce, symmetric_root_bisect, vacuum_sin2_integral
from strategies import reshaped_grids

SQRT_PI_2 = math.sqrt(math.pi / 2.0)


def test_classical_bound_values():
    assert classical_bound(SQRT_PI_2, SQRT_PI_2) == pytest.approx(2 - 2 * math.exp(-math.pi / 2), abs=1e-14)
    assert classical_bound(1e-6, 1e-6) == pytest.approx(0.0, abs=1e-10)
    for a, b in [(0.7, 1.4), (1.1, 0.3)]:
        oracle = vacuum_sin2_integral(a) + vacuum_sin2_integral(b)
        assert classical_bound(a, b) == pytest.approx(oracle, abs=1e-10)
    with pytest.raises(ValueError):
        classical_bound(-1.0, 1.0)


def test_classical_bound_grid_ignores_offsets():
    tilted = GridSpec(0.6, 0.8, -1.0, 0.5, d1=0.7, d2=2.1)
    expected = 2 - math.exp(-(0.6**2 + 0.8**2)) - math.exp(-(1.0**2 + 0.5**2))
    assert classical_bound_grid(tilted) == pytest.approx(expected, abs=1e-14)
    s0 = preset_grid("s0")
    assert classical_bound_grid(s0) == pytest.approx(classical_bound(s0.c11, s0.c22))


def test_gaussian_bound_above_log2_is_one():
    assert gaussian_bound(SQRT_PI_2, SQRT_PI_2) == 1.0
    assert gaussian_bound(1.0, math.log(2.0)) == 1.0  # a*b = ln 2 boundary


def test_gaussian_bound_single_point_range_is_classical():
    a, b = 0.9, 1.2
    assert gaussian_bound(a, b, g_range=(1.0, 1.0)) == pytest.approx(classical_bound(a, b), abs=1e-12)


def test_gaussian_bound_interior_minimum():
    # independent 1-d oracle: dense scan plus local refinement
    a = b = 0.5
    gs = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 400001))
    vals = 2 - np.exp(-a * a / gs) - np.exp(-b * b * gs)
    oracle = float(vals.min())
    got = gaussian_bound(a, b)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(2 - 2 * math.exp(-0.25), abs=1e-9)  # symmetric minimum at g=1


def test_gaussian_bound_restricted_range():
    a = b = SQRT_PI_2
    relaxed = gaussian_bound(a, b, g_range=(0.5, 2.0))
    assert relaxed > 1.0  # finite squeezing cannot reach the unrestricted bound
    # minimum sits at the range endpoints (both give the same value by symmetry)
    assert relaxed == pytest.approx(2 - math.exp(-math.pi) - math.exp(-math.pi / 4), abs=1e-9)
    with pytest.raises(ValueError):
        gaussian_bound(a, b, g_range=(2.0, 0.5))


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.05, 3.0),
    b=st.floats(0.05, 3.0),
    g_range=st.none() | st.tuples(st.floats(-6.0, 6.0), st.floats(0.0, 8.0)).map(
        lambda t: (math.exp(t[0]), math.exp(t[0] + t[1]))
    ),
)
def test_gaussian_bound_matches_dense_scan(a, b, g_range):
    # independent oracle: the objective on a dense log grid of g, wide
    # enough unrestricted for the limiting value 1 to show to 1e-6
    lo, hi = g_range if g_range is not None else (1e-9, 1e9)
    gs = np.exp(np.linspace(math.log(lo), math.log(hi), 20001))
    scan = float(np.min(2 - np.exp(-a * a / gs) - np.exp(-b * b * gs)))
    got = gaussian_bound(a, b, g_range)
    assert got <= scan + 1e-12
    assert got == pytest.approx(scan, abs=1e-6)


def test_xi_approx_symmetric():
    assert xi_approx_symmetric(0.1) == pytest.approx(0.2907280016935332, abs=1e-12)
    assert xi_approx_symmetric(0.1) == pytest.approx(0.2908, abs=1e-4)
    assert xi_approx_symmetric(1e-9) == pytest.approx(0.0, abs=1e-8)
    assert xi_approx_symmetric(1.0) == pytest.approx(classical_bound(SQRT_PI_2, SQRT_PI_2), abs=1e-14)
    with pytest.raises(ValueError):
        xi_approx_symmetric(0.0)


def test_single_peak_matches_single_gaussian_integral():
    g = 0.27
    params = ApproxGKPParams(g=g, a=SQRT_PI_2, s_max=0)
    got = xi_finite_superposition(params, preset_grid("s0"))
    a = b = SQRT_PI_2
    expected = 2 - math.exp(-a * a * g) - math.exp(-b * b / g)
    assert got == pytest.approx(expected, abs=1e-13)


def test_finite_superposition_matches_bruteforce_oracle():
    s0 = preset_grid("s0")
    for g, s_max, bit in [(0.23, 3, 0), (0.4, 2, 1), (0.1, 5, 0)]:
        params = ApproxGKPParams(g=g, a=SQRT_PI_2, s_max=s_max, logical_bit=bit)
        oracle = peak_superposition_xi_bruteforce(g, SQRT_PI_2, s_max, bit, s0.c11, s0.c22)
        assert xi_finite_superposition(params, s0) == pytest.approx(oracle, abs=1e-12)


def test_finite_superposition_converges_to_closed_form():
    s0 = preset_grid("s0")
    limit = xi_finite_superposition(ApproxGKPParams(g=0.1, a=SQRT_PI_2, s_max=40), s0)
    at6 = xi_finite_superposition(ApproxGKPParams(g=0.1, a=SQRT_PI_2, s_max=6), s0)
    assert abs(at6 - limit) < 1e-9
    assert abs(at6 - xi_approx_symmetric(0.1)) < 1e-6


custom_grids = st.tuples(*[st.floats(-3.0, 3.0)] * 4, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)).filter(
    lambda v: (v[0], v[1]) != (0.0, 0.0) and (v[2], v[3]) != (0.0, 0.0)
).map(lambda v: GridSpec(*v[:4], d1=v[4], d2=v[5]))


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(0.01, 3.0),
    a=st.floats(0.2, 3.0),
    s_max=st.one_of(st.none(), st.integers(0, 12)),
    bit=st.sampled_from([0, 1]),
    grid=st.one_of(reshaped_grids, custom_grids),
)
def test_finite_superposition_is_bit_identical_to_per_row_means(g, a, s_max, bit, grid):
    # one shared peak table gives the same bits as a fresh table per row
    params = ApproxGKPParams(g=g, a=a, s_max=s_max, logical_bit=bit)
    expected = 2.0
    for c1, c2, d in grid.rows():
        mean = approx_state_displacement_mean(params, 2.0 * c1, 2.0 * c2)
        expected -= (complex(math.cos(2.0 * d), math.sin(2.0 * d)) * mean).real
    assert float.hex(xi_finite_superposition(params, grid)) == float.hex(expected)


def test_peak_count_past_the_cap_raises_before_any_array(monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("peak array built past the cap")

    monkeypatch.setenv("GKPSQ_MAX_BUILD_DIM", "21")
    assert ApproxGKPParams(g=0.1, a=SQRT_PI_2, s_max=10).peak_centers_weights()[0].size == 21
    monkeypatch.setattr(analytic.np, "arange", no_arrays)
    for params in (
        ApproxGKPParams(g=0.1, a=SQRT_PI_2, s_max=11),
        ApproxGKPParams(g=0.1, a=SQRT_PI_2, s_max=10**12),
        ApproxGKPParams(g=1e-4, a=SQRT_PI_2),  # auto count: 597 peaks
        ApproxGKPParams(g=5e-324, a=SQRT_PI_2),  # auto count past the float range
        ApproxGKPParams(g=0.1, a=5e-324),
    ):
        with pytest.raises(ResourceCapError, match="exceeds cap 21"):
            xi_finite_superposition(params, preset_grid("s0"))
        with pytest.raises(ResourceCapError):
            approx_state_displacement_mean(params, 1.0, 0.0)


FOCK_PEAK_DIM = 160


@pytest.fixture(scope="module")
def peak_states():
    """Peak superpositions at g = 0.1 and 0.2 with their Fock vectors."""
    params = [ApproxGKPParams(g=g, a=SQRT_PI_2, s_max=3) for g in (0.1, 0.2)]
    return [(p, approx_gkp_state(p, FOCK_PEAK_DIM)) for p in params]


def _fock_gap(peak_states, grid):
    op = build_operator(grid, FOCK_PEAK_DIM)
    return max(abs(xi_finite_superposition(p, grid) - expectation(op, state)) for p, state in peak_states)


def test_finite_superposition_matches_fock_route_on_hex(peak_states):
    assert _fock_gap(peak_states, preset_grid("hex")) < 1e-10


@settings(max_examples=25, deadline=None)
@given(grid=reshaped_grids)
def test_finite_superposition_matches_fock_route_on_any_grid(peak_states, grid):
    # rotated, squeezed and displaced rows read the peak characteristic
    # function off-axis; the exact Fock expectation is the oracle
    assert _fock_gap(peak_states, grid) < 1e-10


def test_grid_squeezing_values():
    assert grid_squeezing(1.0, math.sqrt(2 * math.pi)) == 0.0
    u = math.sqrt(2 * math.pi)
    vac_mean = math.exp(-u * u / 4.0)  # Gaussian characteristic function
    assert grid_squeezing(vac_mean, u) == pytest.approx(1.0, abs=1e-12)
    assert grid_squeezing(0.0, u) == math.inf
    with pytest.warns(UnphysicalEstimateWarning):
        val = grid_squeezing(1.2, u)
    assert val < 0.0


def test_grid_squeezing_of_peak_superposition_is_g():
    g = 0.08
    u = math.sqrt(2 * math.pi)
    params = ApproxGKPParams(g=g, a=SQRT_PI_2)  # auto peak count
    for c1, c2 in ((-u, 0.0), (0.0, -u)):
        mean = approx_state_displacement_mean(params, c1, c2)
        assert grid_squeezing(mean, u) == pytest.approx(g, abs=1e-5)


def test_xi_from_grid_squeezing_consistency():
    g = 0.17
    res = xi_from_grid_squeezing((g, g), "s0")
    assert res.xi == pytest.approx(xi_approx_symmetric(g), abs=1e-14)
    zero = xi_from_grid_squeezing((0.0, 0.0), "s0")
    assert zero.xi == 0.0
    small = xi_from_grid_squeezing((1e-4, 1e-4), "s0")
    assert small.xi_linear == pytest.approx(small.xi, rel=1e-3)
    with pytest.raises(ValueError):
        xi_from_grid_squeezing((g,), "s0")  # one value per row


def test_xi_from_grid_squeezing_q0_reference_point():
    res = xi_from_grid_squeezing((0.089, 0.089), "q0")
    assert res.xi == pytest.approx(2 - math.exp(-math.pi * 0.089 / 4) - math.exp(-math.pi * 0.089), abs=1e-14)
    assert res.xi == pytest.approx(0.3114285, abs=1e-6)
    # quoted to two significant figures as 0.312
    assert res.xi == pytest.approx(0.312, abs=7.5e-4)


def test_grid_squeezing_bounds_zero_and_formulas():
    b = grid_squeezing_bounds_from_xi(0.0, "q0")
    assert b.max_delta_x_sq == 0.0 and b.max_delta_p_sq == 0.0 and b.symmetric_delta_sq == 0.0
    xi = 0.2
    b = grid_squeezing_bounds_from_xi(xi, "q0")
    assert b.max_delta_x_sq == pytest.approx(-4 / math.pi * math.log1p(-xi), abs=1e-14)
    assert b.max_delta_p_sq == pytest.approx(-1 / math.pi * math.log1p(-xi), abs=1e-14)
    # symmetric scenario solves back to xi
    back = xi_from_grid_squeezing((b.symmetric_delta_sq, b.symmetric_delta_sq), "q0")
    assert back.xi == pytest.approx(xi, abs=1e-10)
    s = grid_squeezing_bounds_from_xi(xi, "s0")
    assert s.max_delta_x_sq == s.max_delta_p_sq == pytest.approx(-2 / math.pi * math.log1p(-xi), abs=1e-14)
    # the pinned row sits at half the fault-tolerance band on s0
    assert s.pessimistic_fixed_p_sq == pytest.approx(THRESHOLDS.grid_ft_delta_sq / 2, rel=1e-15)
    with pytest.raises(ValueError):
        grid_squeezing_bounds_from_xi(1.0, "q0")


@settings(max_examples=100, deadline=None)
@given(grid=reshaped_grids, xi=st.floats(0.0, 0.9))
def test_bounds_solve_back_to_xi_on_any_grid(grid, xi):
    # every bound is a grid-squeezing pair on the grid's own rows whose
    # implied squeezing value is xi again
    b = grid_squeezing_bounds_from_xi(xi, grid)
    sym = b.symmetric_delta_sq
    pairs = [(sym, sym), (b.max_delta_x_sq, 0.0), (0.0, b.max_delta_p_sq)]
    if b.pessimistic_delta_x_sq is not None:
        pairs.append((b.pessimistic_delta_x_sq, b.pessimistic_fixed_p_sq))
    for pair in pairs:
        assert xi_from_grid_squeezing(pair, grid).xi == pytest.approx(xi, abs=1e-10)


_coefficient = st.floats(-4.0, 4.0)
# Labelled custom grids: coefficients and offsets in [-4, 4], both rows longer than 1e-3.
long_row_grids = st.tuples(_coefficient, _coefficient, _coefficient, _coefficient, _coefficient, _coefficient).filter(
    lambda c: math.hypot(c[0], c[1]) > 1e-3 and math.hypot(c[2], c[3]) > 1e-3
).map(lambda c: GridSpec(*c[:4], d1=c[4], d2=c[5], label="custom"))


def _squared_row_lengths(grid):
    (c11, c12, _), (c21, c22, _) = (preset_grid(grid) if isinstance(grid, str) else grid).rows()
    return c11**2 + c12**2, c21**2 + c22**2


def _root_tolerance(a, b, ref):
    """4 ulps of the reference root plus its conditioning, 4 eps over the slope of f there."""
    return 4.0 * math.ulp(ref) + 4.0 * sys.float_info.epsilon / (a * math.exp(-a * ref) + b * math.exp(-b * ref))


@settings(max_examples=300, deadline=None)
@given(xi=st.floats(0.0, 1.0, exclude_max=True), grid=st.sampled_from(PRESET_NAMES) | long_row_grids | reshaped_grids)
@example(xi=0.0, grid="q0")  # f(0) == 0: the root is 0
@example(xi=THRESHOLDS.ft_symmetric_xi0, grid="hex")
@example(xi=0.9999999999999999, grid=GridSpec(0.01, 0.0, 0.0, 3.0, d1=0.5, d2=-1.0, label="custom"))
def test_symmetric_bound_matches_bisection(xi, grid):
    # the Newton root against the same f bisected to adjacent floats
    a, b = _squared_row_lengths(grid)
    ref = symmetric_root_bisect(a, b, xi)
    sym = grid_squeezing_bounds_from_xi(xi, grid).symmetric_delta_sq
    assert abs(sym - ref) <= _root_tolerance(a, b, ref)


@pytest.mark.parametrize("grid", ["s0", "s1", preset_grid("general", a=0.7, b=0.7), preset_grid("general", a=3.0, b=3.0)])
def test_symmetric_bound_on_equal_rows_is_the_closed_form(grid):
    # equal rows solve 2 - 2 exp(-a d) = xi: d = -log1p(-xi/2) / a
    a, b = _squared_row_lengths(grid)
    assert a == b
    rng = np.random.default_rng(7)
    for xi in [0.0, 1e-300, 1e-12, THRESHOLDS.ft_symmetric_xi0, 1.0 - 2.0**-53, *rng.uniform(0.0, 1.0, 200)]:
        closed = -math.log1p(-xi / 2.0) / a
        assert abs(grid_squeezing_bounds_from_xi(float(xi), grid).symmetric_delta_sq - closed) <= 4.0 * math.ulp(closed)


def test_symmetric_root_ends_well_inside_its_loop_bound():
    # rows whose squared lengths are log-uniform over 600 decades, xi from
    # 1e-300 to 1 - 2^-53: Newton from d = 0 takes at most 39 steps in 2e5
    # such draws, against a loop bound of 100; each step calls expm1 twice
    rng = random.Random(2024)
    for _ in range(300):
        a, b = 10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-300.0, 300.0)
        xi = min(rng.choice([10.0 ** rng.uniform(-300.0, 0.0), rng.random(), 1.0 - 10.0 ** rng.uniform(-16.0, -1.0)]),
                 1.0 - 2.0**-53)
        with mock.patch("math.expm1", wraps=math.expm1) as expm1:
            d = analytic._symmetric_root(a, b, xi)
        assert expm1.call_count <= 2 * 45
        ref = symmetric_root_bisect(a, b, xi)
        assert abs(d - ref) <= _root_tolerance(a, b, ref)


def test_bounds_reject_a_row_whose_squared_length_overflows():
    grid = GridSpec(1.2e154, 1.2e154, 0.0, 1.0, label="custom")
    with pytest.raises(ValueError, match=r"^squared row lengths inf, 1\.0 are not finite and positive$"):
        grid_squeezing_bounds_from_xi(0.1, grid)


@pytest.mark.parametrize("grid", [GridSpec(1e-155, 0.0, 0.0, 1.0), GridSpec(0.0, 1e-160, 1e-160, 0.0)])
def test_bounds_reject_a_row_whose_bound_overflows(grid):
    # squared lengths 1e-310 and 1e-320 put -ln(1 - xi) / z^2 past the float range
    with pytest.raises(ValueError, match=r"^squared row length 1e-3[12]0 puts its bound past the float range$"):
        grid_squeezing_bounds_from_xi(THRESHOLDS.ft_symmetric_xi0, grid)


def test_pessimistic_scenario_crosses_band_at_ft_sufficient():
    # the pinned row and a first row at the band add up to the crossing xi
    z1_sq, _ = _squared_row_lengths("q0")
    crossing = 2.0 - math.exp(-math.pi * PESSIMISTIC_FIXED_P_SQ) - math.exp(-THRESHOLDS.grid_ft_delta_sq * z1_sq)
    assert crossing == pytest.approx(THRESHOLDS.ft_sufficient_xi0, abs=5e-4)
    bound = grid_squeezing_bounds_from_xi(crossing, "q0").pessimistic_delta_x_sq
    assert bound == pytest.approx(THRESHOLDS.grid_ft_delta_sq, rel=1e-12)


def test_fidelity_bounds():
    g = 0.1
    xi1 = xi_approx_symmetric(g)
    lo, hi = fidelity_bounds(1.0, g)
    assert lo == hi == pytest.approx(xi1, abs=1e-14)
    assert fidelity_bounds(0.0, g) == (0.0, 4.0)
    lo, hi = fidelity_bounds(0.9, g)
    assert lo == pytest.approx(0.9 * xi1, abs=1e-12)
    assert hi == pytest.approx(0.9 * xi1 + 0.4, abs=1e-12)
    assert (lo, hi) == pytest.approx((0.2617, 0.6617), abs=5e-5)
    with pytest.raises(ValueError):
        fidelity_bounds(1.1, g)


@settings(max_examples=300, deadline=None)
@given(
    f=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308])),
        min_size=1,
        max_size=100,
    ).map(np.array),
    g=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(f=np.linspace(0.0, 1.0, 101), g=0.1)
@example(f=np.array([5e-324, 1.0]), g=5e-324)
@example(f=np.array([0.5]), g=1.7e308)  # pi g / 2 overflows: xi1 = 2
def test_fidelity_bounds_on_an_array_match_each_scalar_call_bit_for_bit(f, g):
    lower, upper = fidelity_bounds(f, g)
    pairs = [fidelity_bounds(float(x), g) for x in f]
    assert all(type(bound) is float for pair in pairs for bound in pair)
    assert lower.tobytes() == np.array([lo for lo, _ in pairs]).tobytes()
    assert upper.tobytes() == np.array([hi for _, hi in pairs]).tobytes()


@pytest.mark.parametrize("f", [[0.5, -0.5, 2.0], [1.0, math.nan, -1.0], [0.0, 1.0, 1.0000000000000002], [-5e-324]])
@pytest.mark.parametrize("g", [0.1, math.nan])
def test_fidelity_bounds_on_an_array_name_the_first_bad_f_as_the_scalar_call_does(f, g):
    first = next(x for x in f if not 0.0 <= x <= 1.0)
    with pytest.raises(ValueError) as scalar:
        fidelity_bounds(first, g)
    with pytest.raises(ValueError) as array:
        fidelity_bounds(np.array(f), g)
    assert str(array.value) == str(scalar.value) == f"fidelity must be in [0, 1], got {first}"


def test_channel_identity():
    ch = ChannelParams(eta=1.0, n_thermal=0.0)
    grid = preset_grid("general", a=0.8, b=1.1)
    assert channel_output_xi((0.2, 0.3), ch, grid) == pytest.approx(1.0, abs=1e-14)
    assert channel_affine_xi(0.42, eta=1.0) == pytest.approx(0.42, abs=1e-14)


def test_channel_affine_xi_rejects_non_finite_variance():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="noise variance"):
            channel_affine_xi(0.5, v=bad)


def test_loss_noise_equivalence_numbers():
    v = loss_to_noise_variance(0.9)
    assert v == pytest.approx(1.0 / 18.0, abs=1e-12)
    assert round(v, 3) == 0.056  # the quoted equivalent thermal-photon number
    out = channel_affine_xi(0.0, eta=0.9)
    assert out == pytest.approx(0.3203016, abs=1e-6)
    assert out == pytest.approx(0.3199, abs=5e-4)  # value quoted at coarse rounding


def test_channel_term_map_semigroup():
    # applying the per-term damping through an intermediate grid equals the
    # composed physical channel applied once
    a, b = 0.9, 1.3
    eta1, eta2 = 0.85, 0.9
    n1, n2 = 0.03, 0.05
    ch1, ch2 = ChannelParams(eta1, n1), ChannelParams(eta2, n2)
    both = ch1.then(ch2)
    tx, tp = 0.21, 0.34  # input expectations on the fully rescaled grid
    # stage 1 seen on the grid (a sqrt(eta2), b sqrt(eta2))
    gx1 = math.exp(-2 * (a * math.sqrt(eta2)) ** 2 * ch1.noise_variance)
    gp1 = math.exp(-2 * (b * math.sqrt(eta2)) ** 2 * ch1.noise_variance)
    mid = (gx1 * tx + (1 - gx1) / 2, gp1 * tp + (1 - gp1) / 2)
    grid = preset_grid("general", a=a, b=b)
    sequential = channel_output_xi(mid, ch2, grid)
    composed = channel_output_xi((tx, tp), both, grid)
    assert sequential == pytest.approx(composed, abs=1e-10)
    # pure-loss composition in the scaled-basis affine form
    pure = ChannelParams(0.9).then(ChannelParams(0.8))
    assert pure.eta == pytest.approx(0.72, abs=1e-15)
    for xi_in in (0.0, 0.3, 1.2):
        once = channel_affine_xi(xi_in, eta=0.72)
        via_compose = channel_affine_xi(xi_in, eta=pure.eta)
        assert once == pytest.approx(via_compose, abs=1e-10)


def test_min_eta_for_band():
    eta_possible = min_eta_for_band(THRESHOLDS.ft_necessary_xi0)
    assert eta_possible == pytest.approx(0.9025495, abs=1e-6)
    assert round(1 - eta_possible, 2) == 0.10  # "roughly 10% losses"
    eta_guaranteed = min_eta_for_band(THRESHOLDS.ft_sufficient_xi0)
    assert eta_guaranteed == pytest.approx(0.9574042, abs=1e-6)
    # at the cutoff the best reachable output sits exactly on the band
    assert channel_affine_xi(0.0, eta=eta_possible) == pytest.approx(0.312, abs=1e-9)


def test_breeding_step_values():
    assert breeding_step_xi(0.0, 0.0) == 0.0
    assert breeding_step_xi(0.5, 0.1) == pytest.approx(1.0 + 0.2, abs=1e-14)
    with pytest.raises(ValueError):
        breeding_step_xi(1.2, 0.0)


def test_breeding_step_never_improves_matched_input():
    # formula-level scan: output on the stretched grid versus input on its own
    a_in = SQRT_PI_2
    for g in np.linspace(0.05, 1.0, 20):
        params = ApproxGKPParams(g=float(g), a=a_in)
        tx = 0.5 * (1.0 - approx_state_displacement_mean(params, 2 * a_in, 0.0).real)
        tp = 0.5 * (1.0 - approx_state_displacement_mean(params, 0.0, 2 * a_in).real)
        xi_in = 2 * tx + 2 * tp
        xi_out = breeding_step_xi(tx, tp)
        assert xi_out >= xi_in - 1e-12
        assert tx <= 0.5  # the improvement condition is never met


def test_db_values():
    assert db(1.0) == 0.0
    assert db(0.135) == pytest.approx(-8.6967, abs=1e-3)
    assert db(0.312) == pytest.approx(-5.0585, abs=1e-3)
    assert db(0.0) == -math.inf
    assert db(-0.5) == -math.inf


def test_classification_bands():
    s0 = preset_grid("s0")
    assert classify_xi(0.05, s0) == "ft-guaranteed"
    assert classify_xi(0.135, s0) == "ft-guaranteed"  # inclusive boundary
    assert classify_xi(0.2, s0) == "ft-possible"
    assert classify_xi(0.312, s0) == "ft-possible"
    assert classify_xi(0.9, s0) == "sub-Gaussian"
    assert classify_xi(1.0, s0) == "sub-Gaussian"
    assert classify_xi(1.3, s0) == "sub-classical"
    assert classify_xi(1.7, s0) == "none"


def test_gaussian_floor_follows_grid_determinant():
    for name in ("q0", "q1", "s0", "s1", "hex"):
        assert gaussian_bound_grid(preset_grid(name)) == 1.0
    # |det| < ln 2: the balanced squeeze gives the floor 2 - 2 exp(-|det|)
    small = GridSpec(0.5, 0.0, 0.0, 0.5)
    assert gaussian_bound_grid(small) == pytest.approx(2 - 2 * math.exp(-0.25), abs=1e-9)
    tilted = GridSpec(0.3, 0.4, -0.2, 0.5)  # det 0.23, rows not orthogonal
    assert gaussian_bound_grid(tilted) == pytest.approx(2 - 2 * math.exp(-0.23), abs=1e-9)
    assert gaussian_bound_grid(tilted) < classical_bound_grid(tilted)
    assert gaussian_bound_grid(GridSpec(1.0, 2.0, 0.5, 1.0)) == 0.0  # singular


def test_classification_uses_grid_floors():
    # ft bands hold on GKP-valid grids only, and "sub-Gaussian" means below
    # the grid's own Gaussian floor
    small = GridSpec(0.5, 0.0, 0.0, 0.5)
    floor = gaussian_bound_grid(small)
    assert classify_xi(0.05, small) == "sub-Gaussian"
    assert classify_xi(floor, small) == "sub-Gaussian"
    assert classify_xi(0.9, small) == "none"
    singular = GridSpec(1.0, 2.0, 0.5, 1.0)
    assert classify_xi(0.0, singular) == "sub-classical"
    assert classify_xi(0.05, preset_grid("hex")) == "ft-guaranteed"


@settings(max_examples=200, deadline=None)
@given(
    rows=st.tuples(*[st.floats(-3.0, 3.0)] * 4).filter(
        lambda c: (c[0], c[1]) != (0.0, 0.0) and (c[2], c[3]) != (0.0, 0.0)
    ),
    xis=st.tuples(st.floats(-1.0, 5.0), st.floats(-1.0, 5.0)).map(sorted),
)
def test_classification_monotone_in_xi(rows, xis):
    # a smaller xi never lands in a weaker band, whatever the grid's floor
    grid = GridSpec(*rows)
    lower, higher = (CLASSIFICATIONS.index(classify_xi(xi, grid)) for xi in xis)
    assert lower >= higher
