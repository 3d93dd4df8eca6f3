"""Closed-form results for grid-operator squeezing.

Everything here is plain arithmetic on the measure xi = <Q>: classical and
Gaussian floors, the value on approximate peak-superposition states, the
relation to stabilizer (grid) squeezing and its fault-tolerance bands,
fidelity sandwich bounds, loss/noise maps, and the one-step breeding
output.  Fock-space counterparts in `operators` serve as numerical oracles
for each formula.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import build_dim_cap, check_build_dim
from .operators import ChannelParams, GridSpec, preset_grid

LN2 = math.log(2.0)

# Fault-tolerance bands are quoted to two significant figures.
GRID_FT_DELTA_SQ = 0.089
# Pinned row of the pessimistic scenario, as grid squeezing on q0's second
# row (half the band once converted to the s0 grid).
PESSIMISTIC_FIXED_P_SQ = GRID_FT_DELTA_SQ / 4.0
PEAK_WEIGHT_CUTOFF = 1e-12


class UnphysicalEstimateWarning(RuntimeWarning):
    """Stabilizer mean magnitude above one cannot come from a quantum state."""


@dataclass(frozen=True)
class Thresholds:
    """Reference constants for classifying a squeezing value."""

    ft_sufficient_xi0: float = 0.135
    ft_necessary_xi0: float = 0.312
    ft_symmetric_xi0: float = 0.068
    grid_ft_delta_sq: float = GRID_FT_DELTA_SQ
    grid_ft_db: float = -10.5


THRESHOLDS = Thresholds()

CLASSIFICATIONS = ("none", "sub-classical", "sub-Gaussian", "ft-possible", "ft-guaranteed")


def classical_bound(a: float, b: float) -> float:
    """Minimum of <Q_general(a,b)> over classical (coherent-mixture) states."""
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
        raise ValueError(f"need finite a > 0 and b > 0, got a={a}, b={b}")
    return 2.0 - math.exp(-a * a) - math.exp(-b * b)


def classical_bound_grid(grid: GridSpec) -> float:
    """Classical floor for an arbitrary grid.

    A coherent state can always cancel both offsets, so the floor depends
    only on the Euclidean length of each coefficient row.
    """
    r1, r2 = _row_lengths_sq(grid)
    return 2.0 - math.exp(-r1) - math.exp(-r2)


def _row_lengths_sq(grid: GridSpec) -> tuple[float, float]:
    """Squared lengths z_i^2 = c1^2 + c2^2 of the two coefficient rows; inf past the float range."""

    def square(c: float) -> float:
        try:
            return c**2
        except OverflowError:
            return math.inf

    (c11, c12, _), (c21, c22, _) = grid.rows()
    return square(c11) + square(c12), square(c21) + square(c22)


def _gaussian_value(a: float, b: float, g: float) -> float:
    return 2.0 - math.exp(-a * a / g) - math.exp(-b * b * g)


def gaussian_bound(a: float, b: float, g_range: tuple[float, float] | None = None) -> float:
    """Minimum of <Q_general(a,b)> over Gaussian states.

    Minimizes 2 - exp(-a^2/g) - exp(-b^2*g) over the squeezed-peak variance
    g.  With g = (a/b) e^t the objective is even in t: from 2 - 2 exp(-ab)
    at the balanced point g = a/b it falls monotonically towards 1 when
    ab >= 1, and otherwise rises to one maximum before falling towards 1.
    So the minimum over a range of g (the finite-squeezing relaxation) sits
    at an end or at the balanced point, and the unrestricted infimum is
    1 when ab >= ln 2, else 2 - 2 exp(-ab).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
        raise ValueError(f"need finite a > 0 and b > 0, got a={a}, b={b}")
    if g_range is None:
        return 1.0 if a * b >= LN2 else 2.0 - 2.0 * math.exp(-a * b)
    lo, hi = float(g_range[0]), float(g_range[1])
    if not (0.0 < lo <= hi):
        raise ValueError(f"g_range must satisfy 0 < lo <= hi, got {g_range}")
    candidates = [lo, hi] + ([a / b] if lo <= a / b <= hi else [])
    return min(_gaussian_value(a, b, g) for g in candidates)


def gaussian_bound_grid(grid: GridSpec) -> float:
    """Gaussian floor for an arbitrary grid: gaussian_bound(1, |det C|).

    On a Gaussian state with the best offsets a row contributes
    1 - exp(-2 Var(c . zeta)).  By Robertson the row variances obey
    Var_1 Var_2 >= det^2 / 4, and squeezed states reach it.  Every
    GKP-valid grid has the floor 1; a singular grid has the floor 0.
    """
    det = abs(grid.det)
    return gaussian_bound(1.0, det) if det > 0.0 else 0.0


def xi_approx_symmetric(g: float) -> float:
    """Squeezing of the symmetric-grid peak superposition: 2 - 2 exp(-pi g / 2)."""
    if not (math.isfinite(g) and g > 0):
        raise ValueError(f"need finite g > 0, got {g}")
    return 2.0 - 2.0 * math.exp(-math.pi * g / 2.0)


@dataclass(frozen=True)
class ApproxGKPParams:
    """Finite superposition of squeezed peaks: variance g, half-spacing a."""

    g: float
    a: float
    s_max: int | None = None  # None: truncate by peak-weight cutoff
    logical_bit: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g > 0):
            raise ValueError(f"need finite g > 0, got {self.g}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"need finite a > 0, got {self.a}")
        if self.s_max is not None and self.s_max < 0:
            raise ValueError(f"s_max must be >= 0, got {self.s_max}")
        if self.logical_bit not in (0, 1):
            raise ValueError(f"logical_bit must be 0 or 1, got {self.logical_bit}")

    def peak_centers_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Peak centres (2s + bit) * a and their `_peak_weights`, exp(-g/2 (centre^2 - min centre^2)).

        The closed forms tabulate every pair of the 2 s_max + 1 peaks, so a
        peak count above `build_dim_cap()` raises ResourceCapError first.
        """
        centers = _peak_centers(self.a, self._s_max(), self.logical_bit)
        return centers, _peak_weights(self.g, centers)

    def _s_max(self) -> int:
        """The largest peak index: `s_max`, or when None the count the weight cutoff sets."""
        if self.s_max is not None:
            return self.s_max
        # every peak whose weight clears the cutoff, or past the cap if more
        bound = math.sqrt(-2.0 * math.log(PEAK_WEIGHT_CUTOFF) / self.g)
        return max(1, math.ceil(min((bound / self.a + 1.0) / 2.0, build_dim_cap())))


def _peak_centers(a: float, s_max: int, bit: int) -> np.ndarray:
    """Centres (2s + bit) * a for s = -s_max..s_max, after the cap check on their count."""
    check_build_dim(2 * s_max + 1)
    return (2.0 * np.arange(-s_max, s_max + 1) + (1.0 if bit else 0.0)) * a


def _peak_weights(g: float, x: np.ndarray) -> np.ndarray:
    """exp(-g/2 (x^2 - m^2)), m = min |x|, of the centres x; the factor exp(g/2 m^2) cancels in every normalized use.

    The nearest peaks weigh 1, so bit 1 stays finite at any g or a: x^2 - m^2
    is taken as (x - m)(x + m), which overflows only to inf.  Bit 0 (m = 0)
    keeps the unscaled bits.
    """
    m = np.abs(x).min()
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * g * ((x - m) * (x + m)))


def approx_state_displacement_mean(params: ApproxGKPParams, c1: float, c2: float) -> complex:
    """<exp(i(c1 x + c2 p))> on the peak superposition, the one-s_max, one-shift case of `_peak_means`.

    By BCH, exp(i(c1 x + c2 p)) = e^{i c1 x} e^{i c2 p} e^{i c1 c2/2}.  The
    translation e^{i c2 p} moves each peak by -c2, and the midpoint phase of
    the shifted Gaussian overlap cancels the BCH phase, so the peak pair
    (x_j, x_k) contributes
    exp(-c1^2 g/4 - (c2 + x_j - x_k)^2/(4g) + i c1 (x_j + x_k)/2).
    """
    return _peak_means(params.g, params.a, [params._s_max()], params.logical_bit, [(c1, c2)])[0][0]


def _peak_means(g: float, a: float, s_maxes, bit: int, shifts) -> list[list[complex]]:
    """Peak characteristic function of one g at each shift (c1, c2), indexed [s_max][shift].

    The pairs of the 2 S + 1 peaks at the largest s_max S make one table,
    and each s_max sums its centred corner of 2 s_max + 1 rows, copied
    contiguous so that it sums in the order of a table of its own.  The
    norm's table and then each shift's are built and freed in turn.  The
    prefactor exp(-c1^2 g/4) comes from `math.exp`, as in a one-state form;
    `np.exp` rounds some of them apart.
    """
    top = max(s_maxes)
    x = _peak_centers(a, top, bit)
    corners = [slice(top - s, top + s + 1) for s in s_maxes]
    x1, x2 = x[:, None], x[None, :]
    w = _peak_weights(g, x)
    ww = w[:, None] * w[None, :]
    with np.errstate(over="ignore"):  # a huge or a subnormal g sends exponents to -inf, their exact limit

        def corner_sums(exponent: np.ndarray) -> np.ndarray:
            term = np.exp(exponent, out=exponent)
            term *= ww
            return np.array([np.ascontiguousarray(term[c, c]).sum() for c in corners])

        norms = corner_sums(-((x1 - x2) ** 2) / (4.0 * g))
        means = [math.exp(-c1 * c1 * g / 4.0) * corner_sums(-((c2 + x1 - x2) ** 2) / (4.0 * g)
                                                            + 0.5j * c1 * (x1 + x2)) / norms
                 for c1, c2 in shifts]
    return np.transpose(means).tolist()


def _superposition_xis(g_values, a: float, s_maxes, bit: int, grid: GridSpec) -> list[list[float]]:
    """`xi_finite_superposition` of every (g, s_max) pair on `grid`, indexed [g][s_max], one `_peak_means` call per g."""
    rows = grid.rows()
    shifts = [(2.0 * c1, 2.0 * c2) for c1, c2, _ in rows]
    phases = [complex(math.cos(2.0 * d), math.sin(2.0 * d)) for _, _, d in rows]
    means = (_peak_means(g, a, s_maxes, bit, shifts) for g in g_values)
    return [[2.0 - (phases[0] * m1).real - (phases[1] * m2).real for m1, m2 in by_s] for by_s in means]


def xi_finite_superposition(params: ApproxGKPParams, grid: GridSpec) -> float:
    """<Q_grid> on a finite peak superposition, for any grid: the one-state case of `_superposition_xis`.

    Each row (c1, c2, d) contributes 1 - Re(e^{2id} <exp(2i(c1 x + c2 p))>),
    both rows' means from one `_peak_means` call.
    """
    return _superposition_xis([params.g], params.a, [params._s_max()], params.logical_bit, grid)[0][0]


def grid_squeezing(mean_disp: complex, u: float) -> float:
    """Stabilizer sharpness: -(4/u^2) ln |<exp(-i u q)>|.

    Zero magnitude returns the infinite-squeezing sentinel; magnitudes
    above one are unphysical estimates and come back negative with a
    warning.
    """
    if u == 0:
        raise ValueError("grid constant u must be nonzero")
    r = abs(mean_disp)
    if r == 0.0:
        return math.inf
    if r > 1.0:
        warnings.warn(
            f"stabilizer mean magnitude {r:.6f} exceeds 1; estimate is unphysical",
            UnphysicalEstimateWarning,
        )
    return -4.0 / (u * u) * math.log(r)


class XiFromGrid(NamedTuple):
    xi: float
    xi_linear: float  # high-squeezing approximation


def _as_grid(grid: GridSpec | str) -> GridSpec:
    return preset_grid(grid) if isinstance(grid, str) else grid


def xi_from_grid_squeezing(delta_sq: tuple[float, float], grid: GridSpec | str) -> XiFromGrid:
    """Squeezing value implied by the grid squeezing of each row of `grid`.

    `delta_sq` holds (Delta_1^2, Delta_2^2), each the grid squeezing at
    u = 2 z_i for the row of length z_i = hypot(c1, c2).  With the best
    offset a row contributes 1 - |<exp(2i z_i q)>| = 1 - exp(-z_i^2 Delta_i^2),
    so xi = 2 - exp(-z1^2 Delta_1^2) - exp(-z2^2 Delta_2^2).  A preset name
    is resolved through `preset_grid`.
    """
    rows = _row_lengths_sq(_as_grid(grid))
    terms = [z_sq * d for z_sq, d in zip(rows, delta_sq, strict=True)]
    return XiFromGrid(xi=2.0 - sum(math.exp(-t) for t in terms), xi_linear=sum(terms))


@dataclass(frozen=True)
class GridSqueezingBounds:
    """Upper bounds on the grid squeezing of each row implied by xi.

    `x` names the first row and `p` the second, as on axis-aligned grids.
    """

    grid: str | None
    max_delta_x_sq: float
    max_delta_p_sq: float
    symmetric_delta_sq: float
    pessimistic_delta_x_sq: float | None
    pessimistic_fixed_p_sq: float


def _symmetric_root(a: float, b: float, xi: float) -> float:
    """Finite root d >= 0 of f(d) = -expm1(-a d) - expm1(-b d) - xi, by Newton's method from d = 0.

    f is increasing and concave with f(0) = -xi <= 0, so each tangent step
    lands at or below the root: the iterates climb to it with no bracket,
    until a step no longer increases d.
    """
    d = 0.0
    for _ in range(100):
        f = -math.expm1(-a * d) - math.expm1(-b * d) - xi
        nxt = d - f / (a * math.exp(-a * d) + b * math.exp(-b * d))
        if not d < nxt:
            break
        d = nxt
    return d


def grid_squeezing_bounds_from_xi(xi: float, grid: GridSpec | str) -> GridSqueezingBounds:
    """Upper bounds on each row's grid squeezing for a given xi in [0, 1).

    Each one-sided bound assumes the other row is ideal: -ln(1 - xi) / z_i^2.
    The symmetric scenario gives both rows the same Delta^2.  The
    pessimistic scenario pins the second row at the sharpness
    exp(-pi * PESSIMISTIC_FIXED_P_SQ) and tracks the first row; it is None
    when the pinned row alone already exceeds xi.  A preset name is
    resolved through `preset_grid`.  The symmetric Delta^2 solves
    2 - exp(-z1^2 d) - exp(-z2^2 d) = xi by `_symmetric_root`, within a few
    ulps or, where wider, a few eps over the slope of the left side.
    Raises ValueError for xi outside [0, 1) and for a squared row length
    that is not a positive float or puts its bound, which tops the
    symmetric one, past the float range.
    """
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"bounds are defined for xi in [0, 1), got {xi}")
    grid = _as_grid(grid)
    z1_sq, z2_sq = _row_lengths_sq(grid)
    if not (0.0 < z1_sq < math.inf and 0.0 < z2_sq < math.inf):
        raise ValueError(f"squared row lengths {z1_sq!r}, {z2_sq!r} are not finite and positive")
    lg = math.log1p(-xi)
    if -lg / min(z1_sq, z2_sq) == math.inf:
        raise ValueError(f"squared row length {min(z1_sq, z2_sq)!r} puts its bound past the float range")
    floor = math.exp(-math.pi * PESSIMISTIC_FIXED_P_SQ)
    arg = 2.0 - xi - floor
    return GridSqueezingBounds(
        grid=grid.label,
        max_delta_x_sq=-lg / z1_sq,
        max_delta_p_sq=-lg / z2_sq,
        symmetric_delta_sq=_symmetric_root(z1_sq, z2_sq, xi),
        pessimistic_delta_x_sq=-math.log(arg) / z1_sq if arg < 1.0 else None,
        pessimistic_fixed_p_sq=math.pi * PESSIMISTIC_FIXED_P_SQ / z2_sq,
    )


def fidelity_bounds(f: float | np.ndarray, g: float) -> tuple:
    """Sandwich on xi_s0 for states at fidelity f to the g peak superposition; elementwise on an f array.

    Exact for states of the form f * P_ref + (1-f) * (orthogonal part); the
    eigenvalue range [0, 4] of the operator fixes the width 4*(1-f).
    """
    if not np.all(inside := (0.0 <= f) & (f <= 1.0)):
        raise ValueError(f"fidelity must be in [0, 1], got {float(f[np.argmin(inside)]) if np.ndim(f) else f}")
    xi1 = xi_approx_symmetric(g)
    return f * xi1, f * xi1 + 4.0 * (1.0 - f)


def loss_to_noise_variance(eta: float) -> float:
    """Equivalent added-noise variance of a pure-loss channel in the scaled basis."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return (1.0 - eta) / (2.0 * eta)


def channel_output_xi(
    input_terms: tuple[float, float],
    ch: ChannelParams,
    grid: GridSpec,
) -> float:
    """Squeezing after loss and noise from rescaled input expectations, on any grid.

    input_terms hold each row's <sin^2(sqrt(eta)(c1 x + c2 p) + d)> on the
    *input* state.  The channel is phase-covariant, so it damps a row of
    length z only through gamma = exp(-2 z^2 V), and the row contributes
    2 gamma t + (1 - gamma).
    """
    t1, t2 = input_terms
    if not (-1e-9 <= t1 <= 1.0 + 1e-9 and -1e-9 <= t2 <= 1.0 + 1e-9):
        raise ValueError(f"sin^2 expectations must lie in [0, 1], got {input_terms}")
    v = ch.noise_variance
    g1, g2 = (math.exp(-2.0 * z_sq * v) for z_sq in _row_lengths_sq(grid))
    return 2.0 * g1 * t1 + 2.0 * g2 * t2 + 2.0 - g1 - g2


def channel_affine_xi(xi_in: float, eta: float | None = None, v: float | None = None) -> float:
    """Scaled-basis symmetric-grid map: xi_out = gamma xi_in + 2 (1 - gamma).

    gamma = exp(-pi V); pass either a transmission eta (converted to its
    equivalent noise variance) or the variance V directly.
    """
    if (eta is None) == (v is None):
        raise ValueError("pass exactly one of eta or v")
    if v is None:
        v = loss_to_noise_variance(eta)
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"noise variance must be finite and >= 0, got {v}")
    gamma = math.exp(-math.pi * v)
    return gamma * xi_in + 2.0 * (1.0 - gamma)


def min_eta_for_band(xi_band: float) -> float:
    """Smallest pure-loss transmission for which xi_band stays reachable.

    The scaled-basis map floors the output at 2*(1 - gamma), so the band is
    reachable iff gamma >= 1 - xi_band/2.
    """
    if not 0.0 < xi_band < 2.0:
        raise ValueError(f"band must be in (0, 2), got {xi_band}")
    v_max = -math.log(1.0 - xi_band / 2.0) / math.pi
    return 1.0 / (1.0 + 2.0 * v_max)


def breeding_step_xi(sin2_half_x: float, sin2_double_p: float) -> float:
    """One deterministic breeding step on two identical even-wavefunction inputs.

    Inputs are <sin^2(a x / sqrt(2))> and <sin^2(b sqrt(2) p)> of a single
    input mode; the output is 4 t (1 - t) + 2 s, which never beats the
    matched-grid input value unless t > 1/2.
    """
    t, s = sin2_half_x, sin2_double_p
    if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
        raise ValueError(f"sin^2 expectations must lie in [0, 1], got ({t}, {s})")
    return 4.0 * t * (1.0 - t) + 2.0 * s


def db(xi: float) -> float:
    """Squeezing in decibels, 10 log10(xi); nonpositive values map to -inf."""
    if xi <= 0.0:
        return -math.inf
    return 10.0 * math.log10(xi)


def classify_xi(xi: float, grid: GridSpec) -> str:
    """Band containing xi, with inclusive boundaries.

    Bands from strongest to weakest: ft-guaranteed and ft-possible (on
    GKP-valid grids only, where the constants were derived), sub-Gaussian
    (at or below the grid's Gaussian floor, 1 on GKP-valid grids; never on a
    singular grid), sub-classical (below the grid's classical floor but not
    the Gaussian one), none.
    """
    if grid.gkp_valid:
        if xi <= THRESHOLDS.ft_sufficient_xi0:
            return "ft-guaranteed"
        if xi <= THRESHOLDS.ft_necessary_xi0:
            return "ft-possible"
    if grid.det != 0.0 and xi <= gaussian_bound_grid(grid):
        return "sub-Gaussian"
    if xi <= classical_bound_grid(grid):
        return "sub-classical"
    return "none"
