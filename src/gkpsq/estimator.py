"""Squeezing estimation from homodyne quadrature samples.

The measure is a sum of two sin^2 expectations along the grid's argument
directions, so it is estimable from samples of two rotated quadratures:
each row c1*x + c2*p is z * x(phi) with z = hypot(c1, c2) and
phi = atan2(c2, c1).  Estimates are plug-in sample means; error bars come
from the delta method on independent per-angle sample sets.  A synthetic
sampler (inverse-CDF over the exact quadrature pdf) closes the loop for
end-to-end tests.
"""

from __future__ import annotations

import cmath
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import classify_xi, db, grid_squeezing
from .fock import FockState, _check_float_budget, _lattice_reach, quadrature_pdf
from .operators import GKP_DET, GridSpec

TWO_PI = 2.0 * math.pi
DEFAULT_ANGLE_TOLERANCE = 1e-6
# Hard box on the log scale split between the two grid rows.  Past ~e^2 the
# fast row's sin^2 decorrelates between samples and the slow row flattens,
# so the empirical objective only rewards fitting noise; boxing the split
# keeps the search inside the statistically identifiable family.
MAX_LOG_SCALE = 2.0
# Points of the fixed log-scale scan whose best bracket the Newton step polishes.
SCAN_POINTS = 101
_SCAN = np.linspace(-MAX_LOG_SCALE, MAX_LOG_SCALE, SCAN_POINTS)
# Lattice step of the cells `_scan` bins a record into.
SCAN_BIN = 0.02
# ASCII characters that `np.loadtxt` strips from a field as whitespace where
# the line parser does not: `str.splitlines` ends a line at \x0b, \x0c and
# \x1c-\x1e, and `float()` rejects \x1c-\x1f.  The non-ASCII line breaks
# (\x85, \u2028, \u2029) fail the ASCII test first.
_LOADTXT_WHITESPACE_ONLY = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_FIRST_LINE = re.compile(rb"[^\r\n]*")


class UnmeasurableGridError(ValueError):
    """Grid needs quadrature angles that were not measured."""

    def __init__(self, message: str, required_angles=()):
        super().__init__(message)
        self.required_angles = tuple(required_angles)


class SampleParseError(ValueError):
    """Sample file is malformed; message carries the line number."""


def _checked_angle(angle) -> float:
    """`angle` as a float; ValueError unless it lies in [0, pi)."""
    angle = float(angle)
    if not 0.0 <= angle < math.pi:
        raise ValueError(f"angles must lie in [0, pi), got {angle}")
    return angle


@dataclass
class QuadratureSamples:
    """Homodyne outcomes grouped by measurement angle (radians in [0, pi))."""

    records: list[tuple[float, np.ndarray]]

    def __post_init__(self):
        cleaned = []
        for angle, values in self.records:
            angle = _checked_angle(angle)
            vals = np.asarray(values, dtype=float).reshape(-1)
            if vals.size == 0:
                raise ValueError(f"empty sample list for angle {angle}")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite sample for angle {angle}")
            cleaned.append((angle, vals))
        if not cleaned:
            raise ValueError("no sample records")
        self.records = cleaned

    @property
    def angles(self) -> list[float]:
        return [angle for angle, _ in self.records]

    @property
    def counts(self) -> dict[float, int]:
        return {angle: int(values.size) for angle, values in self.records}


@dataclass
class SqueezingReport:
    """Point estimate of the squeezing value with its uncertainty and band."""

    xi: float
    std_error: float
    xi_db: float
    grid: GridSpec
    classification: str
    sample_counts: dict[float, int]


@dataclass
class DisplacementMeanEstimate:
    """Sample mean of exp(-i u q) with per-component standard errors."""

    mean: complex
    se_real: float
    se_imag: float
    n: int


@dataclass
class GridSqueezingEstimate:
    delta_sq: float
    std_error: float
    reliable: bool


@dataclass
class OptimizeResult:
    """Best grid found over the measured angles and its squeezing value."""

    best_grid: GridSpec
    m_gkp: float
    angles_used: tuple[float, float]
    report: SqueezingReport  # `estimate_xi` on best_grid, delta-method error
    note: str = "grid search restricted to the measured homodyne angles"

    @property
    def xi_opt(self) -> float:
        return self.report.xi

    @property
    def std_error(self) -> float:
        return self.report.std_error


def _canonical_direction(phi: float) -> tuple[float, float]:
    """Reduce a direction to [0, pi); x(phi) = sign * x(canonical)."""
    phi = phi % TWO_PI
    return (phi - math.pi, -1.0) if phi >= math.pi else (phi, 1.0)


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"angle_tolerance must be finite and >= 0, got {tolerance!r}")


def _orientation(delta: float, tolerance: float) -> float:
    """1.0 if angles `delta` in [0, pi) apart measure one direction, -1.0 if across the wrap at pi, else 0.0."""
    return 1.0 if delta <= tolerance else -1.0 if math.pi - delta <= tolerance else 0.0


def _match_angle(
    phi: float, samples: QuadratureSamples, tolerance: float
) -> tuple[np.ndarray, float, float]:
    """Find the one sample record measuring direction phi (mod pi, signed)."""
    phi_c, sign = _canonical_direction(phi)
    matches = [(values, orientation * sign, angle) for angle, values in samples.records
               if (orientation := _orientation(abs(angle - phi_c), tolerance))]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise UnmeasurableGridError(
            f"{len(matches)} measured angles lie within {tolerance:g} rad of {phi_c:.9f} "
            f"({sorted(angle for _, _, angle in matches)}); merge or drop the duplicates",
            required_angles=(phi_c,),
        )
    raise UnmeasurableGridError(
        f"no measured angle within {tolerance:g} rad of {phi_c:.9f} "
        f"(measured: {sorted(samples.angles)})",
        required_angles=(phi_c,),
    )


def _sin2_terms(values: np.ndarray, z: float, d: float, sign: float) -> np.ndarray:
    """Per-sample 2 sin^2(z q + d), with q the outcomes oriented by `sign`."""
    return 2.0 * np.sin(z * (sign * values) + d) ** 2


def _reject_overflow(values: np.ndarray, u: float, angle: float, d: float = 0.0) -> None:
    """Raise ValueError when the phase u q + d of a sample q of the record at `angle` can overflow."""
    peak = float(max(values.max(), -values.min()))
    if math.isinf(u * peak + abs(d)):
        raise ValueError(f"samples at angle {angle!r} reach magnitude {peak:g}, "
                         f"which overflows the phase {u:g} q + {d:g}")


def _term_mean_se(term: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a per-sample term array."""
    se = float(np.std(term, ddof=1) / math.sqrt(term.size)) if term.size > 1 else math.inf
    return float(np.mean(term)), se


def _check_bootstrap(bootstrap: int | None) -> None:
    """ValueError on a resample count below 2, ResourceCapError past the float budget; None passes."""
    if bootstrap is not None:
        if bootstrap < 2:
            raise ValueError(f"bootstrap resample count must be >= 2, got {bootstrap}")
        _check_float_budget(bootstrap, "estimate_xi", f"{bootstrap} bootstrap resamples", "use fewer resamples")


def estimate_xi(
    samples: QuadratureSamples,
    grid: GridSpec,
    angle_tolerance: float = DEFAULT_ANGLE_TOLERANCE,
    bootstrap: int | None = None,
    seed: int = 0,
) -> SqueezingReport:
    """Plug-in estimate of <Q_grid> from per-angle quadrature samples.

    Both argument directions of the grid must match a measured angle within
    the tolerance (mod pi; opposite orientations are folded by negating
    outcomes).  By default the standard errors of the two terms come from
    the delta method and add in quadrature, which assumes the per-angle
    sample sets are independent; pass a `bootstrap` resample count for a
    resampling error bar instead (seeded, so still deterministic).  A
    sample whose phase z q + d overflows raises ValueError, and so does a
    tolerance that is negative or not finite.  A resample count above the
    float budget (`fock._check_float_budget`) raises ResourceCapError
    before any array is made.
    """
    _check_tolerance(angle_tolerance)
    _check_bootstrap(bootstrap)
    total = var = 0.0
    terms = []
    for z, phi, d in grid.row_waves():
        values, sign, angle = _match_angle(phi, samples, angle_tolerance)
        _reject_overflow(values, z, angle, d)
        terms.append(_sin2_terms(values, z, d, sign))
        mean, se = _term_mean_se(terms[-1])
        total += mean
        var += se * se
    if bootstrap is not None:
        rng = np.random.default_rng(seed)
        resampled = np.empty(bootstrap)
        for b in range(bootstrap):
            # the draw and the bits of rng.choice(t, t.size) and np.mean, with less overhead
            resampled[b] = sum(float(np.add.reduce(t[rng.integers(0, t.size, t.size)])) / t.size for t in terms)
        std_error = float(np.std(resampled, ddof=1))
    else:
        std_error = math.sqrt(var)
    return SqueezingReport(
        xi=total,
        std_error=std_error,
        xi_db=db(total),
        grid=grid,
        classification=classify_xi(total, grid),
        sample_counts=samples.counts,
    )


def _phasor_moments(values: np.ndarray, u: float) -> tuple[complex, np.ndarray]:
    """Sample mean of exp(-i u q) and the covariance of its (real, imag) parts."""
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.size == 0:
        raise ValueError("need at least one sample")
    z = _phasors(vals, -u)  # cos(u q) - i sin(u q)
    parts = np.vstack([z.real, z.imag])
    cov = np.cov(parts, ddof=1) / vals.size if vals.size > 1 else np.full((2, 2), np.inf)
    return complex(np.mean(parts[0]), np.mean(parts[1])), cov


def estimate_displacement_mean(values: np.ndarray, u: float) -> DisplacementMeanEstimate:
    """Sample estimate of <exp(-i u q)> = mean cos(u q) - i mean sin(u q)."""
    mean, cov = _phasor_moments(values, u)
    return DisplacementMeanEstimate(
        mean=mean,
        se_real=math.sqrt(cov[0, 0]),
        se_imag=math.sqrt(cov[1, 1]),
        n=np.size(values),
    )


def estimate_grid_squeezing(values: np.ndarray, u: float) -> GridSqueezingEstimate:
    """Plug-in grid squeezing -(4/u^2) ln |<exp(-i u q)>| with delta-method errors.

    When the estimated magnitude is within three standard errors of zero the
    logarithm is unbounded, so the infinite-squeezing sentinel is returned
    with reliable=False, as it is for one sample (a NaN standard error).
    """
    mean, cov = _phasor_moments(values, u)
    a, b = mean.real, mean.imag
    (caa, cab), (_, cbb) = cov.tolist()  # floats, so inf * 0 gives NaN without a warning
    r_sq = a * a + b * b
    r = math.sqrt(r_sq)
    var_r = (a * a * caa + b * b * cbb + 2.0 * a * b * cab) / r_sq if r > 0 else math.inf  # gradient (a, b)/r of r
    se_r = math.sqrt(max(var_r, 0.0))
    if not r > 3.0 * se_r:
        return GridSqueezingEstimate(delta_sq=math.inf, std_error=math.inf, reliable=False)
    se = 4.0 / (u * u) * se_r / r  # d/dr of -ln r is -1/r
    return GridSqueezingEstimate(delta_sq=grid_squeezing(mean, u), std_error=se, reliable=True)


def _distinct_angle_pairs(samples: QuadratureSamples, tolerance: float) -> list[tuple[int, int]]:
    """Index pairs of all records, each ordered by angle.

    Two records within the tolerance (mod pi) measure one direction, which
    `_match_angle` cannot resolve, so they raise UnmeasurableGridError.
    """
    pairs = []
    for i in range(len(samples.records)):
        for j in range(i + 1, len(samples.records)):
            ai, aj = samples.records[i][0], samples.records[j][0]
            if _orientation(abs(aj - ai), tolerance):
                raise UnmeasurableGridError(
                    f"measured angles {ai!r} and {aj!r} coincide within {tolerance:g} rad (mod pi); "
                    "merge or drop the duplicates"
                )
            pairs.append((i, j) if aj > ai else (j, i))
    return pairs


def _phasors(values: np.ndarray, u: float) -> np.ndarray:
    """exp(i u q) for each sample q, as (cos, sin)(u q); overflowing phases give NaN silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = u * values
        z = np.empty(phase.size, dtype=complex)
        np.cos(phase, out=z.real)
        np.sin(phase, out=z.imag)
    return z


def _char_fn(values: np.ndarray, u: float) -> complex:
    """Empirical characteristic function phi(u) = mean exp(i u q).

    Bit-identical to `np.mean(np.exp(1j * u * values))` in less time: the
    complex exp of 0 + i u q is (cos, sin)(u q).  Only the sign of a -0.0
    phase's sine differs, and numpy's sum, which starts from +0.0, drops it.
    """
    return complex(np.mean(_phasors(values, u)))


def _scan(values: np.ndarray, us) -> tuple[np.ndarray, np.ndarray]:
    """|phi(u)| at each u in `us` from binned moments, and a bound on its distance from |`_char_fn`|.

    Each sample splits as q = c + t with c on the SCAN_BIN lattice, and the
    cubic Taylor polynomial of e^{iut} needs four moments of t per cell: it
    errs by at most (u T)^4 / 4!, T the largest |t|.  The rest is rounding:
    with eps = 2^-53, a product of u and a sample or cell errs by
    eps u (Q + T), Q the largest |q|; numpy's sin, cos and complex exp are
    taken to err by 4 ulps; a sum of m terms by 1.01 m eps times the sum of
    their magnitudes, at most n e^{uT}.  Over both routes that stays below
    2^-50 e^{uT} (u (Q + T) + n + 8).  Where e^{uT} overflows (T large
    when floats near Q are far apart) the trivial bound caps it: each
    computed phasor has modulus at most 1 + 12 eps, their sum errs by at
    most 1.5 n^2 eps, and the division and modulus add 3 eps, so
    |`_char_fn`| <= (1 + 12 eps + 1.5 n eps)(1 + 3 eps) < 1 + 2^-50 (n + 8).
    Both values are non-negative, so they differ by at most
    approx + 1 + 2^-50 (n + 8), which the float sum does not round below.
    A bound is inf or NaN only where the lattice or the moments overflow.
    Memory is O(n + cells).
    """
    n, us = values.size, np.asarray(us)
    with np.errstate(over="ignore", invalid="ignore"):
        cells, inverse = np.unique(np.rint(values / SCAN_BIN), return_inverse=True)
        centres = cells * SCAN_BIN
        t = values - centres[inverse]
        moments = np.array([np.bincount(inverse, t**j, cells.size) for j in range(4)], dtype=complex)
        # e^{iut} ~ 1 + iut - (ut)^2 / 2 - i (ut)^3 / 6, summed cell by cell
        phis = (np.array([1.0, 1j * u, -u * u / 2.0, -1j * u**3 / 6.0]) @ (moments @ np.exp(1j * u * centres))
                for u in us)
        approx = np.abs(np.fromiter(phis, complex, us.size)) / n
        spread = float(np.max(np.abs(t)))
        reach = float(np.max(np.abs(values))) + spread
        bound = (us * spread) ** 4 / 24.0 + 2.0**-50 * np.exp(us * spread) * (us * reach + n + 8)
    return approx, np.minimum(bound, approx + (1.0 + 2.0**-50 * (n + 8)))


def _closed_form_offset(phi: complex) -> float:
    """The d in [0, pi) minimizing mean 2 sin^2(z q + d) = 1 - Re(e^{2id} phi(2z))."""
    return (-0.5 * cmath.phase(phi)) % math.pi


def _profile_slopes(rows, base: float, r: float) -> tuple[float, float, float]:
    """xi(r), xi'(r), xi''(r) of xi(r) = sum over rows (values, sign) of 1 - |phi(u)|, u = 2 base e^{sign r}.

    One pass per row gives phi = mean e^{iuq}, summed as `_char_fn` sums it,
    phi' and phi''; then |phi|' = Re(conj(phi) phi') / |phi|, and
    du/dr = sign u.  The derivatives are NaN where some |phi| is 0.
    """
    value, slope, curvature = float(len(rows)), 0.0, 0.0
    for values, sign in rows:
        u = 2.0 * base * math.exp(sign * r)
        z = _phasors(values, u)
        phi = complex(np.mean(z))
        with np.errstate(over="ignore", invalid="ignore"):
            z *= values
            d1 = 1j * complex(np.mean(z))
            d2 = -complex(np.mean(z * values))
        size = abs(phi)
        value -= size
        if size == 0.0:
            slope = curvature = math.nan
            continue
        m1 = (phi.conjugate() * d1).real / size
        m2 = (abs(d1) * abs(d1) + (phi.conjugate() * d2).real - m1 * m1) / size
        slope -= sign * u * m1
        curvature -= u * u * m2 + u * m1
    return value, slope, curvature


def _minimize_on_box(rows, base: float, values: list[float], start=None) -> tuple[float, float]:
    """Minimize the profile of `rows` (see `_profile_slopes`) on the box, given its scan point values.

    Newton's method on the slope polishes the best scan point within the
    bracket of its neighbours, shrinking it to the side where the slope
    changes sign and bisecting where a step leaves it or xi'' <= 0.  It
    stops on a step under 1e-10, a zero or non-finite slope, or 60 steps;
    the scan point is kept unless the last point evaluated is lower.
    `start`, when given, is `_profile_slopes` at the best scan point and
    stands in for the first pass.
    """
    k = int(np.argmin(values))
    a, b = float(_SCAN[max(k - 1, 0)]), float(_SCAN[min(k + 1, SCAN_POINTS - 1)])
    x = float(_SCAN[k])
    for _ in range(60):
        fx, slope, curvature = start or _profile_slopes(rows, base, x)
        start = None
        if slope == 0.0 or not math.isfinite(slope):
            break
        a, b = (a, x) if slope > 0.0 else (x, b)
        step = -slope / curvature if curvature > 0.0 else math.inf
        if not a <= x + step <= b:
            step = 0.5 * (a + b) - x
        if abs(step) < 1e-10:
            break
        x += step
    return (x, fx) if fx < values[k] else (float(_SCAN[k]), values[k])


def _minimize_profile(rows, base: float) -> tuple[float, float]:
    """Minimize xi(r) = sum over rows (values, sign) of 1 - |phi(2 base e^{sign r})| on the box."""
    approx, bound = float(len(rows)), 2.0**-50  # both routes' subtractions forming xi, each within 2^-52
    for values, sign in rows:
        scan, error = _scan(values, [2.0 * base * math.exp(sign * r) for r in _SCAN])
        approx, bound = approx - scan, bound + error
    lower = np.nextafter(approx - bound, -np.inf)  # each end rounded outward
    ruled_out = np.isfinite(lower) & (lower > np.nextafter(approx + bound, np.inf).min())
    passes = [None if out else _profile_slopes(rows, base, r) for out, r in zip(ruled_out, _SCAN)]
    values = [math.inf if p is None else p[0] for p in passes]
    return _minimize_on_box(rows, base, values, passes[int(np.argmin(values))])


def optimize_xi(samples: QuadratureSamples, constrain_gkp_valid: bool = True,
                angle_tolerance: float = DEFAULT_ANGLE_TOLERANCE) -> OptimizeResult:
    """Minimize the estimated squeezing over grids with measured directions.

    Rows are z1 * x(phi1) + d1 and z2 * x(phi2) + d2 with (phi1, phi2)
    running over measured angle pairs.  A row's mean of 2 sin^2(z q + d) is
    1 - Re(e^{2id} phi(2z)) with phi the empirical characteristic function,
    so its best offset is d = -arg(phi(2z))/2 mod pi, leaving 1 - |phi(2z)|.
    With the GKP-validity constraint, z1 z2 sin(phi2 - phi1) = pi/2 and
    z_i = base * exp(+-r) leave the profile xi(r) = 2 - |phi1(2 z1)| -
    |phi2(2 z2)|; without it each row is its own profile in its log scale.
    Log scales are boxed at MAX_LOG_SCALE (see above), scanned, and polished
    by Newton's method on the profile's closed-form slope
    (`_minimize_on_box`).  Returns m_gkp = -ln(xi_opt) with the best grid.

    The scan is certified: `_scan` bounds the profile at every scan point,
    a point whose lower bound is finite and strictly above the smallest
    upper bound gets +inf, and every other point its exact value, so the
    polish sees the argmin (the first on ties), bracket and value of the
    exhaustive scan, and every output is its bits.  A negative or
    non-finite tolerance raises ValueError before any scan, and so does a
    record whose phase 2 z q overflows at its pair's largest
    z = base e^MAX_LOG_SCALE, before that pair is scanned.
    """
    _check_tolerance(angle_tolerance)
    pairs = _distinct_angle_pairs(samples, angle_tolerance)
    if not pairs:
        raise UnmeasurableGridError("optimization needs samples at two distinct angles (mod pi)")

    best = None
    for i, j in pairs:
        phi1, q1 = samples.records[i]
        phi2, q2 = samples.records[j]
        base = math.sqrt(GKP_DET / math.sin(phi2 - phi1))
        for angle, values in ((phi1, q1), (phi2, q2)):
            _reject_overflow(values, 2.0 * base * math.exp(MAX_LOG_SCALE), angle)
        if constrain_gkp_valid:
            r1, xi = _minimize_profile(((q1, 1.0), (q2, -1.0)), base)
            r2 = -r1
        else:
            (r1, xi1), (r2, xi2) = _minimize_profile(((q1, 1.0),), base), _minimize_profile(((q2, 1.0),), base)
            xi = xi1 + xi2
        if best is None or xi < best[0]:
            best = (xi, phi1, phi2, q1, q2, base * math.exp(r1), base * math.exp(r2))

    _, phi1, phi2, q1, q2, z1, z2 = best
    grid = GridSpec(z1 * math.cos(phi1), z1 * math.sin(phi1), z2 * math.cos(phi2), z2 * math.sin(phi2),
                    d1=_closed_form_offset(_char_fn(q1, 2.0 * z1)), d2=_closed_form_offset(_char_fn(q2, 2.0 * z2)),
                    label="optimized")
    report = estimate_xi(samples, grid, angle_tolerance)
    m_gkp = -math.log(report.xi) if report.xi > 0 else math.inf
    return OptimizeResult(best_grid=grid, m_gkp=m_gkp, angles_used=(phi1, phi2), report=report)


def synthesize_samples(state: FockState, angles, n_per_angle: int, seed: int) -> QuadratureSamples:
    """Draw quadrature samples from a pure state by inverse-CDF sampling.

    Every angle is checked to lie in [0, pi) before any work.  One
    `quadrature_pdf` call tabulates the pdf of every angle at 8192 points
    on [-reach, reach], reach = sqrt(2N + 1) + 6, past which every number
    state below N is beyond its turning point by 6.  It builds the Hermite
    table in blocks of 2048 points, each serving all the angles, so the
    call holds about 24 N 2048 bytes of tables instead of 24 N 8192 for
    the whole table.  Each pdf is inverted through its cumulative
    trapezoid; output is deterministic for a given seed.  The points
    resolve |psi|^2 for N up to about 2990; a pdf that misses more than
    1e-6 of the mass raises ValueError.
    """
    if n_per_angle < 1:
        raise ValueError(f"n_per_angle must be >= 1, got {n_per_angle}")
    angles = [_checked_angle(angle) for angle in angles]
    rng = np.random.default_rng(seed)
    reach = _lattice_reach(state.dim)
    grid = np.linspace(-reach, reach, 8192)
    dq = grid[1] - grid[0]
    records = []
    for angle, pdf in zip(angles, quadrature_pdf(state, angles, grid)):
        if pdf.grid_too_narrow:
            raise ValueError(f"sampling grid +-{reach:.6g} misses mass {1.0 - pdf.mass:.3g} at angle {angle!r}")
        cdf = np.zeros(grid.size)
        np.cumsum(0.5 * (pdf.density[1:] + pdf.density[:-1]) * dq, out=cdf[1:])
        cdf /= cdf[-1]
        u = rng.random(n_per_angle)
        records.append((angle, np.interp(u, cdf, grid)))
    return QuadratureSamples(records)


def save_samples(samples: QuadratureSamples, path) -> None:
    """Write the angle,value CSV format (full round-trip precision).

    Not through `cli._write_csv`, whose `np.unique` saves no `repr` on samples that are all distinct.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("angle,value\n")
        for angle, values in samples.records:
            prefix = f"{angle!r},"
            fh.write(prefix + f"\n{prefix}".join(map(repr, values.tolist())) + "\n")


def _is_header(line: str) -> bool:
    return line.strip().lower().replace(" ", "") == "angle,value"


def _load_table(path) -> np.ndarray | None:
    """The file's rows as an (n, 2) float array from one `np.loadtxt` pass.

    Returns None, leaving the file to the line parser, unless the file is
    ASCII, starts with a valid header, holds none of the characters in
    `_LOADTXT_WHITESPACE_ONLY`, and parses to at least one row of two
    fields, each angle in [0, pi) without a sign bit and each value finite.
    A file that passes parses to the same numbers as the line parser: both
    read it as UTF-8 with universal newlines, and `np.loadtxt` converts each
    field with the routine `float()` uses.  The checks read the file as
    bytes; `np.loadtxt` then reads it again in chunks, from the absolute
    path so that its opener never takes the name for a URL.
    """
    try:
        name = os.path.abspath(os.fsdecode(path))
        with open(name, "rb") as fh:
            raw = fh.read()
    except (OSError, TypeError):  # TypeError: `path` is a file descriptor
        return None
    if not raw.isascii() or any(char in raw for char in _LOADTXT_WHITESPACE_ONLY):
        return None
    if not _is_header(_FIRST_LINE.match(raw).group().decode("ascii")):
        return None
    del raw
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(name, delimiter=",", comments=None, skiprows=1, ndmin=2, encoding="utf-8")
    except Exception:  # parse and I/O errors, or those of a decompressor np.loadtxt picks by suffix
        return None
    if table.shape[0] == 0 or table.shape[1] != 2:
        return None
    angles, values = table.T
    # Out-of-range angles and non-finite values are left to the line parser,
    # so its error names the same record; it also merges -0.0 with 0.0.
    if np.signbit(angles).any() or not (angles < math.pi).all() or not np.isfinite(values).all():
        return None
    return table


def _group_rows(table: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Records in order of each angle's first row, values in file order."""
    angles, values = table.T
    order = np.argsort(angles, kind="stable")
    sorted_angles = angles[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_angles[1:] != sorted_angles[:-1])))
    stops = np.append(starts[1:], order.size)
    grouped = values[order]
    # A stable sort keeps each group's first row at its start.
    first_rows = order[starts]
    return [
        (float(sorted_angles[start]), grouped[start:stop])
        for _, start, stop in sorted(zip(first_rows, starts, stops))
    ]


def _load_samples_by_line(path) -> QuadratureSamples:
    """Parse one line at a time; names the first bad line in its error."""
    groups: dict[float, list[float]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SampleParseError(f"{path}: cannot read sample file ({exc})") from exc
    if not lines:
        raise SampleParseError(f"{path}: empty sample file")
    if not _is_header(lines[0]):
        raise SampleParseError(f"{path}: line 1: expected header 'angle,value', got {lines[0]!r}")
    if len(lines) < 2:
        raise SampleParseError(f"{path}: no sample rows after the header")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SampleParseError(f"{path}: line {lineno}: expected 'angle,value', got {line!r}")
        try:
            angle = float(parts[0])
            value = float(parts[1])
        except ValueError:
            raise SampleParseError(f"{path}: line {lineno}: non-numeric field in {line!r}") from None
        groups.setdefault(angle, []).append(value)
    try:
        return QuadratureSamples([(angle, np.asarray(vals)) for angle, vals in groups.items()])
    except ValueError as exc:
        raise SampleParseError(f"{path}: {exc}") from exc


def load_samples(path) -> QuadratureSamples:
    """Read the angle,value CSV format, reporting errors by line number.

    Well-formed files parse in one `np.loadtxt` pass (`_load_table`); every
    other file, and every file that pass might read differently, goes to
    the line parser, which accepts the same files with the same records and
    names the first bad line of the rest.
    """
    table = _load_table(path)
    if table is None:
        return _load_samples_by_line(path)
    return QuadratureSamples(_group_rows(table))
