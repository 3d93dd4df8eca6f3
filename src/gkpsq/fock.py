"""Truncated Fock-space primitives for a single bosonic mode.

Quadrature convention used throughout the package: [x, p] = i with vacuum
variance <x^2> = 1/2, i.e. x = (a + a^dag)/sqrt(2) and
p = -i(a - a^dag)/sqrt(2).  All operators are dense numpy arrays over the
photon-number basis |0>, ..., |N-1>.

Exponentials of quadrature combinations are coherent displacements,
exp(i(cx*x + cp*p)) = D(alpha) with alpha = (-cp + i*cx)/sqrt(2).  Every
displacement matrix element comes from one primitive, `displacement_blocks`,
exact for m, n < N, so an operator assembled from its blocks is the exact
compression of the untruncated one onto the first N number states (the
blocks are not unitary).  `wigner` needs no blocks.  Every Hermite table
comes from `hermite_functions`, and it and every other dense entry point
check the dimension cap (`GKPSQ_MAX_BUILD_DIM`, default 2000) first.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_BUILD_DIM_CAP = 2000
BUILD_DIM_CAP_ENV = "GKPSQ_MAX_BUILD_DIM"

NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
PSD_FLOOR = -1e-9
# |herm|_F^2 of a trace-one PSD matrix is at most 1.
_PSD_NORM_SQ_BOUND = 4.0
# exp(-q^2/2) is 1e-222 here, far above the float underflow near q = 37.6.
HERMITE_SEED_LIMIT = 32.0
_MANTISSA_LIMIT = 2.0 ** 500
_PDF_BLOCK = 2048  # grid points of one Hermite table in `quadrature_pdf`
# 8 MiB of floats: a Hermite table this small is made at any cap, and `build_operators` joins its tables up to it
_SMALL_TABLE_FLOATS = 2**20


class ResourceCapError(RuntimeError):
    """Requested Fock dimension exceeds the configured cap."""


def build_dim_cap() -> int:
    """Cap on the dense Fock dimension, overridable via environment."""
    raw = os.environ.get(BUILD_DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_BUILD_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUILD_DIM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{BUILD_DIM_CAP_ENV} must be positive, got {cap}")
    return cap


def check_build_dim(dim: int) -> None:
    """Raise ValueError below dimension 1 and ResourceCapError above the cap."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    cap = build_dim_cap()
    if dim > cap:
        raise ResourceCapError(f"dimension {dim} exceeds cap {cap}; raise {BUILD_DIM_CAP_ENV} to override")


@dataclass
class FockState:
    """Normalized pure state, complex amplitudes over photon numbers."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise ValueError("state needs at least one amplitude")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: sum |a_k|^2 = {norm_sq!r}")
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, raw) -> "FockState":
        """Build a state from unnormalized amplitudes."""
        amps = np.asarray(raw, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / norm)

    @classmethod
    def number_state(cls, n: int, dim: int) -> "FockState":
        if not 0 <= n < dim:
            raise ValueError(f"need 0 <= n < dim, got n={n}, dim={dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[n] = 1.0
        return cls(amps)

    def padded(self, dim: int) -> "FockState":
        """Zero-pad to a larger dimension."""
        if dim < self.dim:
            raise ValueError(f"cannot pad {self.dim}-dim state down to {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[: self.dim] = self.amplitudes
        return FockState(amps)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass
class DensityMatrix:
    """Trace-one Hermitian positive-semidefinite matrix in the Fock basis.

    Every check but the trace's reads only the support block, s one past
    the last nonzero row or column: NaN and inf count as nonzero, so the
    matrix is finite, Hermitian and PSD exactly when that block is.  The
    PSD check costs one Cholesky, O(s^3 / 3), and one s^2 complex copy, on
    the Hermitized block `herm`.  It accepts when |herm|_F^2 <= 4 and
    `herm + |PSD_FLOOR|/2` has a Cholesky factor.  The factor is exact for
    that matrix plus an error of order s eps trace (1e-13 at s = 1000), so
    every eigenvalue of `herm` is above PSD_FLOOR/2 - 1e-13, and `eigvalsh`,
    off by about s eps |herm| < 1e-12, would accept too.  Only other
    matrices reach `eigvalsh`, which rejects below PSD_FLOOR and reports
    the minimum eigenvalue: every decision and message is the eigensolve's.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if mat.size < 1:
            raise ValueError("density matrix needs at least one entry")
        s = _support(mat)
        block = mat[:s, :s]
        if not np.all(np.isfinite(block)):
            raise ValueError("density matrix entries must be finite")
        herm_defect = float(np.max(np.abs(block - block.conj().T), initial=0.0))
        if herm_defect > HERM_ATOL:
            raise ValueError(f"density matrix not Hermitian: defect {herm_defect:g}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > NORM_ATOL:
            raise ValueError(f"density matrix trace must be 1, got {tr!r}")
        herm = 0.5 * (block + block.conj().T)
        if not _cholesky_accepts(herm):
            min_eig = float(np.linalg.eigvalsh(herm).min())
            if min_eig < PSD_FLOOR:
                raise ValueError(f"density matrix not positive semidefinite: min eigenvalue {min_eig:g}")
        self.entries = mat

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def padded(self, dim: int) -> "DensityMatrix":
        if dim < self.dim:
            raise ValueError(f"cannot pad {self.dim}-dim matrix down to {dim}")
        out = np.zeros((dim, dim), dtype=complex)
        out[: self.dim, : self.dim] = self.entries
        return DensityMatrix(out)


def _support(mat: np.ndarray) -> int:
    """One past the last row or column of `mat` holding a nonzero entry (NaN counts); 0 if none."""
    used = np.flatnonzero(mat.any(axis=0) | mat.any(axis=1))
    return int(used[-1]) + 1 if used.size else 0


def _cholesky_accepts(herm: np.ndarray) -> bool:
    """Whether |herm|_F^2 <= 4 and `herm + |PSD_FLOOR|/2` has a Cholesky factor; `herm` is left as is."""
    if np.vdot(herm, herm).real > _PSD_NORM_SQ_BOUND:
        return False
    shifted = herm.copy()
    shifted.flat[:: herm.shape[0] + 1] += 0.5 * abs(PSD_FLOOR)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def coherent_displacement(alpha: complex, dim: int) -> np.ndarray:
    """Exact matrix elements <m|D(alpha)|n> for m, n < dim.

    The real block of the translation by s = sqrt(2)|alpha| comes from
    `displacement_blocks`; the phases u^(m - n) below the diagonal and
    conj(u)^(n - m) above it, u = alpha/|alpha| raised by `_powers` as in
    `operators.build_operator`, give the direction.  The block holds the
    untruncated operator's matrix elements, so expectations against states
    supported inside the truncation carry no truncation error.  Raises
    ResourceCapError when `dim` exceeds `build_dim_cap()`.
    """
    check_build_dim(dim)
    beta = complex(alpha)
    r = abs(beta)
    if r == 0.0:
        return np.eye(dim, dtype=complex)
    [real_block] = displacement_blocks(math.sqrt(2.0) * r, dim, (slice(None),))
    phases = _powers(beta / r, dim)
    return _toeplitz(phases, phases.conj(), dim) * real_block


def _powers(w: complex, count: int) -> np.ndarray:
    """w^k for 0 <= k < count by doubling: each is a product of at most log2(count) + 1 factors."""
    out = np.ones(count, dtype=complex)
    filled, power = 1, w
    while filled < count:
        take = min(filled, count - filled)
        np.multiply(out[:take], power, out=out[filled : filled + take])
        filled += take
        power = power * power
    return out


def _toeplitz(down: np.ndarray, up: np.ndarray, size: int) -> np.ndarray:
    """T[i, j] = down[i - j] for i >= j and up[j - i] above: a read-only view of line[size - 1 + i - j]."""
    line = np.concatenate((up[size - 1 : 0 : -1], down[:size]))
    step = line.strides[0]
    view = np.ndarray((size, size), line.dtype, line, (size - 1) * step, (step, -step))
    view.flags.writeable = False
    return view


def displacement_blocks(shift: float, dim: int, sets: tuple[slice, ...]) -> list[np.ndarray]:
    """Blocks R[sel, sel] of the real displacement R = D(shift/sqrt(2)), one per index set.

    R[m, n] = <m|D|n> = (-1)^n int h_m(t + s/2) h_n(-t + s/2) dt, an exact
    overlap integral of shifted Hermite functions: by parity
    h_n(t - s/2) = (-1)^n h_n(-t + s/2), so one table
    H[n, l] = h_n(l dt + s/2), |l dt| <= reach = sqrt(2N + 1) + 6, holds
    both factors.  The cross terms of its even and odd parts E, O in t
    cancel, so a block is the symmetric (E E^T - O O^T) dt/2 over l >= 0
    on the set's rows, with the column sign (-1)^n.  A parity set costs a
    quarter of the full product.  The sets share the table, about
    1.5 N^2 floats, freed before the products: a call peaks near 28 N^2
    bytes.  The trapezoid sum has no catastrophic cancellation, unlike
    recurrence or Laguerre-series routes.

    Exactness: each factor's Fourier transform is, up to a phase, the
    same Hermite function, so beyond sqrt(2N + 1) it has the same tail as
    the factor itself.  By Poisson summation the rule at dt = pi/reach
    errs only by the integrand's spectrum at 2 pi/dt = 2 reach, where one
    factor's frequency is at least reach, beyond its turning point by 6;
    past |t| = reach one factor is beyond its turning point by 6 too.  The
    alias and the cut tail are therefore equally, exponentially small.
    `dim` is checked against the cap.
    """
    [blocks] = _lattice_blocks(((shift, sets),), dim)
    return blocks


def _displacement_lattice(dim: int) -> tuple[float, np.ndarray]:
    """(dt, the points l dt with |l dt| <= reach): `displacement_blocks`' lattice before its shift s/2."""
    reach = _lattice_reach(dim)
    step = math.pi / reach
    half = math.floor(reach / step)
    return step, np.arange(-half, half + 1) * step


def _lattice_blocks(requests, dim: int) -> list[list[np.ndarray]]:
    """`displacement_blocks(shift, dim, sets)` of each (shift, sets) in `requests`, from one Hermite table.

    The table holds the requests' lattices side by side; Hermite columns are
    independent, so each block has the bits of a call for its shift alone.
    """
    check_build_dim(dim)
    step, lattice = _displacement_lattice(dim)
    width, half = lattice.size, lattice.size // 2
    h = hermite_functions(dim - 1, np.concatenate([lattice + 0.5 * shift for shift, _ in requests]))
    parts = []
    for k, (_, sets) in enumerate(requests):
        table = h[:, k * width : (k + 1) * width]
        for sel in sets:
            right, left = table[sel, half:], table[sel, half::-1]
            even, odd = right + left, right - left
            even[:, 0] *= math.sqrt(0.5)
            parts.append((sel, even, odd))
    # the table is freed before the products
    del h, table, right, left
    blocks = []
    for sel, even, odd in parts:
        block = (even @ even.T - odd @ odd.T) * (0.5 * step)
        block *= (-1.0) ** np.arange(dim)[sel]  # the column sign (-1)^n
        blocks.append(block)
    ordered = iter(blocks)
    return [[next(ordered) for _ in sets] for _, sets in requests]


def fidelity(s1: FockState, s2: FockState) -> float:
    """|<s1|s2>|^2, zero-padding the shorter state."""
    dim = max(s1.dim, s2.dim)
    a = s1.padded(dim).amplitudes
    b = s2.padded(dim).amplitudes
    val = abs(np.vdot(a, b)) ** 2
    return float(min(val, 1.0))


def hermite_functions(n_max: int, q: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_n_max on the grid q.

    These are the position wavefunctions of the number states in the
    vacuum-variance-1/2 convention; the stable normalized recurrence avoids
    factorial overflow.  Past |q| = HERMITE_SEED_LIMIT the Gaussian seed
    would underflow before orders with turning point sqrt(2n + 1) beyond
    that point (n above about 700) grow back to O(1), so those far columns
    run the recurrence on mantissas with a per-point exponent instead.  One
    loop over the orders computes each column once: the plain recurrence
    runs in place on the hull of the near columns, one slice (every near
    column on a sorted grid), and any far column inside it is overwritten
    order by order.  When no column is far the only extra work is one
    max |q| test.  n_max + 1 is checked against the cap.
    """
    check_build_dim(n_max + 1)
    q = np.asarray(q, dtype=float)
    h = np.empty((n_max + 1, q.size))
    q_near, h_near, far = q, h, None
    if q.size and max(q.max(), -q.min()) > HERMITE_SEED_LIMIT:
        near = np.flatnonzero(np.abs(q) <= HERMITE_SEED_LIMIT)
        hull = slice(near[0], near[-1] + 1) if near.size else slice(0)
        q_near, h_near = q[hull], h[:, hull]
        far = np.flatnonzero(np.abs(q) > HERMITE_SEED_LIMIT)
        if far[-1] - far[0] + 1 == far.size:  # one run of columns, as on a sorted grid's edge
            far = slice(far[0], far[-1] + 1)
        q_far = q[far]
        log_scale = -0.5 * q_far * q_far - 0.25 * math.log(math.pi)
        scale = np.exp(log_scale)
        prev, cur, spare = np.zeros_like(q_far), np.ones_like(q_far), np.empty_like(q_far)
    h_near[0] = np.pi ** -0.25 * np.exp(-0.5 * q_near * q_near)
    if far is not None:  # after the hull, which may hold far columns
        h[0, far] = scale
    for n in range(1, n_max + 1):
        if q_near.size:
            # h[n] = sqrt(2/n) q h[n-1] - sqrt((n-1)/n) h[n-2], written in place
            row = np.multiply(q_near, math.sqrt(2.0 / n), out=h_near[n])
            row *= h_near[n - 1]
            if n > 1:
                row -= math.sqrt((n - 1.0) / n) * h_near[n - 2]
        if far is not None:
            # the same recurrence on mantissas, in three rotating buffers
            np.multiply(q_far, math.sqrt(2.0 / n), out=spare)
            spare *= cur
            prev *= math.sqrt((n - 1.0) / n)
            spare -= prev
            prev, cur, spare = cur, spare, prev
            big = np.abs(cur) > _MANTISSA_LIMIT
            if big.any():
                cur[big] /= _MANTISSA_LIMIT
                prev[big] /= _MANTISSA_LIMIT
                log_scale[big] += math.log(_MANTISSA_LIMIT)
                scale[big] = np.exp(log_scale[big])
            h[n, far] = np.multiply(cur, scale, out=spare)
    return h


def _lattice_reach(dim: int) -> float:
    """sqrt(2 dim + 1) + 6: past it every h_n, n < dim, is beyond its turning point by 6."""
    return math.sqrt(2.0 * dim + 1.0) + 6.0


@dataclass
class QuadraturePdf:
    """Quadrature probability density sampled on a grid."""

    density: np.ndarray
    mass: float
    grid_too_narrow: bool


def quadrature_pdf(state: FockState, angles, q_grid: np.ndarray) -> list[QuadraturePdf]:
    """|psi(q; angle)|^2 for each rotated quadrature x(angle) = x cos + p sin, in the order given.

    Measuring x(angle) on psi is measuring x on exp(-i*angle*n) psi, so each
    wavefunction is a phase-twisted Hermite series.  The grid is taken in
    column blocks of _PDF_BLOCK points, the last one holding the remainder
    (a grid shorter than two blocks is one block): one table
    `hermite_functions(N - 1, q[block])` per block serves every angle, and
    each angle has its own product with it.  No table of the whole grid is
    made: one block's float table and the complex copy, in a buffer sized
    for the widest block, take 24 N _PDF_BLOCK bytes on a grid of whole
    blocks and less than twice that on any grid.  With one BLAS thread a
    density has the bits of one product with the whole table, since no
    block is narrower than _PDF_BLOCK; a threaded BLAS splits each product
    by its width, so off whole blocks the bits of either route follow the
    thread count.  A result carries the probability mass captured by the
    grid, a trapezoid over the whole density; `grid_too_narrow` flags a
    grid that misses more than 1e-6 of it, or a mass that is not finite.
    N is checked against the cap first.
    """
    dim = state.dim
    check_build_dim(dim)
    q = np.asarray(q_grid, dtype=float)
    rotations = [state.amplitudes * np.exp(-1j * angle * np.arange(dim)) for angle in angles]
    densities = [np.empty(q.size) for _ in rotations]
    starts = range(0, max(q.size - _PDF_BLOCK, 0) + 1, _PDF_BLOCK)
    stops = [*starts[1:], q.size]
    # the last block is the widest; each block's complex table reuses its buffer
    buffer = np.empty(dim * (stops[-1] - starts[-1]), dtype=complex)
    for start, stop in zip(starts, stops):
        table = buffer[: dim * (stop - start)].reshape(dim, stop - start)
        np.copyto(table, hermite_functions(dim - 1, q[start:stop]))
        for rotated, density in zip(rotations, densities):
            density[start:stop] = np.abs(rotated @ table) ** 2
    pdfs = []
    for density in densities:
        mass = float(np.trapezoid(density, q)) if q.size > 1 else 0.0
        pdfs.append(QuadraturePdf(density=density, mass=mass, grid_too_narrow=not mass >= 1.0 - 1e-6))
    return pdfs


def wigner(state: FockState, xs, ps) -> np.ndarray:
    """Wigner function W[i, j] = W(xs[i], ps[j]) on a product grid.

    Evaluates the Wigner-Weyl integral
    W(x, p) = (1/pi) int psi*(x + y) psi(x - y) e^{2ipy} dy
    by the trapezoid rule in y.  `xs` must be evenly spaced and increasing;
    `ps` is any axis.  The y step dy = dx/m is the first integer fraction of
    the x step below the alias limit pi/(reach + max|p|), with
    reach = sqrt(2N + 1) + 6, so every x_i +- y_k of a chunk of rows lies on
    one lattice x_first + l*dy, tabulated by one `hermite_functions` call.
    The integrand's spectrum lies within 2(reach + |p|) up to Gaussian
    tails, so by Poisson summation the rule is exact up to an exponentially
    small alias; |y| <= reach covers every point where both factors are
    non-negligible.  Rows with |x| > reach, where W is as small as the cut
    tail, are written as 0.0 untabulated, so the cost is flat in the extent.
    By Cauchy-Schwarz and the same rule, |W| <= 1/pi for any normalized
    input.

    The state's dimension is checked against `build_dim_cap()`.  The output
    and the arrays of one chunk of rows stay within 15 cap^2 floats
    together; a grid whose output and single row do not fit raises
    ResourceCapError before any array the size of an axis is made
    (`_wigner_lattice`).
    """
    check_build_dim(state.dim)
    xs = _wigner_axis(xs, "xs")
    ps = _wigner_axis(ps, "ps")
    dx = None
    if xs.size > 1:
        dx = (xs[-1] - xs[0]) / (xs.size - 1)
        if not dx > 0.0:
            raise ValueError("xs must be increasing and evenly spaced")
    m, dy, half, rows = _wigner_lattice(state.dim, dx, max(ps.max(), -ps.min()), xs.size, ps.size)
    if xs.size > 1 and np.abs(np.diff(xs) - dx).max() > 1e-9 * dx:
        raise ValueError("xs must be increasing and evenly spaced")
    ks = np.arange(-half, half + 1)
    phases = np.exp(2j * np.outer(ks * dy, ps))
    amps = state.amplitudes
    out = np.zeros((xs.size, ps.size))
    reach = _lattice_reach(state.dim)
    first = int(np.searchsorted(xs, -reach, side="left"))
    end = int(np.searchsorted(xs, reach, side="right"))
    for start in range(first, end, rows):
        stop = min(start + rows, end)
        h = hermite_functions(state.dim - 1, np.arange(-half, (stop - start - 1) * m + half + 1) * dy + xs[start])
        psi = amps.real @ h + 1j * (amps.imag @ h)
        centres = np.array(range(half, half + (stop - start) * m, m))[:, None]
        f = psi[centres + ks].conj() * psi[centres - ks]
        out[start:stop] = (f @ phases).real * (dy / math.pi)
    return out


def _wigner_axis(values, name: str) -> np.ndarray:
    """`values` as a float array, checked by two reductions: a NaN or inf shows in its min or max."""
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size < 1 or not (np.isfinite(axis.min()) and np.isfinite(axis.max())):
        raise ValueError(f"{name} must be a non-empty 1-D array of finite values")
    return axis


def _wigner_lattice(dim: int, dx: float | None, p_max: float, n_x: int, n_p: int) -> tuple[int, float, int, int]:
    """(m, dy, half, rows): `wigner`'s y step dx/m, its lattice -half..half, and x rows per chunk.

    `dx` is the x step, None for a single x point (any step serves; half the
    alias limit pi/(reach + p_max) gives m = 1), and `p_max` the largest
    |p| of the n_p p values.  m = floor(dx/limit) + 1 and half =
    ceil(reach/dy).  A chunk of c rows holds a dim x ((c - 1) m + width)
    Hermite table, width = 2 half + 1, three complex c x width arrays, the
    complex c x n_p product, and the shared complex width x n_p phases;
    `rows` keeps it and the n_x x n_p output within the float budget.  The
    counts are taken in floating point, where an overflow is inf, from
    these scalars alone, so `cmd_wigner` checks a grid before making its
    axis.
    """
    reach = _lattice_reach(dim)
    limit = math.pi / (reach + p_max)
    if dx is None:
        dx = 0.5 * limit
    with np.errstate(over="ignore", divide="ignore"):
        m = np.floor(dx / limit) + 1.0
        dy = dx / m
        half = np.ceil(reach / dy)
    per_width = dim + 6 + 2 * n_p
    one_row = per_width * (2.0 * half + 1.0) + 2 * n_p
    remedy = "use fewer x or p values, smaller p values or a coarser x step"
    budget = _check_float_budget(one_row + n_x * n_p, "wigner", "one x row and the output", remedy)
    m, half = int(m), int(half)
    width = 2 * half + 1
    rows = 1 + (budget - n_x * n_p - per_width * width - 2 * n_p) // (dim * m + 6 * width + 2 * n_p)
    return m, dy, half, rows


def _check_float_budget(floats: float, what: str, item: str, remedy: str) -> int:
    """The 15 cap^2 floats one table and its products may take; ResourceCapError when `floats` exceeds it.

    `floats` is a count in floating point, inf on overflow.
    """
    cap = build_dim_cap()
    budget = 15 * cap * cap
    if not floats <= budget:
        raise ResourceCapError(
            f"{what} needs {floats:.4g} floats for {item}, above the {budget} "
            f"allowed at cap {cap}; raise {BUILD_DIM_CAP_ENV}, or {remedy}"
        )
    return budget
