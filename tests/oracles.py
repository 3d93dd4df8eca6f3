"""Independent reference implementations used as test oracles.

Nothing here may import computational routines from the package modules it
checks; everything is built from scipy/numpy primitives or brute-force
loops so the comparisons stay two-sided.  Two exceptions:
`displaced_parity_wigner` and `dense_sin2_expectation` use the package's
`coherent_displacement`, which `tests/test_fock.py` checks against
`laguerre_displacement_element`, because the Laguerre series loses the
digits a 1e-13 comparison needs at N = 300.
For the same reason at N = 1000 and 2000, `trapezoid_displacement` and
`chunked_trapezoid_real_block` tabulate with the package's
`hermite_functions`, which `tests/test_fock.py` checks for orthonormality
past order 700.  `quadrature_pdf_one_angle` uses it too:
it is the one-angle marginal, one whole table per angle, that every pdf
of `fock.quadrature_pdf` must match bit for bit at one BLAS thread.
`optimize_xi_exhaustive` checks `estimator.optimize_xi`'s certified scan
alone, so it reuses everything else of the optimizer: the angle pairs, the
box search `_minimize_on_box`, the closed-form offsets and `estimate_xi`.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln, genlaguerre

from gkpsq.estimator import (
    _SCAN,
    DEFAULT_ANGLE_TOLERANCE,
    MAX_LOG_SCALE,
    OptimizeResult,
    _char_fn,
    _closed_form_offset,
    _distinct_angle_pairs,
    _minimize_on_box,
    _reject_overflow,
    estimate_xi,
)
from gkpsq.fock import HERM_ATOL, NORM_ATOL, FockState, QuadraturePdf, coherent_displacement, hermite_functions
from gkpsq.operators import GKP_DET, GridSpec


def laguerre_displacement_element(beta: complex, m: int, n: int) -> complex:
    """<m|D(beta)|n> from the associated-Laguerre closed form."""
    x = abs(beta) ** 2
    if m >= n:
        pref = math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)) - 0.5 * x)
        return pref * beta ** (m - n) * genlaguerre(n, m - n)(x)
    pref = math.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)) - 0.5 * x)
    return pref * (-beta.conjugate()) ** (n - m) * genlaguerre(m, n - m)(x)


def laguerre_displacement_matrix(beta: complex, dim: int) -> np.ndarray:
    """<m|D(beta)|n> for m, n < dim, the Laguerre closed form on whole arrays."""
    m, n = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    low, gap = np.minimum(m, n), np.abs(m - n)
    x = abs(beta) ** 2
    pref = np.exp(0.5 * (gammaln(low + 1) - gammaln(np.maximum(m, n) + 1)) - 0.5 * x)
    step = np.where(m >= n, beta, -np.conj(beta))
    return pref * step**gap * eval_genlaguerre(low, gap, x)


def ladder_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices: a|k> = sqrt(k)|k-1>."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    ks = np.arange(1, dim)
    a[ks - 1, ks] = np.sqrt(ks)
    return a, a.conj().T


def quadrature_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian x = (a + a^dag)/sqrt(2) and p = -i(a - a^dag)/sqrt(2)."""
    a, adag = ladder_matrices(dim)
    x = (a + adag) / math.sqrt(2.0)
    p = (a - adag) / (1j * math.sqrt(2.0))
    return x, p


def trapezoid_displacement(beta: complex, dim: int) -> np.ndarray:
    """<m|D(beta)|n> for m, n < dim from two Hermite tables at a fine step.

    The real block is int h_m(q) h_n(q - s) dq, s = sqrt(2)|beta|, by the
    trapezoid rule at a tenth of the alias step pi/sqrt(2 dim + 1) over
    [-reach, s + reach], one table at q and one at q - s; the phase rotation
    e^{i theta n} gives the direction.
    """
    r = abs(beta)
    if r == 0.0:
        return np.eye(dim, dtype=complex)
    theta = math.atan2(beta.imag, beta.real)
    shift = math.sqrt(2.0) * r
    reach = math.sqrt(2.0 * dim + 1.0) + 6.0
    step = math.pi / (10.0 * math.sqrt(2.0 * dim + 1.0))
    q = np.arange(-reach, shift + reach + step, step)
    real_block = (hermite_functions(dim - 1, q) @ hermite_functions(dim - 1, q - shift).T) * step
    phases = np.exp(1j * theta * np.arange(dim))
    return phases[:, None] * real_block * phases.conj()[None, :]


def chunked_trapezoid_real_block(shift: float, dim: int, rows: slice, step: float, reach: float,
                                 chunk: int = 1024) -> np.ndarray:
    """R[m, n] = int h_m(t + s/2) h_n(t - s/2) dt for m, n in `rows`: the real displacement by s.

    The trapezoid rule on the lattice l * step, |l * step| <= reach, from
    two Hermite tables, one at t + s/2 and one at t - s/2, made and
    multiplied `chunk` points at a time, so memory stays near
    2 dim chunk floats at any dimension.
    """
    half = math.floor(reach / step)
    size = len(range(dim)[rows])
    block = np.zeros((size, size))
    for start in range(-half, half + 1, chunk):
        t = np.arange(start, min(start + chunk, half + 1)) * step
        block += hermite_functions(dim - 1, t + 0.5 * shift)[rows] @ hermite_functions(dim - 1, t - 0.5 * shift)[rows].T
    return block * step


def trapezoid_operator(grid, dim: int) -> np.ndarray:
    """Q = 2 - sum over rows of (e^{2id} D + h.c.)/2 with D = D(sqrt(2)(-c2 + i c1)) from `trapezoid_displacement`."""
    mat = 2.0 * np.eye(dim, dtype=complex)
    for c1, c2, d in grid.rows():
        block = np.exp(2j * d) * trapezoid_displacement(math.sqrt(2.0) * complex(-c2, c1), dim)
        mat -= 0.5 * (block + block.conj().T)
    return 0.5 * (mat + mat.conj().T)


def full_block_operator(grid, dim: int) -> np.ndarray:
    """2 - sum over rows of (B + B^H)/2, B = e^{2id} D(sqrt(2)(-c2 + i c1)) the full `coherent_displacement` block."""
    mat = 2.0 * np.eye(dim, dtype=complex)
    for c1, c2, d in grid.rows():
        block = np.exp(2j * d) * coherent_displacement(math.sqrt(2.0) * complex(-c2, c1), dim)
        mat -= 0.5 * (block + block.conj().T)
    return mat


def full_block_ground_state(grid, dim: int) -> tuple[float, np.ndarray, int]:
    """(xi_min, amplitudes, degeneracy) of `full_block_operator` from a complex `eigh` per parity block.

    When both offsets have |sin 2d| < 1e-13 the even and odd number states
    are solved apart, each by a complex `np.linalg.eigh`; otherwise the
    whole basis is one block.  `degeneracy` counts the eigenvalues within
    max(1e-8, 1e-8 |xi_min|) of the lowest; the amplitudes carry whatever
    phase `eigh` gives.
    """
    mat = full_block_operator(grid, dim)
    split = all(abs(math.sin(2.0 * d)) < 1e-13 for d in (grid.d1, grid.d2))
    blocks = [np.arange(p, dim, 2) for p in (0, 1)] if split else [np.arange(dim)]
    spectra, states = [], []
    for idx in blocks:
        if idx.size:
            vals, vecs = np.linalg.eigh(mat[np.ix_(idx, idx)])
            amps = np.zeros(dim, dtype=complex)
            amps[idx] = vecs[:, 0]
            spectra.append(vals)
            states.append(amps)
    lowest = int(np.argmin([vals[0] for vals in spectra]))
    xi_min = float(spectra[lowest][0])
    tol = max(1e-8, 1e-8 * abs(xi_min))
    degeneracy = int(np.count_nonzero(np.concatenate(spectra) < xi_min + tol))
    return xi_min, states[lowest], degeneracy


def dense_mean(state, matrix: np.ndarray) -> complex:
    """<psi|M|psi> for a pure state or Tr[rho M] on a dense matrix: `np.vdot` of M psi, or the trace of rho M."""
    if isinstance(state, FockState):
        return complex(np.vdot(state.amplitudes, matrix @ state.amplitudes))
    return complex(np.trace(state.entries @ matrix))


def dense_sin2_expectation(state, c1: float, c2: float, d: float = 0.0) -> float:
    """(1 - Re<e^{2id} D>)/2 from the dense `coherent_displacement` block D of the doubled row."""
    block = coherent_displacement(math.sqrt(2.0) * complex(-c2, c1), state.dim)
    if d != 0.0:
        block = block * complex(math.cos(2.0 * d), math.sin(2.0 * d))
    return 0.5 * (1.0 - dense_mean(state, block).real)


def bootstrap_std_error_choice(records, rows, bootstrap: int, seed: int) -> float:
    """The bootstrap error bar of a plug-in estimate, drawn by `Generator.choice` and averaged by `np.mean`.

    Row k's terms are 2 sin^2(z q + d) over the outcomes `records[k]`, with
    (z, d) = `rows[k]`.  Each of `bootstrap` resamples draws every row's
    terms with replacement, in row order from one generator seeded with
    `seed`, and sums the rows' means; the result is the sample standard
    deviation of those sums.
    """
    terms = [2.0 * np.sin(z * values + d) ** 2 for values, (z, d) in zip(records, rows)]
    rng = np.random.default_rng(seed)
    sums = [sum(float(np.mean(rng.choice(t, size=t.size, replace=True))) for t in terms) for _ in range(bootstrap)]
    return float(np.std(sums, ddof=1))


def gauss_hermite_channel(rho: np.ndarray, eta: float, n_thermal: float, order: int = 21) -> np.ndarray:
    """Loss, then additive Gaussian noise, on a density matrix; renormalized.

    Loss is a loop of dense binomial Kraus matmuls.  Noise of variance
    `n_thermal` per quadrature averages D(alpha) rho D(alpha)^dag over an
    `order` x `order` Gauss-Hermite product rule.  Each block is
    e^{i theta (m - n)} D(|alpha|)[m, n] with theta = arg alpha, and the
    real blocks D(|alpha|) come from one `laguerre_displacement_matrix`
    call over the distinct |alpha| of the rule (nodes mirrored across the
    axes or the diagonal share one).  Both act on the first rho.shape[0]
    number states, so population pushed past them is dropped before the
    trace is restored.  Exact up to the quadrature error of the rule.
    """
    dim = rho.shape[0]
    out = np.asarray(rho, dtype=complex)
    if eta < 1.0:
        lost = np.zeros_like(out)
        for k in range(dim):
            ns = np.arange(k, dim)
            log_amp_sq = (gammaln(ns + 1) - gammaln(ns - k + 1) - gammaln(k + 1)
                          + (ns - k) * math.log(eta) + k * math.log1p(-eta))
            kraus = np.zeros((dim, dim))
            kraus[ns - k, ns] = np.exp(0.5 * log_amp_sq)
            lost += kraus @ out @ kraus.T
        out = lost
    if n_thermal > 0.0:
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        weights = weights / math.sqrt(math.pi)
        shifts = math.sqrt(2.0 * n_thermal) * nodes
        betas = (shifts[:, None] + 1j * shifts[None, :]) / math.sqrt(2.0)
        radii, which = np.unique(np.abs(betas), return_inverse=True)
        real_blocks = laguerre_displacement_matrix(radii[:, None, None], dim).real
        phases = np.exp(1j * np.angle(betas)[:, :, None] * np.arange(dim))
        noisy = np.zeros_like(out)
        for i in range(order):  # one row of nodes at a time
            disp = phases[i, :, :, None] * real_blocks[which[i]] * phases[i, :, None, :].conj()
            noisy += np.tensordot(weights[i] * weights, disp @ out @ disp.conj().transpose(0, 2, 1), axes=1)
        out = noisy
    out = out / np.trace(out).real
    return 0.5 * (out + out.conj().T)


def binomial_shift_full_slices(mat: np.ndarray, ln_t: float, ln_rest: float, up: bool) -> np.ndarray:
    """The binomially weighted diagonal shift of `operators._binomial_shift`, over every slice.

    Runs all `dim` shifts on full (dim - j)-square slices whatever the
    input's support, with one `exp` per shift: entry (m, n) of the unshifted
    side carries sqrt(C(m+j, j) C(n+j, j)) t^((m+n)/2) (1-t)^j.  `up=False`
    moves |m+j><n+j| -> |m><n|; `up=True` moves |m><n| -> |m+j><n+j|.
    """
    dim = mat.shape[0]
    lfact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    half_ln_t = 0.5 * ln_t
    half_ln_rest = 0.5 * ln_rest
    m = np.arange(dim)
    out = np.zeros_like(mat)
    for j in range(dim):
        k = dim - j
        v = np.exp(
            0.5 * (lfact[j:] - lfact[:k] - lfact[j]) + half_ln_t * m[:k] + half_ln_rest * j
        )
        if up:
            out[j:, j:] += np.outer(v, v) * mat[:k, :k]
        else:
            out[:k, :k] += np.outer(v, v) * mat[j:, j:]
    return out


def vacuum_sin2_integral(a: float) -> float:
    """<vac|2 sin^2(a x)|vac> by direct Gaussian quadrature."""
    val, _ = quad(lambda q: 2.0 * math.sin(a * q) ** 2 * math.exp(-q * q) / math.sqrt(math.pi),
                  -12.0, 12.0, limit=200)
    return val


def vacuum_characteristic(u: float) -> float:
    """<vac|exp(i u x)|vac> by direct Gaussian quadrature (real by symmetry)."""
    val, _ = quad(lambda q: math.cos(u * q) * math.exp(-q * q) / math.sqrt(math.pi),
                  -12.0, 12.0, limit=200)
    return val


def char_fn_complex_exp(values: np.ndarray, u: float) -> complex:
    """Empirical characteristic function mean exp(i u q) through the complex exp."""
    return complex(np.mean(np.exp(1j * u * values)))


def optimize_xi_exhaustive(samples, constrain_gkp_valid: bool = True, char_fn=_char_fn) -> OptimizeResult:
    """`estimator.optimize_xi` with the exhaustive scan: every scan point exact, one thread.

    `char_fn` stands in for `_char_fn` in the scan and the offsets, for
    example `char_fn_complex_exp`.
    """
    best = None
    for i, j in _distinct_angle_pairs(samples, DEFAULT_ANGLE_TOLERANCE):
        phi1, q1 = samples.records[i]
        phi2, q2 = samples.records[j]
        base = math.sqrt(GKP_DET / math.sin(phi2 - phi1))
        for angle, values in ((phi1, q1), (phi2, q2)):
            _reject_overflow(values, 2.0 * base * math.exp(MAX_LOG_SCALE), angle)

        def minimize(rows):
            def xi(r):
                value = float(len(rows))
                for values, sign in rows:
                    value -= abs(char_fn(values, 2.0 * base * math.exp(sign * r)))
                return value

            return _minimize_on_box(rows, base, [xi(r) for r in _SCAN])

        if constrain_gkp_valid:
            r1, xi = minimize(((q1, 1.0), (q2, -1.0)))
            r2 = -r1
        else:
            (r1, xi1), (r2, xi2) = minimize(((q1, 1.0),)), minimize(((q2, 1.0),))
            xi = xi1 + xi2
        if best is None or xi < best[0]:
            best = (xi, phi1, phi2, q1, q2, base * math.exp(r1), base * math.exp(r2))
    _, phi1, phi2, q1, q2, z1, z2 = best
    grid = GridSpec(z1 * math.cos(phi1), z1 * math.sin(phi1), z2 * math.cos(phi2), z2 * math.sin(phi2),
                    d1=_closed_form_offset(char_fn(q1, 2.0 * z1)), d2=_closed_form_offset(char_fn(q2, 2.0 * z2)),
                    label="optimized")
    report = estimate_xi(samples, grid)
    m_gkp = -math.log(report.xi) if report.xi > 0 else math.inf
    return OptimizeResult(best_grid=grid, m_gkp=m_gkp, angles_used=(phi1, phi2), report=report)


def density_matrix_full_checks(mat: np.ndarray) -> str | None:
    """`fock.DensityMatrix`'s finiteness, Hermiticity and trace checks, each over the whole matrix.

    Returns the message of the first check that fails, or None.
    """
    if not np.all(np.isfinite(mat)):
        return "density matrix entries must be finite"
    herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_defect > HERM_ATOL:
        return f"density matrix not Hermitian: defect {herm_defect:g}"
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > NORM_ATOL:
        return f"density matrix trace must be 1, got {tr!r}"
    return None


def symmetric_root_bisect(a: float, b: float, xi: float) -> float:
    """Root of f(d) = -expm1(-a d) - expm1(-b d) - xi, d >= 0, bisected to adjacent floats.

    Pure Python.  The upper end starts where the longer row alone reaches
    xi, or at the smallest positive float, and doubles until f is positive
    there; of the two adjacent floats left, the one with the smaller |f|
    is returned.
    """

    def f(d):
        return -math.expm1(-a * d) - math.expm1(-b * d) - xi

    lo, hi = 0.0, max(-math.log1p(-xi) / max(a, b), math.ulp(0.0))
    if f(lo) >= 0.0:
        return lo
    while f(hi) < 0.0:
        hi *= 2.0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo if abs(f(lo)) < abs(f(hi)) else hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def peak_superposition_xi_bruteforce(g: float, a: float, s_max: int, logical_bit: int,
                                     a_grid: float, b_grid: float,
                                     d1: float = 0.0, d2: float = 0.0) -> float:
    """<Q> on the finite peak superposition by plain double loops.

    Uses the squeezed-state overlap formulas term by term:
      <Sq;g,x1| e^{ibx} |Sq;g,x2> = exp(-b^2 g/4 - (x1-x2)^2/(4g) + i b (x1+x2)/2)
      <Sq;g,x1| e^{ibp} |Sq;g,x2> = exp(-(b + x1 - x2)^2/(4g))
    """
    ss = range(-s_max, s_max + 1)
    centers = [(2 * s + logical_bit) * a for s in ss]
    weights = [math.exp(-0.5 * g * c * c) for c in centers]
    bx, bp = 2.0 * a_grid, 2.0 * b_grid
    norm = 0.0
    mx = 0.0 + 0.0j
    mp = 0.0
    for c1, w1 in zip(centers, weights):
        for c2, w2 in zip(centers, weights):
            ov = math.exp(-((c1 - c2) ** 2) / (4.0 * g))
            norm += w1 * w2 * ov
            mx += w1 * w2 * ov * math.exp(-bx * bx * g / 4.0) * np.exp(1j * bx * (c1 + c2) / 2.0)
            mp += w1 * w2 * math.exp(-((bp + c1 - c2) ** 2) / (4.0 * g))
    mx /= norm
    mp /= norm
    return float(2.0 - (np.exp(2j * d1) * mx).real - (np.exp(2j * d2) * mp).real)


def peak_superposition_xi_table(g: float, a: float, s_max: int, logical_bit: int, grid) -> float:
    """<Q_grid> on the finite peak superposition from its own square table of peak pairs.

    The closed form's operations in its order, so a value read off a corner
    of a larger table must match these bits: each row (c1, c2, d)
    at the shift (2 c1, 2 c2) sums w_j w_k exp(-(c2 + x_j - x_k)^2/(4g)
    + i c1 (x_j + x_k)/2), w_j = exp(-g/2 (x_j - m)(x_j + m)), m = min |x|, takes the
    prefactor exp(-c1^2 g/4) by `math.exp` and the norm's sum, and meets
    e^{2id} as a Python complex.
    """
    centers = (2.0 * np.arange(-s_max, s_max + 1) + (1.0 if logical_bit else 0.0)) * a
    nearest = np.min(np.abs(centers))
    weights = np.exp(-0.5 * g * ((centers - nearest) * (centers + nearest)))
    x1, x2 = np.meshgrid(centers, centers, indexing="ij")
    ww = np.outer(weights, weights)
    norm = float(np.sum(ww * np.exp(-((x1 - x2) ** 2) / (4.0 * g))))
    xi = 2.0
    for c1, c2, d in grid.rows():
        c1, c2 = 2.0 * c1, 2.0 * c2
        total = np.sum(ww * np.exp(-((c2 + x1 - x2) ** 2) / (4.0 * g) + 0.5j * c1 * (x1 + x2)))
        mean = complex(math.exp(-c1 * c1 * g / 4.0) * total / norm)
        xi -= (complex(math.cos(2.0 * d), math.sin(2.0 * d)) * mean).real
    return xi


def hermite_wavefunction_direct(n: int, q: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunction via scipy Hermite polynomials (small n only)."""
    from scipy.special import eval_hermite

    norm = (math.pi ** -0.25) / math.sqrt(2.0 ** n * math.factorial(n))
    return norm * eval_hermite(n, q) * np.exp(-0.5 * q * q)


def quadrature_pdf_one_angle(state: FockState, angle: float, q_grid: np.ndarray) -> QuadraturePdf:
    """The pdf of x(angle) with its own Hermite table: each pdf `fock.quadrature_pdf` returns has its bits."""
    q = np.asarray(q_grid, dtype=float)
    ns = np.arange(state.dim)
    rotated = state.amplitudes * np.exp(-1j * angle * ns)
    h = hermite_functions(state.dim - 1, q)
    psi = rotated @ h.astype(complex)
    density = np.abs(psi) ** 2
    mass = float(np.trapezoid(density, q)) if q.size > 1 else 0.0
    return QuadraturePdf(density=density, mass=mass, grid_too_narrow=mass < 1.0 - 1e-6)


_TWO_PASS_SEED_LIMIT = 32.0
_TWO_PASS_MANTISSA_LIMIT = 2.0 ** 500


def hermite_functions_two_pass(n_max: int, q: np.ndarray) -> np.ndarray:
    """The two-pass Hermite table `fock.hermite_functions` must match bit for bit.

    The plain recurrence runs over every column, then every column past
    |q| = 32 is recomputed on scaled mantissas with a per-point exponent.
    """
    q = np.asarray(q, dtype=float)
    h = np.empty((n_max + 1, q.size))
    h[0] = np.pi ** -0.25 * np.exp(-0.5 * q * q)
    if n_max >= 1:
        h[1] = math.sqrt(2.0) * q * h[0]
    for n in range(2, n_max + 1):
        # h[n] = sqrt(2/n) q h[n-1] - sqrt((n-1)/n) h[n-2], written in place
        row = np.multiply(q, math.sqrt(2.0 / n), out=h[n])
        row *= h[n - 1]
        row -= math.sqrt((n - 1.0) / n) * h[n - 2]
    if q.size and max(q.max(), -q.min()) > _TWO_PASS_SEED_LIMIT:
        far = np.flatnonzero(np.abs(q) > _TWO_PASS_SEED_LIMIT)
        _hermite_rescaled(h, q[far], far)
    return h


def _hermite_rescaled(h: np.ndarray, q: np.ndarray, cols: np.ndarray) -> None:
    """Overwrite columns `cols` of `h` by the recurrence on scaled mantissas."""
    log_scale = -0.5 * q * q - 0.25 * math.log(math.pi)
    scale = np.exp(log_scale)
    prev = np.zeros_like(q)
    cur = np.ones_like(q)
    h[0, cols] = scale
    for n in range(1, h.shape[0]):
        prev, cur = cur, math.sqrt(2.0 / n) * q * cur - math.sqrt((n - 1.0) / n) * prev
        big = np.abs(cur) > _TWO_PASS_MANTISSA_LIMIT
        if big.any():
            cur[big] /= _TWO_PASS_MANTISSA_LIMIT
            prev[big] /= _TWO_PASS_MANTISSA_LIMIT
            log_scale[big] += math.log(_TWO_PASS_MANTISSA_LIMIT)
            scale[big] = np.exp(log_scale[big])
        h[n, cols] = cur * scale


def displaced_parity_wigner(state, points) -> np.ndarray:
    """W(x, p) at each point from the displaced-parity form, one block per point.

    W(x, p) = (1/pi) <psi| D(alpha) Pi D(-alpha) |psi> with
    alpha = (x + i p)/sqrt(2) and Pi the photon-number parity; conjugating
    the parity collapses this to (1/pi) <psi| D(2 alpha) Pi |psi>.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    amps = state.amplitudes
    flipped = np.where(np.arange(state.dim) % 2 == 0, 1.0, -1.0) * amps
    out = np.empty(pts.shape[0])
    for i, (x, p) in enumerate(pts):
        block = coherent_displacement(math.sqrt(2.0) * complex(x, p), state.dim)
        out[i] = np.vdot(amps, block @ flipped).real / math.pi
    return out
