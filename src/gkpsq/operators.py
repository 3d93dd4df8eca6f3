"""Grid operators whose ground states are GKP states.

A grid specifies the Hermitian positive-semidefinite observable

    Q = 2 sin^2(c11*x + c12*p + d1) + 2 sin^2(c21*x + c22*p + d2),

built in a truncated Fock basis by expanding each sin^2 over exact
displacement blocks, so the truncation is the exact compression of Q.
The module also provides Gaussian reshaping of grids, ground-state
extraction per dimension, expectations, approximate grid states, and an
exact loss/thermal-noise channel (closed-form binomial weights of pure loss
and a quantum-limited amplifier, no quadrature) used as a density-matrix
oracle for the closed forms in `analytic`.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .fock import (
    DensityMatrix,
    FockState,
    _SMALL_TABLE_FLOATS,
    _check_float_budget,
    _displacement_lattice,
    _lattice_blocks,
    _powers,
    _support,
    _toeplitz,
    check_build_dim,
    displacement_blocks,
    hermite_functions,
)

GKP_DET = math.pi / 2.0
# Hexagonal-grid coefficients.
KAPPA_PLUS = math.sqrt(math.pi / 8.0) * (3.0 ** 0.25 + 3.0 ** -0.25)
KAPPA_MINUS = math.sqrt(math.pi / 8.0) * (3.0 ** 0.25 - 3.0 ** -0.25)

PRESET_NAMES = ("q0", "q1", "s0", "s1", "hex")
# |sin(2d)| below this counts as zero: the offset keeps Q parity-symmetric.
PARITY_ATOL = 1e-13


class ChannelConvergenceWarning(RuntimeWarning):
    """Channel output leaked more than 1e-4 of its trace past the cutoff."""


@dataclass(frozen=True)
class GridSpec:
    """Six real parameters of a grid operator, plus an optional label."""

    c11: float
    c12: float
    c21: float
    c22: float
    d1: float = 0.0
    d2: float = 0.0
    label: str | None = None

    def __post_init__(self):
        vals = (self.c11, self.c12, self.c21, self.c22, self.d1, self.d2)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"grid parameters must be finite, got {vals}")
        if self.c11 == 0.0 and self.c12 == 0.0:
            raise ValueError("first grid row must be nonzero")
        if self.c21 == 0.0 and self.c22 == 0.0:
            raise ValueError("second grid row must be nonzero")

    @property
    def coefficient_matrix(self) -> np.ndarray:
        return np.array([[self.c11, self.c12], [self.c21, self.c22]], dtype=float)

    @property
    def offsets(self) -> np.ndarray:
        return np.array([self.d1, self.d2], dtype=float)

    @property
    def det(self) -> float:
        return self.c11 * self.c22 - self.c12 * self.c21

    @property
    def gkp_valid(self) -> bool:
        """True iff the coefficient matrix is sqrt(pi/2) times a symplectic one."""
        return abs(self.det - GKP_DET) < 1e-9

    def rows(self) -> list[tuple[float, float, float]]:
        """[(c1, c2, d), ...] for the two sin^2 arguments."""
        return [(self.c11, self.c12, self.d1), (self.c21, self.c22, self.d2)]

    def row_waves(self) -> list[tuple[float, float, float]]:
        """Each row as (z, phi, d) with c1*x + c2*p = z * x(phi)."""
        out = []
        for c1, c2, d in self.rows():
            out.append((math.hypot(c1, c2), math.atan2(c2, c1), d))
        return out


def preset_grid(topology: str, a: float | None = None, b: float | None = None) -> GridSpec:
    """Named grids; `general` takes explicit positive scales a, b."""
    name = topology.lower()
    sp = math.sqrt(math.pi)
    sp2 = math.sqrt(math.pi / 2.0)
    half_pi = math.pi / 2.0
    if name == "q0":
        return GridSpec(sp / 2.0, 0.0, 0.0, sp, label="q0")
    if name == "q1":
        # cos^2 realized as sin^2 with a pi/2 offset.
        return GridSpec(sp / 2.0, 0.0, 0.0, sp, d1=half_pi, label="q1")
    if name == "s0":
        return GridSpec(sp2, 0.0, 0.0, sp2, label="s0")
    if name == "s1":
        return GridSpec(sp2, 0.0, 0.0, sp2, d1=half_pi, label="s1")
    if name == "hex":
        return GridSpec(KAPPA_PLUS, -KAPPA_MINUS, -KAPPA_MINUS, KAPPA_PLUS, label="hex")
    if name == "general":
        if a is None or b is None or a <= 0 or b <= 0:
            raise ValueError("general grid needs a > 0 and b > 0")
        return GridSpec(float(a), 0.0, 0.0, float(b), label=f"general({a:g},{b:g})")
    raise ValueError(f"unknown topology {topology!r}; expected one of {PRESET_NAMES + ('general',)}")


def transform_grid(grid: GridSpec, A, alpha=(0.0, 0.0)) -> GridSpec:
    """Gaussian reshaping: quadratures transform as zeta -> A zeta + alpha.

    Coefficients pick up C' = C A and offsets d'_i = d_i + (row i of C) . alpha;
    A must be symplectic (unit determinant), which preserves gkp_valid.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError(f"A must be 2x2, got shape {A.shape}")
    if abs(float(np.linalg.det(A)) - 1.0) >= 1e-9:
        raise ValueError(f"A must be symplectic (det 1), got det {np.linalg.det(A)!r}")
    alpha = np.asarray(alpha, dtype=float).reshape(2)
    c = grid.coefficient_matrix @ A
    d = grid.offsets + grid.coefficient_matrix @ alpha
    return GridSpec(c[0, 0], c[0, 1], c[1, 0], c[1, 1], d1=float(d[0]), d2=float(d[1]))


def gaussian_route_from_q0(target: str) -> tuple[np.ndarray, np.ndarray]:
    """(A, alpha) pair carrying the q0 grid onto a named preset.

    Solves C_q0 A = C_target and C_q0 alpha = d_target - d_q0, the
    `transform_grid` rules.  On q0 -> s0 this is the squeeze
    S = diag(sqrt 2, 1/sqrt 2).  On q0 -> hex it is S followed by a squeeze
    with r = ln(3)/4 along the diagonals, H = [[cosh r, -sinh r],
    [-sinh r, cosh r]], so A = S H (C' = C A composes left to right).
    """
    q0, goal = preset_grid("q0"), preset_grid(target)
    A = np.linalg.solve(q0.coefficient_matrix, goal.coefficient_matrix)
    alpha = np.linalg.solve(q0.coefficient_matrix, goal.offsets - q0.offsets)
    return A, alpha


@dataclass(frozen=True)
class TruncatedOperator:
    """Grid operator on the first `dim` number states, held as its invariant blocks.

    Its entry (i, j) on set k of `_invariant_blocks` is turn_i blocks[k][i, j]
    conj(turn_j) (see `build_operator`); the solves and expectations read it from the blocks' leading corner.
    """

    grid: GridSpec
    dim: int
    blocks: tuple[np.ndarray, ...]
    turn: np.ndarray

    def __post_init__(self):
        if not 1 <= self.dim <= sum(map(len, self.blocks)):
            raise ValueError(f"dim {self.dim} outside 1..{sum(map(len, self.blocks))}, the states the blocks hold")

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense complex `dim x dim` matrix, assembled on first read; no package computation reads it."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        turned = not np.all(self.turn == 1.0)
        for sel, u, corner in _corners(self, self.dim):
            view = mat[sel, sel]
            view[...] = corner
            if turned:  # in place, in the order (u_i block_ij) conj(u_j)
                view *= u[:, None]
                view *= u.conj()
        return mat


def build_operator(grid: GridSpec, dim: int) -> TruncatedOperator:
    """Invariant blocks of the grid operator's Fock-basis matrix.

    Each 2 sin^2(u) term expands as I - (e^{2iu} + e^{-2iu})/2, and every
    exponential is an exact displacement block, so the result is the
    compression P Q P of the untruncated operator onto the first `dim`
    number states: its minimal eigenvalue is a variational value of Q and
    cannot increase with `dim`.

    A row's term is (e^{2id} B + h.c.)/2 with B = D(alpha), since
    exp(i(cx*x + cp*p)) = D((-cp + i*cx)/sqrt(2)) gives the doubled row
    alpha = sqrt(2)*(-c2 + i*c1); and B = diag(u^n) R diag(u^-n), with
    u = alpha/|alpha| and R the real displacement by s = sqrt(2)|alpha|.
    The term's entry at the gap g = m - n is h_g R[m, n], with
    h_g = u^g cos 2d for even g and u^g i sin 2d for odd g (`_powers`).
    Since R[n, m] = (-1)^g R[m, n], the entry at -g is (-1)^g conj(h_g),
    so each block is Hermitian entry for entry.  Only the blocks of
    `_invariant_blocks` are formed, from `displacement_blocks`, and rows
    of equal length share one table.  On a parity split every odd gap lies
    between the blocks and |sin 2d| < PARITY_ATOL rounds cos 2d to +-1: the
    weights h_2k are powers of u^2, exactly +-1 on rows along the axes (q0,
    q1, s0, s1).  Mirrored rows, as hex's, give u1^2 and -conj(u1^2) to the
    bit; the exact quarter turn U^H M U, U = diag(i^j) on a block's local
    index j, multiplies h_2k by (-i)^k and is kept only when all weights come
    out real, never on an unsplit basis.  Real weights give float64 blocks.
    This is the one-grid case of `build_operators`, whose tables are shared
    across grids.  `dim` is checked against the cap first.
    """
    return next(build_operators((grid,), dim))


def _row_shift(c1: float, c2: float) -> tuple[float, complex]:
    """(s, u) of a row: e^{2i(c1 x + c2 p)} = diag(u^n) R diag(u^-n), R the real displacement by s; zero: (0, 1)."""
    alpha = math.sqrt(2.0) * complex(-c2, c1)
    return math.sqrt(2.0) * abs(alpha), alpha / abs(alpha) if alpha else 1.0


def build_operators(grids, dim: int) -> Iterator[TruncatedOperator]:
    """`build_operator` of each grid in `grids`, yielded in order.

    Rows of equal shift on the same number of invariant sets read one
    displacement table for the whole sequence: q1 reads q0's tables and s1
    reads s0's.  When all the sequence's lattices fit in one Hermite table
    of at most 2^20 floats (8 MiB), one `hermite_functions` call tabulates
    them side by side and every table is made up front: that table and its
    even and odd parts add at most 16 MiB to the peak.  Otherwise each table
    is made alone, before the first grid that reads it, and held only until
    the last one is built, so the peak is that of one build.  Every block is
    bit-identical to a build of its grid alone.  Nothing outlives the
    generator.  `dim` is checked against the cap before any table.
    """
    check_build_dim(dim)
    grids = tuple(grids)
    requests, keys = {}, []  # (shift, set count) -> sets; each grid's keys in row order
    for grid in grids:
        sets = _invariant_blocks(grid)
        keys.append(dict.fromkeys((_row_shift(c1, c2)[0], len(sets)) for c1, c2, _ in grid.rows()))
        requests.update(dict.fromkeys(keys[-1], sets))
    last = {key: i for i, grid_keys in enumerate(keys) for key in grid_keys}
    tables: dict[tuple[float, int], list[np.ndarray]] = {}
    if dim * len(requests) * _displacement_lattice(dim)[1].size <= _SMALL_TABLE_FLOATS:
        tables = dict(zip(requests, _lattice_blocks([(shift, sets) for (shift, _), sets in requests.items()], dim)))
    for i, grid in enumerate(grids):
        for key in keys[i]:
            if key not in tables:
                tables[key] = displacement_blocks(key[0], dim, requests[key])
        op = _build_from_tables(grid, dim, tables)
        for key in keys[i]:
            if last[key] == i:
                del tables[key]
        yield op


def _build_from_tables(grid: GridSpec, dim: int, tables: dict) -> TruncatedOperator:
    """One grid's blocks (see `build_operator`) from `tables`, which holds every shift it reads."""
    sets = _invariant_blocks(grid)
    # The sets share one stride, so the largest set's gap weights serve them all;
    # only an unsplit basis (stride 1) holds the odd gaps.
    stride, size = sets[0].step or 1, len(range(dim)[sets[0]])
    # Rows of equal shift read one table, and their gap weights add.
    weights: dict[float, np.ndarray] = {}
    for c1, c2, d in grid.rows():
        shift, u = _row_shift(c1, c2)
        powers = _powers(u * u if stride == 2 else u, size)
        h = powers * math.cos(2.0 * d)
        if stride == 1:
            h[1::2] = powers[1::2] * (1j * math.sin(2.0 * d))
        weights[shift] = weights.get(shift, 0) + h
    w, turn = np.array(list(weights.values())), np.ones(size)
    if stride == 2 and w.imag.any():
        quarter = np.resize([1.0, 1j, -1.0, -1j], size)  # i^j
        turned = w * quarter.conj()
        if not turned.imag.any():
            w, turn = turned, quarter
    w = w if w.imag.any() else w.real
    blocks = [2.0 * np.eye(len(range(dim)[sel]), dtype=w.dtype) for sel in sets]
    for shift, h in zip(weights, w):
        up = np.conjugate(h)  # a new array even when h is real, unlike h.conj()
        if stride == 1:
            np.negative(up[1::2], out=up[1::2])  # R[n, m] = (-1)^g R[m, n]
        toeplitz = _toeplitz(h, up, size)
        for block, part in zip(blocks, tables[shift, len(sets)]):
            block -= toeplitz[: len(part), : len(part)] * part
    return TruncatedOperator(grid, dim, tuple(blocks), turn)


@dataclass
class GroundState:
    """Minimal eigenvalue of a truncated grid operator and its eigenstate."""

    xi_min: float
    state: FockState
    degeneracy: int


def _invariant_blocks(grid: GridSpec) -> tuple[slice, ...]:
    """Index sets of the Fock basis that the grid operator never couples.

    Photon-number parity flips every quadrature, which turns each
    2 sin^2(u + d) = 1 - cos(2u) cos(2d) + sin(2u) sin(2d) into itself
    exactly when sin(2d) = 0.  If both rows' offsets satisfy that to
    rounding, Q has no even-odd matrix elements and the even and odd number
    states are two blocks; otherwise the whole basis is one.
    """
    if all(abs(math.sin(2.0 * d)) < PARITY_ATOL for d in (grid.d1, grid.d2)):
        return slice(0, None, 2), slice(1, None, 2)
    return (slice(None),)


def _corners(op: TruncatedOperator, dim: int):
    """(set, turn, leading corner) of each invariant block holding one of the first `dim` states of `op`."""
    for sel, block in zip(_invariant_blocks(op.grid), op.blocks):
        u = op.turn[: len(range(dim)[sel])]
        if u.size:
            yield sel, u, block[: u.size, : u.size]


def _lowest_level(op: TruncatedOperator, dim: int) -> tuple[tuple, float, int]:
    """((set, turn, corner) of the first lowest block, xi_min, degeneracy) on the first `dim` states of `op`.

    One `np.linalg.eigvalsh` per invariant block's leading corner, read in
    place; the turn is a unitary similarity, so it is not applied.
    `degeneracy` counts the eigenvalues of all blocks within a relative
    1e-8 of the lowest; on a tie across blocks the first block holds it.
    """
    solved = [((sel, u, corner), np.linalg.eigvalsh(corner)) for sel, u, corner in _corners(op, dim)]
    first, spectrum = min(solved, key=lambda pair: pair[1][0])
    xi_min = float(spectrum[0])
    tol = max(1e-8, 1e-8 * abs(xi_min))
    return first, xi_min, int(sum(np.count_nonzero(vals < xi_min + tol) for _, vals in solved))


def ground_state(op: TruncatedOperator) -> GroundState:
    """Lowest eigenpair of the truncated operator: `ground_values`' level, and its vector by inverse iteration.

    `xi_min` and `degeneracy` are `ground_values(op)`'s, bit for bit.  The
    vector solves the first lowest block's corner A (n x n, as built) twice
    with M = A - sigma I, from the start sin(1), ..., sin(n), each right side
    normalized; it is turned back by `op.turn`, and its largest-magnitude
    amplitude made real and positive.  A level degenerate within the block
    gives the normalized projection of the start onto its eigenspace.

    With s = max(1, max |A_ij|), sigma = xi_min - delta, delta = 16 eps s:
    corners whose level is exact (presets at N <= 5, any 1 x 1 corner) make
    M singular at sigma = xi_min, and 16 ulps clear the rounding of xi_min
    and of M.  beta = n^2 eps s >= n eps ||A||_2 bounds the backward errors
    of `eigvalsh` and of each solve, so the level lambda has |lambda - sigma|
    <= delta + beta, and each step shrinks an eigenvalue g away from it by
    (delta + beta)/g; g >= 1e-8 for any level counted apart, so two steps
    converge.  The last solve is (M + F) y = x with |x| = 1 and |F| <= beta,
    so v = y/|y| has |A v - xi_min v| <= delta + beta + 1/|y|, and |y| >=
    |<u, x>| / (delta + beta) for the level's vector u.  After one step
    |<u, x>| >= 1/2 unless the start held less than (delta + beta)/g of u;
    with one beta more for rounding the residual itself,
    |A v - xi_min v| <= 3 delta + 4 beta = (3 + n^2/4) delta.  A larger one
    (a start with no share of u, as ones on [[2, 1], [1, 2]]) raises
    np.linalg.LinAlgError.
    """
    (sel, u, corner), xi_min, degeneracy = _lowest_level(op, op.dim)
    delta = 16.0 * math.ulp(1.0) * max(1.0, float(np.abs(corner).max()))
    shifted = corner.copy()
    shifted.reshape(-1)[:: len(corner) + 1] -= xi_min - delta
    vec = np.sin(np.arange(1.0, len(corner) + 1.0))
    for _ in range(2):
        vec = np.linalg.solve(shifted, vec / np.linalg.norm(vec))
    residual = float(np.linalg.norm(corner @ vec - xi_min * vec) / np.linalg.norm(vec))
    if not residual <= (3.0 + len(corner) ** 2 / 4.0) * delta:
        raise np.linalg.LinAlgError(f"inverse iteration left residual {residual:.3g} at xi_min {xi_min!r}")
    vec = u * vec
    lead = vec[np.argmax(np.abs(vec))]
    amps = np.zeros(op.dim, dtype=complex)
    amps[sel] = vec * (np.abs(lead) / lead)
    return GroundState(xi_min=xi_min, state=FockState.normalized(amps), degeneracy=degeneracy)


def ground_values(op: TruncatedOperator, dim: int | None = None) -> tuple[float, int]:
    """(xi_min, degeneracy) on the first `dim` states of `op` (all by default), from eigenvalues alone.

    One `np.linalg.eigvalsh` per invariant block's leading corner, read in
    place (`_lowest_level`): no truncated operator is made.  On `op.dim`
    these are `ground_state`'s values, bit for bit, since both read the same
    rule on the same corners.  A `dim` outside 1..op.dim raises ValueError.
    """
    if dim is not None and not 1 <= dim <= op.dim:
        raise ValueError(f"dim {dim} outside 1..{op.dim}, the states of the operator")
    return _lowest_level(op, op.dim if dim is None else dim)[1:]


def _mean(state: FockState | DensityMatrix, sel: slice, turn: np.ndarray, block: np.ndarray) -> complex:
    """<psi|M|psi> or Tr[rho M] on `sel`, M = diag(turn) block diag(conj turn): no M made, no real block upcast."""
    if isinstance(state, FockState):
        z = turn.conj() * state.amplitudes[sel]
        bz = block @ z if np.iscomplexobj(block) else block @ z.real + 1j * (block @ z.imag)  # as in `wigner`
        return complex(np.vdot(z, bz))
    if isinstance(state, DensityMatrix):
        return complex(np.vdot(turn, np.einsum("ij,ji,j->i", state.entries[sel, sel], block, turn)))  # by rows
    raise TypeError(f"expected FockState or DensityMatrix, got {type(state)!r}")


def expectation(op: TruncatedOperator, state: FockState | DensityMatrix) -> float:
    """<Q> for a pure state or Tr[rho Q], imaginary dust clipped: `_mean` summed over the invariant blocks."""
    if isinstance(state, (FockState, DensityMatrix)) and state.dim != op.dim:
        kind = "state" if isinstance(state, FockState) else "density matrix"
        raise ValueError(f"{kind} dim {state.dim} != operator dim {op.dim}")
    return float(sum(_mean(state, sel, u, corner) for sel, u, corner in _corners(op, op.dim)).real)


def sin2_expectation(state: FockState | DensityMatrix, c1: float, c2: float, d: float = 0.0) -> float:
    """<sin^2(c1*x + c2*p + d)> = (1 - Re<exp(2i(c1*x + c2*p + d))>)/2.

    exp(2i(c1*x + c2*p)) = diag(u^n) R diag(u^-n), (s, u) = `_row_shift` and R the exact block by s, or I if zero.
    """
    check_build_dim(state.dim)
    shift, u = _row_shift(c1, c2)
    block = displacement_blocks(shift, state.dim, (slice(None),))[0] if shift else np.eye(state.dim)
    mean = _mean(state, slice(None), _powers(u, state.dim), block) * complex(math.cos(2.0 * d), math.sin(2.0 * d))
    return 0.5 * (1.0 - mean.real)


@dataclass(frozen=True)
class ChannelParams:
    """Loss/thermal-noise channel: intensity transmission and added photons."""

    eta: float
    n_thermal: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not (math.isfinite(self.n_thermal) and self.n_thermal >= 0.0):
            raise ValueError(f"n_thermal must be finite and >= 0, got {self.n_thermal}")

    @property
    def noise_variance(self) -> float:
        """Per-quadrature variance V of the effective environmental mode."""
        return self.n_thermal + (1.0 - self.eta) / 2.0

    def then(self, other: "ChannelParams") -> "ChannelParams":
        """Composition: self first, then other (loss multiplies, noise adds)."""
        return ChannelParams(
            eta=self.eta * other.eta,
            n_thermal=other.eta * self.n_thermal + other.n_thermal,
        )


_SHIFT_GROUP_ENTRIES = 4096  # terms of one group of shifts in `_binomial_shift`


def _binomial_shift(mat: np.ndarray, ln_t: float, ln_rest: float, up: bool) -> np.ndarray:
    """Sum over j of the j-step diagonal shift of `mat`, binomially weighted.

    With ln_t = ln t and ln_rest = ln(1 - t), entry (m, n) of the unshifted
    side carries the weight sqrt(C(m+j, j) C(n+j, j)) t^((m+n)/2) (1-t)^j,
    the outer product of row j of one real weight table with itself; the
    table is formed in log space with a single `exp`.  `up=False` moves
    |m+j><n+j| -> |m><n| (pure loss with transmission t); `up=True` moves
    |m><n| -> |m+j><n+j| and drops whatever passes the last level.

    Only the support s of `mat` is read: one past the last row or column
    holding an exactly nonzero entry, so every term skipped is an exact
    zero.  Loss runs the shifts j < s on (s - j)-square slices, O(s^3) in
    all; the amplifier runs every j < cutoff on min(cutoff - j, s)-square
    slices, O(cutoff s^2).  Consecutive shifts whose slices, at the first
    one's size, hold at most _SHIFT_GROUP_ENTRIES terms run as one group:
    loss reads them as one strided view of a zero-padded copy and sums
    them after the running total; the amplifier scatters them by
    `np.add.at` into an output padded by the largest group's overhang.
    Every entry sees the additions of shift-by-shift order, to the bit.
    """
    dim = mat.shape[0]
    support = _support(mat)
    shifts = dim if up else support
    lfact = np.array([math.lgamma(k + 1.0) for k in range(shifts + support)])
    js = np.arange(shifts)[:, None]
    ms = np.arange(support)[None, :]
    weights = np.exp(
        0.5 * (lfact[js + ms] - lfact[ms] - lfact[js]) + 0.5 * ln_t * ms + 0.5 * ln_rest * js
    )
    groups, j = [], 0
    while j < shifts:
        k = min(dim - j, support) if up else support - j
        groups.append((j, min(shifts - j, max(1, _SHIFT_GROUP_ENTRIES // max(k * k, 1))), k))
        j += groups[-1][1]
    pad = max((g for _, g, _ in groups), default=1) - 1 if up else 0
    full = np.zeros((dim + pad, dim + pad), dtype=mat.dtype)
    out = full[:dim, :dim]
    for j, g, k in groups:
        v = weights[j : j + g, :k]
        w = v[:, :, None] * v[:, None, :]
        if g == 1 and up:
            out[j : j + k, j : j + k] += w[0] * mat[:k, :k]
        elif g == 1:
            out[:k, :k] += w[0] * mat[j : j + k, j : j + k]
        elif up:
            cells = np.arange(k)[:, None] * len(full) + np.arange(k)
            at = cells + (len(full) + 1) * np.arange(j, j + g)[:, None, None]
            np.add.at(full.reshape(-1), at.reshape(-1), (w * mat[:k, :k]).reshape(-1))
        else:
            src = np.zeros((k + g - 1, k + g - 1), dtype=mat.dtype)
            src[:k, :k] = mat[j : j + k, j : j + k]
            shifted = as_strided(src, (g, k, k), (sum(src.strides), *src.strides), writeable=False)
            np.add.reduce(np.concatenate((out[None, :k, :k], w * shifted)), axis=0, out=out[:k, :k])
    return out


def apply_channel(rho: DensityMatrix, ch: ChannelParams, cutoff: int) -> DensityMatrix:
    """Loss followed by additive thermal noise, exactly, in the Fock basis.

    Additive Gaussian noise of variance V = n_thermal per quadrature is pure
    loss with transmission 1/G followed by a quantum-limited amplifier of
    gain G = 1 + V, so the channel is amp(G) after loss(eta/G).  Both are
    phase-covariant with closed-form binomial weights (`_binomial_shift`;
    the amplifier's weights are those of loss 1/G, divided by G).  For an
    input supported on its first s number states, loss costs O(s^3) and
    the amplifier O(cutoff s^2) in a few cutoff^2 entries of memory; loss
    never widens the support.  The output is rescaled, Hermitized and checked
    on its support s_out, taken as the cutoff once noise acts: one Cholesky,
    O(s_out^3 / 3), and one more s_out^2 complex copy (see `DensityMatrix`).

    The input is zero-padded to `cutoff`.  Loss never leaves that space, so
    the result before renormalization is the exact compression of the
    channel output onto the first `cutoff` number states, and its trace
    defect is exactly the amplifier's leakage past the cutoff.  A
    ChannelConvergenceWarning is emitted when that defect tops 1e-4.
    Raises ResourceCapError when `cutoff` exceeds the dimension cap.
    """
    if cutoff < rho.dim:
        raise ValueError(f"cutoff {cutoff} smaller than input dimension {rho.dim}")
    check_build_dim(cutoff)
    mat = np.zeros((cutoff, cutoff), dtype=complex)
    mat[: rho.dim, : rho.dim] = rho.entries
    # t = eta / G and 1 - t = (1 - eta + V) / G, in logs so that a V far
    # below the rounding of 1 + V still gives a proper amplifier.
    ln_gain = math.log1p(ch.n_thermal)
    lost = 1.0 - ch.eta + ch.n_thermal
    if lost > 0.0:
        mat = _binomial_shift(mat, math.log(ch.eta) - ln_gain, math.log(lost) - ln_gain, up=False)
    if ch.n_thermal > 0.0:
        amplified = _binomial_shift(mat, -ln_gain, math.log(ch.n_thermal) - ln_gain, up=True)
        mat = amplified / (1.0 + ch.n_thermal)
    trace = float(np.trace(mat).real)
    if abs(trace - 1.0) > 1e-4:
        warnings.warn(
            f"channel output trace drifted to {trace:.6f}; cutoff too small",
            ChannelConvergenceWarning,
        )
    s = cutoff if ch.n_thermal > 0.0 else _support(mat)
    mat[:s, :s] /= trace
    np.multiply(mat[:s, :s] + mat[:s, :s].conj().T, 0.5, out=mat[:s, :s])
    return DensityMatrix(mat)


def approx_gkp_state(params, dim: int) -> FockState:
    """Finite superposition of displaced squeezed peaks, as a Fock vector.

    `params` is an `analytic.ApproxGKPParams`; its `peak_centers_weights`
    places peak s at (2s + bit) * a with Gaussian weight exp(-g/2 * center^2)
    (all peaks above the weight cutoff when `s_max` is None), each of
    normalized quadrature variance g.  The wavefunction is projected onto
    the number basis by dense quadrature and renormalized after truncation,
    so `dim` must generously cover the state's support for the vector to be
    faithful.  `dim` is checked against the cap, and so is the table: dim
    times the quadrature's points must fit in 15 cap^2 floats, the budget
    of `wigner`, or in 2^20 floats, before any array is made.
    """
    check_build_dim(dim)
    g = params.g
    centers, weights = params.peak_centers_weights()
    width = math.sqrt(g)
    span = float(np.max(np.abs(centers))) + max(8.0 * width, 6.0)
    step = min(width / 8.0, math.pi / (8.0 * math.sqrt(2.0 * dim + 1.0)))
    points = math.ceil((span + step + span) / step)  # the length of np.arange below
    if dim * points > _SMALL_TABLE_FLOATS:  # never refused, however small the cap
        remedy = "use a larger g, a smaller s_max or a smaller dim"
        _check_float_budget(dim * points, "approx_gkp_state", f"{points} quadrature points", remedy)
    q = np.arange(-span, span + step, step)
    psi = np.zeros_like(q)
    for c, w in zip(centers, weights):
        psi += w * np.exp(-((q - c) ** 2) / (2.0 * g))
    coeffs = hermite_functions(dim - 1, q) @ psi * step
    return FockState.normalized(coeffs)
