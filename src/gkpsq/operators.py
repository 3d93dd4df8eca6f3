"""Grid operators whose ground states are GKP states.

A grid specifies the Hermitian positive-semidefinite observable

    Q = 2 sin^2(c11*x + c12*p + d1) + 2 sin^2(c21*x + c22*p + d2),

built in a truncated Fock basis by expanding each sin^2 over exact
displacement blocks, so the truncation is the exact compression of Q.
The module also provides Gaussian reshaping of grids, ground-state
extraction per dimension, expectations, approximate grid states, and a
loss/thermal-noise channel used as a density-matrix oracle for the closed
forms in `analytic`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityMatrix,
    FockState,
    coherent_displacement,
    hermitian_eigensolve,
    hermite_functions,
)

GKP_DET = math.pi / 2.0
# Hexagonal-grid coefficients.
KAPPA_PLUS = math.sqrt(math.pi / 8.0) * (3.0 ** 0.25 + 3.0 ** -0.25)
KAPPA_MINUS = math.sqrt(math.pi / 8.0) * (3.0 ** 0.25 - 3.0 ** -0.25)

PRESET_NAMES = ("q0", "q1", "s0", "s1", "hex")


class ChannelConvergenceWarning(RuntimeWarning):
    """Channel output drifted from trace one more than expected."""


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

    @property
    def axis_aligned(self) -> bool:
        return self.c12 == 0.0 and self.c21 == 0.0

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

    The hex route is a squeeze along a rotated axis with r = ln(3)/4,
    arranged for the row-vector coefficient convention used by
    `transform_grid`.
    """
    name = target.lower()
    sp = math.sqrt(math.pi)
    eye = np.eye(2)
    squeeze = np.diag([math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
    if name == "q1":
        return eye, np.array([sp, 0.0])
    if name == "s0":
        return squeeze, np.zeros(2)
    if name == "s1":
        return squeeze, np.array([sp, 0.0])
    if name == "hex":
        r = math.log(3.0) / 4.0
        ch, sh = math.cosh(r), math.sinh(r)
        A = np.array(
            [
                [math.sqrt(2.0) * ch, -math.sqrt(2.0) * sh],
                [-sh / math.sqrt(2.0), ch / math.sqrt(2.0)],
            ]
        )
        return A, np.zeros(2)
    raise ValueError(f"no route from q0 to {target!r}")


@dataclass
class TruncatedOperator:
    """Dense Hermitian grid operator on a truncated Fock basis."""

    matrix: np.ndarray
    grid: GridSpec

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _row_exponential(c1: float, c2: float, d: float, dim: int) -> np.ndarray:
    """Exact block of exp(2i(c1*x + c2*p + d)) = e^{2id} D(alpha).

    With the package convention exp(i(cx*x + cp*p)) = D((-cp + i*cx)/sqrt(2)),
    the doubled row gives alpha = sqrt(2)*(-c2 + i*c1).
    """
    alpha = math.sqrt(2.0) * complex(-c2, c1)
    block = coherent_displacement(alpha, dim)
    if d != 0.0:
        block = block * complex(math.cos(2.0 * d), math.sin(2.0 * d))
    return block


def build_operator(grid: GridSpec, dim: int) -> TruncatedOperator:
    """Fock-basis matrix of the grid operator.

    Each 2 sin^2(u) term expands as I - (e^{2iu} + e^{-2iu})/2, and every
    exponential is an exact displacement block, so the result is the
    compression P Q P of the untruncated operator onto the first `dim`
    number states: its minimal eigenvalue is a variational value of Q and
    cannot increase with `dim`.  The block is re-Hermitized to remove
    rounding asymmetry.
    """
    mat = 2.0 * np.eye(dim, dtype=complex)
    for c1, c2, d in grid.rows():
        block = _row_exponential(c1, c2, d, dim)
        mat -= 0.5 * (block + block.conj().T)
    mat = 0.5 * (mat + mat.conj().T)
    return TruncatedOperator(matrix=mat, grid=grid)


@dataclass
class GroundState:
    """Minimal eigenvalue of a truncated grid operator and its eigenstate."""

    xi_min: float
    state: FockState
    degeneracy: int


def ground_state(op: TruncatedOperator) -> GroundState:
    vals, vecs = hermitian_eigensolve(op.matrix)
    xi_min = float(vals[0])
    tol = max(1e-8, 1e-8 * abs(xi_min))
    degeneracy = int(np.count_nonzero(vals < xi_min + tol))
    return GroundState(xi_min=xi_min, state=FockState.normalized(vecs[:, 0]), degeneracy=degeneracy)


def expectation(op: TruncatedOperator, state: FockState | DensityMatrix) -> float:
    """<Q> for a pure state or Tr[rho Q], imaginary dust clipped."""
    if isinstance(state, FockState):
        if state.dim != op.dim:
            raise ValueError(f"state dim {state.dim} != operator dim {op.dim}")
        val = complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    elif isinstance(state, DensityMatrix):
        if state.dim != op.dim:
            raise ValueError(f"density matrix dim {state.dim} != operator dim {op.dim}")
        val = complex(np.trace(state.entries @ op.matrix))
    else:
        raise TypeError(f"expected FockState or DensityMatrix, got {type(state)!r}")
    return float(val.real)


def sin2_expectation(state: FockState | DensityMatrix, c1: float, c2: float, d: float = 0.0) -> float:
    """<sin^2(c1*x + c2*p + d)> = (1 - Re<exp(2i(c1*x + c2*p + d))>)/2.

    Uses the same exact displacement block as `build_operator`, so it is
    exact for states supported inside the truncation.
    """
    if isinstance(state, FockState):
        block = _row_exponential(c1, c2, d, state.dim)
        mean = complex(np.vdot(state.amplitudes, block @ state.amplitudes))
    elif isinstance(state, DensityMatrix):
        block = _row_exponential(c1, c2, d, state.dim)
        mean = complex(np.trace(state.entries @ block))
    else:
        raise TypeError(f"expected FockState or DensityMatrix, got {type(state)!r}")
    return 0.5 * (1.0 - mean.real)


@dataclass(frozen=True)
class ChannelParams:
    """Loss/thermal-noise channel: intensity transmission and added photons."""

    eta: float
    n_thermal: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.n_thermal < 0.0:
            raise ValueError(f"n_thermal must be >= 0, got {self.n_thermal}")

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


def _apply_loss(mat: np.ndarray, eta: float) -> np.ndarray:
    """Photon-loss Kraus family with transmission eta (exact, trace-preserving)."""
    dim = mat.shape[0]
    ln_eta = math.log(eta)
    ln_loss = math.log1p(-eta)
    lgam = [math.lgamma(n + 1) for n in range(dim)]
    out = np.zeros_like(mat)
    for k in range(dim):
        ns = np.arange(k, dim)
        log_amp_sq = (
            np.array([lgam[n] - lgam[n - k] for n in ns])
            - lgam[k]
            + (ns - k) * ln_eta
            + k * ln_loss
        )
        kraus = np.zeros((dim, dim))
        kraus[ns - k, ns] = np.exp(0.5 * log_amp_sq)
        out += kraus @ mat @ kraus.T
    return out


def _apply_displacement_noise(mat: np.ndarray, variance: float, order: int) -> np.ndarray:
    """Isotropic Gaussian random-displacement average, Gauss-Hermite product rule."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights / math.sqrt(math.pi)
    shifts = math.sqrt(2.0 * variance) * nodes
    dim = mat.shape[0]
    out = np.zeros_like(mat)
    for i in range(order):
        for j in range(order):
            alpha = complex(shifts[i], shifts[j]) / math.sqrt(2.0)
            disp = coherent_displacement(alpha, dim)
            out += (weights[i] * weights[j]) * (disp @ mat @ disp.conj().T)
    return out


def apply_channel(
    rho: DensityMatrix,
    ch: ChannelParams,
    cutoff: int,
    quad_order: int = 21,
) -> DensityMatrix:
    """Loss followed by additive thermal noise, in the Fock basis.

    The input is zero-padded to `cutoff` for headroom; displacement noise can
    leak population past the cutoff, so the output trace is monitored and a
    ChannelConvergenceWarning is emitted when the defect tops 1e-4 before
    renormalization.
    """
    if cutoff < rho.dim:
        raise ValueError(f"cutoff {cutoff} smaller than input dimension {rho.dim}")
    mat = rho.padded(cutoff).entries if cutoff > rho.dim else rho.entries.copy()
    if ch.eta < 1.0:
        mat = _apply_loss(mat, ch.eta)
    if ch.n_thermal > 0.0:
        mat = _apply_displacement_noise(mat, ch.n_thermal, quad_order)
    trace = float(np.trace(mat).real)
    if abs(trace - 1.0) > 1e-4:
        warnings.warn(
            f"channel output trace drifted to {trace:.6f}; cutoff or quadrature "
            f"order likely insufficient",
            ChannelConvergenceWarning,
        )
    mat = mat / trace
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(mat)


def approx_gkp_state(params, dim: int) -> FockState:
    """Finite superposition of displaced squeezed peaks, as a Fock vector.

    Peak s sits at (2s + bit) * a with Gaussian weight exp(-g/2 * center^2)
    and normalized quadrature variance g.  The wavefunction is projected
    onto the number basis by dense quadrature and renormalized after
    truncation, so `dim` must generously cover the state's support for the
    vector to be faithful.
    """
    g = params.g
    a = params.a
    if g <= 0 or a <= 0:
        raise ValueError(f"need g > 0 and a > 0, got g={g}, a={a}")
    if params.s_max is None or params.s_max < 0:
        raise ValueError(f"s_max must be a nonnegative integer, got {params.s_max}")
    s = np.arange(-params.s_max, params.s_max + 1)
    centers = (2.0 * s + (1.0 if params.logical_bit else 0.0)) * a
    weights = np.exp(-0.5 * g * centers**2)
    width = math.sqrt(g)
    span = float(np.max(np.abs(centers))) + max(8.0 * width, 6.0)
    step = min(width / 8.0, math.pi / (8.0 * math.sqrt(2.0 * dim + 1.0)))
    q = np.arange(-span, span + step, step)
    psi = np.zeros_like(q)
    for c, w in zip(centers, weights):
        psi += w * np.exp(-((q - c) ** 2) / (2.0 * g))
    coeffs = hermite_functions(dim - 1, q) @ psi * step
    return FockState.normalized(coeffs)
