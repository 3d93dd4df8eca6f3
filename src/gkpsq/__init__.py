"""Nonlinear squeezing toolkit for grid (GKP) states.

Modules:
    fock       truncated Fock-space primitives (states, displacements,
               Hermite functions, Wigner, quadrature pdf)
    operators  grid operators, ground states, expectations, channels,
               approximate grid states
    analytic   closed forms: bounds, thresholds, fidelity sandwich,
               loss/noise maps, breeding step
    estimator  squeezing estimation from homodyne samples
    cli        command-line sweeps and reports
"""

from .analytic import (
    THRESHOLDS,
    ApproxGKPParams,
    Thresholds,
    breeding_step_xi,
    channel_affine_xi,
    channel_output_xi,
    classical_bound,
    classify_xi,
    db,
    fidelity_bounds,
    gaussian_bound,
    grid_squeezing,
    grid_squeezing_bounds_from_xi,
    xi_approx_symmetric,
    xi_finite_superposition,
    xi_from_grid_squeezing,
)
from .estimator import (
    QuadratureSamples,
    SqueezingReport,
    estimate_displacement_mean,
    estimate_grid_squeezing,
    estimate_xi,
    load_samples,
    optimize_xi,
    save_samples,
    synthesize_samples,
)
from .fock import (
    DensityMatrix,
    FockState,
    ResourceCapError,
    coherent_displacement,
    fidelity,
    quadrature_pdf,
    wigner,
)
from .operators import (
    ChannelParams,
    GridSpec,
    TruncatedOperator,
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

__version__ = "0.1.0"
