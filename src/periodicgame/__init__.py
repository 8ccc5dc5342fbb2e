"""Last-iterate learning dynamics in simplex-constrained periodic zero-sum
games: MWU, optimistic MWU, and extra-gradient MWU, plus the analysis
toolkit that verifies their convergence/divergence behavior numerically."""

from ._kernels import USING_NUMBA, backend_name
from .checks import (
    OrbitVerdict,
    PropertyReport,
    Violation,
    boundary_fixed_point,
    check_bregman_identities,
    check_extra_kl_decrease,
    check_omwu_increments,
    check_omwu_ratio_identities,
    detect_periodic_orbit,
)
from .dynamics import (
    Algorithm,
    OmwuState,
    exp_weights_step,
    extra_mwu_joint_step,
    iterate_reduced,
    max_step_size,
    omwu_eta_bound_for_divergence,
    omwu_joint_step,
    omwu_reduced_composite,
    omwu_reduced_map,
    run_trajectory,
)
from .equilibrium import (
    EquilibriumResult,
    common_equilibrium,
    full_support_values,
    generate_common_equilibrium_game,
    solve_zero_sum,
    verify_equilibrium,
)
from .errors import ConfigError, InputError, NumericalError
from .experiments import (
    ExperimentSpec,
    RunConfig,
    builtin_experiments,
    default_init,
    experiment_by_name,
    parse_config,
    run_experiment,
)
from .linalg import (
    boundary_eigenvalue,
    char_poly_eval,
    eigenvalues_small,
    interior_eigenvalue_pair,
    jacobian_fd,
    unit_eigenvector,
)
from .output import emit_csv, emit_svg_plot, read_csv
from .simplex import (
    LOG_ZERO,
    JointState,
    PayoffMatrix,
    PeriodicGame,
    Simplex,
    Trajectory,
    TrajectoryStep,
    kl_divergence,
    kl_simplex,
    normalize_log_weights,
)

__version__ = "0.1.0"
