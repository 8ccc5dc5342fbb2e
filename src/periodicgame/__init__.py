"""Last-iterate learning dynamics in simplex-constrained periodic zero-sum
games: MWU, optimistic MWU, and extra-gradient MWU, plus the analysis
toolkit that verifies their convergence/divergence behavior numerically.

``import periodicgame`` loads none of the package's modules, nor numpy: the
first read of a public name, or of a module (``periodicgame.dynamics``),
imports the module that defines it.  When the import system sets a module
on the package, just after its body has run, every name that module exports
here is bound in the package, so later reads are plain attribute lookups
and hold the objects the module defined.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The public names of each module, as the package exports them.
_EXPORTS = {
    "_kernels": ("backend_name", "backend_reason"),
    "checks": (
        "OrbitVerdict",
        "PropertyReport",
        "Violation",
        "boundary_fixed_point",
        "check_bregman_identities",
        "check_extra_kl_decrease",
        "check_omwu_increments",
        "check_omwu_ratio_identities",
        "detect_periodic_orbit",
    ),
    "dynamics": (
        "Algorithm",
        "OmwuState",
        "exp_weights_step",
        "extra_mwu_joint_step",
        "iterate_reduced",
        "max_step_size",
        "omwu_eta_bound_for_divergence",
        "omwu_joint_step",
        "omwu_reduced_composite",
        "omwu_reduced_map",
        "run_trajectory",
    ),
    "equilibrium": (
        "EquilibriumResult",
        "common_equilibrium",
        "generate_common_equilibrium_game",
        "solve_zero_sum",
        "verify_equilibrium",
    ),
    "errors": ("ConfigError", "InputError", "NumericalError"),
    "experiments": (
        "ExperimentSpec",
        "RunConfig",
        "builtin_experiments",
        "default_init",
        "experiment_by_name",
        "parse_config",
        "run_experiment",
    ),
    "linalg": (
        "boundary_eigenvalue",
        "char_poly_eval",
        "eigenvalues_small",
        "interior_eigenvalue_pair",
        "jacobian_fd",
        "unit_eigenvector",
    ),
    "output": ("emit_csv", "emit_svg_plot", "read_csv"),
    "simplex": (
        "LOG_ZERO",
        "JointState",
        "PayoffMatrix",
        "PeriodicGame",
        "Simplex",
        "Trajectory",
        "kl_divergence",
        "kl_simplex",
        "normalize_log_weights",
    ),
    "_kernels_py": (),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    # Reached only for a name not bound yet.
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.{module}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_OWNER, *_EXPORTS})


class _Package(types.ModuleType):
    # Only __setattr__: a class __getattr__ would send every read of a bound
    # name through a Python-level hook (190 against 21 ns a read, CPython
    # 3.11 on a 2-vCPU VM), where the module's __getattr__ above runs only
    # for a name not bound yet.
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # Binding when the module is set, not at a later first read, keeps
        # out a value that a caller (a tracer, a mock) has patched into the
        # module in between.
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            for export in _EXPORTS[name]:
                super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package
