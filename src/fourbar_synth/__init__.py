"""Dimensional synthesis of a four-bar press linkage for minimum RMS torque.

The package covers the full chain from geometry to search: closed-form
position kinematics with explicit branch handling, reduced-inertia inverse
dynamics over a quintic stroke, quantified static and dynamic feasibility
constraints, Gaussian-process surrogates, and a constrained
expected-improvement optimization loop.  Brute-force oracles mirror every
fast path for verification.

Each public name is imported from its module on first use (PEP 562), so a
process that only evaluates designs never loads the GP stack and scipy.
"""

from importlib import import_module

__version__ = "0.1.0"

# the modules of the package and the public names each one defines
_EXPORTS = {
    "model": (
        "MechanismError", "ParseError", "ValidationError", "BaselineInfeasible",
        "BaselineDefective", "NotAssemblable", "SingularPosture", "TransformUnsolvable",
        "CrankIndeterminate", "SingularState", "EmptyTrajectory", "Branch", "DesignParams",
        "MechanismConfig", "MotionTask", "OptimizerConfig", "ConstraintBundle",
        "EvaluationRecord", "load_config", "load_config_dict",
    ),
    "kinematics": (
        "Posture", "KinematicCoefficients", "Stroke", "solve_ik", "solve_fk",
        "kinematic_coefficients", "motion_profile", "kinematic_transform", "validate_baseline",
    ),
    "dynamics": (
        "LinkInertia", "MassModel", "TorqueProfile", "mass_model", "posture_terms",
        "torque_profile",
    ),
    "constraints": (
        "Pose", "StaticGapResult", "DynamicConstraintResult", "baseline_posture", "static_gap",
        "static_gaps", "assembles", "dynamic_constraint", "evaluate_design", "evaluate_designs",
    ),
    "gp": ("GpModel", "KernelParams", "gp_fit", "gp_predict"),
    "optimizer": (
        "BoStep", "SurrogateSet", "OptimizationTrace", "latin_hypercube", "constrained_ei",
        "fit_surrogates", "propose_next", "bo_minimize", "step_from_record", "run_optimization",
    ),
    "oracle": (
        "brute_ik", "brute_static_gap", "brute_theta_sweep", "grid_sweep", "mechanical_energy",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    # any other name, a submodule's included, is left to the import system
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
