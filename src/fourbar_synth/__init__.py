"""Dimensional synthesis of a four-bar press linkage for minimum RMS torque.

The package covers the full chain from geometry to search: closed-form
position kinematics with explicit branch handling, reduced-inertia inverse
dynamics over a quintic stroke, quantified static and dynamic feasibility
constraints, Gaussian-process surrogates, and a constrained
expected-improvement optimization loop.  Brute-force oracles mirror every
fast path for verification.
"""

from .constraints import (
    DynamicConstraintResult,
    Pose,
    StaticGapResult,
    baseline_posture,
    dynamic_constraint,
    evaluate_design,
    evaluate_designs,
    static_gap,
    static_gaps,
)
from .dynamics import (
    LinkInertia,
    MassModel,
    TorqueProfile,
    mass_model,
    posture_terms,
    torque_profile,
)
from .gp import GpModel, KernelParams, gp_fit, gp_predict
from .kinematics import (
    KinematicCoefficients,
    Posture,
    Stroke,
    kinematic_coefficients,
    kinematic_transform,
    motion_profile,
    solve_fk,
    solve_ik,
    validate_baseline,
)
from .model import (
    BaselineDefective,
    BaselineInfeasible,
    Branch,
    ConstraintBundle,
    DesignParams,
    EmptyTrajectory,
    EvaluationRecord,
    MechanismConfig,
    MechanismError,
    MotionTask,
    NotAssemblable,
    OptimizerConfig,
    ParseError,
    SingularPosture,
    SingularState,
    TransformUnsolvable,
    ValidationError,
    config_to_dict,
    load_config,
    load_config_dict,
)
from .optimizer import (
    BoStep,
    OptimizationTrace,
    SurrogateSet,
    bo_minimize,
    constrained_ei,
    fit_surrogates,
    latin_hypercube,
    propose_next,
    run_optimization,
    step_from_record,
)
from .oracle import brute_ik, brute_static_gap, brute_theta_sweep, grid_sweep, mechanical_energy

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MechanismError",
    "ParseError",
    "ValidationError",
    "BaselineInfeasible",
    "BaselineDefective",
    "NotAssemblable",
    "SingularPosture",
    "TransformUnsolvable",
    "SingularState",
    "EmptyTrajectory",
    # core types
    "Branch",
    "DesignParams",
    "MechanismConfig",
    "MotionTask",
    "OptimizerConfig",
    "ConstraintBundle",
    "EvaluationRecord",
    "load_config",
    "load_config_dict",
    "config_to_dict",
    # kinematics
    "Posture",
    "KinematicCoefficients",
    "Stroke",
    "solve_ik",
    "solve_fk",
    "kinematic_coefficients",
    "motion_profile",
    "kinematic_transform",
    "validate_baseline",
    # dynamics
    "LinkInertia",
    "MassModel",
    "TorqueProfile",
    "mass_model",
    "posture_terms",
    "torque_profile",
    # constraints
    "Pose",
    "StaticGapResult",
    "DynamicConstraintResult",
    "baseline_posture",
    "static_gap",
    "static_gaps",
    "dynamic_constraint",
    "evaluate_design",
    "evaluate_designs",
    # surrogate
    "GpModel",
    "KernelParams",
    "gp_fit",
    "gp_predict",
    # optimizer
    "BoStep",
    "SurrogateSet",
    "OptimizationTrace",
    "latin_hypercube",
    "constrained_ei",
    "fit_surrogates",
    "propose_next",
    "bo_minimize",
    "step_from_record",
    "run_optimization",
    # oracles
    "brute_ik",
    "brute_static_gap",
    "brute_theta_sweep",
    "grid_sweep",
    "mechanical_energy",
]
