"""Core data model: mechanism description, motion task, result records, config I/O.

Conventions used throughout the package:

* SI units everywhere (metres, kilograms, seconds, radians, newton-metres).
* The crank pivot O sits at the origin unless configured otherwise; the
  rocker pivot C is a free point.  The end-effector beam is rigidly attached
  to the rocker at C, so the effector angle ``delta`` and the rocker angle
  differ by the fixed ``effector_offset``.
* Branch tags name the two circle-intersection solutions of the closure
  equations ("plus" means a positive z-component of the relevant cross
  product; each solver documents which one).

All container types are frozen dataclasses so they hash, which lets the
geometry layers memoise per-design intermediates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Literal

__all__ = [
    "Branch",
    "ConstraintBundle",
    "DesignParams",
    "EvaluationRecord",
    "MechanismConfig",
    "MechanismError",
    "MotionTask",
    "OptimizerConfig",
    "ParseError",
    "ValidationError",
    "BaselineInfeasible",
    "BaselineDefective",
    "NotAssemblable",
    "SingularPosture",
    "SeedUnsolvable",
    "TransformUnsolvable",
    "SingularState",
    "EmptyTrajectory",
    "config_to_dict",
    "load_config",
    "load_config_dict",
]

Branch = Literal["plus", "minus"]

FEASIBLE_DYN_TOL = 1e-9  # rad; crank-reversal range below this counts as zero


# ---------------------------------------------------------------------------
# errors


class MechanismError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MechanismError):
    """Raised when a config file is not valid JSON, misses required keys or has unknown ones."""


class ValidationError(MechanismError):
    """Raised when a config value violates an invariant.

    Carries the offending field name so callers (and the CLI) can point at
    the exact entry.
    """

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class BaselineInfeasible(MechanismError):
    """Baseline design cannot be assembled at some pose of the stroke."""

    def __init__(self, delta: float, message: str = ""):
        detail = message or "baseline not assemblable"
        super().__init__(f"{detail} at delta={delta!r}")
        self.delta = delta


class BaselineDefective(MechanismError):
    """Baseline assembles everywhere but its crank angle is not monotonic."""


class NotAssemblable(MechanismError):
    """Closure circles do not intersect for the requested configuration."""


class SingularPosture(MechanismError):
    """Kinematic coefficients undefined: crank and coupler are collinear."""


class SeedUnsolvable(MechanismError):
    """Continuation seed pose (mid-stroke) is not assemblable."""


class TransformUnsolvable(MechanismError):
    """Continuation lost assembly partway through the stroke."""

    def __init__(self, delta: float):
        super().__init__(f"no assembly at delta={delta!r} during continuation")
        self.delta = delta


class SingularState(MechanismError):
    """Dynamics undefined: posture sits on a transmission singularity."""

    def __init__(self, message: str, t: float | None = None):
        if t is not None:
            message = f"{message} at t={t!r}"
        super().__init__(message)
        self.t = t


class EmptyTrajectory(MechanismError):
    """An operation that needs trajectory samples received none."""


# ---------------------------------------------------------------------------
# value types


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(name, f"must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class DesignParams:
    """The three free bar lengths of the linkage (metres).

    ``l_oa`` is the crank O-A, ``l_ab`` the coupler A-B, ``l_bc`` the rocker
    bar B-C.  Lengths must be positive and finite; box bounds are enforced
    by the optimizer, not here, so off-bound designs can still be evaluated.
    """

    l_oa: float
    l_ab: float
    l_bc: float

    def __post_init__(self) -> None:
        for name in ("l_oa", "l_ab", "l_bc"):
            value = getattr(self, name)
            _check_finite(name, value)
            if value <= 0.0:
                raise ValidationError(name, f"must be positive, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l_oa, self.l_ab, self.l_bc)


@dataclass(frozen=True, slots=True)
class MechanismConfig:
    """Fixed geometry, inertial properties and loading of the mechanism.

    ``baseline`` is the reference design whose posture defines the relative
    bar angles used by the static assemblability gap.  ``branch`` selects
    which closure branch the baseline (and every evaluated design) runs on.
    """

    pivot_c: tuple[float, float]
    baseline: DesignParams
    branch: Branch
    pivot_o: tuple[float, float] = (0.0, 0.0)
    effector_offset: float = 0.0
    link_density: tuple[float, float, float] = (0.0, 0.0, 0.0)
    payload_mass: float = 0.0
    effector_tip_length: float = 0.0
    tip_force: tuple[float, float] = (0.0, 0.0)
    gravity: tuple[float, float] = (0.0, -9.81)
    overshoot_cap: float = 0.020

    def __post_init__(self) -> None:
        for name in ("pivot_c", "pivot_o", "tip_force", "gravity"):
            value = getattr(self, name)
            if len(value) != 2:
                raise ValidationError(name, "must be a 2-vector")
            object.__setattr__(self, name, (float(value[0]), float(value[1])))
            for comp in getattr(self, name):
                _check_finite(name, comp)
        if self.branch not in ("plus", "minus"):
            raise ValidationError("branch", f"must be 'plus' or 'minus', got {self.branch!r}")
        dx = self.pivot_c[0] - self.pivot_o[0]
        dy = self.pivot_c[1] - self.pivot_o[1]
        if math.hypot(dx, dy) <= 0.0:
            raise ValidationError("pivot_c", "ground link |OC| must be positive")
        _check_finite("effector_offset", self.effector_offset)
        if len(self.link_density) != 3:
            raise ValidationError("link_density", "must give one density per bar (OA, AB, BC)")
        object.__setattr__(self, "link_density", tuple(float(d) for d in self.link_density))
        for rho in self.link_density:
            _check_finite("link_density", rho)
            if rho < 0.0:
                raise ValidationError("link_density", f"must be >= 0, got {rho!r}")
        _check_finite("payload_mass", self.payload_mass)
        if self.payload_mass < 0.0:
            raise ValidationError("payload_mass", f"must be >= 0, got {self.payload_mass!r}")
        _check_finite("effector_tip_length", self.effector_tip_length)
        if self.effector_tip_length < 0.0:
            raise ValidationError("effector_tip_length", "must be >= 0")
        _check_finite("overshoot_cap", self.overshoot_cap)
        if self.overshoot_cap <= 0.0:
            raise ValidationError("overshoot_cap", "must be positive")


@dataclass(frozen=True, slots=True)
class MotionTask:
    """Rest-to-rest stroke between the touch pose and the compression pose.

    The forward stroke runs from ``delta_e`` (touch) to ``delta_i``
    (maximal compression); the duty cycle is forward stroke, dwell, return
    stroke, dwell.  ``n_samples`` is the per-stroke sample count and must be
    odd so the mid-stroke continuation seed lands exactly on a sample.
    """

    delta_i: float
    delta_e: float
    t_move: float
    t_dwell: float = 0.0
    n_samples: int = 201

    def __post_init__(self) -> None:
        _check_finite("delta_i", self.delta_i)
        _check_finite("delta_e", self.delta_e)
        if self.delta_i == self.delta_e:
            raise ValidationError("delta_i", "stroke endpoints must differ")
        _check_finite("t_move", self.t_move)
        if self.t_move <= 0.0:
            raise ValidationError("t_move", f"must be positive, got {self.t_move!r}")
        _check_finite("t_dwell", self.t_dwell)
        if self.t_dwell < 0.0:
            raise ValidationError("t_dwell", f"must be >= 0, got {self.t_dwell!r}")
        if not isinstance(self.n_samples, int):
            raise ValidationError("n_samples", "must be an integer")
        if self.n_samples < 51 or self.n_samples % 2 == 0:
            raise ValidationError("n_samples", f"must be odd and >= 51, got {self.n_samples!r}")

    @property
    def delta_mid(self) -> float:
        return 0.5 * (self.delta_i + self.delta_e)

    @property
    def t_cycle(self) -> float:
        return 2.0 * self.t_move + 2.0 * self.t_dwell


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """Search box and budget for the Bayesian optimization loop.

    The box is dimension-generic (the loop also serves analytic test
    problems); length positivity for mechanism searches is enforced where
    the config file is loaded.
    """

    bounds: tuple[tuple[float, float], ...]
    n_init: int = 12
    n_max: int = 60
    n_acq_starts: int = 32
    n_acq_samples: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.bounds) < 1:
            raise ValidationError("bounds", "need at least one (lo, hi) pair")
        clean = []
        for k, pair in enumerate(self.bounds):
            if len(pair) != 2:
                raise ValidationError("bounds", f"entry {k} is not a (lo, hi) pair")
            lo, hi = float(pair[0]), float(pair[1])
            _check_finite("bounds", lo)
            _check_finite("bounds", hi)
            if not lo < hi:
                raise ValidationError("bounds", f"entry {k} must satisfy lo < hi")
            clean.append((lo, hi))
        object.__setattr__(self, "bounds", tuple(clean))
        if self.n_init < 4:
            raise ValidationError("n_init", f"must be >= 4, got {self.n_init!r}")
        if self.n_max <= self.n_init:
            raise ValidationError("n_max", "must exceed n_init")
        if self.n_acq_starts < 1:
            raise ValidationError("n_acq_starts", "must be >= 1")
        if self.n_acq_samples < self.n_acq_starts:
            raise ValidationError("n_acq_samples", "must be >= n_acq_starts")


@dataclass(frozen=True, slots=True)
class ConstraintBundle:
    """Constraint observations for one design.

    ``c_static_i``/``c_static_e`` are the assemblability gaps (m) at the two
    stroke endpoints; ``c_dyn`` is the crank-reversal range (rad), or None
    when the trajectory could not be computed (statically infeasible or lost
    assembly mid-stroke).  Infeasibility is data here, never an exception.
    """

    c_static_i: float
    c_static_e: float
    c_dyn: float | None
    feasible: bool

    def __post_init__(self) -> None:
        if self.c_dyn is not None and self.c_dyn < 0.0:
            raise ValidationError("c_dyn", f"must be >= 0, got {self.c_dyn!r}")
        expect = (
            self.c_static_i <= 0.0
            and self.c_static_e <= 0.0
            and self.c_dyn is not None
            and self.c_dyn <= FEASIBLE_DYN_TOL
        )
        if self.feasible != expect:
            raise ValidationError("feasible", "flag inconsistent with constraint values")

    @classmethod
    def from_values(cls, c_static_i: float, c_static_e: float, c_dyn: float | None) -> "ConstraintBundle":
        feasible = (
            c_static_i <= 0.0
            and c_static_e <= 0.0
            and c_dyn is not None
            and c_dyn <= FEASIBLE_DYN_TOL
        )
        return cls(c_static_i, c_static_e, c_dyn, feasible)


@dataclass(frozen=True, slots=True)
class EvaluationRecord:
    """Full outcome of evaluating one design: constraints plus objective.

    ``objective`` is the RMS motor torque over the duty cycle (N m), present
    only when the design is feasible and the whole pipeline ran; the
    optimizer treats its absence as "no objective observation".
    """

    design: DesignParams
    constraints: ConstraintBundle
    objective: float | None = None

    def __post_init__(self) -> None:
        if self.objective is not None and not self.constraints.feasible:
            raise ValidationError("objective", "present on an infeasible design")


# ---------------------------------------------------------------------------
# config ingestion

_ANGLE_FIELDS_MECH = ("effector_offset",)
_ANGLE_FIELDS_TASK = ("delta_i", "delta_e")


def _read_angle(section: dict, key: str, default: float | None, degrees: bool) -> float:
    """Angle fields accept a bare number or {"value": x, "units": "deg"|"rad"}."""
    if key not in section:
        if default is None:
            raise ParseError(f"missing required key {key!r}")
        return default
    raw = section[key]
    if isinstance(raw, dict):
        try:
            value = float(raw["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{key}: bad angle object, need numeric 'value'") from exc
        units = raw.get("units", "rad")
        if units not in ("rad", "deg"):
            raise ParseError(f"{key}: units must be 'rad' or 'deg', got {units!r}")
        return math.radians(value) if units == "deg" else value
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key}: expected a number") from exc
    return math.radians(value) if degrees else value


def _read_number(section: dict, key: str, default: float | None = None) -> float:
    if key not in section:
        if default is None:
            raise ParseError(f"missing required key {key!r}")
        return default
    try:
        return float(section[key])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key}: expected a number") from exc


def _read_pair(section: dict, key: str, default: tuple[float, float] | None) -> tuple[float, float]:
    if key not in section:
        if default is None:
            raise ParseError(f"missing required key {key!r}")
        return default
    raw = section[key]
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ParseError(f"{key}: expected a 2-element list")
    return (float(raw[0]), float(raw[1]))


def _reject_unknown_keys(section: dict, schema: dict, name: str) -> None:
    """A misspelt key would otherwise fall back to its default unnoticed."""
    for key, value in section.items():
        if key not in schema:
            raise ParseError(f"{name}.{key}: unknown key")
        if isinstance(value, dict) and isinstance(schema[key], dict):
            _reject_unknown_keys(value, schema[key], f"{name}.{key}")


def load_config_dict(data: dict, degrees: bool = False) -> tuple[MechanismConfig, MotionTask, OptimizerConfig]:
    """Build the three config objects from an already-parsed JSON dict.

    Raises ParseError naming ``section.key`` for a key the schema lacks.
    """
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    for key in ("mechanism", "task", "optimizer"):
        if key not in data or not isinstance(data[key], dict):
            raise ParseError(f"missing required section {key!r}")

    mech = data["mechanism"]
    if "baseline" not in mech or not isinstance(mech["baseline"], dict):
        raise ParseError("mechanism.baseline must be an object with l_oa, l_ab, l_bc")
    base = mech["baseline"]
    baseline = DesignParams(
        l_oa=_read_number(base, "l_oa"),
        l_ab=_read_number(base, "l_ab"),
        l_bc=_read_number(base, "l_bc"),
    )
    density = mech.get("link_density", [0.0, 0.0, 0.0])
    if not isinstance(density, (list, tuple)) or len(density) != 3:
        raise ParseError("mechanism.link_density: expected a 3-element list")
    branch = mech.get("branch")
    if branch not in ("plus", "minus"):
        raise ValidationError("branch", f"must be 'plus' or 'minus', got {branch!r}")
    cfg = MechanismConfig(
        pivot_c=_read_pair(mech, "pivot_c", None),
        baseline=baseline,
        branch=branch,
        pivot_o=_read_pair(mech, "pivot_o", (0.0, 0.0)),
        effector_offset=_read_angle(mech, "effector_offset", 0.0, degrees),
        link_density=tuple(float(d) for d in density),
        payload_mass=_read_number(mech, "payload_mass", 0.0),
        effector_tip_length=_read_number(mech, "effector_tip_length", 0.0),
        tip_force=_read_pair(mech, "tip_force", (0.0, 0.0)),
        gravity=_read_pair(mech, "gravity", (0.0, -9.81)),
        overshoot_cap=_read_number(mech, "overshoot_cap", 0.020),
    )

    task_sec = data["task"]
    n_samples_raw = task_sec.get("n_samples", 201)
    if not isinstance(n_samples_raw, int) or isinstance(n_samples_raw, bool):
        raise ValidationError("n_samples", "must be an integer")
    task = MotionTask(
        delta_i=_read_angle(task_sec, "delta_i", None, degrees),
        delta_e=_read_angle(task_sec, "delta_e", None, degrees),
        t_move=_read_number(task_sec, "t_move"),
        t_dwell=_read_number(task_sec, "t_dwell", 0.0),
        n_samples=n_samples_raw,
    )

    opt_sec = data["optimizer"]
    if "bounds" not in opt_sec or not isinstance(opt_sec["bounds"], dict):
        raise ParseError("optimizer.bounds must be an object with l_oa, l_ab, l_bc pairs")
    bounds = tuple(_read_pair(opt_sec["bounds"], k, None) for k in ("l_oa", "l_ab", "l_bc"))
    for name, (lo, _hi) in zip(("l_oa", "l_ab", "l_bc"), bounds):
        if lo <= 0.0:
            raise ValidationError("bounds", f"{name} lower bound must be positive")
    opt = OptimizerConfig(
        bounds=bounds,  # type: ignore[arg-type]
        n_init=int(opt_sec.get("n_init", 12)),
        n_max=int(opt_sec.get("n_max", 60)),
        n_acq_starts=int(opt_sec.get("n_acq_starts", 32)),
        n_acq_samples=int(opt_sec.get("n_acq_samples", 4096)),
        seed=int(opt_sec.get("seed", 0)),
    )
    schema = config_to_dict(cfg, task, opt)
    for key in ("mechanism", "task", "optimizer"):
        _reject_unknown_keys(data[key], schema[key], key)
    return cfg, task, opt


def load_config(path: str, degrees: bool = False) -> tuple[MechanismConfig, MotionTask, OptimizerConfig]:
    """Load and validate a JSON config file.

    Raises ParseError for malformed JSON or missing or unknown keys, ValidationError
    (naming the field) for value-level violations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc
    return load_config_dict(data, degrees=degrees)


def config_to_dict(cfg: MechanismConfig, task: MotionTask, opt: OptimizerConfig) -> dict[str, Any]:
    """Serialize configs back to the JSON schema; round-trips bit-for-bit."""
    return {
        "mechanism": {
            "pivot_o": list(cfg.pivot_o),
            "pivot_c": list(cfg.pivot_c),
            "baseline": {
                "l_oa": cfg.baseline.l_oa,
                "l_ab": cfg.baseline.l_ab,
                "l_bc": cfg.baseline.l_bc,
            },
            "branch": cfg.branch,
            "effector_offset": cfg.effector_offset,
            "link_density": list(cfg.link_density),
            "payload_mass": cfg.payload_mass,
            "effector_tip_length": cfg.effector_tip_length,
            "tip_force": list(cfg.tip_force),
            "gravity": list(cfg.gravity),
            "overshoot_cap": cfg.overshoot_cap,
        },
        "task": {
            "delta_i": task.delta_i,
            "delta_e": task.delta_e,
            "t_move": task.t_move,
            "t_dwell": task.t_dwell,
            "n_samples": task.n_samples,
        },
        "optimizer": {
            "bounds": {
                "l_oa": list(opt.bounds[0]),
                "l_ab": list(opt.bounds[1]),
                "l_bc": list(opt.bounds[2]),
            },
            "n_init": opt.n_init,
            "n_max": opt.n_max,
            "n_acq_starts": opt.n_acq_starts,
            "n_acq_samples": opt.n_acq_samples,
            "seed": opt.seed,
        },
    }
