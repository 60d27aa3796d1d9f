"""Core data model: mechanism description, motion task, result records, config loading.

Conventions used throughout the package:

* SI units everywhere (metres, kilograms, seconds, radians, newton-metres).
* The crank pivot O sits at the origin unless configured otherwise; the
  rocker pivot C is a free point.  The end-effector beam is rigidly attached
  to the rocker at C, so the effector angle ``delta`` and the rocker angle
  differ by the fixed ``effector_offset``.
* Branch tags name the two circle-intersection solutions of the closure
  equations: "plus" is the point left of the ray from the first circle's
  centre to the second's, i.e. a positive z-component of that cross
  product.  Each solver documents which circles it intersects.

All container types are frozen dataclasses, so they compare by value and
hash; the constraint layer memoises the baseline posture per mechanism and task.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Any, Callable, Iterable, Literal

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
    "TransformUnsolvable",
    "CrankIndeterminate",
    "SingularState",
    "EmptyTrajectory",
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
    """Baseline design does not assemble, meets an interior dead point or leaves A undetermined."""

    def __init__(self, delta: float, dead_point: bool = False, cause: str | None = None):
        if cause is None:
            cause = "meets a crank-coupler dead point" if dead_point else "not assemblable"
        super().__init__(f"baseline {cause} at delta={delta!r}")
        self.delta = delta
        self.dead_point = dead_point


class BaselineDefective(MechanismError):
    """Baseline assembles everywhere but its crank angle is not monotonic."""


class NotAssemblable(MechanismError):
    """Closure circles do not intersect for the requested configuration."""


class SingularPosture(MechanismError):
    """Kinematic coefficients undefined: crank and coupler are collinear."""


class TransformUnsolvable(MechanismError):
    """A stroke sample does not assemble or (``dead_point``) meets an interior dead point."""

    def __init__(self, delta: float, dead_point: bool = False):
        cause = "crank-coupler dead point" if dead_point else "no assembly"
        where = "inside the stroke" if dead_point else "during continuation"
        super().__init__(f"{cause} at delta={delta!r} {where}")
        self.delta = delta
        self.dead_point = dead_point


class CrankIndeterminate(TransformUnsolvable):
    """At a stroke sample B lies on pivot O with l_ab == l_oa: the crank pin A is not determined."""

    def __init__(self, delta: float):
        MechanismError.__init__(self, f"crank pin not determined at delta={delta!r}: B on pivot O with l_ab == l_oa")
        self.delta = delta
        self.dead_point = False


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


def _check_integer(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(name, f"must be an integer, got {value!r}")


def _cache_hash(obj: Any) -> None:
    """Store the hash of a config's compared fields once: configs key the memoised tables."""
    object.__setattr__(obj, "_hash", hash(tuple(getattr(obj, f.name) for f in fields(obj) if f.compare)))


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
        if 0.0 < self.l_oa < math.inf and 0.0 < self.l_ab < math.inf and 0.0 < self.l_bc < math.inf:
            return
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
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return self._hash

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
        _cache_hash(self)


@dataclass(frozen=True, slots=True)
class MotionTask:
    """Rest-to-rest stroke between the touch pose and the compression pose.

    The forward stroke runs from ``delta_e`` (touch) to ``delta_i``
    (maximal compression); the duty cycle is forward stroke, dwell, return
    stroke, dwell.  ``n_samples`` is the per-stroke sample count and must be
    odd so that the stroke walk starts from a sample exactly at mid-stroke.
    """

    delta_i: float
    delta_e: float
    t_move: float
    t_dwell: float = 0.0
    n_samples: int = 201
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return self._hash

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
        _check_integer("n_samples", self.n_samples)
        if self.n_samples < 51 or self.n_samples % 2 == 0:
            raise ValidationError("n_samples", f"must be odd and >= 51, got {self.n_samples!r}")
        _cache_hash(self)

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
        for name in ("n_init", "n_max", "n_acq_starts", "n_acq_samples", "seed"):
            _check_integer(name, getattr(self, name))
        if self.n_init < 4:
            raise ValidationError("n_init", f"must be >= 4, got {self.n_init!r}")
        if self.n_max <= self.n_init:
            raise ValidationError("n_max", "must exceed n_init")
        if self.n_acq_starts < 1:
            raise ValidationError("n_acq_starts", "must be >= 1")
        if self.n_acq_samples < self.n_acq_starts:
            raise ValidationError("n_acq_samples", "must be >= n_acq_starts")
        if self.seed < 0:
            raise ValidationError("seed", f"must be >= 0, got {self.seed!r}")


@dataclass(frozen=True, slots=True)
class ConstraintBundle:
    """Constraint observations for one design.

    ``c_static_i``/``c_static_e`` are the assemblability gaps (m) at the two
    stroke endpoints; ``c_dyn`` is the crank-reversal range (rad), or None
    when the trajectory could not be computed (statically infeasible or lost
    assembly mid-stroke).  Infeasibility is data here, never an exception.

    ``feasible`` is derived from the three values on construction (both
    gaps <= 0 and a defect-free stroke), so it cannot disagree with them.
    """

    c_static_i: float
    c_static_e: float
    c_dyn: float | None
    feasible: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.c_dyn is not None and self.c_dyn < 0.0:
            raise ValidationError("c_dyn", f"must be >= 0, got {self.c_dyn!r}")
        assembles = self.c_static_i <= 0.0 and self.c_static_e <= 0.0
        defect_free = self.c_dyn is not None and self.c_dyn <= FEASIBLE_DYN_TOL
        object.__setattr__(self, "feasible", assembles and defect_free)


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
#
# One table per JSON object maps each key to the reader of its value,
# (raw, "section.key") -> value, and the object is read through it,
# rejecting keys it lacks.  Defaults live only on the dataclass fields and
# range checks only in their __post_init__.

_Reader = Callable[[Any, str], Any]


def _number(raw: Any, name: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{name}: expected a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError as exc:
        raise ParseError(f"{name}: integer too large for a float") from exc


def _integer(raw: Any, name: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{name}: expected an integer, got {raw!r}")
    return raw


def _vector(raw: Any, name: str) -> tuple[float, ...]:
    """A list of numbers; the dataclass checks its length."""
    if not isinstance(raw, (list, tuple)):
        raise ParseError(f"{name}: expected a list of numbers, got {raw!r}")
    return tuple(_number(x, name) for x in raw)


def _branch(raw: Any, name: str) -> str:
    if not isinstance(raw, str):
        raise ParseError(f"{name}: expected a string, got {raw!r}")
    return raw


def _units(raw: Any, name: str) -> str:
    if raw not in ("rad", "deg"):
        raise ParseError(f"{name}: must be 'rad' or 'deg', got {raw!r}")
    return raw


def _angle(raw: Any, name: str) -> float:
    """A bare number in radians, or {"value": x, "units": "rad"|"deg"}."""
    if not isinstance(raw, dict):
        return _number(raw, name)
    angle = _read_keys(raw, name, _ANGLE_OBJECT, ("value",))
    return math.radians(angle["value"]) if angle.get("units") == "deg" else angle["value"]


def _read_keys(raw: Any, name: str, table: dict[str, _Reader], required: Iterable[str]) -> dict[str, Any]:
    """Read the keys present in one JSON object; each must be in ``table``."""
    if not isinstance(raw, dict):
        raise ParseError(f"{name}: expected an object, got {raw!r}")
    values = {}
    for key, value in raw.items():
        if key not in table:
            raise ParseError(f"{name}.{key}: unknown key")
        values[key] = table[key](value, f"{name}.{key}")
    for key in required:
        if key not in values:
            raise ParseError(f"{name}.{key}: missing required key")
    return values


def _read_object(cls: type, table: dict[str, _Reader], raw: Any, name: str) -> Any:
    """Build ``cls`` from the keys present; an absent key takes the field default."""
    required = [f.name for f in fields(cls) if f.init and f.default is MISSING]
    return cls(**_read_keys(raw, name, table, required))


def _read_bounds(raw: Any, name: str) -> tuple[tuple[float, ...], ...]:
    pairs = _read_keys(raw, name, _BOUNDS, _BOUNDS)
    return tuple(pairs[key] for key in _BOUNDS)


_ANGLE_OBJECT = {"value": _number, "units": _units}
_DESIGN = dict.fromkeys(("l_oa", "l_ab", "l_bc"), _number)
_BOUNDS = dict.fromkeys(_DESIGN, _vector)
_SECTIONS: dict[str, tuple[type, dict[str, _Reader]]] = {
    "mechanism": (
        MechanismConfig,
        {
            "pivot_o": _vector,
            "pivot_c": _vector,
            "baseline": partial(_read_object, DesignParams, _DESIGN),
            "branch": _branch,
            "effector_offset": _angle,
            "link_density": _vector,
            "payload_mass": _number,
            "effector_tip_length": _number,
            "tip_force": _vector,
            "gravity": _vector,
            "overshoot_cap": _number,
        },
    ),
    "task": (
        MotionTask,
        {"delta_i": _angle, "delta_e": _angle, "t_move": _number, "t_dwell": _number, "n_samples": _integer},
    ),
    "optimizer": (
        OptimizerConfig,
        {
            "bounds": _read_bounds,
            "n_init": _integer,
            "n_max": _integer,
            "n_acq_starts": _integer,
            "n_acq_samples": _integer,
            "seed": _integer,
        },
    ),
}


def load_config_dict(data: dict) -> tuple[MechanismConfig, MotionTask, OptimizerConfig]:
    """Build the three config objects from an already-parsed JSON dict.

    Raises ParseError naming ``section.key`` for a key the schema lacks, a
    missing required key or a value of the wrong kind, and ValidationError
    (naming the field) for a value out of range.
    """
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    for name in data:
        if name not in _SECTIONS:
            raise ParseError(f"{name}: unknown key")
    objects = []
    for name, (cls, table) in _SECTIONS.items():
        if name not in data:
            raise ParseError(f"missing required section {name!r}")
        objects.append(_read_object(cls, table, data[name], name))
    cfg, task, opt = objects
    # OptimizerConfig also serves signed analytic boxes; bar lengths must be positive.
    for name, (lo, _hi) in zip(_BOUNDS, opt.bounds):
        if lo <= 0.0:
            raise ValidationError("bounds", f"{name} lower bound must be positive")
    return cfg, task, opt


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object's (key, value) pairs as a dict; ParseError for a key given twice."""
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"{key}: key given twice in one object")
        data[key] = value
    return data


def load_config(path: str) -> tuple[MechanismConfig, MotionTask, OptimizerConfig]:
    """Load and validate a JSON config file.

    Raises ParseError for a file that is not UTF-8, malformed JSON, a key
    given twice in one object, or a malformed, missing or unknown key,
    ValidationError (naming the field) for value-level violations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path!r} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc
    return load_config_dict(data)
