"""Closed-form position kinematics and stroke trajectory generation.

The linkage is driven in two directions: the motor drives the crank angle
``theta`` (forward kinematics), while the motion task prescribes the
effector angle ``delta`` (inverse kinematics).  Both reduce to one
circle-circle intersection with an explicit branch label, ``_intersect``,
which ``solve_ik``, ``solve_fk`` and the stroke walk all call.

``kinematic_transform`` is the one stroke walk.  It solves every sample at
once, as array expressions over the sample axis, and takes the crank pin A
on one fixed intersection label: the configured branch.  One label is the
same as continuing the mid-stroke sample outward, always keeping the
intersection nearest the previous A: the two intersections can only trade
places where they coincide (h^2 = 0), and there A lies on the line O-B,
which is a crank-coupler dead point.  A dead point inside the stroke ends
the walk, so a stroke that completes never changes label.  There is one
failure rule: the first sample in walk order that does not assemble or
meets an interior dead point raises ``TransformUnsolvable``, or its
subclass ``CrankIndeterminate`` where B sits on O with l_ab == l_oa, so
that the crank and coupler circles coincide and no label picks A.  The walk
returns a ``Stroke``, a struct of arrays whose joint columns the dynamics
reads as they are, and ``validate_baseline`` checks the baseline on that
same walk.  Its kernels are elementwise, so the same walk runs one design
or many at once, as (samples x designs) arrays.  A walk's cost is nearly
all per-call numpy overhead, so its design-independent columns are cached
per (cfg, task) and its ``_joint_geometry`` serves the crank angle and the
torque too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    Branch,
    DesignParams,
    MechanismConfig,
    MotionTask,
    BaselineDefective,
    BaselineInfeasible,
    CrankIndeterminate,
    NotAssemblable,
    SingularPosture,
    TransformUnsolvable,
)

__all__ = [
    "Posture",
    "KinematicCoefficients",
    "Stroke",
    "solve_ik",
    "solve_fk",
    "kinematic_coefficients",
    "motion_profile",
    "kinematic_transform",
    "validate_baseline",
]

# Relative tolerance for "the circles just touch": gaps smaller than this
# (scaled by the radii) are treated as exact tangency instead of failure.
_TANGENT_TOL = 1e-12

# Threshold scale for the crank-coupler dead point test in the coefficient
# formula denominator.
_SINGULAR_TOL = 1e-12

# Relative tolerance, on the crank length, for "the crank and coupler
# circles coincide": B within it of O and |l_ab - l_oa| within it too.
_COINCIDENT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Posture:
    """One assembled configuration of the linkage.

    ``elbow`` records the branch tag the posture was constructed on.
    """

    theta: float
    delta: float
    point_a: tuple[float, float]
    point_b: tuple[float, float]
    elbow: Branch


@dataclass(frozen=True, slots=True)
class KinematicCoefficients:
    """First and second derivative of crank angle w.r.t. effector angle."""

    dtheta_ddelta: float
    d2theta_ddelta2: float


@dataclass(frozen=True, slots=True, eq=False)
class Stroke:
    """The forward stroke as columns over its samples.

    Every column is a float array with one entry per sample, uniform in
    time; ``point_a`` and ``point_b`` are (n, 2) arrays of the joints
    assembled at each sample.  ``theta`` is continuous along the stroke, so
    it may leave (-pi, pi] when the crank passes theta = pi.  The columns
    ``kinematic_transform`` returns are read-only.
    """

    t: np.ndarray
    delta: np.ndarray
    delta_dot: np.ndarray
    delta_ddot: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    theta_ddot: np.ndarray
    point_a: np.ndarray
    point_b: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def _rocker_direction(cfg: MechanismConfig, delta):
    """Unit direction (cos, sin) of the rocker ray C -> B at effector angles delta, elementwise."""
    ang = delta - cfg.effector_offset
    return np.cos(ang), np.sin(ang)


def _rocker_tip(cfg: MechanismConfig, design: DesignParams | _Lengths, direction):
    """Point B for the rocker's unit ``direction`` from C, elementwise."""
    ux, uy = direction
    cx, cy = cfg.pivot_c
    return cx + design.l_bc * ux, cy + design.l_bc * uy


def _intersect(c0x, c0y, r0: float, c1x, c1y, r1: float, label: Branch):
    """One labelled intersection of two circles, elementwise: (x, y, ok).

    "plus" is the point left of the ray c0 -> c1, "minus" the one right of
    it.  Near-tangency within a 1e-12 relative band is snapped to exact
    tangency, where both labels give the one point, so that marginally
    assemblable designs still solve.  ``ok`` is false where the circles do
    not meet or share their centre; x and y there are no intersection,
    and the caller's ``np.errstate`` silences the division by d2 = 0.
    """
    # numpy floats even for float input, so that d2 = 0 cannot raise
    dx = np.subtract(c1x, c0x)
    dy = np.subtract(c1y, c0y)
    d2 = dx * dx + dy * dy
    a = (d2 + r0 * r0 - r1 * r1) / (2.0 * d2)  # chord foot as fraction of d
    h2 = r0 * r0 - a * a * d2
    # h2 ~ -2*r0*r1/d * gap near tangency; accept gaps within tolerance
    ok = (d2 > 0.0) & (h2 >= -4.0 * _TANGENT_TOL * r0 * r1)
    h_over_d = np.sqrt(np.maximum(h2, 0.0) / d2)
    if label == "minus":
        h_over_d = -h_over_d
    return c0x + a * dx - dy * h_over_d, c0y + a * dy + dx * h_over_d, ok


def solve_ik(design: DesignParams, cfg: MechanismConfig, delta: float, elbow: Branch) -> Posture:
    """Assemble the linkage for a prescribed effector angle.

    B follows rigidly from delta; A is the intersection of the crank circle
    about O and the coupler circle about B.  The "plus" branch is the
    solution left of the ray O -> B, i.e. with cross(B - O, A - O) > 0.

    Raises NotAssemblable when the two circles do not intersect.
    """
    ox, oy = cfg.pivot_o
    bx, by = _rocker_tip(cfg, design, _rocker_direction(cfg, delta))
    with np.errstate(divide="ignore", invalid="ignore"):
        ax, ay, ok = _intersect(ox, oy, design.l_oa, bx, by, design.l_ab, elbow)
    if not ok:
        raise NotAssemblable(
            f"no crank-pin position at delta={delta!r} for lengths {design.as_tuple()!r}"
        )
    theta = math.atan2(ay - oy, ax - ox)
    return Posture(theta, delta, (float(ax), float(ay)), (float(bx), float(by)), elbow)


def solve_fk(design: DesignParams, cfg: MechanismConfig, theta: float, elbow: Branch) -> Posture:
    """Assemble the linkage for a prescribed crank angle.

    A follows rigidly from theta; B is the intersection of the coupler
    circle about A and the rocker circle about C.  The "plus" branch is the
    solution left of the ray A -> C, i.e. with cross(C - A, B - A) > 0.
    """
    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c
    ax = ox + design.l_oa * math.cos(theta)
    ay = oy + design.l_oa * math.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        bx, by, ok = _intersect(ax, ay, design.l_ab, cx, cy, design.l_bc, elbow)
    if not ok:
        raise NotAssemblable(
            f"no rocker-pin position at theta={theta!r} for lengths {design.as_tuple()!r}"
        )
    delta = math.atan2(by - cy, bx - cx) + cfg.effector_offset
    return Posture(math.atan2(ay - oy, ax - ox), delta, (ax, ay), (float(bx), float(by)), elbow)


def kinematic_coefficients(
    posture: Posture, design: DesignParams, cfg: MechanismConfig
) -> KinematicCoefficients:
    """First and second stroke derivatives of the crank angle, in closed form.

    Differentiating the closure |B(delta) - A(theta)| = l_ab with
    d = B - A, A_theta = perp(A - O) and B_delta = perp(B - C) gives
        r = dtheta/ddelta = (d . B_delta) / (d . A_theta)
    and, once more (A_theta' = -(A - O), B_delta' = -(B - C)),
        d2theta/ddelta2 = [(l_oa^2 + d.(A - O)) r^2 - 2 (A_theta . B_delta) r
                           + (l_bc^2 - d.(B - C))] / (d . A_theta).
    The shared denominator is proportional to sin(alpha) (crank-coupler
    dead point), the numerator of r to sin(beta) (transmission singularity,
    where r vanishes and the crank reverses).

    Raises SingularPosture at a crank-coupler dead point, where the
    effector-driven ratio is unbounded.
    """
    geometry = _joint_geometry(cfg, *np.asarray(posture.point_a), *np.asarray(posture.point_b))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio, accel, singular = _crank_coefficients(design, geometry)
    if singular:
        raise SingularPosture(
            f"crank and coupler collinear at delta={posture.delta!r}; "
            "effector cannot drive through this pose"
        )
    return KinematicCoefficients(float(ratio), float(accel))


def _joint_geometry(cfg: MechanismConfig, ax, ay, bx, by):
    """The joint differences and products that the walk and the torque share.

    Elementwise over scalars, sample columns or (n, k) arrays.  Returns
    (rax, ray, rbx, rby, bax, bay, vax, ad, ab, bd, den, num): a = A - O,
    b = B - C, d = B - A, vax of the crank's perpendicular A_theta =
    perp(a) = (vax, rax), the dot products a . d, a . b and b . d, and the
    cross products den = d . A_theta and num = d . B_delta = cross(b, d) of
    ``kinematic_coefficients``.  The torque takes A_theta as the crank
    pin's velocity at unit rate, num as the determinant of its velocity
    closure, den as the rocker rate's numerator, and the dot products for
    the rocker rate's derivative and the coupler's kinetic energy.
    """
    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c
    rax = ax - ox
    ray = ay - oy
    rbx = bx - cx
    rby = by - cy
    bax = bx - ax
    bay = by - ay
    vax = -ray
    ad = bax * rax + bay * ray
    ab = ray * rby + rax * rbx  # A_theta . B_delta too
    bd = bax * rbx + bay * rby
    den = vax * bax + rax * bay  # zero at a crank-coupler dead point
    # zero at a transmission singularity; the negation of (A - B) . B_delta
    # rather than rbx * bay - rby * bax, so that an exact zero is -0.0 and
    # the zero ratio num / den has the sign it has with A - B on both sides
    num = -(rby * bax - rbx * bay)
    return rax, ray, rbx, rby, bax, bay, vax, ad, ab, bd, den, num


def _pin_undetermined(design: DesignParams | _Lengths, cfg: MechanismConfig, bx, by):
    """Where both |B - O| and |l_ab - l_oa| are at most 1e-9 l_oa, elementwise over B.

    There the crank and coupler circles coincide, so the side of A that
    ``_intersect`` picks follows the rounding of B - O (about 1e-16 of the
    frame, far below the tolerance).  None, without looking at B, when no
    design's lengths match: the walk's common case, about 1 us.
    """
    tol = _COINCIDENT_TOL * design.l_oa
    equal = abs(design.l_ab - design.l_oa) <= tol
    if not np.count_nonzero(equal):
        return None
    ox, oy = cfg.pivot_o
    return equal & (np.hypot(bx - ox, by - oy) <= tol)


def _crank_coefficients(
    design: DesignParams | _Lengths, geometry: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dtheta/ddelta, d2theta/ddelta2, dead point) at the joints ``_joint_geometry`` describes.

    Elementwise; see kinematic_coefficients.  At a dead point (the third
    result) the two ratios are not finite, and the caller's ``np.errstate``
    silences the division.
    """
    *_, ad, ab, bd, den, num = geometry
    singular = np.abs(den) < _SINGULAR_TOL * design.l_oa * design.l_ab
    ratio = num / den
    curvature = (
        (design.l_oa * design.l_oa + ad) * ratio * ratio
        - 2.0 * ab * ratio
        + design.l_bc * design.l_bc
        - bd
    )
    return ratio, curvature / den, singular


def motion_profile(task: MotionTask) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rest-to-rest quintic motion law, one stroke.

    Returns the columns (t, s, s_dot, s_ddot) over the task's samples, with
    s in [0, 1] and derivatives with respect to time; s(0)=0, s(t_move)=1,
    velocities and accelerations are exactly zero at both ends.
    """
    n = task.n_samples
    tm = task.t_move
    tau = np.arange(n) / (n - 1)
    t = tau * tm
    s = tau * tau * tau * (10.0 - 15.0 * tau + 6.0 * tau * tau)
    sd = 30.0 * tau * tau * (1.0 - tau) * (1.0 - tau) / tm
    sdd = (60.0 * tau - 180.0 * tau * tau + 120.0 * tau * tau * tau) / (tm * tm)
    return t, s, sd, sdd


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=16)
def _motion_law(task: MotionTask) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (t, delta, delta_dot, delta_ddot) columns of the task's stroke."""
    t, s, sd, sdd = motion_profile(task)
    span = task.delta_i - task.delta_e
    law = (t, task.delta_e + s * span, sd * span, sdd * span)
    _read_only(*law)
    return law


@lru_cache(maxsize=64)
def _walk_columns(cfg: MechanismConfig, task: MotionTask) -> tuple[np.ndarray, ...]:
    """What ``_walk`` reads that no design changes, as read-only (n, 1) columns.

    (delta_dot, delta_ddot, cos, sin): the task's effector rates and the
    rocker's ``_rocker_direction`` at each sample, for designs along axis 1.
    """
    _, delta, delta_dot, delta_ddot = _motion_law(task)
    columns = tuple(column[:, None] for column in (delta_dot, delta_ddot, *_rocker_direction(cfg, delta)))
    _read_only(*columns)
    return columns


class _Lengths(NamedTuple):
    """Bar lengths of k designs as (k,) arrays, read as a DesignParams is.

    The kernels are elementwise, so against (n, 1) sample columns each
    result is an (n, k) array, one column per design, every entry ``==``
    that of the design's own call.
    """

    l_oa: np.ndarray
    l_ab: np.ndarray
    l_bc: np.ndarray


def _walk(design: DesignParams | _Lengths, cfg: MechanismConfig, columns: tuple[np.ndarray, ...]):
    """The stroke walk of ``kinematic_transform`` up to its failure rule, elementwise.

    ``columns`` is (delta_dot, delta_ddot, cos, sin) as ``_walk_columns``
    gives them.  Returns (ax, ay, bx, by, theta_dot, theta_ddot, assembles,
    failed, geometry): (n, k) arrays, k = 1 for one design, and the joints'
    ``_joint_geometry``, which the crank angle and the torque read too.
    ``failed`` marks the samples that do not assemble, meet a
    crank-coupler dead point inside the stroke or leave the crank pin
    undetermined; a design with a failed sample has no meaningful rates.
    """
    delta_dot, delta_ddot, *direction = columns
    ox, oy = cfg.pivot_o
    # one errstate for the whole walk: its divisions by zero and NaNs fall on
    # samples that it marks failed or rests
    with np.errstate(divide="ignore", invalid="ignore"):
        bx, by = _rocker_tip(cfg, design, direction)
        ax, ay, assembles = _intersect(ox, oy, design.l_oa, bx, by, design.l_ab, cfg.branch)
        geometry = _joint_geometry(cfg, ax, ay, bx, by)
        ratio, accel, dead = _crank_coefficients(design, geometry)
        theta_dot = ratio * delta_dot
        theta_ddot = accel * delta_dot * delta_dot + ratio * delta_ddot
    failed = ~assembles
    failed[1:-1] |= dead[1:-1]
    undetermined = _pin_undetermined(design, cfg, bx, by)
    if undetermined is not None:
        failed |= undetermined
    if dead.any():
        # a walk that does not fail meets dead points only at the stroke
        # ends, where the quintic brings the effector, and so the crank, to rest
        theta_dot[dead] = 0.0
        theta_ddot[dead] = 0.0
    return ax, ay, bx, by, theta_dot, theta_ddot, assembles, failed, geometry


def _crank_angle(rax: np.ndarray, ray: np.ndarray) -> np.ndarray:
    """Crank angle along one walk's A - O columns, continued outward from the mid-stroke sample."""
    n = len(rax)
    mid = n // 2
    # math.atan2, not np.arctan2: the two differ in the last bit
    raw = np.fromiter(map(math.atan2, ray.tolist(), rax.tolist()), float, n)
    # whole turns that keep each step outward from mid-stroke below pi
    turns = np.round((raw[:-1] - raw[1:]) / math.tau)
    offset = np.zeros(n)
    offset[mid + 1 :] = np.cumsum(turns[mid:])
    offset[:mid] = np.cumsum(-turns[mid - 1 :: -1])[::-1]
    return raw + math.tau * offset


def kinematic_transform(design: DesignParams, cfg: MechanismConfig, task: MotionTask) -> Stroke:
    """Map the effector stroke onto the crank: full state at every sample.

    Samples are uniform in time over the forward stroke (delta_e to
    delta_i).  Every sample takes the crank pin A on the configured
    branch's intersection label, which equals continuing the mid-stroke
    sample (see the module docstring).  The crank angle is continued
    outward from the mid-stroke sample, whose angle lies in (-pi, pi].
    Crank rates come from the chain rule:
    theta_dot = (dtheta/ddelta) delta_dot,
    theta_ddot = (d2theta/ddelta2) delta_dot^2 + (dtheta/ddelta) delta_ddot.
    A crank-coupler dead point at a stroke end sets that end's crank rates
    to zero: the quintic brings the effector to rest there.

    A sample fails when it does not assemble, meets a crank-coupler dead
    point inside the stroke, or puts B on O with l_ab == l_oa (both within
    1e-9 l_oa), where A is not determined.  Raises TransformUnsolvable with
    the delta of the first failing sample in walk order (the mid-stroke
    sample up to the last, then down to the first) and whether it failed at
    a dead point, or CrankIndeterminate, its subclass, for an undetermined A.
    """
    t, delta, delta_dot, delta_ddot = _motion_law(task)
    *walked, (rax, ray, *_) = _walk(design, cfg, _walk_columns(cfg, task))
    ax, ay, bx, by, theta_dot, theta_ddot, assembles, failed = (column[:, 0] for column in walked)
    if failed.any():
        mid = task.n_samples // 2
        upper = np.flatnonzero(failed[mid:])
        k = mid + upper[0] if upper.size else np.flatnonzero(failed[:mid])[-1]
        if _pin_undetermined(design, cfg, bx[k], by[k]):
            raise CrankIndeterminate(float(delta[k]))
        raise TransformUnsolvable(float(delta[k]), dead_point=bool(assembles[k]))
    theta = _crank_angle(rax[:, 0], ray[:, 0])

    # (n, 2) in column-major order, so that each coordinate is contiguous
    point_a = np.array((ax, ay)).T
    point_b = np.array((bx, by)).T
    _read_only(theta, theta_dot, theta_ddot, point_a, point_b)
    return Stroke(t, delta, delta_dot, delta_ddot, theta, theta_dot, theta_ddot, point_a, point_b)


def validate_baseline(cfg: MechanismConfig, task: MotionTask) -> Stroke:
    """Check the baseline design over the full stroke; return its stroke.

    The baseline is walked exactly as every design is scored:
    ``kinematic_transform`` on the task's time grid.  It must assemble at
    every sample, meet no crank-coupler dead point inside the stroke, and
    its crank angle must be strictly monotonic along the stroke.

    Raises BaselineInfeasible (naming the first failing delta and its cause,
    an undetermined crank pin included, and raised from the walk's error) or
    BaselineDefective.
    """
    try:
        stroke = kinematic_transform(cfg.baseline, cfg, task)
    except CrankIndeterminate as exc:
        raise BaselineInfeasible(exc.delta, cause="leaves the crank pin undetermined") from exc
    except TransformUnsolvable as exc:
        raise BaselineInfeasible(exc.delta, exc.dead_point) from exc

    steps = np.diff(stroke.theta)
    if not ((steps > 0.0).all() or (steps < 0.0).all()):
        raise BaselineDefective(
            "baseline crank angle is not strictly monotonic over the stroke"
        )
    return stroke
