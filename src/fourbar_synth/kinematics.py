"""Closed-form position kinematics and stroke trajectory generation.

The linkage is driven in two directions: the motor drives the crank angle
``theta`` (forward kinematics), while the motion task prescribes the
effector angle ``delta`` (inverse kinematics).  Both reduce to classic
circle-circle intersections with an explicit branch tag.

Trajectories are generated by numerical continuation seeded at mid-stroke:
solve once at ``delta_mid`` on the configured branch, then walk outward to
both stroke ends, always keeping the intersection nearest the previous
point A.  This keeps the solution on one assembly branch without relying on
the sign tag, which flips spuriously when the crank crosses the O-B line.

``kinematic_transform`` is the one stroke walk: its samples carry the
joints A and B, which the dynamics reads as they are, and
``validate_baseline`` checks the baseline on that same walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Branch,
    DesignParams,
    MechanismConfig,
    MotionTask,
    BaselineDefective,
    BaselineInfeasible,
    NotAssemblable,
    SeedUnsolvable,
    SingularPosture,
    TransformUnsolvable,
)

__all__ = [
    "Posture",
    "KinematicCoefficients",
    "TrajectorySample",
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


@dataclass(frozen=True, slots=True)
class Posture:
    """One assembled configuration of the linkage.

    ``alpha`` is the interior angle at A between rays A->O and A->B;
    ``beta`` is the transmission angle at B between rays B->A and B->C.
    Both are unsigned, in (0, pi) away from dead points.  ``elbow`` records
    the branch tag the posture was constructed on.
    """

    theta: float
    delta: float
    rocker_angle: float
    point_a: tuple[float, float]
    point_b: tuple[float, float]
    alpha: float
    beta: float
    elbow: Branch


@dataclass(frozen=True, slots=True)
class KinematicCoefficients:
    """First and second derivative of crank angle w.r.t. effector angle."""

    dtheta_ddelta: float
    d2theta_ddelta2: float


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """Time-stamped state along the stroke: effector, crank and joints.

    ``point_a`` and ``point_b`` are the joints the continuation assembled at
    this sample.  ``theta`` is continuous along the stroke, so it may leave
    (-pi, pi] when the crank passes theta = pi.
    """

    t: float
    delta: float
    delta_dot: float
    delta_ddot: float
    theta: float
    theta_dot: float
    theta_ddot: float
    point_a: tuple[float, float]
    point_b: tuple[float, float]


def _rocker_tip(cfg: MechanismConfig, design: DesignParams, delta: float) -> tuple[float, float]:
    """Point B for a given effector angle."""
    ang = delta - cfg.effector_offset
    cx, cy = cfg.pivot_c
    return (cx + design.l_bc * math.cos(ang), cy + design.l_bc * math.sin(ang))


def _circle_intersections(
    c0: tuple[float, float],
    r0: float,
    c1: tuple[float, float],
    r1: float,
) -> list[tuple[float, float]]:
    """Intersection points of two circles; one point means tangency.

    Near-tangency within a 1e-12 relative band is snapped to exact tangency
    so that marginally assemblable designs still solve.
    """
    dx = c1[0] - c0[0]
    dy = c1[1] - c0[1]
    d2 = dx * dx + dy * dy
    if d2 <= 0.0:
        return []
    a = (d2 + r0 * r0 - r1 * r1) / (2.0 * d2)  # chord foot as fraction of d
    h2 = r0 * r0 - a * a * d2
    if h2 < 0.0:
        # h2 ~ -2*r0*r1/d * gap near tangency; accept gaps within tolerance
        if h2 < -4.0 * _TANGENT_TOL * r0 * r1:
            return []
        h2 = 0.0
    mx = c0[0] + a * dx
    my = c0[1] + a * dy
    if h2 == 0.0:
        return [(mx, my)]
    h_over_d = math.sqrt(h2 / d2)
    ox = -dy * h_over_d
    oy = dx * h_over_d
    return [(mx + ox, my + oy), (mx - ox, my - oy)]


def _angle_between(ux: float, uy: float, vx: float, vy: float) -> float:
    """Unsigned angle between two vectors, in [0, pi]."""
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(abs(cross), dot)


def _build_posture(
    cfg: MechanismConfig,
    delta: float,
    a_pt: tuple[float, float],
    b_pt: tuple[float, float],
    elbow: Branch,
) -> Posture:
    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c
    ax, ay = a_pt
    bx, by = b_pt
    theta = math.atan2(ay - oy, ax - ox)
    alpha = _angle_between(ox - ax, oy - ay, bx - ax, by - ay)
    beta = _angle_between(ax - bx, ay - by, cx - bx, cy - by)
    return Posture(
        theta=theta,
        delta=delta,
        rocker_angle=delta - cfg.effector_offset,
        point_a=a_pt,
        point_b=b_pt,
        alpha=alpha,
        beta=beta,
        elbow=elbow,
    )


def _ik_candidates(
    design: DesignParams, cfg: MechanismConfig, delta: float
) -> tuple[tuple[float, float], list[tuple[float, float]]]:
    """Point B plus all valid crank-pin positions A for a given delta."""
    b_pt = _rocker_tip(cfg, design, delta)
    pts = _circle_intersections(cfg.pivot_o, design.l_oa, b_pt, design.l_ab)
    return b_pt, pts


def solve_ik(design: DesignParams, cfg: MechanismConfig, delta: float, elbow: Branch) -> Posture:
    """Assemble the linkage for a prescribed effector angle.

    B follows rigidly from delta; A is the intersection of the crank circle
    about O and the coupler circle about B.  The "plus" branch is the
    solution with cross(B - O, A - O) > 0.

    Raises NotAssemblable when the two circles do not intersect.
    """
    b_pt, pts = _ik_candidates(design, cfg, delta)
    if not pts:
        raise NotAssemblable(
            f"no crank-pin position at delta={delta!r} for lengths {design.as_tuple()!r}"
        )
    if len(pts) == 1:
        a_pt = pts[0]
    else:
        ox, oy = cfg.pivot_o
        rx, ry = b_pt[0] - ox, b_pt[1] - oy
        cross0 = rx * (pts[0][1] - oy) - ry * (pts[0][0] - ox)
        want_plus = elbow == "plus"
        a_pt = pts[0] if (cross0 > 0.0) == want_plus else pts[1]
    return _build_posture(cfg, delta, a_pt, b_pt, elbow)


def solve_fk(design: DesignParams, cfg: MechanismConfig, theta: float, elbow: Branch) -> Posture:
    """Assemble the linkage for a prescribed crank angle.

    A follows rigidly from theta; B is the intersection of the coupler
    circle about A and the rocker circle about C.  The "plus" branch is the
    solution with cross(C - A, B - A) > 0.
    """
    ox, oy = cfg.pivot_o
    a_pt = (ox + design.l_oa * math.cos(theta), oy + design.l_oa * math.sin(theta))
    pts = _circle_intersections(a_pt, design.l_ab, cfg.pivot_c, design.l_bc)
    if not pts:
        raise NotAssemblable(
            f"no rocker-pin position at theta={theta!r} for lengths {design.as_tuple()!r}"
        )
    if len(pts) == 1:
        b_pt = pts[0]
    else:
        cx, cy = cfg.pivot_c
        rx, ry = cx - a_pt[0], cy - a_pt[1]
        cross0 = rx * (pts[0][1] - a_pt[1]) - ry * (pts[0][0] - a_pt[0])
        want_plus = elbow == "plus"
        b_pt = pts[0] if (cross0 > 0.0) == want_plus else pts[1]
    cx, cy = cfg.pivot_c
    rocker_angle = math.atan2(b_pt[1] - cy, b_pt[0] - cx)
    delta = rocker_angle + cfg.effector_offset
    posture = _build_posture(cfg, delta, a_pt, b_pt, elbow)
    return posture


def kinematic_coefficients(
    posture: Posture, design: DesignParams, cfg: MechanismConfig
) -> KinematicCoefficients:
    """First and second stroke derivatives of the crank angle, in closed form.

    Differentiating the closure |A(theta) - B(delta)| = l_ab with
    e = A - B, A_theta = perp(A - O) and B_delta = perp(B - C) gives
        r = dtheta/ddelta = (e . B_delta) / (e . A_theta)
    and, once more (A_theta' = -(A - O), B_delta' = -(B - C)),
        d2theta/ddelta2 = -[(l_oa^2 - e.(A - O)) r^2 - 2 (A_theta . B_delta) r
                            + (l_bc^2 + e.(B - C))] / (e . A_theta).
    The shared denominator is proportional to sin(alpha) (crank-coupler
    dead point), the numerator of r to sin(beta) (transmission singularity,
    where r vanishes and the crank reverses).

    Raises SingularPosture at a crank-coupler dead point, where the
    effector-driven ratio is unbounded.
    """
    return KinematicCoefficients(
        *_crank_coefficients(design, cfg, posture.point_a, posture.point_b, posture.delta)
    )


def _crank_coefficients(
    design: DesignParams,
    cfg: MechanismConfig,
    a_pt: tuple[float, float],
    b_pt: tuple[float, float],
    delta: float,
) -> tuple[float, float]:
    """(dtheta/ddelta, d2theta/ddelta2) at joints A, B; see kinematic_coefficients."""
    ax, ay = a_pt
    bx, by = b_pt
    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c
    ex = ax - bx
    ey = ay - by
    rax = ax - ox
    ray = ay - oy
    rbx = bx - cx
    rby = by - cy
    # A_theta = perp(A - O), B_delta = perp(B - C)
    dax, day = -ray, rax
    dbx, dby = -rby, rbx
    den = ex * dax + ey * day
    num = ex * dbx + ey * dby
    if abs(den) < _SINGULAR_TOL * design.l_oa * design.l_ab:
        raise SingularPosture(
            f"crank and coupler collinear at delta={delta!r}; "
            "effector cannot drive through this pose"
        )
    ratio = num / den
    curvature = (
        (design.l_oa * design.l_oa - (ex * rax + ey * ray)) * ratio * ratio
        - 2.0 * (dax * dbx + day * dby) * ratio
        + design.l_bc * design.l_bc
        + (ex * rbx + ey * rby)
    )
    return ratio, -curvature / den


def motion_profile(task: MotionTask) -> list[tuple[float, float, float, float]]:
    """Rest-to-rest quintic motion law, one stroke.

    Returns (t, s, s_dot, s_ddot) rows with s in [0, 1] and derivatives with
    respect to time; s(0)=0, s(t_move)=1, velocities and accelerations are
    exactly zero at both ends.
    """
    n = task.n_samples
    tm = task.t_move
    rows = []
    for k in range(n):
        tau = k / (n - 1)
        t = tau * tm
        s = tau * tau * tau * (10.0 - 15.0 * tau + 6.0 * tau * tau)
        sd = 30.0 * tau * tau * (1.0 - tau) * (1.0 - tau) / tm
        sdd = (60.0 * tau - 180.0 * tau * tau + 120.0 * tau * tau * tau) / (tm * tm)
        rows.append((t, s, sd, sdd))
    return rows


def kinematic_transform(
    design: DesignParams, cfg: MechanismConfig, task: MotionTask
) -> list[TrajectorySample]:
    """Map the effector stroke onto the crank: full state at every sample.

    Samples are uniform in time over the forward stroke (delta_e to
    delta_i); the mid-stroke sample is the continuation seed on the
    configured branch, and both halves are walked outward keeping the
    crank-pin position nearest the previous point A.  Each sample carries
    the joints A and B it assembled, and a crank angle continued from the
    previous sample (the seed's lies in (-pi, pi]).  Crank rates come from
    the chain rule:
    theta_dot = (dtheta/ddelta) delta_dot,
    theta_ddot = (d2theta/ddelta2) delta_dot^2 + (dtheta/ddelta) delta_ddot.

    Raises SeedUnsolvable if the mid-stroke pose does not assemble and
    TransformUnsolvable (with the failing delta) if continuation loses
    assembly partway or meets a crank-coupler dead point inside the stroke.
    """
    prof = motion_profile(task)
    span = task.delta_i - task.delta_e
    deltas = [task.delta_e + s * span for (_t, s, _sd, _sdd) in prof]
    n = task.n_samples
    mid = n // 2
    try:
        seed = solve_ik(design, cfg, deltas[mid], cfg.branch)
    except NotAssemblable as exc:
        raise SeedUnsolvable(
            f"mid-stroke pose delta={deltas[mid]!r} not assemblable"
        ) from exc

    ox, oy = cfg.pivot_o
    last = n - 1
    samples: list[TrajectorySample] = [None] * n  # type: ignore[list-item]
    # outward from the seed: up to the last sample, then down to the first
    for k in [*range(mid, n), *range(mid - 1, -1, -1)]:
        if k == mid:
            a_pt, b_pt, theta = seed.point_a, seed.point_b, seed.theta
        else:
            prev = samples[k - 1] if k > mid else samples[k + 1]
            b_pt, pts = _ik_candidates(design, cfg, deltas[k])
            if not pts:
                raise TransformUnsolvable(deltas[k])
            pa = prev.point_a
            a_pt = min(pts, key=lambda q: (q[0] - pa[0]) ** 2 + (q[1] - pa[1]) ** 2)
            theta = math.atan2(a_pt[1] - oy, a_pt[0] - ox)
            theta += math.tau * round((prev.theta - theta) / math.tau)
        t, _s, sd, sdd = prof[k]
        ddot = sd * span
        dddot = sdd * span
        try:
            ratio, curvature = _crank_coefficients(design, cfg, a_pt, b_pt, deltas[k])
            th_dot = ratio * ddot
            th_ddot = curvature * ddot * ddot + ratio * dddot
        except SingularPosture:
            if k in (0, last):
                # Dead point exactly at a stroke end: the quintic brings the
                # effector to rest there, so the crank rate limit is zero.
                th_dot = 0.0
                th_ddot = 0.0
            else:
                raise TransformUnsolvable(deltas[k])
        samples[k] = TrajectorySample(
            t=t,
            delta=deltas[k],
            delta_dot=ddot,
            delta_ddot=dddot,
            theta=theta,
            theta_dot=th_dot,
            theta_ddot=th_ddot,
            point_a=a_pt,
            point_b=b_pt,
        )
    return samples


def validate_baseline(cfg: MechanismConfig, task: MotionTask) -> list[TrajectorySample]:
    """Check the baseline design over the full stroke; return its samples.

    The baseline is walked exactly as every design is scored:
    ``kinematic_transform`` on the task's time grid.  It must assemble at
    every sample, meet no crank-coupler dead point inside the stroke, and
    its crank angle must be strictly monotonic along the stroke.

    Raises BaselineInfeasible (naming the first failing delta) or
    BaselineDefective.
    """
    try:
        samples = kinematic_transform(cfg.baseline, cfg, task)
    except SeedUnsolvable as exc:
        raise BaselineInfeasible(task.delta_mid, "baseline seed pose unsolvable") from exc
    except TransformUnsolvable as exc:
        raise BaselineInfeasible(exc.delta) from exc

    steps = [b.theta - a.theta for a, b in zip(samples, samples[1:])]
    if not (all(d > 0.0 for d in steps) or all(d < 0.0 for d in steps)):
        raise BaselineDefective(
            "baseline crank angle is not strictly monotonic over the stroke"
        )
    return samples
