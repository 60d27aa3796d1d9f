"""Rigid-body dynamics reduced to the crank axis.

The motor torque is computed from the Lagrangian of the whole linkage with
the crank angle as the single generalized coordinate:

    T_m = I_eq(theta) theta_ddot + 1/2 I_eq'(theta) theta_dot^2
          + G(theta) - Q_ext(theta)

where I_eq is the equivalent (reflected) inertia seen by the motor, G the
gravity torque dV/dtheta, and Q_ext the generalized torque of the external
tip force.  I_eq and G follow analytically from per-link velocity
coefficients at unit crank rate, and I_eq' from their theta-derivatives,
which solve the same velocity closure with the centripetal terms as its
right-hand side.

Links are uniform slender rods (m = rho L, centroid at L/2, I = m L^2/12).
The rocker link is the rigid union of bar B-C, the effector beam of length
``effector_tip_length`` at the effector offset angle, and the payload as a
point mass at the beam tip; the union is composed by the parallel-axis
theorem and rotates about the fixed pivot C.

The masses follow from the bar lengths, so each kernel derives them itself;
all are elementwise over one design or the (k,) lengths of k designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import Posture, Stroke, _Lengths
from .model import (
    DesignParams,
    EmptyTrajectory,
    MechanismConfig,
    MotionTask,
    SingularState,
)

__all__ = [
    "LinkInertia",
    "MassModel",
    "TorqueProfile",
    "mass_model",
    "posture_terms",
    "torque_profile",
]

_SINGULAR_TOL = 1e-12
_COLLINEAR = "transmission singularity: coupler and rocker collinear"


@dataclass(frozen=True, slots=True)
class LinkInertia:
    """Mass, centroid and central inertia of one link, in its local frame.

    The local frame is anchored at the link's inner joint (O for the crank,
    A for the coupler, C for the rocker) with x along the bar.
    """

    mass: float
    com: tuple[float, float]
    i_com: float


@dataclass(frozen=True, slots=True)
class MassModel:
    crank: LinkInertia
    coupler: LinkInertia
    rocker: LinkInertia


@dataclass(frozen=True, slots=True, eq=False)
class TorqueProfile:
    """Motor torque over one full duty cycle (stroke, dwell, return, dwell).

    ``torque`` is the forward-stroke torque column, one entry per stroke
    sample; the return stroke mirrors it in time and the dwells hold the
    static torque at the stroke ends.
    """

    torque: np.ndarray
    t_cycle: float
    t_rms: float


def _rod(density: float, length: float) -> tuple[float, tuple[float, float], float]:
    mass = density * length
    return mass, (0.5 * length, 0.0), mass * length * length / 12.0


def mass_model(design: DesignParams | _Lengths, cfg: MechanismConfig) -> MassModel:
    """Per-link inertial properties for the uniform-rod mass model.

    Elementwise: for a ``_Lengths`` of k designs each field broadcasts to
    (k,), and its entries are ``==`` those of each design's own call.
    """
    rho_oa, rho_ab, rho_bc = cfg.link_density
    m, com, i = _rod(rho_oa, design.l_oa)
    crank = LinkInertia(m, com, i)
    m, com, i = _rod(rho_ab, design.l_ab)
    coupler = LinkInertia(m, com, i)

    # Rocker composite: bar B-C plus effector beam plus point payload.  The
    # beam leaves C at the effector offset angle from the bar direction and
    # shares the bar's linear density; without a beam it has zero mass and
    # the payload sits at C.  Sums run left to right, part by part.  A rocker
    # without mass has no centroid; its terms are zero.
    lt = cfg.effector_tip_length
    cx, sx = math.cos(cfg.effector_offset), math.sin(cfg.effector_offset)
    m_bar, (bar_x, bar_y), i_bar = _rod(rho_bc, design.l_bc)
    m_beam, (beam_r, _), i_beam = _rod(rho_bc, lt)
    beam_x, beam_y = beam_r * cx, beam_r * sx
    m_tip = cfg.payload_mass
    tip_x, tip_y = lt * cx, lt * sx
    total = m_bar + m_beam + m_tip
    if rho_bc > 0.0 or m_tip > 0.0:
        gx = (m_bar * bar_x + m_beam * beam_x + m_tip * tip_x) / total
        gy = (m_bar * bar_y + m_beam * beam_y + m_tip * tip_y) / total
        # squared offsets by libm pow, as Python's float ``**`` takes them;
        # numpy's ``**`` is v * v, off in the last bit on about 0.1% of doubles
        sq = np.float_power([bar_x - gx, bar_y - gy, beam_x - gx, beam_y - gy, tip_x - gx, tip_y - gy], 2.0)
        i_g = i_bar + m_bar * (sq[0] + sq[1]) + (i_beam + m_beam * (sq[2] + sq[3])) + m_tip * (sq[4] + sq[5])
    else:
        gx = gy = i_g = 0.0
    rocker = LinkInertia(total, (gx, gy), i_g)
    return MassModel(crank, coupler, rocker)


def _dyn_terms(
    design: DesignParams | _Lengths,
    cfg: MechanismConfig,
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(I_eq, I_eq', G, Q_ext, singular) at configurations given by joints A and B.

    Elementwise over scalars, stroke columns, or (n, k) arrays with the
    lengths of k designs as (k,) arrays, which also give the link masses.

    Velocity coefficients are taken at unit crank rate: v_A = perp(A - O),
    and the coupler/rocker rates solve the rigid-body velocity closure
    v_A + omega_ab perp(B - A) = omega_r perp(B - C).  Differentiating the
    closure over theta gives the same 2x2 system for (omega_ab', omega_r')
    with v_A replaced by -(A - O) - omega_ab^2 (B - A) + omega_r^2 (B - C);
    the crank and rocker terms of I_eq are constant, so
    I_eq' = 2 [m_ab v_G . a_G + I_ab omega_ab omega_ab' + I_C omega_r omega_r'].

    ``singular`` marks where coupler and rocker are collinear: the closure
    has no solution there (the crank cannot drive through), and the terms
    there are finite but meaningless.
    """
    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c

    rax = ax - ox
    ray = ay - oy
    vax = -ray  # perp(A - O), crank rate 1
    vay = rax
    bax = bx - ax
    bay = by - ay
    bcx = bx - cx
    bcy = by - cy

    den = bcx * bay - bcy * bax  # cross(B - C, B - A), ~ sin(beta)
    singular = np.abs(den) < _SINGULAR_TOL * design.l_bc * design.l_ab
    if singular.any():
        den = np.where(singular, np.inf, den)  # no division by zero
    omega_r = (vax * bax + vay * bay) / den
    omega_ab = (vax * bcx + vay * bcy) / den
    wx = -rax - omega_ab * omega_ab * bax + omega_r * omega_r * bcx
    wy = -ray - omega_ab * omega_ab * bay + omega_r * omega_r * bcy
    omega_r_d = (wx * bax + wy * bay) / den
    omega_ab_d = (wx * bcx + wy * bcy) / den

    mm = mass_model(design, cfg)
    gx, gy = cfg.gravity

    # crank: rotation about O
    i_eq = mm.crank.i_com + mm.crank.mass * (0.25 * (rax * rax + ray * ray))
    vgx = 0.5 * vax
    vgy = 0.5 * vay
    g_sum = -mm.crank.mass * (gx * vgx + gy * vgy)

    # coupler: general plane motion, centroid at the bar midpoint
    vgx = vax + omega_ab * (-0.5 * bay)
    vgy = vay + omega_ab * (0.5 * bax)
    i_eq += mm.coupler.mass * (vgx * vgx + vgy * vgy) + mm.coupler.i_com * omega_ab * omega_ab
    agx = -rax - 0.5 * (omega_ab_d * bay + omega_ab * omega_ab * bax)
    agy = -ray + 0.5 * (omega_ab_d * bax - omega_ab * omega_ab * bay)
    i_half_d = mm.coupler.mass * (vgx * agx + vgy * agy) + mm.coupler.i_com * omega_ab * omega_ab_d
    g_sum -= mm.coupler.mass * (gx * vgx + gy * vgy)

    # rocker composite: rotation about C; local frame x-axis along C->B
    cphi = bcx / design.l_bc
    sphi = bcy / design.l_bc
    lx, ly = mm.rocker.com
    rgx = lx * cphi - ly * sphi  # centroid offset from C in world frame
    rgy = lx * sphi + ly * cphi
    i_about_c = mm.rocker.i_com + mm.rocker.mass * (rgx * rgx + rgy * rgy)
    i_eq += i_about_c * omega_r * omega_r
    i_half_d += i_about_c * omega_r * omega_r_d
    vgx = omega_r * (-rgy)
    vgy = omega_r * rgx
    g_sum -= mm.rocker.mass * (gx * vgx + gy * vgy)

    # external tip force acting at the end of the effector beam
    fx, fy = cfg.tip_force
    q_ext = 0.0
    if fx != 0.0 or fy != 0.0:
        lt = cfg.effector_tip_length
        co = math.cos(cfg.effector_offset)
        so = math.sin(cfg.effector_offset)
        tx = lt * (cphi * co - sphi * so)  # tip offset from C, world frame
        ty = lt * (sphi * co + cphi * so)
        q_ext = fx * (omega_r * -ty) + fy * (omega_r * tx)

    return i_eq, 2.0 * i_half_d, g_sum, q_ext, singular


def posture_terms(
    design: DesignParams, cfg: MechanismConfig, posture: Posture
) -> tuple[float, float, float, float]:
    """(I_eq, I_eq', G, Q_ext) at a posture: the terms of the motor torque.

    At crank rate theta_dot and acceleration theta_ddot the torque is
    I_eq theta_ddot + 1/2 I_eq' theta_dot^2 + G - Q_ext.  I_eq is the
    reflected inertia about the crank axis (kg m^2) and I_eq' its
    derivative over theta; G = dV/dtheta is the torque that holds gravity
    and Q_ext the generalized torque of the tip force (N m).

    Raises SingularState when the posture sits on a transmission
    singularity, where the reflected inertia is unbounded.
    """
    ax, ay = posture.point_a
    bx, by = posture.point_b
    *terms, singular = _dyn_terms(design, cfg, *np.array([ax, ay, bx, by]))
    if singular:
        raise SingularState(_COLLINEAR)
    return tuple(float(v) for v in terms)


def _trapezoid_sq(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Integral of value^2 dt by the trapezoid rule, summed in sample order.

    Over the first axis: one integral per column of (n, k) values.
    """
    sq = values * values
    steps = 0.5 * (sq[:-1] + sq[1:]) * (times[1:] - times[:-1])
    # add.accumulate adds sequentially, like a loop; a pairwise sum would not
    return np.add.accumulate(steps)[-1]


def _cycle_torque(
    design: DesignParams | _Lengths,
    cfg: MechanismConfig,
    task: MotionTask,
    t: np.ndarray,
    joints: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    theta_dot: np.ndarray,
    theta_ddot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(forward torque, cycle RMS, singular samples) of ``torque_profile``.

    Over the columns of one stroke, or over (n, k) arrays with the lengths
    of k designs as (k,) arrays and ``t`` an (n, 1) column; the RMS then
    has one entry per design.  ``joints`` is (ax, ay, bx, by).

    Raises ValueError when a sample's joints do not close the coupler.
    """
    ax, ay, bx, by = joints
    # cheap consistency guard: every sample must close the coupler
    gap = np.hypot(ax - bx, ay - by) - design.l_ab
    if (np.abs(gap) > 1e-6 * design.l_ab).any():
        raise ValueError("trajectory is inconsistent with the design geometry")
    i_eq, i_prime, g_tau, q_ext, singular = _dyn_terms(design, cfg, ax, ay, bx, by)
    tau = i_eq * theta_ddot + 0.5 * i_prime * theta_dot * theta_dot + g_tau - q_ext
    holding = g_tau - q_ext  # static torque; the dwells hold its end values
    hold_e, hold_i = holding[0], holding[-1]

    tm = task.t_move
    td = task.t_dwell
    integral = _trapezoid_sq(t, tau)
    if td > 0.0:
        integral = integral + hold_i * hold_i * td

    # return stroke: sample j revisits forward sample n-1-j with the crank
    # rate negated; squared-rate dynamics make the torque the forward one
    # mirrored in time
    integral = integral + _trapezoid_sq((tm + td) + t, tau[::-1])
    if td > 0.0:
        integral = integral + hold_e * hold_e * td
    return tau, np.sqrt(integral / task.t_cycle), singular


def torque_profile(
    design: DesignParams,
    cfg: MechanismConfig,
    task: MotionTask,
    stroke: Stroke,
) -> TorqueProfile:
    """Motor torque over the full duty cycle and its RMS value.

    The forward stroke follows the given stroke, at the joints it carries.
    The return stroke is the time-reversed effector profile, recomputed
    through the same torque model (the crank rate flips sign; because the
    rate enters only squared the return torque mirrors the forward one in
    time).  Dwells contribute the static holding torque at the stroke
    endpoints.

    t_rms = sqrt( (1/t_cycle) * integral of T_m^2 dt )  (trapezoid rule).

    Raises ValueError when the joints do not close the coupler, and
    SingularState, with the time of the first singular sample, at a
    transmission singularity.
    """
    n = len(stroke)
    if n == 0:
        raise EmptyTrajectory("torque_profile needs a non-empty trajectory")
    if n != task.n_samples:
        raise ValueError("trajectory sample count does not match the task")

    joints = (*stroke.point_a.T, *stroke.point_b.T)
    tau, t_rms, singular = _cycle_torque(
        design, cfg, task, stroke.t, joints, stroke.theta_dot, stroke.theta_ddot
    )
    if singular.any():
        raise SingularState(_COLLINEAR, t=float(stroke.t[np.argmax(singular)]))
    return TorqueProfile(torque=tau, t_cycle=task.t_cycle, t_rms=float(t_rms))
