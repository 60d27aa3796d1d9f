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

Links are uniform slender rods of mass m = rho L, each described about
its inner joint (O for the crank, A for the coupler, C for the rocker) by
its mass, first moment and inertia: (rho L, rho L^2/2, rho L^3/3).  The
rocker link is the rigid union of bar B-C, the effector beam of length
``effector_tip_length`` at the effector offset angle, and the payload as a
point mass at the beam tip; it turns about the fixed pivot C, so its three
quantities are sums over the three parts.

The masses follow from the bar lengths, so each kernel derives them itself;
all are elementwise over one design or the (k,) lengths of k designs.  The
torque pass reads the walk's joint geometry and the task's cached steps,
and sums the whole cycle over the forward stroke (see ``TorqueProfile``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kinematics import Posture, Stroke, _joint_geometry, _Lengths, _motion_law, _read_only
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
    """Mass, first moment and inertia of one link about its inner joint.

    The inner joint is O for the crank, A for the coupler and C for the
    rocker; the first moment is taken in the link's local frame, anchored
    there with x along the bar, and the inertia is about that joint.
    """

    mass: float
    first_moment: tuple[float, float]
    inertia: float


@dataclass(frozen=True, slots=True)
class MassModel:
    crank: LinkInertia
    coupler: LinkInertia
    rocker: LinkInertia


@dataclass(frozen=True, slots=True, eq=False)
class TorqueProfile:
    """Motor torque over one full duty cycle (stroke, dwell, return, dwell).

    ``torque`` is the forward-stroke torque column, one entry per stroke
    sample.  The return stroke revisits forward sample n-1-j at its sample
    j with the crank rate negated and the same acceleration; the rate enters
    the torque only squared, so the return torque is the forward one
    mirrored in time.  The dwells hold the static torque at the stroke ends.
    """

    torque: np.ndarray
    t_rms: float


def _rod(density: float, length: float) -> tuple[float, float, float]:
    """(mass, first moment, inertia) of a uniform rod about one end."""
    mass = density * length
    return mass, 0.5 * mass * length, mass * length * length / 3.0


def mass_model(design: DesignParams | _Lengths, cfg: MechanismConfig) -> MassModel:
    """Per-link mass, first moment and inertia about the inner joint.

    Elementwise: for a ``_Lengths`` of k designs each field broadcasts to
    (k,), and its entries are ``==`` those of each design's own call.
    """
    rho_oa, rho_ab, rho_bc = cfg.link_density
    m, s, i = _rod(rho_oa, design.l_oa)
    crank = LinkInertia(m, (s, 0.0), i)
    m, s, i = _rod(rho_ab, design.l_ab)
    coupler = LinkInertia(m, (s, 0.0), i)

    # Rocker: bar C-B, effector beam and point payload at the beam's tip,
    # summed part by part.  The beam leaves C at the effector offset angle
    # from the bar and shares the bar's linear density
    lt = cfg.effector_tip_length
    cx, sx = math.cos(cfg.effector_offset), math.sin(cfg.effector_offset)
    m_bar, s_bar, i_bar = _rod(rho_bc, design.l_bc)
    m_beam, s_beam, i_beam = _rod(rho_bc, lt)
    m_tip = cfg.payload_mass
    s_tip = m_tip * lt
    moment = (s_bar + s_beam * cx + s_tip * cx, s_beam * sx + s_tip * sx)
    rocker = LinkInertia(m_bar + m_beam + m_tip, moment, i_bar + i_beam + s_tip * lt)
    return MassModel(crank, coupler, rocker)


def _dyn_terms(
    design: DesignParams | _Lengths, cfg: MechanismConfig, geometry: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(I_eq, I_eq'/2, G, Q_ext, singular) at the joints ``_joint_geometry`` describes.

    Elementwise over scalars, stroke columns, or (n, k) arrays with the
    lengths of k designs as (k,) arrays, which also give the link masses.

    Velocity coefficients are taken at unit crank rate: v_A = perp(A - O),
    and the coupler/rocker rates solve the rigid-body velocity closure
    v_A + omega_ab perp(B - A) = omega_r perp(B - C).  Differentiating the
    closure over theta gives the same 2x2 system for (omega_ab', omega_r')
    with v_A replaced by -(A - O) - omega_ab^2 (B - A) + omega_r^2 (B - C).
    The crank's and the rocker's inertias about their pivots are constants
    of the design, so
    I_eq'/2 = m_ab v_G . a_G + I_ab omega_ab omega_ab' + I_C omega_r omega_r'.
    Q_ext is the float 0.0 without a tip force.

    ``singular`` marks where coupler and rocker are collinear: the closure
    has no solution there (the crank cannot drive through), and the terms
    there are finite but meaningless.
    """
    # v_A = perp(A - O) = (vax, vay) at crank rate 1; den = v_A . (B - A), the
    # rocker rate's numerator, and num = cross(B - C, B - A), ~ sin(beta), the
    # determinant of the velocity closure
    rax, ray, rbx, rby, bax, bay, vax, den, num = geometry
    vay = rax
    nrax = -rax  # -(A - O) = (nrax, vax)

    singular = np.abs(num) < _SINGULAR_TOL * design.l_bc * design.l_ab
    if singular.any():
        num = np.where(singular, np.inf, num)  # no division by zero
    omega_r = den / num
    omega_ab = (vax * rbx + vay * rby) / num
    omega_ab2 = omega_ab * omega_ab
    omega_r2 = omega_r * omega_r
    wx = nrax - omega_ab2 * bax + omega_r2 * rbx
    wy = vax - omega_ab2 * bay + omega_r2 * rby
    omega_r_d = (wx * bax + wy * bay) / num
    omega_ab_d = (wx * rbx + wy * rby) / num

    mm = mass_model(design, cfg)
    gx, gy = cfg.gravity

    # crank: rotation about O, its weight at the bar midpoint
    g_sum = -mm.crank.mass * (gx * (0.5 * vax) + gy * (0.5 * vay))

    # coupler: general plane motion about its midpoint, where a uniform rod's
    # inertia is a quarter of that about its end
    i_mid = 0.25 * mm.coupler.inertia
    vgx = vax + omega_ab * (-0.5 * bay)
    vgy = vay + omega_ab * (0.5 * bax)
    i_eq = mm.crank.inertia + mm.coupler.mass * (vgx * vgx + vgy * vgy) + i_mid * omega_ab2
    agx = nrax - 0.5 * (omega_ab_d * bay + omega_ab2 * bax)
    agy = vax + 0.5 * (omega_ab_d * bax - omega_ab2 * bay)
    i_half_d = mm.coupler.mass * (vgx * agx + vgy * agy) + i_mid * omega_ab * omega_ab_d
    g_sum -= mm.coupler.mass * (gx * vgx + gy * vgy)

    # rocker: rotation about C; its local x-axis along C->B at angle phi, so
    # its first moment turns by (cos phi, sin phi) into the world frame
    cphi = rbx / design.l_bc
    sphi = rby / design.l_bc
    sx, sy = mm.rocker.first_moment
    i_eq += mm.rocker.inertia * omega_r2
    i_half_d += mm.rocker.inertia * omega_r * omega_r_d
    g_sum -= omega_r * (gy * (sx * cphi - sy * sphi) - gx * (sx * sphi + sy * cphi))

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

    return i_eq, i_half_d, g_sum, q_ext, singular


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
    i_eq, i_half_d, g_tau, q_ext, singular = _dyn_terms(
        design, cfg, _joint_geometry(cfg, *np.array([ax, ay, bx, by]))
    )
    if singular:
        raise SingularState(_COLLINEAR)
    return float(i_eq), float(2.0 * i_half_d), float(g_tau), float(q_ext)


@lru_cache(maxsize=16)
def _task_steps(task: MotionTask) -> np.ndarray:
    """Time steps of the task's stroke grid, as a read-only (n - 1, 1) column."""
    steps = np.diff(_motion_law(task)[0])[:, None]
    _read_only(steps)
    return steps


def _cycle_torque(
    design: DesignParams | _Lengths,
    cfg: MechanismConfig,
    task: MotionTask,
    steps: np.ndarray,
    geometry: tuple,
    theta_dot: np.ndarray,
    theta_ddot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(forward torque, cycle RMS, singular samples) of ``torque_profile``.

    Over the columns of one stroke with ``steps`` its time steps, or over
    (n, k) arrays with the lengths of k designs as (k,) arrays and
    ``steps`` an (n - 1, 1) column; the RMS then has one entry per design.
    ``geometry`` is the stroke joints' ``_joint_geometry``.

    Raises ValueError when a sample's joints do not close the coupler.
    """
    # cheap consistency guard: every sample must close the coupler (NaN fails)
    gap = np.hypot(*geometry[4:6]) - design.l_ab  # |B - A|
    if not (np.abs(gap) <= 1e-6 * design.l_ab).all():
        raise ValueError("trajectory is inconsistent with the design geometry")
    i_eq, i_half_d, g_tau, q_ext, singular = _dyn_terms(design, cfg, geometry)
    tau = i_eq * theta_ddot + i_half_d * theta_dot * theta_dot + g_tau - q_ext

    # trapezoid rule on tau^2 over the forward stroke, which counts the return
    # stroke too: 1/2 (a + b) h, twice, is (a + b) h.  The dwells hold the end
    # torques, static where the quintic rests.  add.accumulate sums in sample
    # order, like a loop, for one column as for k, so evaluate_designs stays
    # equal to evaluate_design; a pairwise sum would not
    sq = tau * tau
    integral = np.add.accumulate((sq[:-1] + sq[1:]) * steps)[-1] + (sq[0] + sq[-1]) * task.t_dwell
    return tau, np.sqrt(integral / task.t_cycle), singular


def torque_profile(
    design: DesignParams,
    cfg: MechanismConfig,
    task: MotionTask,
    stroke: Stroke,
) -> TorqueProfile:
    """Motor torque over the full duty cycle and its RMS value.

    The forward stroke follows the given stroke, at the joints it carries.
    The return stroke's torque is the forward one mirrored in time (see
    ``TorqueProfile``), so one trapezoid sum over the forward stroke counts
    both strokes.  The dwells hold the static torque at the stroke ends.

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

    geometry = _joint_geometry(cfg, *stroke.point_a.T, *stroke.point_b.T)
    tau, t_rms, singular = _cycle_torque(
        design, cfg, task, np.diff(stroke.t), geometry, stroke.theta_dot, stroke.theta_ddot
    )
    if singular.any():
        raise SingularState(_COLLINEAR, t=float(stroke.t[np.argmax(singular)]))
    return TorqueProfile(torque=tau, t_rms=float(t_rms))
