"""Rigid-body dynamics reduced to the crank axis.

The motor torque is computed from the Lagrangian of the whole linkage with
the crank angle as the single generalized coordinate:

    T_m = I_eq(theta) theta_ddot + 1/2 I_eq'(theta) theta_dot^2
          + G(theta) - Q_ext(theta)

where I_eq is the equivalent (reflected) inertia seen by the motor, G the
gravity torque dV/dtheta, and Q_ext the generalized torque of the external
tip force.  All follow in closed form from the joints at unit crank rate:
the rocker rate omega_r from the velocity closure, I_eq from a uniform
rod's kinetic energy m/6 (v_A^2 + v_A . v_B + v_B^2) on the coupler, I_eq'
from omega_r' and the turning of A - O and B - C, and G and Q_ext as
per-design scalars times the components of v_A and omega_r (B - C) (see
``_dyn_terms``).

Links are uniform slender rods of mass m = rho L; about one end a rod's
first moment is m L/2 and its inertia m L^2/3.  The rocker link is the
rigid union of bar B-C, the effector beam of length
``effector_tip_length`` at the effector offset angle, and the payload as a
point mass at the beam tip; it turns about the fixed pivot C, so its
inertia and first moment about C are sums over the three parts.

The mass constants follow from the bar lengths and the config, and
``_dyn_terms`` computes the five it reads (the crank's mass and inertia
about O, the coupler's mass, the rocker's inertia and first moment about
C), elementwise over one design or the (k,) lengths of k designs.  The
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

__all__ = ["TorqueProfile", "posture_terms", "torque_profile"]

_SINGULAR_TOL = 1e-12
_COLLINEAR = "transmission singularity: coupler and rocker collinear"


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


def _dyn_terms(
    design: DesignParams | _Lengths, cfg: MechanismConfig, geometry: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(I_eq, I_eq'/2, G, Q_ext, singular) at the joints ``_joint_geometry`` describes.

    Elementwise over scalars, stroke columns, or (n, k) arrays with the
    lengths of k designs as (k,) arrays, which also give the per-design
    mass constants, computed here from the lengths and ``cfg``.

    With a = A - O, b = B - C and d = B - A, at unit crank rate
    v_A = perp(a) and v_B = omega_r perp(b), where the rocker rate
    omega_r = (v_A . d) / cross(b, d) keeps |d| fixed.  A uniform rod's
    kinetic energy is m/6 (v_A^2 + v_A . v_B + v_B^2), so
        I_eq = I_O + m_ab/3 (l_oa^2 + omega_r a . b + omega_r^2 l_bc^2)
               + I_C omega_r^2
    with I_O and I_C the crank's and the rocker's inertias about their
    pivots.  Over theta a turns by perp(a) and b by omega_r perp(b), so
    (a . b)' = (1 - omega_r) cross(a, b), and
        I_eq'/2 = m_ab/6 (omega_r' a . b + omega_r (1 - omega_r) cross(a, b))
                  + (m_ab l_bc^2 / 3 + I_C) omega_r omega_r'
    where differentiating v_B . d = v_A . d once more gives
        omega_r' = [omega_r (2 a . b + omega_r (b . d - l_bc^2))
                    - (l_oa^2 + a . d)] / cross(b, d).
    The crank's and the coupler's weights sit at the midpoints of O-A and
    A-B, the rocker's first moment turns with b, and the tip force acts at
    the beam's end, which turns with b too; so G is per-design scalars
    times (vax, rax) and omega_r (rbx, rby), and Q_ext per-design scalars
    times omega_r (rbx, rby), or the float 0.0 without a tip force.

    ``singular`` marks where coupler and rocker are collinear: the closure
    has no solution there (the crank cannot drive through), and the terms
    there are finite but meaningless.
    """
    rax, _, rbx, rby, _, _, vax, ad, ab, bd, den, num = geometry
    singular = np.abs(num) < _SINGULAR_TOL * design.l_bc * design.l_ab
    if singular.any():
        num = np.where(singular, np.inf, num)  # no division by zero
    omega_r = den / num
    l_oa2 = design.l_oa * design.l_oa
    l_bc2 = design.l_bc * design.l_bc
    omega_r_d = (omega_r * (2.0 * ab + omega_r * (bd - l_bc2)) - (l_oa2 + ad)) / num

    # the per-design mass constants: the crank's mass m_oa and inertia i_o
    # about O, the coupler's mass m_ab, and the rocker's inertia i_c about C
    # and first moment (sx, sy) in its frame, x along C -> B, each summed
    # over bar, beam (the bar's density) and payload
    rho_oa, rho_ab, rho_bc = cfg.link_density
    lt = cfg.effector_tip_length
    co, so = math.cos(cfg.effector_offset), math.sin(cfg.effector_offset)
    m_oa = rho_oa * design.l_oa
    i_o = m_oa * design.l_oa * design.l_oa / 3.0
    m_ab = rho_ab * design.l_ab
    m_bc = rho_bc * design.l_bc
    m_beam = rho_bc * lt
    s_beam = 0.5 * m_beam * lt
    s_tip = cfg.payload_mass * lt
    i_c = m_bc * design.l_bc * design.l_bc / 3.0 + m_beam * lt * lt / 3.0 + s_tip * lt
    sx = 0.5 * m_bc * design.l_bc + s_beam * co + s_tip * co
    sy = s_beam * so + s_tip * so

    # I_eq = I_O + m_ab/3 l_oa^2 + omega_r (coupled + rocking)
    coupled = m_ab / 3.0 * ab
    rocking = (m_ab / 3.0 * l_bc2 + i_c) * omega_r
    i_eq = (i_o + m_ab / 3.0 * l_oa2) + omega_r * (coupled + rocking)
    i_half_d = omega_r_d * (0.5 * coupled + rocking) + m_ab / 6.0 * (omega_r * (1.0 - omega_r)) * (
        rax * rby + vax * rbx  # cross(a, b)
    )

    # gravity: G = -(the sum of m g . v over the parts).  The crank's centroid
    # moves at v_A / 2 and the coupler's at (v_A + v_B) / 2; the rocker's
    # first moment turns by (rbx, rby) / l_bc into the world frame
    gx, gy = cfg.gravity
    on_a = -0.5 * (m_oa + m_ab)
    kx = -0.5 * m_ab * gy - (gy * sx - gx * sy) / design.l_bc
    ky = 0.5 * m_ab * gx + (gx * sx + gy * sy) / design.l_bc
    g_tau = on_a * gx * vax + on_a * gy * rax + omega_r * (kx * rbx + ky * rby)

    # external tip force F . v_tip, the tip at the effector offset from b,
    # effector_tip_length / l_bc times as far from C
    fx, fy = cfg.tip_force
    q_ext = 0.0
    if fx != 0.0 or fy != 0.0:
        reach = lt / design.l_bc
        q_ext = omega_r * (reach * (fy * co - fx * so) * rbx - reach * (fx * co + fy * so) * rby)

    return i_eq, i_half_d, g_tau, q_ext, singular


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
