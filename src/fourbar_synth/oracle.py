"""Brute-force reference implementations for tests and acceptance.

Everything here deliberately avoids the closed-form main paths: crank
angles come from a dense sweep with Newton polish instead of circle
intersection, and the assembly gap comes from marching the slide ray in
micrometre steps instead of geometric clipping.  Slowness is fine; these
exist so the fast paths have something independent to disagree with.  The
mechanical energy sums each part's kinetic energy from the velocity closure
and its potential at its own centroid, and the tip force's at the tip,
instead of the reflected inertia and the gravity and tip torques.

``grid_sweep`` is the exception: it runs the main path itself, batched over
every cell of a grid, as the exhaustive ground truth for the optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from . import constraints
from .constraints import _pose_delta, evaluate_designs
from .kinematics import Posture
from .model import (
    BaselineInfeasible,
    DesignParams,
    EvaluationRecord,
    MechanismConfig,
    MotionTask,
    TransformUnsolvable,
)

__all__ = [
    "brute_ik",
    "brute_static_gap",
    "brute_theta_sweep",
    "grid_sweep",
    "mechanical_energy",
]

# perfbench's tracer wraps this module attribute in every traced workload;
# grid_sweep batches through evaluate_designs and no longer calls it
evaluate_design = constraints.evaluate_design

_SWEEP_POINTS = 3600
_RESIDUAL_TOL = 1e-12  # m, Newton stopping residual
_DEDUPE_TOL = 1e-6  # rad, root merging radius
_EXTREMUM_BAND = 1e-4  # m-ish, sweep cells worth probing for tangency
_CONTINUATION_STEP = 0.1  # rad, largest crank step the sweep takes without halving its time step
_CONTINUATION_HALVINGS = 8


def _closure_residual(
    theta: float, design: DesignParams, cfg: MechanismConfig, b_pt: tuple[float, float]
) -> tuple[float, float]:
    """Signed distance |A(theta) - B| - l_ab and its theta derivative."""
    ox, oy = cfg.pivot_o
    ax = ox + design.l_oa * math.cos(theta)
    ay = oy + design.l_oa * math.sin(theta)
    dx = ax - b_pt[0]
    dy = ay - b_pt[1]
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        return -design.l_ab, 0.0
    ddist = (dx * (-design.l_oa * math.sin(theta)) + dy * (design.l_oa * math.cos(theta))) / dist
    return dist - design.l_ab, ddist


def _newton_in_bracket(
    lo: float,
    hi: float,
    design: DesignParams,
    cfg: MechanismConfig,
    b_pt: tuple[float, float],
) -> float | None:
    """Safeguarded Newton on the closure residual inside a sign-change bracket."""
    f_lo, _ = _closure_residual(lo, design, cfg, b_pt)
    f_hi, _ = _closure_residual(hi, design, cfg, b_pt)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        return None
    x = 0.5 * (lo + hi)
    for _ in range(100):
        fx, dfx = _closure_residual(x, design, cfg, b_pt)
        if abs(fx) <= _RESIDUAL_TOL:
            return x
        if fx * f_lo < 0.0:
            hi = x
        else:
            lo, f_lo = x, fx
        step_ok = dfx != 0.0
        if step_ok:
            xn = x - fx / dfx
            step_ok = lo < xn < hi
        x = xn if step_ok else 0.5 * (lo + hi)
    return x if abs(_closure_residual(x, design, cfg, b_pt)[0]) <= 1e-9 else None


def _extremum_scan(
    lo: float,
    hi: float,
    minimize: bool,
    design: DesignParams,
    cfg: MechanismConfig,
    b_pt: tuple[float, float],
) -> tuple[float, float]:
    """Golden-section extremum of the residual over [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = 1.0 if minimize else -1.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = sign * _closure_residual(c, design, cfg, b_pt)[0]
    fd = sign * _closure_residual(d, design, cfg, b_pt)[0]
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sign * _closure_residual(c, design, cfg, b_pt)[0]
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sign * _closure_residual(d, design, cfg, b_pt)[0]
    x = 0.5 * (a + b)
    return x, _closure_residual(x, design, cfg, b_pt)[0]


def _oracle_posture(
    theta: float, delta: float, design: DesignParams, cfg: MechanismConfig
) -> Posture:
    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c
    ang = delta - cfg.effector_offset
    a_pt = (ox + design.l_oa * math.cos(theta), oy + design.l_oa * math.sin(theta))
    b_pt = (cx + design.l_bc * math.cos(ang), cy + design.l_bc * math.sin(ang))
    cross = (b_pt[0] - ox) * (a_pt[1] - oy) - (b_pt[1] - oy) * (a_pt[0] - ox)
    return Posture(
        theta=theta,
        delta=delta,
        point_a=a_pt,
        point_b=b_pt,
        elbow="plus" if cross >= 0.0 else "minus",
    )


def brute_ik(design: DesignParams, cfg: MechanismConfig, delta: float) -> list[Posture]:
    """All crank angles assembling the linkage at delta, by sweep + Newton.

    Sweeps 3600 candidate angles, brackets sign changes of the closure
    residual, polishes each with safeguarded Newton to a 1e-12 m residual,
    and probes shallow extrema for tangent (double) roots.  Roots closer
    than 1e-6 rad are merged.  Empty result means not assemblable.
    """
    cx, cy = cfg.pivot_c
    ang = delta - cfg.effector_offset
    b_pt = (cx + design.l_bc * math.cos(ang), cy + design.l_bc * math.sin(ang))
    ox, oy = cfg.pivot_o

    th = -math.pi + 2.0 * math.pi * np.arange(_SWEEP_POINTS) / _SWEEP_POINTS
    ax = ox + design.l_oa * np.cos(th)
    ay = oy + design.l_oa * np.sin(th)
    f = np.hypot(ax - b_pt[0], ay - b_pt[1]) - design.l_ab
    f_next = np.roll(f, -1)
    step = 2.0 * math.pi / _SWEEP_POINTS

    roots: list[float] = []
    for k in np.nonzero(f == 0.0)[0]:
        roots.append(float(th[k]))
    for k in np.nonzero(f * f_next < 0.0)[0]:
        lo = float(th[k])
        root = _newton_in_bracket(lo, lo + step, design, cfg, b_pt)
        if root is not None:
            roots.append(root)

    # shallow extrema can hide tangencies or an unresolved root pair
    band = _EXTREMUM_BAND * max(1.0, design.l_ab)
    f_prev = np.roll(f, 1)
    candidates = np.nonzero(
        (np.abs(f) < band)
        & (f != 0.0)
        & (f * f_prev > 0.0)
        & (f * f_next > 0.0)
        & (np.abs(f) <= np.abs(f_prev))
        & (np.abs(f) <= np.abs(f_next))
    )[0]
    for k in candidates:
        lo = float(th[k]) - step
        hi = float(th[k]) + step
        minimize = f[k] > 0.0
        x_star, v = _extremum_scan(lo, hi, minimize, design, cfg, b_pt)
        if abs(v) <= _RESIDUAL_TOL:
            roots.append(x_star)  # tangency: double root collapses to one
        elif v * f[k] < 0.0:
            for sub in ((lo, x_star), (x_star, hi)):
                root = _newton_in_bracket(sub[0], sub[1], design, cfg, b_pt)
                if root is not None:
                    roots.append(root)

    norm = sorted(math.atan2(math.sin(r), math.cos(r)) for r in roots)
    merged: list[float] = []
    for r in norm:
        if not merged or r - merged[-1] > _DEDUPE_TOL:
            merged.append(r)
    if len(merged) > 1 and (merged[0] + 2.0 * math.pi) - merged[-1] <= _DEDUPE_TOL:
        merged.pop()
    return [_oracle_posture(r, delta, design, cfg) for r in merged]


def brute_static_gap(
    design: DesignParams,
    cfg: MechanismConfig,
    task: MotionTask,
    pose: str,
    step: float = 1e-6,
) -> float:
    """Assembly gap by marching the slide ray in fixed steps.

    Rebuilds the baseline posture with the sweep solver, hangs the detached
    chain off B with the baseline's relative angles, then walks O' toward O
    testing annulus membership at every step.  The walk ends at the first
    exit or at the overshoot cap past O; returned value is s_O - s_final.
    """
    delta = _pose_delta(task, pose)
    base_roots = brute_ik(cfg.baseline, cfg, delta)
    if not base_roots:
        raise BaselineInfeasible(delta)
    matching = [p for p in base_roots if p.elbow == cfg.branch]
    base = matching[0] if matching else base_roots[0]

    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c
    bx0, by0 = base.point_b
    ax0, ay0 = base.point_a

    def signed_angle(ux, uy, vx, vy) -> float:
        return math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)

    l = cfg.baseline
    beta0 = signed_angle((cx - bx0) / l.l_bc, (cy - by0) / l.l_bc,
                         (ax0 - bx0) / l.l_ab, (ay0 - by0) / l.l_ab)
    alpha0 = signed_angle((bx0 - ax0) / l.l_ab, (by0 - ay0) / l.l_ab,
                          (ox - ax0) / l.l_oa, (oy - ay0) / l.l_oa)

    ang = delta - cfg.effector_offset
    bx = cx + design.l_bc * math.cos(ang)
    by = cy + design.l_bc * math.sin(ang)
    ubcx, ubcy = -math.cos(ang), -math.sin(ang)
    cb, sb = math.cos(beta0), math.sin(beta0)
    ubax = cb * ubcx - sb * ubcy
    ubay = sb * ubcx + cb * ubcy
    apx = bx + design.l_ab * ubax
    apy = by + design.l_ab * ubay
    ca, sa = math.cos(alpha0), math.sin(alpha0)
    opx = apx + design.l_oa * (ca * (-ubax) - sa * (-ubay))
    opy = apy + design.l_oa * (sa * (-ubax) + ca * (-ubay))

    r_in = abs(design.l_ab - design.l_oa)
    r_out = design.l_ab + design.l_oa
    cap = cfg.overshoot_cap
    s_o = math.hypot(ox - opx, oy - opy)

    if s_o < 1e-9:
        # start already at O: march radially outward from B through O
        dx, dy = ox - bx, oy - by
        d_ob = math.hypot(dx, dy)
        n = int(math.floor(cap / step)) + 1
        s = np.arange(n) * step
        outside = np.nonzero(d_ob + s > r_out * (1.0 + 1e-12))[0]
        if outside.size == 0:
            return -cap
        if outside[0] == 0:
            return 0.0
        return -min(cap, float(s[outside[0] - 1]))

    ux, uy = (ox - opx) / s_o, (oy - opy) / s_o
    wx, wy = opx - bx, opy - by
    w2 = wx * wx + wy * wy
    p = wx * ux + wy * uy

    s_max = s_o + cap
    n = int(math.floor(s_max / step)) + 1
    s = np.arange(n) * step
    q = s * s + 2.0 * p * s + w2
    inside = (q >= (r_in * r_in) * (1.0 - 1e-12)) & (q <= (r_out * r_out) * (1.0 + 1e-12))
    bad = np.nonzero(~inside)[0]
    if bad.size == 0:
        s_final = s_max
    elif bad[0] == 0:
        s_final = 0.0
    else:
        s_final = min(float(s[bad[0] - 1]), s_max)
    return s_o - s_final


def brute_theta_sweep(
    design: DesignParams,
    cfg: MechanismConfig,
    task: MotionTask,
    n: int = 2001,
) -> list[tuple[float, float, float]]:
    """Dense (t, delta, theta) sweep of the stroke via the sweep solver.

    Seeds at mid-stroke on the configured branch and walks outward in time,
    at each step taking the root nearest the previous crank angle.  Where
    that root is more than 0.1 rad away, the crank may be moving fast past
    the other branch's root, so the step is reached through two half steps,
    up to 8 halvings deep; a half step that does not assemble is skipped.
    Raises TransformUnsolvable with the delta of the first sample in walk
    order (mid-stroke included) that does not assemble, like the main
    transform.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    d_i, d_e, tm = task.delta_i, task.delta_e, task.t_move
    times = [tm * k / (n - 1) for k in range(n)]

    def delta_at(t: float) -> float:
        tau = t / tm
        s = tau * tau * tau * (10.0 + tau * (-15.0 + 6.0 * tau))
        return d_e + (d_i - d_e) * s

    mid = (n - 1) // 2
    seed_roots = brute_ik(design, cfg, delta_at(times[mid]))
    if not seed_roots:
        raise TransformUnsolvable(delta_at(times[mid]))
    matching = [p for p in seed_roots if p.elbow == cfg.branch]
    seed = matching[0] if matching else seed_roots[0]

    def gap(theta: float, prev: float) -> float:
        d = abs(theta - prev)
        return min(d, 2.0 * math.pi - d)

    def follow(prev: float, t0: float, t1: float, depth: int = 0) -> float | None:
        """The crank angle at t1 continued from ``prev`` at t0; None where t1 does not assemble."""
        roots = brute_ik(design, cfg, delta_at(t1))
        theta = min((p.theta for p in roots), key=lambda root: gap(root, prev), default=None)
        if theta is None or gap(theta, prev) <= _CONTINUATION_STEP or depth == _CONTINUATION_HALVINGS:
            return theta
        t_half = 0.5 * (t0 + t1)
        via = follow(prev, t0, t_half, depth + 1)
        return theta if via is None else follow(via, t_half, t1, depth + 1)

    thetas: list[float | None] = [None] * n
    thetas[mid] = seed.theta
    for order in (range(mid + 1, n), range(mid - 1, -1, -1)):
        prev, t_prev = seed.theta, times[mid]
        for k in order:
            theta = follow(prev, t_prev, times[k])
            if theta is None:
                raise TransformUnsolvable(delta_at(times[k]))
            thetas[k] = prev = theta
            t_prev = times[k]
    return [(times[k], delta_at(times[k]), thetas[k]) for k in range(n)]


def mechanical_energy(
    design: DesignParams, cfg: MechanismConfig, posture: Posture, theta_dot: float
) -> float:
    """Kinetic plus potential energy at a state (J).

    Each part counts on its own: its kinetic energy from its centroid's
    velocity and its rate, with the coupler's and the rocker's rates solved
    from the velocity closure as a 2x2 linear system, and its weight at its
    centroid, placed from the joints, with the tip force's -F . (tip
    position).  It shares nothing with I_eq, G or Q_ext, so that the energy
    balance and difference quotients of the energy can check them.
    Raises numpy's LinAlgError where coupler and rocker are collinear.
    """
    (ox, oy), (cx, cy), (gx, gy), (fx, fy) = cfg.pivot_o, cfg.pivot_c, cfg.gravity, cfg.tip_force
    (ax, ay), (bx, by) = posture.point_a, posture.point_b
    rho_oa, rho_ab, rho_bc = cfg.link_density
    lt = cfg.effector_tip_length
    phi = math.atan2(by - cy, bx - cx) + cfg.effector_offset  # the beam's angle at C
    tx, ty = cx + lt * math.cos(phi), cy + lt * math.sin(phi)
    # v_A + omega_ab perp(B - A) = omega_r perp(B - C), with v_A = theta_dot perp(A - O)
    vax, vay = -theta_dot * (ay - oy), theta_dot * (ax - ox)
    closure = [[ay - by, by - cy], [bx - ax, cx - bx]]
    w_ab, w_r = np.linalg.solve(closure, [-vax, -vay]).tolist()
    parts = [  # (mass, centroid, its velocity, rate, length) of the three bars, the beam and the payload
        (rho_oa * design.l_oa, 0.5 * (ox + ax), 0.5 * (oy + ay), 0.5 * vax, 0.5 * vay, theta_dot, design.l_oa),
        (rho_ab * design.l_ab, 0.5 * (ax + bx), 0.5 * (ay + by),
         vax - 0.5 * w_ab * (by - ay), vay + 0.5 * w_ab * (bx - ax), w_ab, design.l_ab),
        (rho_bc * design.l_bc, 0.5 * (cx + bx), 0.5 * (cy + by), -0.5 * w_r * (by - cy), 0.5 * w_r * (bx - cx),
         w_r, design.l_bc),
        (rho_bc * lt, 0.5 * (cx + tx), 0.5 * (cy + ty), -0.5 * w_r * (ty - cy), 0.5 * w_r * (tx - cx), w_r, lt),
        (cfg.payload_mass, tx, ty, -w_r * (ty - cy), w_r * (tx - cx), w_r, 0.0),
    ]
    # a uniform rod turns about its centroid with inertia m L^2 / 12
    kinetic = sum(0.5 * m * (vx * vx + vy * vy) + m * length * length * rate * rate / 24.0
                  for m, _, _, vx, vy, rate, length in parts)
    v_pot = -sum(m * (gx * x + gy * y) for m, x, y, *_ in parts) - (fx * tx + fy * ty)
    return kinetic + v_pot


def grid_sweep(
    cfg: MechanismConfig,
    task: MotionTask,
    bounds: tuple[tuple[float, float], ...],
    resolution: int = 21,
) -> list[EvaluationRecord]:
    """Every design of a regular grid in the bounds box, evaluated in one batch.

    The exhaustive ground truth for the optimizer: one ``evaluate_designs``
    call over all cells.  Records appear in row-major order (l_oa
    outermost, l_bc innermost).
    """
    if not 2 <= resolution <= 31:
        raise ValueError("resolution must be between 2 and 31 per axis")
    if len(bounds) != 3:
        raise ValueError("bounds must cover the three bar lengths")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return evaluate_designs(cells, cfg, task)
