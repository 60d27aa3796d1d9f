"""Quantified feasibility constraints and the full design evaluation.

Assemblability is scored, not just classified.  For a candidate design the
linkage is rebuilt from the task pose using the *baseline* design's relative
bar angles; that leaves the crank pivot hanging at a virtual point O' which
coincides with O only if the candidate assembles in the baseline-like
posture.  Sliding O' straight toward O inside the annulus of positions the
free chain can reach turns the remaining distance into a signed gap:
positive means the pose cannot be assembled that way (the slide stopped
short), zero or negative means it can, with the overshoot past O capped.

Motion defects are scored on the crank-angle history of the stroke: if the
crank reverses while the effector sweeps one way (a transmission-angle
crossing of 0 or pi), the constraint value is the crank-angle range covered
against the net direction of travel.

Both scores feed the optimizer as data; infeasibility never raises.
The slide is written once, in ``_slide``: ``static_gap`` runs it on floats
for one pose, about 4.3 us a call, and ``static_gaps`` on arrays for both
poses of many designs, about 50 us plus 0.4 us a design (2-vCPU VM).
``evaluate_design`` runs the whole pipeline for one design and
``evaluate_designs`` for many; past their own static gates (one array pass
on one design costs about five scalar pairs) they share one walk-and-cost
body: the walk, then the torque pass, which reads the walk's joint
geometry.
``assembles`` gives the static gate's verdict alone, for the optimizer's
acquisition mask, without the gap values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal

import numpy as np

from .dynamics import _cycle_torque, _task_steps, torque_profile
from .kinematics import Stroke, _crank_angle, _Lengths, _walk, _walk_columns, kinematic_transform, solve_ik
from .model import (
    BaselineInfeasible,
    ConstraintBundle,
    DesignParams,
    EmptyTrajectory,
    EvaluationRecord,
    MechanismConfig,
    MotionTask,
    NotAssemblable,
)

__all__ = [
    "Pose",
    "StaticGapResult",
    "DynamicConstraintResult",
    "baseline_posture",
    "static_gap",
    "static_gaps",
    "assembles",
    "dynamic_constraint",
    "evaluate_design",
    "evaluate_designs",
]

Pose = Literal["i", "e"]

_DEGENERATE_START = 1e-9  # m; below this the slide start sits on O already
_RATE_EPS = 1e-12  # rad/s; crank rates below this do not count as reversal
# samples walked and costed per block: (samples x designs) float arrays of
# 64 KB keep an array op's operands in a core's L2 cache.  On a 2-vCPU VM a
# 13^3 canon grid took 42 to 47 ms in blocks of 20 to 81 designs, against
# 58 to 62 ms in one block of all 416 that pass the static gate
_BLOCK_SAMPLES = 1 << 13
# a slide ray tangent to the inner hole has a discriminant that is zero up to
# the rounding of its terms; below this multiple of their size it is tangent
_TANGENT_REL = 8.0 * sys.float_info.epsilon
# half-width, relative to (l_ab + l_oa)^2, of the band around each squared-
# length comparison of ``assembles`` inside which ``static_gaps`` decides
_MASK_BAND_REL = 1e-9


@dataclass(frozen=True, slots=True)
class StaticGapResult:
    """Outcome of the virtual-assembly slide for one pose.

    value > 0: residual gap, the pose does not assemble this way (m).
    value <= 0: assembles; magnitude is the capped overshoot past O.
    """

    value: float
    pose: Pose
    o_prime_init: tuple[float, float]
    o_prime_final: tuple[float, float]
    degenerate_start: bool


@dataclass(frozen=True, slots=True)
class DynamicConstraintResult:
    """Crank-reversal range over the stroke.

    ``reference_sign`` is the sign of the net crank displacement; violating
    samples move against it.  value = 0 means defect-free motion.
    """

    value: float
    reference_sign: int


def _pose_delta(task: MotionTask, pose: Pose) -> float:
    if pose == "i":
        return task.delta_i
    if pose == "e":
        return task.delta_e
    raise ValueError(f"pose must be 'i' or 'e', got {pose!r}")


@lru_cache(maxsize=4096)
def baseline_posture(cfg: MechanismConfig, task: MotionTask, pose: Pose) -> tuple[float, float]:
    """Signed relative bar angles (alpha0, beta0) of the baseline at a pose.

    beta0 rotates the unit ray B->C onto B->A; alpha0 rotates the unit ray
    A->B onto A->O.  Rebuilding the chain with these angles and the baseline
    lengths reproduces the baseline posture exactly, which anchors the
    static-gap construction.

    Raises BaselineInfeasible if the baseline does not assemble at the pose.
    """
    delta = _pose_delta(task, pose)
    try:
        p = solve_ik(cfg.baseline, cfg, delta, cfg.branch)
    except NotAssemblable as exc:
        raise BaselineInfeasible(delta) from exc
    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c
    ax, ay = p.point_a
    bx, by = p.point_b

    ubcx = (cx - bx) / cfg.baseline.l_bc
    ubcy = (cy - by) / cfg.baseline.l_bc
    ubax = (ax - bx) / cfg.baseline.l_ab
    ubay = (ay - by) / cfg.baseline.l_ab
    beta0 = math.atan2(ubcx * ubay - ubcy * ubax, ubcx * ubax + ubcy * ubay)

    uabx, uaby = -ubax, -ubay
    uaox = (ox - ax) / cfg.baseline.l_oa
    uaoy = (oy - ay) / cfg.baseline.l_oa
    alpha0 = math.atan2(uabx * uaoy - uaby * uaox, uabx * uaox + uaby * uaoy)
    return alpha0, beta0


@lru_cache(maxsize=4096)
def _slide_frame(
    cfg: MechanismConfig, task: MotionTask, pose: Pose
) -> tuple[float, float, float, float, float, float]:
    """The design-independent directions of the static-gap chain at a pose.

    Returns the unit ray C->B, the unit ray B->A' and the unit ray A'->O'
    as (x, y) pairs flattened.  C->B takes numpy's cosine and sine, as the
    walk's rocker tip does, so that every design's B is the walk's B.
    """
    alpha0, beta0 = baseline_posture(cfg, task, pose)
    ang = _pose_delta(task, pose) - cfg.effector_offset
    ucbx, ucby = float(np.cos(ang)), float(np.sin(ang))

    # chain: A' = B + l_ab * R(beta0) u(B->C); O' = A' + l_oa * R(alpha0) u(A'->B)
    ubcx, ubcy = -math.cos(ang), -math.sin(ang)
    cb, sb = math.cos(beta0), math.sin(beta0)
    ubax = cb * ubcx - sb * ubcy
    ubay = sb * ubcx + cb * ubcy
    ca, sa = math.cos(alpha0), math.sin(alpha0)
    uaox = ca * (-ubax) - sa * (-ubay)
    uaoy = sa * (-ubax) + ca * (-ubay)
    return ucbx, ucby, ubax, ubay, uaox, uaoy


@lru_cache(maxsize=4096)
def _slide_frames(cfg: MechanismConfig, task: MotionTask) -> np.ndarray:
    """Both poses' ``_slide_frame`` as six read-only (2, 1) columns, pose "i" in row 0."""
    frames = np.array([_slide_frame(cfg, task, "i"), _slide_frame(cfg, task, "e")]).T[:, :, None]
    frames.flags.writeable = False
    return frames


def _slide_starts(l_oa, l_ab, l_bc, frame, cfg: MechanismConfig):
    """B and the slide start O' of ``static_gap`` in a pose's frame.

    The lengths are floats with one ``_slide_frame``, or (m,) arrays with
    the columns of ``_slide_frames``, which give (2, m) coordinates.
    """
    ucbx, ucby, ubax, ubay, uaox, uaoy = frame
    cx, cy = cfg.pivot_c
    bx = cx + l_bc * ucbx
    by = cy + l_bc * ucby
    opx = bx + l_ab * ubax + l_oa * uaox
    opy = by + l_ab * ubay + l_oa * uaoy
    return bx, by, opx, opy


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot``, so equal to the scalar path bit for bit.

    ``np.hypot`` rounds differently from ``math.hypot`` in about 0.6% of
    pairs.  A numpy port of CPython's algorithm is exact too, but costs
    about 100 us per call in array-op overhead, against 1.4 us here for one
    pair and 0.4 to 0.5 ms for the 2 x 2197 points of a 13^3 grid sweep
    (both poses).
    """
    values = map(math.hypot, x.ravel().tolist(), y.ravel().tolist())
    return np.fromiter(values, float, x.size).reshape(x.shape)


# the operations of ``_slide`` that differ between floats and arrays: sqrt,
# hypot, maximum, minimum, where and any.  Each array function rounds as its
# float counterpart, with arguments in the same order, so both give equal bits
_FLOATS = (math.sqrt, math.hypot, max, min, lambda c, a, b: a if c else b, bool)
_ARRAYS = (np.sqrt, _hypot, np.maximum, np.minimum, np.where, np.any)


def _slide(xp, l_oa, l_ab, bx, by, opx, opy, cfg: MechanismConfig):
    """The slide of ``static_gap`` from O' toward O, elementwise in ``xp``'s operations.

    Returns (value, s_o, s_final, degenerate): the gap, the distance from O'
    to O, the length slid (from O for a degenerate start, which slides
    outward from B through O) and whether the start was within 1e-9 m of O.
    """
    sqrt, hypot, maximum, minimum, where, any_ = xp
    ox, oy = cfg.pivot_o
    cap = cfg.overshoot_cap
    r_in = abs(l_ab - l_oa)
    r_out = l_ab + l_oa

    s_o = hypot(ox - opx, oy - opy)
    step = maximum(s_o, _DEGENERATE_START)  # == s_o on every start that is not degenerate
    ux, uy = (ox - opx) / step, (oy - opy) / step
    wx, wy = opx - bx, opy - by
    w2 = wx * wx + wy * wy
    p = wx * ux + wy * uy  # signed progress of the start along the ray

    # first exit through the outer circle: larger root of |w + s u| = r_out
    disc_out = p * p - (w2 - r_out * r_out)
    s_exit = -p + sqrt(maximum(disc_out, 0.0))

    # first entry into the inner hole (tangency, up to rounding, does not block)
    disc_in = p * p - (w2 - r_in * r_in)
    hole = (r_in > 0.0) & (disc_in > _TANGENT_REL * (p * p + w2 + r_in * r_in))
    root = sqrt(where(hole, disc_in, 0.0))
    a1 = -p - root
    a2 = -p + root
    enters = hole & (a2 > 0.0) & (a1 > -1e-15)
    s_exit = where(enters, minimum(s_exit, maximum(a1, 0.0)), s_exit)

    s_final = minimum(s_exit, s_o + cap)
    value = s_o - s_final
    degenerate = s_o < _DEGENERATE_START
    if any_(degenerate):  # already at O: the capped slack outward from B through O
        slack = minimum(cap, maximum(0.0, r_out - hypot(ox - bx, oy - by)))
        s_final = where(degenerate, slack, s_final)
        value = where(degenerate, -slack, value)
    return value, s_o, s_final, degenerate


def static_gap(
    design: DesignParams, cfg: MechanismConfig, task: MotionTask, pose: Pose
) -> StaticGapResult:
    """Quantified assemblability of a design at one stroke endpoint.

    Construction: place B from the pose, hang the coupler and crank off it
    using the baseline's signed relative angles, then slide the resulting
    virtual crank pivot O' straight toward O.  The slide is confined to the
    closed annulus centred on B with radii |l_ab - l_oa| and l_ab + l_oa
    (all positions the two-bar chain can reach) and stops at the first exit
    or ``overshoot_cap`` metres past O, whichever comes first; a ray tangent
    to the inner circle, to within rounding, passes it.  The value is the
    distance still missing toward O (negative = overshoot).

    A start within 1e-9 m of O (the design assembles exactly in the
    baseline-like posture) degenerates the slide direction; it is then taken
    radially outward from B through O, giving the most negative capped
    value the local geometry allows.

    One call takes about 4.3 us; ``static_gaps`` runs the same slide on
    arrays of designs.
    """
    frame = _slide_frame(cfg, task, pose)
    bx, by, opx, opy = _slide_starts(design.l_oa, design.l_ab, design.l_bc, frame, cfg)
    value, s_o, s_final, degenerate = _slide(_FLOATS, design.l_oa, design.l_ab, bx, by, opx, opy, cfg)
    ox, oy = cfg.pivot_o
    if degenerate:
        dx, dy = ox - bx, oy - by
        d_ob = math.hypot(dx, dy)
        ux, uy = (dx / d_ob, dy / d_ob) if d_ob > 0.0 else (1.0, 0.0)
        start = ox, oy
    else:
        ux, uy = (ox - opx) / s_o, (oy - opy) / s_o
        start = opx, opy
    final = (start[0] + s_final * ux, start[1] + s_final * uy)
    return StaticGapResult(value, pose, (opx, opy), final, degenerate)


def _design_rows(designs) -> np.ndarray:
    """``designs`` as an (m, 3) float array, uncopied if it is one; ValueError for another
    shape, and ``DesignParams``'s ValidationError for the first row that is not a design."""
    designs = np.asarray(designs, dtype=float)
    if designs.ndim != 2 or designs.shape[1] != 3:
        raise ValueError(f"designs must be an (m, 3) array, got shape {designs.shape}")
    valid = (designs > 0.0) & (designs < math.inf)
    if not valid.all():
        DesignParams(*designs[np.argmin(valid.all(axis=1))].tolist())
    return designs


def static_gaps(designs: np.ndarray, cfg: MechanismConfig, task: MotionTask) -> np.ndarray:
    """``static_gap(...).value`` at both poses for every row (l_oa, l_ab, l_bc) of an (m, 3) array.

    Returns a (2, m) array: row 0 is pose "i", row 1 is pose "e".  The
    slide of ``static_gap`` on arrays, with each pose's frame as a column,
    so every value equals the scalar one bit for bit.  A call has a fixed
    cost of about 50 us in array-op overhead, some ten scalar calls, and
    about 0.4 us a design (0.9 ms for a 13^3 grid), so it pays only across
    many designs.  ``assembles`` returns only the signs, in about half the
    time.  Raises ValueError for an array of another shape.
    """
    designs = _design_rows(designs)
    l_oa, l_ab, l_bc = designs[:, 0], designs[:, 1], designs[:, 2]
    starts = _slide_starts(l_oa, l_ab, l_bc, _slide_frames(cfg, task), cfg)
    return _slide(_ARRAYS, l_oa, l_ab, *starts, cfg)[0]


def assembles(designs: np.ndarray, cfg: MechanismConfig, task: MotionTask) -> np.ndarray:
    """Whether each row (l_oa, l_ab, l_bc) of an (m, 3) array assembles at both poses.

    Returns the (m,) bool array ``(static_gaps(designs, cfg, task) <= 0).all(axis=0)``,
    decided from the geometry of the slide rather than its length.  Per
    pose, with B and O' from the chain ``static_gaps`` builds, O' lies in
    the annulus of radii r_in = |l_ab - l_oa| and r_out = l_ab + l_oa around
    B, and the gap is <= 0 exactly when the slide reaches O (the cap only
    limits the overshoot past O).  That is, when

    - O lies in the reach disc: |O - B|^2 <= r_out^2, and
    - the slide [O', O] stays out of the open hole: |O - B|^2 >= r_in^2
      and, where the closest approach of the slide's line to B falls
      strictly between O' and O, cross(O' - B, O - O')^2 / |O - O'|^2
      >= r_in^2.

    Squared lengths only: no hypot, no sqrt and no per-design Python; about
    half the time of ``static_gaps``.

    Where a comparison could go either way, ``static_gaps`` decides.  With
    tau = 1e-9 r_out^2 + (2e-9 m)^2, a pose is undecided when a comparison
    above lies within tau of its threshold, when |O - O'|^2 <= tau, or when
    |O' - B|^2 - r_in^2 <= tau.  Why tau covers the rounding of both paths:

    - Both paths start from the same floats for B and O', and a float
      difference such as O - O' is rounded relative to its own size, so
      every squared length here is off by a few eps relative to r_out^2.
    - The slide compares the distance s_o to O with a root s_exit of
      h(s) = |O' - B + s u|^2 - r^2 (r = r_out, or r_in for the entry into
      the hole), and h(s_o), the margin compared here, equals
      (s_o - s_exit)(s_o - s_other): the slide's error times a chord.  At
      a tangency, a start on the reach circle among them, the square root
      amplifies the discriminant's rounding to about sqrt(eps) r_out in
      s_exit, but the chord is then as short, so the margin the slide can
      get wrong stays a few eps r_out^2, some 1e6 times inside tau.  The
      slide's 8 eps tangency test lies inside tau too.
    - The slide has two absolute rules.  A start within 1e-9 m of O always
      passes, and an entry root a1 > -1e-15 counts as entering the hole,
      where a1 < 0 only if O' lies on the hole's circle up to rounding.
      The last two bands hand both cases to ``static_gaps``.

    Raises ValueError for an array of another shape than (m, 3).
    """
    designs = _design_rows(designs)
    l_oa, l_ab, l_bc = np.ascontiguousarray(designs.T)
    bx, by, opx, opy = _slide_starts(l_oa, l_ab, l_bc, _slide_frames(cfg, task), cfg)
    ox, oy = cfg.pivot_o

    wx, wy = opx - bx, opy - by  # B -> O'
    dx, dy = ox - opx, oy - opy  # O' -> O, the slide
    gx, gy = ox - bx, oy - by  # B -> O
    r_out = l_ab + l_oa
    r_out2 = r_out * r_out
    r_in = l_ab - l_oa
    r_in2 = r_in * r_in
    dd = dx * dx + dy * dy
    g2 = gx * gx + gy * gy
    q = wx * dx + wy * dy
    cross = wx * dy - wy * dx
    mid = (q < 0.0) & (-q < dd)  # the closest approach to B lies inside the slide
    near2 = np.divide(cross * cross, dd, out=g2.copy(), where=mid)
    reach = g2 - r_out2  # <= 0: O inside the reach disc
    hole = near2 - r_in2  # >= 0: the slide misses the hole
    passes = (reach <= 0.0) & (hole >= 0.0)

    # |O' - B|^2 - r_in^2 is >= 0 up to rounding, so a plain minimum bands it
    margin = np.minimum(np.minimum(np.abs(reach), np.abs(hole)), np.minimum(dd, wx * wx + wy * wy - r_in2))
    undecided = margin <= _MASK_BAND_REL * r_out2 + (2.0 * _DEGENERATE_START) ** 2
    if undecided.any():
        rows = undecided.any(axis=0)
        passes[undecided] = (static_gaps(designs[rows], cfg, task) <= 0.0)[undecided[:, rows]]
    return passes[0] & passes[1]


def dynamic_constraint(stroke: Stroke) -> DynamicConstraintResult:
    """Crank-angle range travelled against the net direction of the stroke.

    Zero when the crank rate keeps one sign over the whole stroke.
    Otherwise the violators are the samples whose rate opposes the sign of
    the net crank displacement (rates below 1e-12 are rest, not reversal)
    and the value is max(theta) - min(theta) over them.

    Raises EmptyTrajectory on empty input.
    """
    if len(stroke) == 0:
        raise EmptyTrajectory("dynamic_constraint needs at least one sample")
    return _crank_reversal(stroke.theta, stroke.theta_dot)


def _keeps_sign(rates: np.ndarray) -> np.ndarray:
    """Whether the crank rates of a stroke keep one sign, per column of (n, k) rates."""
    return (rates >= 0.0).all(axis=0) | (rates <= 0.0).all(axis=0)


def _crank_reversal(theta: np.ndarray, rates: np.ndarray) -> DynamicConstraintResult:
    """The rule of ``dynamic_constraint`` on a stroke's angle and rate columns."""
    net = theta[-1] - theta[0]
    reference_sign = 1 if net >= 0.0 else -1
    if _keeps_sign(rates):
        return DynamicConstraintResult(0.0, reference_sign)
    against = rates < 0.0 if reference_sign > 0 else rates > 0.0
    bad = against & (np.abs(rates) > _RATE_EPS)
    if not bad.any():
        return DynamicConstraintResult(0.0, reference_sign)
    values = theta[bad]
    return DynamicConstraintResult(float(values.max() - values.min()), reference_sign)


def _walk_and_cost(blocks: Iterable, gaps: list, cfg: MechanismConfig, task: MotionTask):
    """(bundle, t_rms or None) of each design past the static gate, block by block.

    A block is one design or a ``_Lengths``; ``gaps`` holds the gap pairs in
    block order.  Only a reversing crank's angle is taken, and exactly the
    feasible designs are costed, none with a singular sample, on their
    columns of the walk's rates and joint geometry.  Raises ValueError, as
    ``torque_profile`` does, for joints off the coupler.
    """
    columns = _walk_columns(cfg, task)
    steps = _task_steps(task)
    scored: list[tuple[ConstraintBundle, float | None]] = []
    # one loop keeps a block's arrays alive until the next block's replace them: freed
    # at each return, the heap was trimmed and regrown, and a 13^3 sweep took 10% longer
    for design in blocks:
        walked = _walk(design, cfg, columns)
        theta_dot, theta_ddot, _, failed, geometry = walked[4:]
        rax, ray = geometry[:2]  # A - O
        solved = ~failed.any(axis=0)
        c_dyn = [0.0 if ok else None for ok in solved.tolist()]
        for j in np.flatnonzero(solved & ~_keeps_sign(theta_dot)).tolist():
            c_dyn[j] = _crank_reversal(_crank_angle(rax[:, j], ray[:, j]), theta_dot[:, j]).value
        bundles = [ConstraintBundle(*gap, c) for gap, c in zip(gaps[len(scored) :], c_dyn)]
        objective: list[float | None] = [None] * len(bundles)
        costed = [j for j, bundle in enumerate(bundles) if bundle.feasible]
        if costed:
            rates = theta_dot, theta_ddot
            if len(costed) < len(bundles):  # only a block of several has uncosted columns
                design = _Lengths(*(length[costed] for length in design))
                rates, geometry = ([c[:, costed] for c in cs] for cs in (rates, geometry))
            _, t_rms, singular = _cycle_torque(design, cfg, task, steps, geometry, *rates)
            for j, value, uncosted in zip(costed, t_rms.tolist(), singular.any(axis=0).tolist()):
                objective[j] = None if uncosted else value
        scored.extend(zip(bundles, objective))
    return scored


def evaluate_design(
    design: DesignParams, cfg: MechanismConfig, task: MotionTask
) -> EvaluationRecord:
    """Run the full constraint-then-objective pipeline for one design.

    Gate order: static gaps at both stroke endpoints first; only when both
    are non-positive is the stroke trajectory attempted, and only a
    defect-free trajectory (zero dynamic constraint) is costed for RMS
    torque.  Designs that fail early simply carry missing downstream
    observations; this function never raises for an infeasible design.
    The gate is two ``static_gap`` calls, about 9 us, a fifth of
    ``static_gaps`` on one row; the body after it is the one
    ``evaluate_designs`` runs.
    """
    gaps = (static_gap(design, cfg, task, "i").value, static_gap(design, cfg, task, "e").value)
    if gaps[0] <= 0.0 and gaps[1] <= 0.0:
        return EvaluationRecord(design, *_walk_and_cost([design], [gaps], cfg, task)[0])
    return EvaluationRecord(design, ConstraintBundle(*gaps, None))


def evaluate_designs(
    designs: np.ndarray, cfg: MechanismConfig, task: MotionTask
) -> list[EvaluationRecord]:
    """``evaluate_design`` for every row (l_oa, l_ab, l_bc) of an (m, 3) array.

    One record per row, in row order, each ``==`` the one ``evaluate_design``
    returns.  Only the gate differs: one ``static_gaps`` pass, about 50 us
    plus 0.4 us a row, gates all rows, and the rows that pass go through
    the same body in blocks of about 8,192 samples.

    Raises ValidationError for a row that is not a valid design, and
    ValueError for an array of another shape or, as ``torque_profile``
    does, when walked joints do not close the coupler.
    """
    designs = _design_rows(designs)
    params = [DesignParams(*row) for row in designs.tolist()]
    gaps = list(zip(*static_gaps(designs, cfg, task).tolist()))
    walked = [r for r, (gap_i, gap_e) in enumerate(gaps) if gap_i <= 0.0 and gap_e <= 0.0]
    step = max(1, _BLOCK_SAMPLES // task.n_samples)
    blocks = (_Lengths(*designs[walked[k : k + step]].T) for k in range(0, len(walked), step))
    scored = dict(zip(walked, _walk_and_cost(blocks, [gaps[r] for r in walked], cfg, task)))
    return [EvaluationRecord(design, *(scored.get(r) or (ConstraintBundle(*gaps[r], None), None)))
            for r, design in enumerate(params)]


def __getattr__(name: str):
    # perfbench, their only reader, wraps these to time the kinematics and dynamics layers.
    # The import binds torque_profile already; its entry is that import's only reference
    layers = {"_transform_full": kinematic_transform, "torque_profile": torque_profile}
    if name in layers:
        return layers[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
