import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbar_synth import kinematics
from fourbar_synth.constraints import evaluate_design
from fourbar_synth.kinematics import (
    Posture,
    kinematic_coefficients,
    kinematic_transform,
    motion_profile,
    solve_fk,
    solve_ik,
    validate_baseline,
)
from fourbar_synth.model import (
    BaselineDefective,
    BaselineInfeasible,
    CrankIndeterminate,
    DesignParams,
    MechanismConfig,
    NotAssemblable,
    SingularPosture,
    TransformUnsolvable,
)

from conftest import crank_pivot_pass, make_canon_cfg, make_canon_task


def fk_elbow(posture, cfg):
    # branch tag as solve_fk sees it: sign of cross(C - A, B - A)
    ax, ay = posture.point_a
    bx, by = posture.point_b
    cx, cy = cfg.pivot_c
    cross = (cx - ax) * (by - ay) - (cy - ay) * (bx - ax)
    return "plus" if cross > 0.0 else "minus"


def test_ik_touch_pose_exact_triangle(canon_cfg):
    # 3-4-5 triangle scaled by 0.02: A lands on (0.06, 0.08) exactly
    p = solve_ik(canon_cfg.baseline, canon_cfg, math.pi / 2, "plus")
    assert p.point_b == pytest.approx((0.30, 0.15), abs=1e-15)
    assert p.point_a == pytest.approx((0.06, 0.08), abs=1e-12)
    assert p.theta == pytest.approx(math.atan2(0.08, 0.06), abs=1e-12)
    assert p.delta == math.pi / 2
    # rocker C->B points straight up at delta = pi/2 with no effector offset
    cx, cy = canon_cfg.pivot_c
    assert (p.point_b[0] - cx, p.point_b[1] - cy) == pytest.approx((0.0, 0.15), abs=1e-15)
    assert p.elbow == "plus"


def test_ik_minus_branch_mirrors_crank_pin(canon_cfg):
    plus = solve_ik(canon_cfg.baseline, canon_cfg, math.pi / 2, "plus")
    minus = solve_ik(canon_cfg.baseline, canon_cfg, math.pi / 2, "minus")
    assert minus.point_b == pytest.approx(plus.point_b, abs=1e-15)
    assert minus.point_a != pytest.approx(plus.point_a, abs=1e-6)
    bx, by = minus.point_b
    ax, ay = minus.point_a
    assert bx * ay - by * ax < 0.0


def test_ik_branch_cross_sign(canon_cfg):
    for deg in (95.0, 120.0, 145.0):
        p = solve_ik(canon_cfg.baseline, canon_cfg, math.radians(deg), "plus")
        bx, by = p.point_b
        ax, ay = p.point_a
        assert bx * ay - by * ax > 0.0


def test_ik_circle_residuals(canon_cfg):
    design = canon_cfg.baseline
    for deg in (92.0, 110.0, 133.0, 148.0):
        p = solve_ik(design, canon_cfg, math.radians(deg), "plus")
        ax, ay = p.point_a
        bx, by = p.point_b
        assert math.hypot(ax, ay) == pytest.approx(design.l_oa, abs=1e-12)
        assert math.hypot(bx - ax, by - ay) == pytest.approx(design.l_ab, abs=1e-12)
        cx, cy = canon_cfg.pivot_c
        assert math.hypot(bx - cx, by - cy) == pytest.approx(design.l_bc, abs=1e-12)


def test_ik_unreachable_raises(canon_cfg):
    short_crank = DesignParams(l_oa=0.02, l_ab=0.25, l_bc=0.15)
    with pytest.raises(NotAssemblable):
        solve_ik(short_crank, canon_cfg, math.pi / 2, "plus")


def test_ik_tangency_single_solution():
    # |OB| = 4 = l_oa + l_ab exactly, so both elbows collapse onto A=(2,0)
    cfg = MechanismConfig(pivot_c=(1.0, 0.0), baseline=DesignParams(2.0, 2.0, 3.0), branch="plus")
    design = cfg.baseline
    plus = solve_ik(design, cfg, 0.0, "plus")
    minus = solve_ik(design, cfg, 0.0, "minus")
    assert plus.point_a == (2.0, 0.0)
    assert plus.point_b == (4.0, 0.0)
    assert plus.theta == 0.0
    # crank and coupler stretched into one line: A sits between O and B
    (ox, oy), (ax, ay), (bx, by) = cfg.pivot_o, plus.point_a, plus.point_b
    assert (ox - ax) * (by - ay) - (oy - ay) * (bx - ax) == 0.0
    assert (ox - ax) * (bx - ax) + (oy - ay) * (by - ay) < 0.0
    assert minus.point_a == plus.point_a
    assert minus.theta == plus.theta


def test_fk_tangency_single_solution():
    # |AC| = 3 = l_ab + l_bc exactly: rocker pin pinned at (2.5, 0)
    cfg = MechanismConfig(pivot_c=(4.0, 0.0), baseline=DesignParams(1.0, 1.5, 1.5), branch="plus")
    design = cfg.baseline
    p = solve_fk(design, cfg, 0.0, "plus")
    assert p.point_a == (1.0, 0.0)
    assert p.point_b == (2.5, 0.0)
    # coupler and rocker stretched into one line: B sits between A and C
    (ax, ay), (bx, by), (cx, cy) = p.point_a, p.point_b, cfg.pivot_c
    assert (ax - bx) * (cy - by) - (ay - by) * (cx - bx) == 0.0
    assert (ax - bx) * (cx - bx) + (ay - by) * (cy - by) < 0.0
    assert p.delta == pytest.approx(math.pi, abs=1e-15)
    m = solve_fk(design, cfg, 0.0, "minus")
    assert m.point_b == p.point_b


@pytest.mark.parametrize("l_ab", [1.0, 0.5])
def test_coincident_centres_do_not_assemble(l_ab):
    # B(0) = C + (1, 0) lands on O, and A(0) = O + (1, 0) lands on C: the
    # circles share a centre, so neither solver has a chord to intersect on
    cfg = MechanismConfig(pivot_c=(-1.0, 0.0), baseline=DesignParams(1.0, l_ab, 1.0), branch="plus")
    with pytest.raises(NotAssemblable):
        solve_ik(cfg.baseline, cfg, 0.0, "plus")
    cfg = dataclasses.replace(cfg, pivot_c=(1.0, 0.0))
    with pytest.raises(NotAssemblable):
        solve_fk(cfg.baseline, cfg, 0.0, "minus")


@settings(max_examples=200, deadline=None)
@given(
    delta=st.floats(min_value=math.radians(88.0), max_value=math.radians(172.0)),
    elbow=st.sampled_from(["plus", "minus"]),
)
def test_fk_inverts_ik(delta, elbow):
    cfg = make_canon_cfg()
    p = solve_ik(cfg.baseline, cfg, delta, elbow)
    q = solve_fk(cfg.baseline, cfg, p.theta, fk_elbow(p, cfg))
    assert q.delta == pytest.approx(delta, abs=1e-9)
    assert q.point_a == pytest.approx(p.point_a, abs=1e-9)
    assert q.point_b == pytest.approx(p.point_b, abs=1e-9)


def test_velocity_ratio_touch_pose(canon_cfg):
    # rigid-coupler velocity balance at the 3-4-5 pose gives exactly 12/5
    p = solve_ik(canon_cfg.baseline, canon_cfg, math.pi / 2, "plus")
    coeff = kinematic_coefficients(p, canon_cfg.baseline, canon_cfg)
    assert coeff.dtheta_ddelta == pytest.approx(2.4, abs=1e-9)
    assert coeff.d2theta_ddelta2 == pytest.approx(-8.48, abs=1e-12)


def test_first_coefficient_matches_finite_difference(canon_cfg):
    design = canon_cfg.baseline
    h = 1e-6
    for deg in (95.0, 112.0, 130.0, 149.0):
        delta = math.radians(deg)
        p = solve_ik(design, canon_cfg, delta, "plus")
        coeff = kinematic_coefficients(p, design, canon_cfg)
        lo = solve_ik(design, canon_cfg, delta - h, "plus")
        hi = solve_ik(design, canon_cfg, delta + h, "plus")
        assert coeff.dtheta_ddelta == pytest.approx((hi.theta - lo.theta) / (2 * h), abs=1e-6)
        # second coefficient against a central difference of the first
        r_lo = kinematic_coefficients(lo, design, canon_cfg).dtheta_ddelta
        r_hi = kinematic_coefficients(hi, design, canon_cfg).dtheta_ddelta
        assert coeff.d2theta_ddelta2 == pytest.approx((r_hi - r_lo) / (2 * h), abs=1e-7)


def test_motion_profile_rest_to_rest(canon_task):
    t, s, sd, sdd = motion_profile(canon_task)
    assert len(t) == len(s) == len(sd) == len(sdd) == canon_task.n_samples
    t0, s0, sd0, sdd0 = t[0], s[0], sd[0], sdd[0]
    tn, sn, sdn, sddn = t[-1], s[-1], sd[-1], sdd[-1]
    assert (t0, s0, sd0, sdd0) == (0.0, 0.0, 0.0, 0.0)
    assert tn == pytest.approx(canon_task.t_move, abs=1e-15)
    assert (sn, sdn, sddn) == (1.0, 0.0, 0.0)
    assert s[len(s) // 2] == pytest.approx(0.5, abs=1e-15)
    peak = sd.max()
    assert peak == pytest.approx(15.0 / 8.0 / canon_task.t_move, abs=1e-12)


def test_motion_profile_symmetry(canon_task):
    s = motion_profile(canon_task)[1]
    n = len(s)
    for k in range(n):
        assert s[k] + s[n - 1 - k] == pytest.approx(1.0, abs=1e-14)


def test_transform_samples_canon(canon_cfg, canon_task):
    stroke = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    assert len(stroke) == canon_task.n_samples
    columns = (stroke.t, stroke.delta, stroke.delta_dot, stroke.delta_ddot,
               stroke.theta, stroke.theta_dot, stroke.theta_ddot)
    assert all(c.shape == (canon_task.n_samples,) for c in columns)
    assert stroke.point_a.shape == stroke.point_b.shape == (canon_task.n_samples, 2)
    assert stroke.delta[0] == pytest.approx(canon_task.delta_e, abs=1e-15)
    assert stroke.delta[-1] == pytest.approx(canon_task.delta_i, abs=1e-15)
    mid = len(stroke) // 2
    assert stroke.delta[mid] == pytest.approx(canon_task.delta_mid, abs=1e-14)
    # rest-to-rest law pins the crank state at both ends
    for k in (0, -1):
        assert stroke.delta_dot[k] == 0.0
        assert stroke.theta_dot[k] == 0.0
        assert stroke.theta_ddot[k] == 0.0
    assert (stroke.delta_dot >= 0.0).all()
    assert (np.diff(stroke.t) > 0.0).all()


def test_transform_matches_direct_ik(canon_cfg, canon_task):
    stroke = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    for delta, theta in zip(stroke.delta.tolist(), stroke.theta.tolist()):
        p = solve_ik(canon_cfg.baseline, canon_cfg, delta, "plus")
        assert theta == pytest.approx(p.theta, abs=1e-10)
    assert np.abs(np.diff(stroke.theta)).max() < 0.05


def test_transform_rates_match_time_differences(canon_cfg):
    task = make_canon_task(n_samples=2001)
    stroke = kinematic_transform(canon_cfg.baseline, canon_cfg, task)
    h = stroke.t[1] - stroke.t[0]
    for k in range(3, len(stroke) - 3):
        fd_vel = (stroke.theta[k + 1] - stroke.theta[k - 1]) / (2 * h)
        assert stroke.theta_dot[k] == pytest.approx(fd_vel, abs=1e-4)
        fd_acc = (stroke.theta_dot[k + 1] - stroke.theta_dot[k - 1]) / (2 * h)
        assert stroke.theta_ddot[k] == pytest.approx(fd_acc, abs=1e-3)


def test_validate_baseline_canon(canon_cfg, canon_task):
    stroke = validate_baseline(canon_cfg, canon_task)
    assert len(stroke) == canon_task.n_samples
    assert stroke.delta[0] == pytest.approx(canon_task.delta_e, abs=1e-15)
    assert stroke.delta[-1] == pytest.approx(canon_task.delta_i, abs=1e-15)
    assert (np.diff(stroke.theta) > 0.0).all()


def test_validate_baseline_unreachable(canon_cfg, canon_task):
    bad = dataclasses.replace(canon_cfg, baseline=DesignParams(0.02, 0.05, 0.15))
    with pytest.raises(BaselineInfeasible) as exc:
        validate_baseline(bad, canon_task)
    assert exc.value.delta == pytest.approx(canon_task.delta_mid, abs=1e-12)


def test_validate_baseline_nonmonotonic(canon_cfg, canon_task):
    wobbly = dataclasses.replace(
        canon_cfg, baseline=DesignParams(0.244710222, 0.133037882, 0.166103598)
    )
    with pytest.raises(BaselineDefective):
        validate_baseline(wobbly, canon_task)


def test_transform_samples_carry_their_joints(canon_cfg, canon_task):
    stroke = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    rows = zip(stroke.delta.tolist(), stroke.theta.tolist(),
               stroke.point_a.tolist(), stroke.point_b.tolist())
    for delta, theta, point_a, point_b in rows:
        p = solve_ik(canon_cfg.baseline, canon_cfg, delta, "plus")
        assert tuple(point_a) == p.point_a
        assert tuple(point_b) == p.point_b
        assert theta == math.atan2(point_a[1], point_a[0])


def test_validate_baseline_wrapped_crank(canon_cfg, canon_task):
    # the crank passes theta = pi inside this stroke; its angle continues
    # across it, so the stroke is monotonic and evaluates feasible
    wrapped = dataclasses.replace(
        canon_cfg,
        baseline=DesignParams(0.18574091600846127, 0.3327444862266863, 0.2095751370653121),
    )
    stroke = validate_baseline(wrapped, canon_task)
    assert len(stroke) == canon_task.n_samples
    assert (np.abs(np.diff(stroke.theta)) < math.pi).all()
    assert -math.pi < stroke.theta[len(stroke) // 2] <= math.pi
    assert stroke.theta.max() > math.pi
    assert evaluate_design(wrapped.baseline, wrapped, canon_task).constraints.feasible


def test_validate_baseline_interior_dead_point(canon_task):
    # crank and coupler stretch into one line at mid-stroke: the effector
    # cannot drive the crank through it, so validation fails like evaluation
    cfg = MechanismConfig(
        pivot_c=(0.25, 0.0),
        baseline=DesignParams(0.125, 0.375, 0.25),
        branch="plus",
        effector_offset=canon_task.delta_mid,
    )
    with pytest.raises(BaselineInfeasible) as exc:
        validate_baseline(cfg, canon_task)
    assert exc.value.delta == pytest.approx(canon_task.delta_mid, abs=1e-12)
    assert str(exc.value) == f"baseline meets a crank-coupler dead point at delta={exc.value.delta!r}"
    assert evaluate_design(cfg.baseline, cfg, canon_task).constraints.c_dyn is None


DEFECTIVE = DesignParams(0.244710222, 0.133037882, 0.166103598)
WRAPPED = DesignParams(0.18574091600846127, 0.3327444862266863, 0.2095751370653121)


def stroke_deltas(task):
    span = task.delta_i - task.delta_e
    return (task.delta_e + motion_profile(task)[1] * span).tolist()


def reach(cfg, delta, l_bc):
    """|B - O| at an effector angle; O at the origin, no effector offset."""
    cx, cy = cfg.pivot_c
    return math.hypot(cx + l_bc * math.cos(delta), cy + l_bc * math.sin(delta))


def crank_pins(design, cfg, delta):
    """The distinct crank pins at an effector angle, the "plus" label first."""
    bx, by = kinematics._rocker_tip(cfg, design, kinematics._rocker_direction(cfg, delta))
    pins = []
    for label in ("plus", "minus"):
        x, y, ok = kinematics._intersect(*cfg.pivot_o, design.l_oa, bx, by, design.l_ab, label)
        if ok and (x, y) not in pins:
            pins.append((float(x), float(y)))
    return pins


def test_interior_tangency_is_a_dead_point(canon_cfg, canon_task):
    # the crank circle just touches the coupler circle at sample 40, inside
    # the tangency band: the pin assembles there but the dead point ends the
    # walk, and samples further down never assemble
    deltas = stroke_deltas(canon_task)
    k = 40
    design = DesignParams(0.1, reach(canon_cfg, deltas[k], 0.15) - 0.1 - 1e-13, 0.15)
    assert len(crank_pins(design, canon_cfg, deltas[k])) == 1
    assert crank_pins(design, canon_cfg, deltas[k - 1]) == []
    assert len(crank_pins(design, canon_cfg, deltas[k + 1])) == 2
    with pytest.raises(TransformUnsolvable) as exc:
        kinematic_transform(design, canon_cfg, canon_task)
    assert exc.value.delta == deltas[k]
    assert str(exc.value) == f"crank-coupler dead point at delta={deltas[k]!r} inside the stroke"


def test_dead_point_at_stroke_end_rests_the_crank(canon_cfg, canon_task):
    deltas = stroke_deltas(canon_task)
    design = DesignParams(0.1, reach(canon_cfg, deltas[0], 0.15) - 0.1 - 1e-13, 0.15)
    (pin,) = crank_pins(design, canon_cfg, deltas[0])
    tip = kinematics._rocker_tip(canon_cfg, design, kinematics._rocker_direction(canon_cfg, deltas[0]))
    end = Posture(0.0, deltas[0], pin, tip, "plus")
    with pytest.raises(SingularPosture):
        kinematic_coefficients(end, design, canon_cfg)
    stroke = kinematic_transform(design, canon_cfg, canon_task)
    assert stroke.theta_dot[0] == 0.0 and stroke.theta_ddot[0] == 0.0
    assert tuple(stroke.point_a[0]) == pin
    assert stroke.theta_dot[1] != 0.0


def test_failure_in_both_halves_reports_the_upper_one(canon_cfg, canon_task):
    # reachable |B - O| is [0.2, 0.32]: the stroke leaves it at both ends,
    # and the walk meets the upper half first
    design = DesignParams(0.06, 0.26, 0.15)
    deltas = stroke_deltas(canon_task)
    mid = len(deltas) // 2
    lost = [k for k, d in enumerate(deltas) if not 0.2 <= reach(canon_cfg, d, 0.15) <= 0.32]
    assert min(lost) < mid < max(lost)
    with pytest.raises(TransformUnsolvable) as exc:
        kinematic_transform(design, canon_cfg, canon_task)
    assert exc.value.delta == deltas[min(k for k in lost if k > mid)]


def test_mid_stroke_failure_is_the_first_in_walk_order(canon_cfg, canon_task):
    # |B - O| falls along the stroke and the chain reaches just short of its
    # mid-stroke value: the mid sample and the whole lower half fail, and
    # the walk meets the mid sample first
    deltas = stroke_deltas(canon_task)
    mid = len(deltas) // 2
    design = DesignParams(0.06, reach(canon_cfg, deltas[mid], 0.15) - 0.06 - 1e-6, 0.15)
    assert crank_pins(design, canon_cfg, deltas[mid]) == []
    assert crank_pins(design, canon_cfg, deltas[0]) == []
    assert len(crank_pins(design, canon_cfg, deltas[mid + 1])) == 2
    with pytest.raises(TransformUnsolvable) as exc:
        kinematic_transform(design, canon_cfg, canon_task)
    assert exc.value.delta == deltas[mid]
    with pytest.raises(BaselineInfeasible) as exc:
        validate_baseline(dataclasses.replace(canon_cfg, baseline=design), canon_task)
    assert exc.value.delta == deltas[mid]
    assert str(exc.value) == f"baseline not assemblable at delta={deltas[mid]!r}"


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_walk_label_at_seed_is_the_branch(canon_cfg, canon_task, branch):
    cfg = dataclasses.replace(canon_cfg, branch=branch)
    stroke = kinematic_transform(cfg.baseline, cfg, canon_task)
    mid = len(stroke) // 2
    pins = crank_pins(cfg.baseline, cfg, float(stroke.delta[mid]))
    label = pins[0] if branch == "plus" else pins[1]
    assert tuple(stroke.point_a[mid]) == label
    assert label == solve_ik(cfg.baseline, cfg, float(stroke.delta[mid]), branch).point_a


def test_stroke_columns_cannot_corrupt_the_motion_law(canon_cfg, canon_task):
    law = kinematics._motion_law(canon_task)
    stroke = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    columns = (stroke.t, stroke.delta, stroke.delta_dot, stroke.delta_ddot, stroke.theta,
               stroke.theta_dot, stroke.theta_ddot, stroke.point_a, stroke.point_b)
    for column in (*law, *columns):
        with pytest.raises(ValueError):
            column[1] = 7.0
    assert stroke.t is law[0]
    assert stroke.delta.tolist() == stroke_deltas(canon_task)


def continuation_walk(design, cfg, task):
    """The scalar walk the array walk replaced: seed, then nearest pin.

    The seed takes the mid-stroke pin whose cross(B - O, A - O) has the
    branch's sign, every other sample the pin nearest its neighbour's, so
    no sample relies on the intersection label.  Returns the theta,
    theta_dot, theta_ddot, A and B columns as lists.
    """
    _t, _s, sd, sdd = (c.tolist() for c in motion_profile(task))
    span = task.delta_i - task.delta_e
    deltas = stroke_deltas(task)
    n = len(deltas)
    mid = n // 2
    ox, oy = cfg.pivot_o
    sign = 1.0 if cfg.branch == "plus" else -1.0
    out = [None] * n
    for k in [*range(mid, n), *range(mid - 1, -1, -1)]:
        b_pt = kinematics._rocker_tip(cfg, design, kinematics._rocker_direction(cfg, deltas[k]))
        pts = crank_pins(design, cfg, deltas[k])
        if not pts:
            raise TransformUnsolvable(deltas[k])
        if k == mid:
            rx, ry = b_pt[0] - ox, b_pt[1] - oy
            a_pt = max(pts, key=lambda q: sign * (rx * (q[1] - oy) - ry * (q[0] - ox)))
            theta = math.atan2(a_pt[1] - oy, a_pt[0] - ox)
        else:
            prev_theta, _, _, pa, _ = out[k - 1] if k > mid else out[k + 1]
            a_pt = min(pts, key=lambda q: (q[0] - pa[0]) ** 2 + (q[1] - pa[1]) ** 2)
            theta = math.atan2(a_pt[1] - oy, a_pt[0] - ox)
            theta += math.tau * round((prev_theta - theta) / math.tau)
        ddot, dddot = sd[k] * span, sdd[k] * span
        try:
            c = kinematic_coefficients(Posture(theta, deltas[k], a_pt, b_pt, cfg.branch), design, cfg)
            rates = (c.dtheta_ddelta * ddot, c.d2theta_ddelta2 * ddot * ddot + c.dtheta_ddelta * dddot)
        except SingularPosture:
            if 0 < k < n - 1:
                raise TransformUnsolvable(deltas[k]) from None
            rates = (0.0, 0.0)
        out[k] = (theta, *rates, a_pt, b_pt)
    return [list(col) for col in zip(*out)]


def walk_outcome(walk, design, cfg, task):
    try:
        return walk(design, cfg, task)
    except TransformUnsolvable as exc:
        return exc.delta


def test_array_walk_equals_the_continuation(canon_cfg, canon_task):
    rng = np.random.default_rng(6)
    designs = [DEFECTIVE, WRAPPED, canon_cfg.baseline]
    designs += [DesignParams(*rng.uniform(0.02, 0.6, size=3)) for _ in range(150)]
    designs += [DesignParams(*(np.array(canon_cfg.baseline.as_tuple()) * rng.uniform(0.9, 1.1, 3)))
                for _ in range(50)]
    mid_delta = stroke_deltas(canon_task)[canon_task.n_samples // 2]
    kinds = set()
    for design in designs:
        want = walk_outcome(continuation_walk, design, canon_cfg, canon_task)
        got = walk_outcome(kinematic_transform, design, canon_cfg, canon_task)
        if isinstance(want, list):
            s = got
            assert [s.theta.tolist(), s.theta_dot.tolist(), s.theta_ddot.tolist(),
                    [tuple(p) for p in s.point_a.tolist()],
                    [tuple(p) for p in s.point_b.tolist()]] == want, design
            kinds.add("walkable")
            if (s.theta_dot > 0.0).any() and (s.theta_dot < 0.0).any():
                kinds.add("defective")
            if np.abs(s.theta).max() > math.pi:
                kinds.add("wrapped")
        else:
            assert got == want, design
            kinds.add("fails at mid" if want == mid_delta else "unsolvable")
    assert kinds == {"walkable", "defective", "wrapped", "fails at mid", "unsolvable"}


def test_a_rocker_tip_on_the_crank_pivot_with_equal_crank_and_coupler_is_refused():
    # B starts on O and l_ab == l_oa: the walk took the side of A that the
    # rounding of B - O set, and its crank angle jumped from 5.21 to 3.14 rad
    # between the first two samples, with no error
    cfg, task = crank_pivot_pass()
    with pytest.raises(BaselineInfeasible, match="crank pin undetermined") as exc:
        validate_baseline(cfg, task)
    assert exc.value.delta == 0.0 and isinstance(exc.value.__cause__, CrankIndeterminate)
    with pytest.raises(CrankIndeterminate):
        kinematic_transform(cfg.baseline, cfg, task)
    # scored as a design, it is unsolvable, as every failed walk is
    record = evaluate_design(cfg.baseline, cfg, task)
    assert record.constraints.c_dyn is None and record.objective is None
    # a coupler 2e-9 shorter than the crank misses the crank circle there
    shorter = dataclasses.replace(cfg.baseline, l_ab=cfg.baseline.l_oa * (1.0 - 2e-9))
    with pytest.raises(TransformUnsolvable) as exc:
        kinematic_transform(shorter, cfg, task)
    assert type(exc.value) is TransformUnsolvable and exc.value.delta == 0.0
