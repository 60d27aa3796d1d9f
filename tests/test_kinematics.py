import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourbar_synth.constraints import evaluate_design
from fourbar_synth.kinematics import (
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
    DesignParams,
    MechanismConfig,
    NotAssemblable,
)

from conftest import make_canon_cfg, make_canon_task


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
    assert p.rocker_angle == pytest.approx(math.pi / 2, abs=1e-15)
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
    assert abs(plus.alpha) == pytest.approx(math.pi, abs=1e-15)
    assert minus.point_a == plus.point_a
    assert minus.theta == plus.theta


def test_fk_tangency_single_solution():
    # |AC| = 3 = l_ab + l_bc exactly: rocker pin pinned at (2.5, 0)
    cfg = MechanismConfig(pivot_c=(4.0, 0.0), baseline=DesignParams(1.0, 1.5, 1.5), branch="plus")
    design = cfg.baseline
    p = solve_fk(design, cfg, 0.0, "plus")
    assert p.point_a == (1.0, 0.0)
    assert p.point_b == (2.5, 0.0)
    assert abs(p.beta) == pytest.approx(math.pi, abs=1e-15)
    assert p.delta == pytest.approx(math.pi, abs=1e-15)
    m = solve_fk(design, cfg, 0.0, "minus")
    assert m.point_b == p.point_b


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
    rows = motion_profile(canon_task)
    assert len(rows) == canon_task.n_samples
    t0, s0, sd0, sdd0 = rows[0]
    tn, sn, sdn, sddn = rows[-1]
    assert (t0, s0, sd0, sdd0) == (0.0, 0.0, 0.0, 0.0)
    assert tn == pytest.approx(canon_task.t_move, abs=1e-15)
    assert (sn, sdn, sddn) == (1.0, 0.0, 0.0)
    mid = rows[len(rows) // 2]
    assert mid[1] == pytest.approx(0.5, abs=1e-15)
    peak = max(r[2] for r in rows)
    assert peak == pytest.approx(15.0 / 8.0 / canon_task.t_move, abs=1e-12)


def test_motion_profile_symmetry(canon_task):
    rows = motion_profile(canon_task)
    n = len(rows)
    for k in range(n):
        assert rows[k][1] + rows[n - 1 - k][1] == pytest.approx(1.0, abs=1e-14)


def test_transform_samples_canon(canon_cfg, canon_task):
    samples = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    assert len(samples) == canon_task.n_samples
    assert samples[0].delta == pytest.approx(canon_task.delta_e, abs=1e-15)
    assert samples[-1].delta == pytest.approx(canon_task.delta_i, abs=1e-15)
    mid = samples[len(samples) // 2]
    assert mid.delta == pytest.approx(canon_task.delta_mid, abs=1e-14)
    # rest-to-rest law pins the crank state at both ends
    for s in (samples[0], samples[-1]):
        assert s.delta_dot == 0.0
        assert s.theta_dot == 0.0
        assert s.theta_ddot == 0.0
    assert all(s.delta_dot >= 0.0 for s in samples)
    ts = [s.t for s in samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_transform_matches_direct_ik(canon_cfg, canon_task):
    samples = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    for s in samples:
        p = solve_ik(canon_cfg.baseline, canon_cfg, s.delta, "plus")
        assert s.theta == pytest.approx(p.theta, abs=1e-10)
    thetas = [s.theta for s in samples]
    assert max(abs(b - a) for a, b in zip(thetas, thetas[1:])) < 0.05


def test_transform_rates_match_time_differences(canon_cfg):
    task = make_canon_task(n_samples=2001)
    samples = kinematic_transform(canon_cfg.baseline, canon_cfg, task)
    h = samples[1].t - samples[0].t
    for k in range(3, len(samples) - 3):
        fd_vel = (samples[k + 1].theta - samples[k - 1].theta) / (2 * h)
        assert samples[k].theta_dot == pytest.approx(fd_vel, abs=1e-4)
        fd_acc = (samples[k + 1].theta_dot - samples[k - 1].theta_dot) / (2 * h)
        assert samples[k].theta_ddot == pytest.approx(fd_acc, abs=1e-3)


def test_validate_baseline_canon(canon_cfg, canon_task):
    postures = validate_baseline(canon_cfg, canon_task)
    assert len(postures) == canon_task.n_samples
    assert postures[0].delta == pytest.approx(canon_task.delta_e, abs=1e-15)
    assert postures[-1].delta == pytest.approx(canon_task.delta_i, abs=1e-15)
    thetas = [p.theta for p in postures]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))


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
    samples = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    for s in samples:
        p = solve_ik(canon_cfg.baseline, canon_cfg, s.delta, "plus")
        assert s.point_a == pytest.approx(p.point_a, abs=1e-15)
        assert s.point_b == p.point_b
        assert s.theta == math.atan2(s.point_a[1], s.point_a[0])


def test_validate_baseline_wrapped_crank(canon_cfg, canon_task):
    # the crank passes theta = pi inside this stroke; its angle continues
    # across it, so the stroke is monotonic and evaluates feasible
    wrapped = dataclasses.replace(
        canon_cfg,
        baseline=DesignParams(0.18574091600846127, 0.3327444862266863, 0.2095751370653121),
    )
    samples = validate_baseline(wrapped, canon_task)
    assert len(samples) == canon_task.n_samples
    assert all(abs(b.theta - a.theta) < math.pi for a, b in zip(samples, samples[1:]))
    assert -math.pi < samples[len(samples) // 2].theta <= math.pi
    assert max(s.theta for s in samples) > math.pi
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
    assert evaluate_design(cfg.baseline, cfg, canon_task).constraints.c_dyn is None
