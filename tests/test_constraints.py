import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fourbar_synth import constraints
from fourbar_synth.constraints import (
    assembles,
    baseline_posture,
    dynamic_constraint,
    evaluate_design,
    evaluate_designs,
    static_gap,
    static_gaps,
)
from fourbar_synth import dynamics, kinematics
from fourbar_synth.dynamics import posture_terms, torque_profile
from fourbar_synth.kinematics import Posture, kinematic_transform, solve_ik
from fourbar_synth.model import (
    ConstraintBundle,
    DesignParams,
    EmptyTrajectory,
    EvaluationRecord,
    MechanismConfig,
    MotionTask,
    SingularState,
    TransformUnsolvable,
    ValidationError,
)
from fourbar_synth.oracle import brute_static_gap

from conftest import counting, fake_stroke, make_canon_cfg, make_canon_task, mass_variants, mechanisms


def rotate(pt, phi):
    c, s = math.cos(phi), math.sin(phi)
    return (c * pt[0] - s * pt[1], s * pt[0] + c * pt[1])


def test_baseline_posture_reproduces_chain(canon_cfg, canon_task):
    # rebuilding B -> A -> O with the stored relative angles must land on the
    # actual baseline joints
    for pose in ("i", "e"):
        alpha0, beta0 = baseline_posture(canon_cfg, canon_task, pose)
        delta = canon_task.delta_i if pose == "i" else canon_task.delta_e
        p = solve_ik(canon_cfg.baseline, canon_cfg, delta, canon_cfg.branch)
        ax, ay = p.point_a
        bx, by = p.point_b
        cx, cy = canon_cfg.pivot_c
        ubc = ((cx - bx) / canon_cfg.baseline.l_bc, (cy - by) / canon_cfg.baseline.l_bc)
        uba = rotate(ubc, beta0)
        assert uba == pytest.approx(
            ((ax - bx) / canon_cfg.baseline.l_ab, (ay - by) / canon_cfg.baseline.l_ab),
            abs=1e-12,
        )
        uao = rotate((-uba[0], -uba[1]), alpha0)
        assert uao == pytest.approx(
            ((0.0 - ax) / canon_cfg.baseline.l_oa, (0.0 - ay) / canon_cfg.baseline.l_oa),
            abs=1e-12,
        )


def test_static_gap_baseline_is_degenerate(canon_cfg, canon_task):
    # the baseline reassembles onto itself: O' starts at O at both poses
    gap_i = static_gap(canon_cfg.baseline, canon_cfg, canon_task, "i")
    gap_e = static_gap(canon_cfg.baseline, canon_cfg, canon_task, "e")
    assert gap_i.degenerate_start and gap_e.degenerate_start
    assert gap_i.o_prime_init == pytest.approx((0.0, 0.0), abs=1e-12)
    assert gap_e.o_prime_init == pytest.approx((0.0, 0.0), abs=1e-12)
    # compression pose: plenty of slack, clipped at the overshoot cap
    assert gap_i.value == pytest.approx(-0.02, abs=1e-12)
    # touch pose: B sits sqrt(0.1125) from O and the outer radius is 0.35
    assert gap_e.value == pytest.approx(-(0.35 - math.sqrt(0.1125)), abs=1e-14)


def test_static_gap_chain_reconstruction():
    # candidate sharing the rocker keeps B; scaled coupler and crank slide
    # A' and O' along the baseline bar directions
    cfg = MechanismConfig(pivot_c=(1.0, 0.0), baseline=DesignParams(1.0, 1.0, 1.0), branch="plus")
    task = MotionTask(
        delta_i=math.radians(150.0), delta_e=math.radians(120.0),
        t_move=0.5, t_dwell=0.0, n_samples=201,
    )
    p = solve_ik(cfg.baseline, cfg, task.delta_e, "plus")
    ax, ay = p.point_a
    bx, by = p.point_b
    candidate = DesignParams(l_oa=0.2, l_ab=0.3, l_bc=1.0)
    apx = bx + 0.3 * (ax - bx)
    apy = by + 0.3 * (ay - by)
    opx = apx + 0.2 * (0.0 - ax)
    opy = apy + 0.2 * (0.0 - ay)
    res = static_gap(candidate, cfg, task, "e")
    assert not res.degenerate_start
    assert res.o_prime_init == pytest.approx((opx, opy), abs=1e-12)

    # expected slide: straight toward O inside the annulus about B
    s_o = math.hypot(opx, opy)
    ux, uy = -opx / s_o, -opy / s_o
    wx, wy = opx - bx, opy - by
    w2 = wx * wx + wy * wy
    pr = wx * ux + wy * uy
    r_out = 0.5
    s_exit = -pr + math.sqrt(pr * pr - (w2 - r_out * r_out))
    disc_in = pr * pr - (w2 - 0.1 * 0.1)
    if disc_in > 0.0:
        a1 = -pr - math.sqrt(disc_in)
        if a1 > 0.0:
            s_exit = min(s_exit, a1)
    expected = s_o - min(s_exit, s_o + cfg.overshoot_cap)
    assert expected > 0.0  # |OB| = 1 exceeds the candidate reach 0.5
    assert res.value == pytest.approx(expected, abs=1e-12)


def test_static_gap_crank_only_change_overshoots():
    # shorter crank, same coupler: O' starts on the segment A->O and the
    # slide runs through O to the cap
    cfg = MechanismConfig(pivot_c=(1.0, 0.0), baseline=DesignParams(1.0, 1.0, 1.0), branch="plus")
    task = MotionTask(
        delta_i=math.radians(150.0), delta_e=math.radians(120.0),
        t_move=0.5, t_dwell=0.0, n_samples=201,
    )
    candidate = DesignParams(l_oa=0.7, l_ab=1.0, l_bc=1.0)
    res = static_gap(candidate, cfg, task, "e")
    assert not res.degenerate_start
    assert math.hypot(*res.o_prime_init) == pytest.approx(0.3, abs=1e-12)
    assert res.value == pytest.approx(-cfg.overshoot_cap, abs=1e-12)
    assert math.hypot(*res.o_prime_final) == pytest.approx(cfg.overshoot_cap, abs=1e-12)


@pytest.mark.parametrize(
    "design, pose, end",
    [
        ((0.13, 0.08, 0.41), "i", "outer"),  # stops short on the reach circle
        ((0.03, 0.32, 0.24), "e", "outer"),
        ((0.05, 0.12, 0.33), "i", "outer"),  # passes O, then leaves the reach disc
        ((0.4, 0.14, 0.19), "i", "hole"),  # stops short at the inner hole
        ((0.38, 0.03, 0.14), "e", "hole"),
        ((0.09, 0.39, 0.08), "e", "hole"),  # passes O, then enters the hole
        ((0.22, 0.22, 0.32), "i", "cap"),
        ((0.22, 0.19, 0.25), "e", "cap"),
        ((0.10, 0.25, 0.15), "i", "degenerate"),  # the baseline starts at O
        ((0.10, 0.25, 0.15), "e", "degenerate"),
    ],
)
def test_static_gap_final_point_is_where_the_slide_stops(canon_cfg, canon_task, design, pose, end):
    # o_prime_final, which CLI evaluate --pose prints, against the slide's geometry
    d = DesignParams(*design)
    res = static_gap(d, canon_cfg, canon_task, pose)
    ox, oy = canon_cfg.pivot_o
    ang = (canon_task.delta_i if pose == "i" else canon_task.delta_e) - canon_cfg.effector_offset
    bx = canon_cfg.pivot_c[0] + d.l_bc * math.cos(ang)
    by = canon_cfg.pivot_c[1] + d.l_bc * math.sin(ang)
    fx, fy = res.o_prime_final
    assert res.degenerate_start == (end == "degenerate")
    if end == "degenerate":
        # slid from O outward along the ray B -> O by the slack -value
        d_ob = math.hypot(ox - bx, oy - by)
        reach = (d_ob - res.value) / d_ob
        assert res.value < 0.0
        assert math.hypot(fx - ox, fy - oy) == pytest.approx(-res.value, abs=1e-12)
        assert (fx, fy) == pytest.approx((bx + reach * (ox - bx), by + reach * (oy - by)), abs=1e-12)
        return
    px, py = res.o_prime_init
    s_o = math.hypot(ox - px, oy - py)
    ux, uy = (ox - px) / s_o, (oy - py) / s_o
    slid = s_o - res.value
    assert (fx, fy) == pytest.approx((px + slid * ux, py + slid * uy), abs=1e-12)
    radius = math.hypot(fx - bx, fy - by)
    if end == "outer":
        assert radius == pytest.approx(d.l_ab + d.l_oa, abs=1e-12)
    elif end == "hole":
        assert radius == pytest.approx(abs(d.l_ab - d.l_oa), abs=1e-12)
    else:
        assert res.value == pytest.approx(-canon_cfg.overshoot_cap, abs=1e-12)
        assert math.hypot(fx - ox, fy - oy) == pytest.approx(canon_cfg.overshoot_cap, abs=1e-12)


def test_static_gap_short_crank_positive(canon_cfg, canon_task):
    short = DesignParams(0.02, 0.25, 0.15)
    assert static_gap(short, canon_cfg, canon_task, "e").value == pytest.approx(
        0.0755005567935635, abs=1e-12
    )
    assert static_gap(short, canon_cfg, canon_task, "i").value == pytest.approx(
        0.07273987582883219, abs=1e-12
    )


def test_static_gap_occluded_despite_triangle(canon_cfg, canon_task):
    # the two-bar reach annulus contains O, yet the straight slide is cut
    # off by the inner hole: triangle feasibility alone is not assemblability
    design = DesignParams(0.369624800, 0.117866128, 0.049981339)
    ang = canon_task.delta_i - canon_cfg.effector_offset
    bx = canon_cfg.pivot_c[0] + design.l_bc * math.cos(ang)
    by = canon_cfg.pivot_c[1] + design.l_bc * math.sin(ang)
    d_ob = math.hypot(bx, by)
    assert abs(design.l_ab - design.l_oa) <= d_ob <= design.l_ab + design.l_oa
    res = static_gap(design, canon_cfg, canon_task, "i")
    assert res.value == pytest.approx(0.43489073319233906, abs=1e-12)
    assert res.value > 0.0


@settings(max_examples=300, deadline=None)
@given(
    l_oa=st.floats(min_value=0.01, max_value=0.5),
    l_ab=st.floats(min_value=0.01, max_value=0.5),
    l_bc=st.floats(min_value=0.01, max_value=0.5),
    pose=st.sampled_from(["i", "e"]),
)
def test_static_gap_never_exceeds_cap(l_oa, l_ab, l_bc, pose):
    cfg = make_canon_cfg()
    task = make_canon_task()
    res = static_gap(DesignParams(l_oa, l_ab, l_bc), cfg, task, pose)
    assert res.value >= -cfg.overshoot_cap - 1e-15


@settings(max_examples=50, deadline=None)
@given(
    l_oa=st.floats(min_value=0.02, max_value=0.4),
    l_ab=st.floats(min_value=0.02, max_value=0.4),
    l_bc=st.floats(min_value=0.02, max_value=0.4),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    pose=st.sampled_from(["i", "e"]),
)
@example(l_oa=0.1, l_ab=0.25, l_bc=0.25, phi=1.0, pose="i")  # slide ray tangent to the inner hole
def test_static_gap_rotation_invariant(l_oa, l_ab, l_bc, phi, pose):
    cfg = make_canon_cfg()
    task = make_canon_task()
    cfg_rot = dataclasses.replace(cfg, pivot_c=rotate(cfg.pivot_c, phi))
    task_rot = dataclasses.replace(
        task, delta_i=task.delta_i + phi, delta_e=task.delta_e + phi
    )
    design = DesignParams(l_oa, l_ab, l_bc)
    a = static_gap(design, cfg, task, pose)
    b = static_gap(design, cfg_rot, task_rot, pose)
    assert b.value == pytest.approx(a.value, abs=1e-10)


def test_static_gap_tangent_to_inner_hole_matches_marching_oracle(canon_cfg, canon_task):
    # the slide ray grazes the inner circle: its discriminant is zero up to
    # rounding, and a tangency must not stop the slide
    design = DesignParams(0.1, 0.25, 0.25)
    fast = static_gap(design, canon_cfg, canon_task, "i").value
    slow = brute_static_gap(design, canon_cfg, canon_task, "i")
    assert fast == pytest.approx(slow, abs=1e-6)  # marching step is 1e-6


CANON_BOX = ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))


def designs_in(box):
    return st.tuples(*(st.floats(min_value=lo, max_value=hi) for lo, hi in box))


@settings(max_examples=200, deadline=None)
@given(
    designs=st.lists(
        st.one_of(designs_in(CANON_BOX), designs_in(((0.02, 0.6),) * 3)), min_size=1, max_size=12
    )
)
@example(designs=[(0.10, 0.25, 0.15)])  # the baseline: a degenerate start at both poses
@example(designs=[(0.1, 0.25, 0.25)])  # slide ray tangent to the inner hole at pose i
@example(designs=[(0.2, 0.2, 0.15), (0.3, 0.3, 0.1)])  # l_oa == l_ab: no inner hole
def test_static_gaps_equal_the_scalar_gap(designs):
    cfg = make_canon_cfg()
    task = make_canon_task()
    values = static_gaps(np.array(designs), cfg, task)
    assert values.shape == (2, len(designs))
    scalar = np.array(
        [[static_gap(DesignParams(*design), cfg, task, pose).value for design in designs] for pose in ("i", "e")]
    )
    # bit patterns, so that a signed zero or a last bit on either side shows
    assert values.view(np.int64).tolist() == scalar.view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    y=st.floats(allow_nan=False, allow_infinity=False),
)
@example(x=0.0, y=0.0)
@example(x=-0.0, y=3.0)
@example(x=3.0, y=4.0)
@example(x=1e308, y=1e308)
@example(x=5e-324, y=0.0)
@example(x=1e-310, y=-3e-311)
@example(x=1e-300, y=1.0)
@example(x=-0.5456848129332406, y=-0.5677590143730542)  # np.hypot is 1 ulp lower here
def test_vector_hypot_equals_math_hypot(x, y):
    got = constraints._hypot(np.array([x, y, 0.0]), np.array([y, x, x]))
    assert got.tolist() == [math.hypot(x, y), math.hypot(y, x), math.hypot(0.0, x)]


# the canon box widened by 20% of its width on each side
WIDE_BOX = tuple((lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo)) for lo, hi in CANON_BOX)


def gate_reference(designs, cfg, task):
    """What ``assembles`` must return: both static gaps non-positive."""
    return (static_gaps(designs, cfg, task) <= 0.0).all(axis=0)


def assert_mask_equals_gaps(designs, cfg=None, task=None):
    cfg = cfg or make_canon_cfg()
    task = task or make_canon_task()
    designs = np.asarray(designs, dtype=float)
    got = assembles(designs, cfg, task)
    assert got.dtype == bool and got.shape == (len(designs),)
    assert np.array_equal(got, gate_reference(designs, cfg, task))
    return got


def test_assembles_equals_static_gaps_on_random_designs():
    rng = np.random.default_rng(11)
    lo, hi = np.array(WIDE_BOX).T
    got = assert_mask_equals_gaps(lo + rng.random((100_000, 3)) * (hi - lo))
    assert 0.05 < got.mean() < 0.5  # both outcomes are common


def ulp_neighbours(values, count=2):
    """Each value and its ``count`` nearest floats on either side, in order."""
    steps = [values]
    for direction in (-np.inf, np.inf):
        v = values
        for _ in range(count):
            v = np.nextafter(v, direction)
            steps.append(v)
    return np.stack(steps, axis=1)


def boundary_brackets(cfg, task, rng, count):
    """Designs at the last float of one coordinate where both poses assemble.

    From designs that assemble, one coordinate moves toward a face of the
    wide box where the design does not; bisection on its float value ends
    on two adjacent floats.  Returns the designs on the assembling side,
    the axis moved and the pose that fails one float further.
    """
    lo, hi = np.array(WIDE_BOX).T
    cands = lo + rng.random((20 * count, 3)) * (hi - lo)
    starts = cands[gate_reference(cands, cfg, task)][:count]
    axis = rng.integers(0, 3, len(starts))
    ends = starts.copy()
    ends[np.arange(len(starts)), axis] = np.where(rng.random(len(starts)) < 0.5, lo[axis], hi[axis])
    fails = ~gate_reference(ends, cfg, task)
    starts, ends, axis = starts[fails], ends[fails], axis[fails]
    rows = np.arange(len(starts))
    good, bad = starts[rows, axis], ends[rows, axis]
    for _ in range(80):
        probe = starts.copy()
        probe[rows, axis] = good + (bad - good) / 2.0
        ok = gate_reference(probe, cfg, task)
        good, bad = np.where(ok, probe[rows, axis], good), np.where(ok, bad, probe[rows, axis])
    assert np.array_equal(np.nextafter(good, bad), bad)
    inside = starts.copy()
    inside[rows, axis] = good
    outside = starts.copy()
    outside[rows, axis] = bad
    pose = np.argmax(static_gaps(outside, cfg, task) > 0.0, axis=0)
    return inside, axis, pose


def test_assembles_equals_static_gaps_within_ulps_of_each_boundary():
    cfg, task = make_canon_cfg(), make_canon_task()
    inside, axis, pose = boundary_brackets(cfg, task, np.random.default_rng(3), 600)
    assert np.bincount(pose, minlength=2).min() >= 30  # both poses' boundaries
    rows = np.arange(len(inside))
    near = np.repeat(inside[:, None, :], 5, axis=1)
    near[rows, :, axis] = ulp_neighbours(inside[rows, axis])
    assert_mask_equals_gaps(near.reshape(-1, 3), cfg, task)


def test_assembles_hands_the_degenerate_start_to_static_gaps(monkeypatch):
    # the baseline assembles exactly, so its slide starts on O at both
    # poses; a design within 1e-9 m of it starts within rounding of O
    rng = np.random.default_rng(5)
    base = np.array(make_canon_cfg().baseline.as_tuple())
    designs = [base[None, :]]
    for scale in (1e-12, 1e-9):
        designs.append(base + scale * rng.uniform(-1.0, 1.0, (500, 3)))
    designs = np.concatenate(designs)
    calls = {}
    monkeypatch.setattr(constraints, "static_gaps", counting(calls, "static_gaps", static_gaps))
    assert assembles(designs, make_canon_cfg(), make_canon_task()).all()
    assert calls == {"static_gaps": 1}  # the undecided rows went to the gaps
    monkeypatch.undo()
    assert_mask_equals_gaps(designs)


def test_assembles_equals_static_gaps_on_folded_and_extended_chains():
    cfg, task = make_canon_cfg(), make_canon_task()
    rng = np.random.default_rng(8)
    l_oa = rng.uniform(0.02, 0.3, 200)
    l_bc = rng.uniform(0.05, 0.3, 200)
    designs = []
    # folded: l_ab == l_oa up to a relative step, so the hole vanishes
    for rel in (0.0, 1e-15, -1e-15, 1e-12, -1e-9, 1e-9, 1e-6):
        designs.append(np.stack([l_oa, l_oa * (1.0 + rel), l_bc], axis=1))
    # O on a pose's reach circle (fully extended, |OB| = l_oa + l_ab) or on its
    # hole's circle (|OB| = l_ab - l_oa), to a few ulps of l_ab
    ox, oy = cfg.pivot_o
    cx, cy = cfg.pivot_c
    for pose in ("i", "e"):
        ucbx, ucby = constraints._slide_frame(cfg, task, pose)[:2]
        ob = np.hypot(ox - (cx + l_bc * ucbx), oy - (cy + l_bc * ucby))
        for l_ab in (ob - l_oa, ob + l_oa):
            keep = l_ab > 0.0
            near = ulp_neighbours(l_ab[keep], count=3)
            for j in range(near.shape[1]):
                designs.append(np.stack([l_oa[keep], near[:, j], l_bc[keep]], axis=1))
    assert_mask_equals_gaps(np.concatenate(designs), cfg, task)


@settings(max_examples=200, deadline=None)
@given(
    designs=st.lists(
        st.one_of(designs_in(WIDE_BOX), designs_in(((0.005, 0.6),) * 3)), min_size=1, max_size=16
    )
)
@example(designs=[(0.10, 0.25, 0.15)])  # the baseline: a degenerate start at both poses
@example(designs=[(0.1, 0.25, 0.25)])  # slide ray tangent to the inner hole at pose i
@example(designs=[(0.2, 0.2, 0.15), (0.3, 0.3, 0.1)])  # l_oa == l_ab: no inner hole
def test_assembles_equals_static_gaps(designs):
    assert_mask_equals_gaps(designs)


def test_dynamic_constraint_hand_trace():
    rates = [1.0, 1.0, -1.0, -1.0, 1.0]
    res = dynamic_constraint(fake_stroke([0.0, 0.20, 0.15, 0.05, 0.10], rates))
    assert res.reference_sign == 1
    assert res.value == 0.15 - 0.05
    assert res.value == pytest.approx(0.10, abs=1e-15)
    # the violators are samples 2 and 3 alone: the others' angles do not count
    far = dynamic_constraint(fake_stroke([-5.0, 5.0, 0.15, 0.05, 9.0], rates))
    assert far.value == 0.15 - 0.05
    flipped = dynamic_constraint(fake_stroke([-5.0, 5.0, 0.15, 0.05, 9.0], rates[:4] + [-1.0]))
    assert flipped.value == 9.0 - 0.05


def test_dynamic_constraint_clean_strokes():
    ups = fake_stroke([0.0, 0.1, 0.2], [0.0, 1.0, 0.0])
    assert dynamic_constraint(ups).value == 0.0
    downs = fake_stroke([0.2, 0.1, 0.0], [0.0, -1.0, 0.0])
    res = dynamic_constraint(downs)
    assert res.value == 0.0
    assert res.reference_sign == -1


def test_dynamic_constraint_ignores_numerical_rest():
    traj = fake_stroke([0.0, 0.1, 0.2], [1.0, -1e-13, 1.0])
    assert dynamic_constraint(traj).value == 0.0
    with pytest.raises(EmptyTrajectory):
        dynamic_constraint(fake_stroke([], []))


def test_reversal_design_scored_not_costed(canon_cfg, canon_task):
    design = DesignParams(0.244710222, 0.133037882, 0.166103598)
    rec = evaluate_design(design, canon_cfg, canon_task)
    assert rec.constraints.c_static_i <= 0.0
    assert rec.constraints.c_static_e <= 0.0
    assert rec.constraints.c_dyn == pytest.approx(0.1007711823635542, rel=1e-9)
    assert not rec.constraints.feasible
    assert rec.objective is None


def test_evaluate_design_baseline(canon_cfg, canon_task):
    rec = evaluate_design(canon_cfg.baseline, canon_cfg, canon_task)
    assert rec.constraints.feasible
    assert rec.constraints.c_dyn == 0.0
    assert rec.constraints.c_static_i == pytest.approx(-0.02, abs=1e-12)
    assert rec.constraints.c_static_e == pytest.approx(
        -(0.35 - math.sqrt(0.1125)), abs=1e-14
    )
    assert rec.objective == pytest.approx(1.7428895130664603, rel=1e-12)


def test_evaluate_design_static_failure_skips_downstream(canon_cfg, canon_task):
    rec = evaluate_design(DesignParams(0.02, 0.25, 0.15), canon_cfg, canon_task)
    assert rec.constraints.c_static_e > 0.0
    assert rec.constraints.c_dyn is None
    assert rec.objective is None
    assert not rec.constraints.feasible


def test_evaluate_design_reaches_layers_through_module_attributes(monkeypatch, canon_cfg, canon_task):
    # the benchmark times each layer by wrapping these names in constraints;
    # evaluate_design gates through static_gap there, and the layers below
    # the gate still resolve there, though the shared body calls none of them
    assert constraints._transform_full is kinematic_transform
    assert constraints.torque_profile is torque_profile
    calls = {}
    for name in ("static_gap", "_transform_full", "dynamic_constraint", "torque_profile"):
        monkeypatch.setattr(constraints, name, counting(calls, name, getattr(constraints, name)))
    assert evaluate_design(canon_cfg.baseline, canon_cfg, canon_task).objective is not None
    assert calls == {"static_gap": 2}
    with pytest.raises(AttributeError, match="no attribute 'transform_full'"):
        constraints.transform_full


CANON = make_canon_cfg()
MINUS = dataclasses.replace(CANON, branch="minus")
PUSHED = dataclasses.replace(CANON, tip_force=(3.0, -2.0))
TASK = make_canon_task()
DWELL = dataclasses.replace(TASK, t_dwell=0.1)
# crank and coupler stretch into one line at mid-stroke (tests/test_kinematics.py)
STRETCHED = MechanismConfig(
    pivot_c=(0.25, 0.0),
    baseline=DesignParams(0.125, 0.375, 0.25),
    branch="plus",
    effector_offset=TASK.delta_mid,
)
# crank and coupler stretched at delta_e: a dead point at the first sample
END_DEAD = (0.1, 0.23541019662486845, 0.15)
BASELINE = (0.10, 0.25, 0.15)
REVERSAL = (0.244710222, 0.133037882, 0.166103598)
# coupler and rocker collinear at delta_i: the walk completes, the torque is singular
SINGULAR = (0.20531415706603068, 0.25, 0.15)
# test_kinematics.py's mid-stroke unsolvable, interior and stroke-end dead-point
# designs; on the canon config the static gate at pose e stops all three
KINEMATICS_FAILURES = [
    (0.06, 0.19980662113533157, 0.15),
    (0.1, 0.22717658083037312, 0.15),
    END_DEAD,
]


def layered_record(design: DesignParams, cfg: MechanismConfig, task: MotionTask) -> EvaluationRecord:
    """The evaluation composed from the public layers, one design at a time.

    Both static gaps, then the stroke walk, its motion defect and the torque
    of a feasible design, which a transmission singularity leaves uncosted.
    """
    gap_i = static_gap(design, cfg, task, "i").value
    gap_e = static_gap(design, cfg, task, "e").value
    c_dyn = objective = None
    if gap_i <= 0.0 and gap_e <= 0.0:
        try:
            stroke = kinematic_transform(design, cfg, task)
        except TransformUnsolvable:
            stroke = None
        else:
            c_dyn = dynamic_constraint(stroke).value
    bundle = ConstraintBundle(gap_i, gap_e, c_dyn)
    if bundle.feasible:
        try:
            objective = torque_profile(design, cfg, task, stroke).t_rms
        except SingularState:
            pass
    return EvaluationRecord(design, bundle, objective)


@settings(max_examples=100, deadline=None)
@given(
    designs=st.lists(
        st.one_of(designs_in(CANON_BOX), designs_in(((0.02, 0.6),) * 3)), min_size=1, max_size=12
    ),
    cfg=st.sampled_from([CANON, MINUS, PUSHED, *mass_variants(PUSHED)]),
    task=st.sampled_from([TASK, DWELL]),
)
@example(designs=[BASELINE], cfg=CANON, task=TASK)  # feasible and costed
@example(designs=[(0.02, 0.25, 0.15)], cfg=CANON, task=TASK)  # static reject
@example(designs=[REVERSAL], cfg=CANON, task=TASK)  # motion defect: theta is read
@example(designs=[(0.1, 0.25, 0.25)], cfg=CANON, task=TASK)  # slide ray tangent to the inner hole
@example(designs=[SINGULAR], cfg=CANON, task=TASK)  # feasible, left uncosted by SingularState
@example(designs=[(0.125, 0.374, 0.25)], cfg=STRETCHED, task=TASK)  # unsolvable: no assembly at mid-stroke
@example(designs=[(0.125, 0.375, 0.25)], cfg=STRETCHED, task=TASK)  # unsolvable: interior dead point
# stroke-end dead point: as the baseline it passes the gate, and the walk rests the crank
@example(designs=[END_DEAD], cfg=dataclasses.replace(CANON, baseline=DesignParams(*END_DEAD)), task=TASK)
@example(designs=[BASELINE, SINGULAR, (0.02, 0.25, 0.15), REVERSAL, *KINEMATICS_FAILURES], cfg=CANON, task=TASK)
def test_evaluate_designs_equals_evaluate_design(designs, cfg, task):
    # both entry points share one body, so each is held to the public layers
    want = [layered_record(DesignParams(*design), cfg, task) for design in designs]
    assert [evaluate_design(DesignParams(*design), cfg, task) for design in designs] == want
    assert evaluate_designs(np.array(designs), cfg, task) == want


def test_evaluate_designs_outcomes_of_the_examples(canon_cfg, canon_task):
    # the examples above reach the outcomes they are named for
    (singular,) = evaluate_designs(np.array([SINGULAR]), canon_cfg, canon_task)
    assert singular.constraints.feasible and singular.objective is None
    stretched = evaluate_designs(np.array([(0.125, 0.374, 0.25), (0.125, 0.375, 0.25)]), STRETCHED, canon_task)
    for record in stretched:
        assert max(record.constraints.c_static_i, record.constraints.c_static_e) <= 0.0
        assert record.constraints.c_dyn is None
    end_cfg = dataclasses.replace(canon_cfg, baseline=DesignParams(*END_DEAD))
    (end,) = evaluate_designs(np.array([END_DEAD]), end_cfg, canon_task)
    assert end.constraints.feasible and end.objective is not None
    assert kinematic_transform(end.design, end_cfg, canon_task).theta_dot[0] == 0.0


def outcome(record: EvaluationRecord) -> str:
    """Which gate decided a record."""
    c = record.constraints
    if c.c_static_i > 0.0 or c.c_static_e > 0.0:
        return "static reject"
    if c.c_dyn is None:
        return "unsolvable"
    if not c.feasible:
        return "motion defect"
    return "singular" if record.objective is None else "costed"


@settings(max_examples=200, deadline=None)
@given(
    mechanism=mechanisms(),
    factors=st.lists(st.tuples(*[st.floats(-0.4, 0.4)] * 3), min_size=1, max_size=12),
)
def test_evaluate_designs_equals_evaluate_design_on_random_mechanisms(mechanism, factors):
    # the test above varies designs on fixed configs; this one draws the mechanism too
    cfg, task = mechanism
    designs = np.exp(np.array(factors)) * cfg.baseline.as_tuple()
    want = [evaluate_design(DesignParams(*design), cfg, task) for design in designs.tolist()]
    assert evaluate_designs(designs, cfg, task) == want
    event(f"branch {cfg.branch}, {'with' if task.t_dwell else 'no'} dwell")
    for record in want:
        event(outcome(record))


def test_evaluate_designs_takes_an_m_by_3_array(canon_cfg, canon_task):
    assert evaluate_designs(np.zeros((0, 3)), canon_cfg, canon_task) == []
    for shape in ((3,), (1, 4), (2, 6), (1, 3, 1)):
        with pytest.raises(ValueError, match="an \\(m, 3\\) array"):
            evaluate_designs(np.full(shape, 0.1), canon_cfg, canon_task)
    with pytest.raises(ValidationError):
        evaluate_designs(np.array([BASELINE, (0.1, -0.25, 0.15)]), canon_cfg, canon_task)


@pytest.mark.parametrize("gate", [static_gaps, assembles])
def test_the_static_gate_takes_an_m_by_3_array(gate, canon_cfg, canon_task):
    # a (1, 4) array was read by its first three columns or failed to unpack, a 1-D row raised IndexError
    assert gate(np.zeros((0, 3)), canon_cfg, canon_task).shape[-1] == 0
    for shape in ((3,), (1, 4), (2, 6), (1, 3, 1)):
        message = f"designs must be an (m, 3) array, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            gate(np.full(shape, 0.1), canon_cfg, canon_task)
    # the check hands a float array on uncopied: the acquisition masks every batch of points
    designs = np.array([BASELINE])
    assert constraints._design_rows(designs) is designs


@pytest.mark.parametrize("gate", [static_gaps, assembles])
def test_the_static_gate_rejects_rows_that_are_not_designs(gate, canon_cfg, canon_task):
    # a row that is not a design is refused with the error DesignParams gives it, never scored
    for bad in ((0.05, -0.2, 0.1), (0.05, math.nan, 0.1), (0.0, 0.25, 0.15), (0.1, 0.25, math.inf)):
        with pytest.raises(ValidationError) as want:
            DesignParams(*bad)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(want.value))}$"):
            gate(np.array([BASELINE, bad, (-1.0, 0.25, 0.15)]), canon_cfg, canon_task)


def test_evaluate_designs_lets_the_joint_closure_guard_raise(monkeypatch, canon_cfg, canon_task):
    # a walked geometry whose B - A does not close the coupler raises in the
    # torque guard, for one design as for a batch
    walk = kinematics._walk

    def shifted(*args):
        *rest, geometry = walk(*args)
        rax, ray, rbx, rby, bax, *more = geometry
        return *rest, (rax, ray, rbx, rby, bax + 1e-3, *more)

    monkeypatch.setattr(kinematics, "_walk", shifted)
    monkeypatch.setattr(constraints, "_walk", shifted)
    with pytest.raises(ValueError, match="inconsistent with the design geometry"):
        evaluate_design(canon_cfg.baseline, canon_cfg, canon_task)
    with pytest.raises(ValueError, match="inconsistent with the design geometry"):
        evaluate_designs(np.array([BASELINE, BASELINE]), canon_cfg, canon_task)


def int_bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_the_walk_and_the_torque_share_one_joint_geometry():
    # the torque reads the walk's geometry: its terms equal those built from
    # each sample's joints alone and its forward torque equals torque_profile's.
    # The two shared cross products equal the torque's expressions and the
    # crank's with e = A - B, negated, written here from the joints; each is
    # bit for bit the one whose sign of an exact zero reaches a result
    rng = np.random.default_rng(31)
    stream = [tuple(np.array(BASELINE) * rng.uniform(0.9, 1.1, 3)) for _ in range(12)]
    examples = [BASELINE, SINGULAR, REVERSAL, (0.1, 0.25, 0.25), *KINEMATICS_FAILURES]
    cases = [(cfg, design) for cfg in (CANON, MINUS, PUSHED) for design in stream + examples]
    cases += [(STRETCHED, (0.125, 0.374, 0.25)), (STRETCHED, (0.125, 0.375, 0.25))]
    cases += [(dataclasses.replace(CANON, baseline=DesignParams(*END_DEAD)), END_DEAD)]
    for cfg, lengths in cases:
        design = DesignParams(*lengths)
        walked = kinematics._walk(design, cfg, kinematics._walk_columns(cfg, TASK))
        ax, ay, bx, by, theta_dot, theta_ddot, assembles, failed, geometry = walked
        solved = assembles[:, 0]

        (ox, oy), (cx, cy) = cfg.pivot_o, cfg.pivot_c
        rax, ray, rbx, rby = ax - ox, ay - oy, bx - cx, by - cy
        bax, bay, ex, ey = bx - ax, by - ay, ax - bx, ay - by
        *_, den, num = geometry
        assert int_bits((-ray * bax + rax * bay)[solved]) == int_bits(den[solved])  # v_A . (B - A)
        assert ((rbx * bay - rby * bax) == num)[solved].all()  # cross(B - C, B - A)
        assert int_bits(-(ex * -rby + ey * rbx)[solved]) == int_bits(num[solved])  # e . perp(B - C)
        assert ((ex * -ray + ey * rax) == -den)[solved].all()  # e . perp(A - O)

        i_eq, i_half_d, g_tau, q_ext, singular = dynamics._dyn_terms(design, cfg, geometry)
        terms = np.broadcast_arrays(i_eq, 2.0 * i_half_d, g_tau, q_ext)
        for k in np.flatnonzero(solved & ~singular[:, 0]).tolist():
            joints = (float(ax[k, 0]), float(ay[k, 0])), (float(bx[k, 0]), float(by[k, 0]))
            want = posture_terms(design, cfg, Posture(0.0, 0.0, *joints, cfg.branch))
            assert int_bits([term[k, 0] for term in terms]) == int_bits(want)
        if not (failed.any() or singular.any()):
            steps = dynamics._task_steps(TASK)
            tau, *_ = dynamics._cycle_torque(design, cfg, TASK, steps, geometry, theta_dot, theta_ddot)
            want = torque_profile(design, cfg, TASK, kinematic_transform(design, cfg, TASK)).torque
            assert int_bits(tau[:, 0]) == int_bits(want)
