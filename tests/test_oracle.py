import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fourbar_synth import oracle
from fourbar_synth.constraints import assembles, evaluate_designs, static_gap, static_gaps
from fourbar_synth.kinematics import kinematic_transform, solve_ik
from fourbar_synth.model import DesignParams, MechanismConfig, MotionTask
from fourbar_synth.oracle import brute_ik, brute_static_gap, brute_theta_sweep, grid_sweep

from conftest import make_canon_task, mechanisms


def test_brute_ik_finds_the_closed_form_roots(canon_cfg):
    design = canon_cfg.baseline
    for deg in (92.0, 105.0, 128.0, 147.0):
        delta = math.radians(deg)
        roots = brute_ik(design, canon_cfg, delta)
        assert len(roots) == 2
        for elbow in ("plus", "minus"):
            direct = solve_ik(design, canon_cfg, delta, elbow)
            match = min(abs(r.theta - direct.theta) for r in roots)
            assert match < 1e-9
        tagged = {r.elbow for r in roots}
        assert tagged == {"plus", "minus"}


def test_brute_ik_empty_when_unreachable(canon_cfg):
    assert brute_ik(DesignParams(0.02, 0.25, 0.15), canon_cfg, math.pi / 2) == []


def test_brute_ik_tangency_collapses_to_one_root():
    cfg = MechanismConfig(pivot_c=(1.0, 0.0), baseline=DesignParams(2.0, 2.0, 3.0), branch="plus")
    roots = brute_ik(cfg.baseline, cfg, 0.0)
    assert len(roots) == 1
    assert roots[0].theta == pytest.approx(0.0, abs=1e-9)


def test_static_gap_matches_marching_oracle(canon_cfg, canon_task):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        design = DesignParams(*rng.uniform(0.01, 0.45, size=3))
        for pose in ("i", "e"):
            fast = static_gap(design, canon_cfg, canon_task, pose).value
            slow = brute_static_gap(design, canon_cfg, canon_task, pose)
            worst = max(worst, abs(fast - slow))
    assert worst < 2e-6  # marching step is 1e-6


def slide_geometry(result, design, cfg, task) -> tuple[float, float, float, float]:
    """Where a ``static_gap`` slide passes B: (s_o, closest, miss, r_in).

    s_o is the slide's length from O' to O, closest the distance along it
    from O' to the point nearest B, miss the distance of the slide's line
    from B and r_in the radius of the inner hole.
    """
    delta = task.delta_i if result.pose == "i" else task.delta_e
    (cx, cy), (ox, oy) = cfg.pivot_c, cfg.pivot_o
    bx = cx + design.l_bc * math.cos(delta - cfg.effector_offset)
    by = cy + design.l_bc * math.sin(delta - cfg.effector_offset)
    px, py = result.o_prime_init
    s_o = math.hypot(ox - px, oy - py)
    ux, uy = (ox - px) / s_o, (oy - py) / s_o
    closest = (bx - px) * ux + (by - py) * uy
    miss = abs((px - bx) * uy - (py - by) * ux)
    return s_o, closest, miss, abs(design.l_ab - design.l_oa)


def slide_event(result, design, cfg, task) -> str:
    """How a ``static_gap`` slide went: a degenerate start, a slide that passes
    within 1% of tangency to the inner hole, or where it stopped."""
    if result.degenerate_start:
        return "degenerate start"
    s_o, closest, miss, r_in = slide_geometry(result, design, cfg, task)
    if 0.0 < closest < s_o and abs(miss - r_in) <= 0.01 * r_in:
        return "slide tangent to the hole within 1%"
    if result.value > 0.0:
        return "slide stops short of O"
    return "slide capped past O" if result.value == -cfg.overshoot_cap else "slide exits past O"


@settings(max_examples=100, deadline=None)
@given(
    mechanism=mechanisms(),
    factors=st.lists(st.tuples(*[st.floats(-0.1, 0.1)] * 3), min_size=1, max_size=3),
)
def test_static_gap_matches_marching_oracle_on_random_mechanisms(mechanism, factors):
    # the canon test above, on drawn mechanisms and designs near their baseline
    cfg, task = mechanism
    for lengths in (np.exp(np.array(factors)) * cfg.baseline.as_tuple()).tolist():
        design = DesignParams(*lengths)
        for pose in ("i", "e"):
            fast = static_gap(design, cfg, task, pose)
            assert abs(fast.value - brute_static_gap(design, cfg, task, pose)) < 2e-6
            event(slide_event(fast, design, cfg, task))


def tangent_l_ab(l_oa, l_bc, cfg, task, pose) -> float | None:
    """An l_ab, within e^+-1.5 of the baseline's, whose slide touches the inner
    hole strictly between O' and O, or None.

    The miss of the slide's line from B less r_in changes sign between two
    lengths of a 61-point scan whose closest approach falls inside the slide;
    bisection narrows them to adjacent floats and keeps the nearer.
    """

    def touch(l_ab):  # (miss - r_in, whether the closest approach is inside the slide)
        design = DesignParams(l_oa, l_ab, l_bc)
        result = static_gap(design, cfg, task, pose)
        if result.degenerate_start:
            return math.nan, False
        s_o, closest, miss, r_in = slide_geometry(result, design, cfg, task)
        return miss - r_in, 0.0 < closest < s_o

    scan = (cfg.baseline.l_ab * np.exp(np.linspace(-1.5, 1.5, 61))).tolist()
    for a, b in zip(scan, scan[1:]):
        (fa, inside_a), (fb, inside_b) = touch(a), touch(b)
        if inside_a and inside_b and fa * fb < 0.0:
            break
    else:
        return None
    while a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        fm = touch(mid)[0]
        a, fa, b, fb = (mid, fm, b, fb) if fm * fa > 0.0 else (a, fa, mid, fm)
    l_ab = a if abs(fa) <= abs(fb) else b
    return l_ab if touch(l_ab)[1] else None


@settings(max_examples=150, deadline=None)
@given(mechanism=mechanisms(), factors=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_static_gap_passes_a_tangent_inner_hole_on_random_mechanisms(mechanism, factors):
    # l_ab solved, per pose, so that the slide grazes the inner hole at a
    # point strictly inside it: the slide passes, as the marching oracle
    # does, and the mask agrees with the signs of the gaps
    cfg, task = mechanism
    l_oa, l_bc = (math.exp(f) * v for f, v in zip(factors, (cfg.baseline.l_oa, cfg.baseline.l_bc)))
    tangent = 0
    for pose in ("i", "e"):
        l_ab = tangent_l_ab(l_oa, l_bc, cfg, task, pose)
        if l_ab is None:
            continue
        tangent += 1
        design = DesignParams(l_oa, l_ab, l_bc)
        assert abs(static_gap(design, cfg, task, pose).value - brute_static_gap(design, cfg, task, pose)) < 2e-6
        rows = np.array([design.as_tuple()])
        assert np.array_equal(assembles(rows, cfg, task), (static_gaps(rows, cfg, task) <= 0.0).all(axis=0))
    event(f"slides tangent to the hole inside them, of 2: {tangent}")


def test_theta_sweep_agrees_with_transform(canon_cfg, canon_task):
    defective = DesignParams(0.244710222, 0.133037882, 0.166103598)
    wrapped = DesignParams(0.18574091600846127, 0.3327444862266863, 0.2095751370653121)
    for design in (canon_cfg.baseline, defective, wrapped):
        stroke = kinematic_transform(design, canon_cfg, canon_task)
        swept = brute_theta_sweep(design, canon_cfg, canon_task, n=canon_task.n_samples)
        assert len(swept) == len(stroke)
        rows = zip(stroke.t.tolist(), stroke.delta.tolist(), stroke.theta.tolist(), swept)
        for s_t, s_delta, s_theta, (t, delta, theta) in rows:
            assert t == pytest.approx(s_t, abs=1e-15)
            assert delta == pytest.approx(s_delta, abs=1e-12)
            # the sweep reports angles in (-pi, pi]; the stroke continues them
            assert math.remainder(theta - s_theta, math.tau) == pytest.approx(0.0, abs=1e-9)


# a drawn mechanism whose crank turns 0.92 rad in one of the 50 steps, past the
# other branch's root, which lies nearer the previous angle than its own does
FAST_CRANK = (
    MechanismConfig(
        pivot_c=(-0.3046455582670764, 0.00505534216362944),
        baseline=DesignParams(0.2004433673642055, 0.19428474252654415, 0.296875),
        branch="minus",
        effector_offset=1.0,
        link_density=(2.0, 2.0, 2.0),
        payload_mass=0.5,
        effector_tip_length=0.25,
    ),
    MotionTask(delta_i=1.125, delta_e=0.0, t_move=0.5),
)


@settings(max_examples=100, deadline=None)
@given(mechanism=mechanisms())
@example(mechanism=FAST_CRANK)
def test_theta_sweep_agrees_with_transform_on_random_mechanisms(mechanism):
    # the canon test above, on the baseline of drawn mechanisms
    cfg, task = mechanism
    task = dataclasses.replace(task, n_samples=51)
    stroke = kinematic_transform(cfg.baseline, cfg, task)
    swept = brute_theta_sweep(cfg.baseline, cfg, task, n=task.n_samples)
    for s_theta, (_, _, theta) in zip(stroke.theta.tolist(), swept):
        assert math.remainder(theta - s_theta, math.tau) == pytest.approx(0.0, abs=1e-9)
    event(f"crank {'wraps past pi' if np.abs(stroke.theta).max() > math.pi else 'within (-pi, pi]'}")
    # sin of the crank-coupler angle at each stroke end: cross(A - O, B - A) / (l_oa l_ab)
    (ax, ay), (bx, by) = stroke.point_a[::50].T, stroke.point_b[::50].T
    (ox, oy), design = cfg.pivot_o, cfg.baseline
    sin_alpha = ((ax - ox) * (by - ay) - (ay - oy) * (bx - ax)) / (design.l_oa * design.l_ab)
    near = np.abs(sin_alpha).min() < math.sin(0.1)
    event(f"a stroke end {'within' if near else 'beyond'} 0.1 rad of a dead point")


def test_grid_sweep_layout_and_gating(canon_cfg, canon_task):
    bounds = ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))
    records = grid_sweep(canon_cfg, canon_task, bounds, resolution=4)
    assert len(records) == 64
    axes = [np.linspace(lo, hi, 4) for lo, hi in bounds]
    k = 0
    for a in axes[0]:
        for b in axes[1]:
            for c in axes[2]:
                assert records[k].design == DesignParams(a, b, c)
                k += 1
    for rec in records:
        cons = rec.constraints
        if cons.feasible:
            assert cons.c_static_i <= 0.0 and cons.c_static_e <= 0.0
            assert cons.c_dyn == 0.0
            assert rec.objective is not None and rec.objective > 0.0
        else:
            assert rec.objective is None
    assert any(r.constraints.feasible for r in records)
    assert any(not r.constraints.feasible for r in records)


def test_grid_sweep_rejects_bad_arguments(canon_cfg, canon_task):
    bounds = ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))
    with pytest.raises(ValueError):
        grid_sweep(canon_cfg, canon_task, bounds, resolution=1)
    with pytest.raises(ValueError):
        grid_sweep(canon_cfg, canon_task, bounds, resolution=32)
    with pytest.raises(ValueError):
        grid_sweep(canon_cfg, canon_task, bounds[:2], resolution=4)


def test_theta_sweep_tracks_reversals(canon_cfg):
    # the sweep oracle follows the crank through a defective stroke too
    task = make_canon_task()
    design = DesignParams(0.244710222, 0.133037882, 0.166103598)
    swept = brute_theta_sweep(design, canon_cfg, task, n=201)
    thetas = [theta for _, _, theta in swept]
    diffs = [b - a for a, b in zip(thetas, thetas[1:])]
    assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)


def test_grid_sweep_evaluates_every_cell_in_one_batch(monkeypatch, canon_cfg, canon_task):
    # one evaluate_designs call, looked up in oracle, over the cells in
    # row-major order (l_oa outermost, l_bc innermost)
    batches = []

    def recording(designs, cfg, task):
        batches.append(np.array(designs).tolist())
        return evaluate_designs(designs, cfg, task)

    monkeypatch.setattr(oracle, "evaluate_designs", recording)
    bounds = ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))
    records = grid_sweep(canon_cfg, canon_task, bounds, resolution=3)
    axes = [np.linspace(lo, hi, 3).tolist() for lo, hi in bounds]
    cells = [[a, b, c] for a in axes[0] for b in axes[1] for c in axes[2]]
    assert batches == [cells]
    assert [list(r.design.as_tuple()) for r in records] == cells
