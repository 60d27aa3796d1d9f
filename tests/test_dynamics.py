import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from fourbar_synth.dynamics import mass_model, posture_terms, torque_profile
from fourbar_synth.kinematics import (
    Posture,
    _Lengths,
    kinematic_transform,
    solve_fk,
    solve_ik,
    validate_baseline,
)
from fourbar_synth.model import (
    CrankIndeterminate,
    DesignParams,
    EmptyTrajectory,
    MechanismConfig,
    SingularState,
)
from fourbar_synth.oracle import mechanical_energy

from conftest import (
    crank_pivot_pass,
    fake_stroke,
    make_canon_cfg,
    make_canon_task,
    mass_variants,
    mechanisms,
    rocker_tip_meets_crank_pivot,
)


def motor_torque(design, cfg, posture, theta_dot, theta_ddot):
    """I_eq theta_ddot + 1/2 I_eq' theta_dot^2 + G - Q_ext from the posture terms."""
    i_eq, i_prime, g_tau, q_ext = posture_terms(design, cfg, posture)
    return i_eq * theta_ddot + 0.5 * i_prime * theta_dot * theta_dot + g_tau - q_ext


def trapz_sq(samples):
    acc = 0.0
    for (t0, y0), (t1, y1) in zip(samples, samples[1:]):
        acc += 0.5 * (y0 * y0 + y1 * y1) * (t1 - t0)
    return acc


def cycle_samples(task, stroke, profile):
    """(t, torque) over the duty cycle: stroke, dwell, mirrored return, dwell."""
    tm, td = task.t_move, task.t_dwell
    fwd = list(zip(stroke.t.tolist(), profile.torque.tolist()))
    ret = [(tm + td + t, tau) for (t, _), (_, tau) in zip(fwd, fwd[::-1])]
    hold_e, hold_i = fwd[0][1], fwd[-1][1]
    dwell_i = [(tm, hold_i), (tm + td, hold_i)] if td > 0.0 else []
    dwell_e = [(2 * tm + td, hold_e), (2 * tm + 2 * td, hold_e)] if td > 0.0 else []
    return fwd + dwell_i + ret + dwell_e


def postures(stroke, branch="plus"):
    """The stroke's samples as postures, at the joints it carries."""
    return [
        Posture(theta, delta, tuple(a), tuple(b), branch)
        for theta, delta, a, b in zip(
            stroke.theta.tolist(), stroke.delta.tolist(),
            stroke.point_a.tolist(), stroke.point_b.tolist(),
        )
    ]


def test_rod_links(canon_cfg):
    # a rod about its inner joint: (rho L, rho L^2/2 along the bar, rho L^3/3)
    mm = mass_model(canon_cfg.baseline, canon_cfg)
    assert mm.crank.mass == pytest.approx(0.2, abs=1e-15)
    assert mm.crank.first_moment == pytest.approx((0.2 * 0.05, 0.0), abs=1e-15)
    assert mm.crank.inertia == pytest.approx(0.2 * 0.10**2 / 3.0, abs=1e-18)
    assert mm.coupler.mass == pytest.approx(0.5, abs=1e-15)
    assert mm.coupler.first_moment == pytest.approx((0.5 * 0.125, 0.0), abs=1e-15)
    assert mm.coupler.inertia == pytest.approx(0.5 * 0.25**2 / 3.0, abs=1e-18)


def test_rocker_composite(canon_cfg):
    # bar + effector beam + point payload, each about C, along the bar
    parts = [
        (0.3, 0.3 * 0.075, 0.3 * 0.15**2 / 3.0),
        (0.5, 0.5 * 0.125, 0.5 * 0.25**2 / 3.0),
        (0.5, 0.5 * 0.25, 0.5 * 0.25**2),
    ]
    mm = mass_model(canon_cfg.baseline, canon_cfg)
    assert mm.rocker.mass == pytest.approx(sum(m for m, _, _ in parts), abs=1e-15)
    assert mm.rocker.first_moment == pytest.approx((sum(s for _, s, _ in parts), 0.0), abs=1e-15)
    assert mm.rocker.inertia == pytest.approx(sum(i for _, _, i in parts), abs=1e-15)
    assert mm.rocker.mass == pytest.approx(1.3, abs=1e-12)
    assert mm.rocker.first_moment[0] == pytest.approx(0.21, abs=1e-15)
    # by the parallel axis theorem, the central inertia of the composite
    central = mm.rocker.inertia - mm.rocker.first_moment[0] ** 2 / mm.rocker.mass
    assert central == pytest.approx(0.009993589743589743, abs=1e-15)


def test_rocker_composite_offset_beam(canon_cfg):
    # a perpendicular effector beam turns its and the payload's first moments
    # off the bar axis; the inertia about C stays
    cfg = dataclasses.replace(canon_cfg, effector_offset=math.pi / 2)
    mm = mass_model(cfg.baseline, cfg)
    assert mm.rocker.mass == pytest.approx(1.3, abs=1e-15)
    assert mm.rocker.first_moment[0] == pytest.approx(0.3 * 0.075, abs=1e-15)
    assert mm.rocker.first_moment[1] == pytest.approx(0.5 * 0.125 + 0.5 * 0.25, abs=1e-15)
    assert mm.rocker.inertia == mass_model(canon_cfg.baseline, canon_cfg).rocker.inertia


def rod_reference(density, length):
    """(mass, first moment, inertia) of a rod about one end, along its axis."""
    mass = density * length
    return mass, 0.5 * mass * length, mass * length * length / 3.0


def mass_reference(cfg):
    """Design -> (mass, moment_x, moment_y, inertia) of crank, coupler and rocker, in Python floats.

    The rocker as a list of parts about C, summed one part at a time.
    """
    rho_oa, rho_ab, rho_bc = cfg.link_density
    lt, off = cfg.effector_tip_length, cfg.effector_offset
    cx, sx = math.cos(off), math.sin(off)
    m_beam, s_beam, i_beam = rod_reference(rho_bc, lt)
    m_tip = cfg.payload_mass
    attached = [(m_beam, s_beam * cx, s_beam * sx, i_beam), (m_tip, m_tip * lt * cx, m_tip * lt * sx, m_tip * lt * lt)]

    def link(mass, moment, inertia):
        return mass, moment, 0.0, inertia

    def reference(l_oa, l_ab, l_bc):
        parts = [link(*rod_reference(rho_bc, l_bc)), *attached]
        rocker = [sum(part[q] for part in parts) for q in range(4)]
        return (*link(*rod_reference(rho_oa, l_oa)), *link(*rod_reference(rho_ab, l_ab)), *rocker)

    return reference


def mass_fields(mm):
    return [v for link in (mm.crank, mm.coupler, mm.rocker) for v in (link.mass, *link.first_moment, link.inertia)]


@pytest.mark.parametrize(
    "cfg",
    [make_canon_cfg(), *mass_variants(make_canon_cfg())],
    ids=["canon", "no-beam", "beam-across", "massless-rocker", "massless"],
)
def test_mass_model_is_elementwise(cfg):
    # 200,000 designs at once equal the plain-float composite and each
    # design's own call, field by field
    rng = np.random.default_rng(7)
    lengths = _Lengths(*(0.02 + 0.58 * rng.random((3, 200_000))))
    batch = [np.broadcast_to(field, lengths.l_oa.shape) for field in mass_fields(mass_model(lengths, cfg))]
    reference = mass_reference(cfg)
    rows = np.transpose(lengths).tolist()
    want = np.array([reference(*row) for row in rows]).T
    assert all(np.array_equal(got, field) for got, field in zip(batch, want))
    for j in range(0, len(rows), 97):
        assert mass_fields(mass_model(DesignParams(*rows[j]), cfg)) == [field[j] for field in batch]


def test_massless_links_give_zero_torque(canon_cfg):
    cfg = dataclasses.replace(
        canon_cfg, link_density=(0.0, 0.0, 0.0), payload_mass=0.0
    )
    mm = mass_model(cfg.baseline, cfg)
    assert mm.crank.mass == 0.0 and mm.coupler.mass == 0.0 and mm.rocker.mass == 0.0
    p = solve_ik(cfg.baseline, cfg, math.radians(110.0), "plus")
    assert motor_torque(cfg.baseline, cfg, p, 3.0, -7.0) == 0.0
    assert posture_terms(cfg.baseline, cfg, p)[0] == 0.0


def test_holding_torque_bare_crank(canon_cfg):
    # only the crank rod has mass; horizontal crank holds m g L/2
    cfg = dataclasses.replace(
        canon_cfg, link_density=(2.0, 0.0, 0.0), payload_mass=0.0
    )
    p = solve_fk(cfg.baseline, cfg, 0.0, "plus")
    tau = motor_torque(cfg.baseline, cfg, p, 0.0, 0.0)
    assert tau == pytest.approx(0.2 * 9.81 * 0.05, abs=1e-12)
    assert posture_terms(cfg.baseline, cfg, p)[2] == pytest.approx(tau, abs=1e-15)


def test_reflected_inertia_bare_crank(canon_cfg):
    cfg = dataclasses.replace(
        canon_cfg,
        link_density=(2.0, 0.0, 0.0),
        payload_mass=0.0,
        gravity=(0.0, 0.0),
    )
    p = solve_fk(cfg.baseline, cfg, 0.0, "plus")
    tau = motor_torque(cfg.baseline, cfg, p, 0.0, 1.0)
    assert tau == pytest.approx(0.2 * 0.10**2 / 3.0, abs=1e-12)


def test_torque_affine_in_acceleration(canon_cfg):
    design = canon_cfg.baseline
    p = solve_ik(design, canon_cfg, math.radians(110.0), "plus")
    t0 = motor_torque(design, canon_cfg, p, 1.7, 0.0)
    t1 = motor_torque(design, canon_cfg, p, 1.7, 1.0)
    t2 = motor_torque(design, canon_cfg, p, 1.7, 2.0)
    assert t2 - t0 == pytest.approx(2.0 * (t1 - t0), abs=1e-10)
    assert t1 - t0 == pytest.approx(posture_terms(design, canon_cfg, p)[0], abs=1e-10)


def test_centrifugal_term_quadratic_in_rate(canon_cfg):
    cfg = dataclasses.replace(canon_cfg, gravity=(0.0, 0.0))
    design = cfg.baseline
    p = solve_ik(design, cfg, math.radians(110.0), "plus")
    t1 = motor_torque(design, cfg, p, 1.3, 0.0)
    t2 = motor_torque(design, cfg, p, 2.6, 0.0)
    assert t2 == pytest.approx(4.0 * t1, abs=1e-10)


def test_centrifugal_term_is_half_inertia_gradient(canon_cfg):
    # 1/2 I_eq' theta_dot^2 against a central difference of I_eq over FK postures
    design = canon_cfg.baseline
    h = 1e-5
    for elbow in ("plus", "minus"):
        for theta in (1.2, 1.6, 2.0, 2.4):
            p = solve_fk(design, canon_cfg, theta, elbow)
            half_grad = motor_torque(design, canon_cfg, p, 1.0, 0.0) - motor_torque(
                design, canon_cfg, p, 0.0, 0.0
            )
            i_hi = posture_terms(design, canon_cfg, solve_fk(design, canon_cfg, theta + h, elbow))[0]
            i_lo = posture_terms(design, canon_cfg, solve_fk(design, canon_cfg, theta - h, elbow))[0]
            assert half_grad == pytest.approx(0.5 * (i_hi - i_lo) / (2 * h), abs=1e-10)


def test_gravity_flip(canon_cfg):
    flipped = dataclasses.replace(canon_cfg, gravity=(0.0, 9.81))
    design = canon_cfg.baseline
    p = solve_ik(design, canon_cfg, math.radians(110.0), "plus")
    assert posture_terms(design, flipped, p)[2] == -posture_terms(design, canon_cfg, p)[2]
    assert posture_terms(design, flipped, p)[0] == posture_terms(design, canon_cfg, p)[0]


def test_reflected_inertia_positive_over_stroke(canon_cfg, canon_task):
    for p in postures(validate_baseline(canon_cfg, canon_task)):
        assert posture_terms(canon_cfg.baseline, canon_cfg, p)[0] > 0.0


def test_singular_fold_raises():
    cfg = MechanismConfig(pivot_c=(4.0, 0.0), baseline=DesignParams(1.0, 1.5, 1.5), branch="plus")
    p = solve_fk(cfg.baseline, cfg, 0.0, "plus")
    with pytest.raises(SingularState):
        posture_terms(cfg.baseline, cfg, p)


def test_energy_splits_into_kinetic_and_potential(canon_cfg):
    design = canon_cfg.baseline
    p = solve_ik(design, canon_cfg, math.radians(125.0), "plus")
    e0 = mechanical_energy(design, canon_cfg, p, 0.0)
    e1 = mechanical_energy(design, canon_cfg, p, 2.0)
    i_eq = posture_terms(design, canon_cfg, p)[0]
    assert e1 - e0 == pytest.approx(0.5 * i_eq * 4.0, abs=1e-12)
    weightless = dataclasses.replace(canon_cfg, gravity=(0.0, 0.0))
    assert mechanical_energy(design, weightless, p, 0.0) == 0.0


def test_canon_rms_torque(canon_cfg, canon_task):
    design = canon_cfg.baseline
    stroke = kinematic_transform(design, canon_cfg, canon_task)
    profile = torque_profile(design, canon_cfg, canon_task, stroke)
    assert canon_task.t_cycle == pytest.approx(1.0, abs=1e-15)
    assert len(profile.torque) == canon_task.n_samples
    assert profile.t_rms == pytest.approx(1.7428895130664603, rel=1e-12)
    # stored RMS agrees with a direct trapezoid pass over the cycle
    cycle = cycle_samples(canon_task, stroke, profile)
    assert len(cycle) == 2 * canon_task.n_samples
    assert profile.t_rms == pytest.approx(
        math.sqrt(trapz_sq(cycle) / canon_task.t_cycle), rel=1e-12
    )


def test_return_stroke_mirrors_forward(canon_cfg, canon_task):
    # the return stroke revisits each pose with the crank rate negated and
    # the same acceleration; its torque is the forward one
    design = canon_cfg.baseline
    stroke = kinematic_transform(design, canon_cfg, canon_task)
    profile = torque_profile(design, canon_cfg, canon_task, stroke)
    for k, p in enumerate(postures(stroke)):
        back = motor_torque(design, canon_cfg, p, -stroke.theta_dot[k], stroke.theta_ddot[k])
        assert back == profile.torque[k]
    half = trapz_sq(list(zip(stroke.t.tolist(), profile.torque.tolist())))
    assert profile.t_rms == pytest.approx(math.sqrt(2.0 * half / canon_task.t_cycle), rel=1e-12)


def test_dwell_holds_static_torque(canon_cfg):
    task = make_canon_task()
    task = dataclasses.replace(task, t_dwell=0.1)
    design = canon_cfg.baseline
    stroke = kinematic_transform(design, canon_cfg, task)
    profile = torque_profile(design, canon_cfg, task, stroke)
    n = task.n_samples
    assert task.t_cycle == pytest.approx(1.2, abs=1e-15)
    cycle = cycle_samples(task, stroke, profile)
    assert len(cycle) == 2 * n + 4
    t_in, tau_in = cycle[n]
    assert t_in == pytest.approx(task.t_move, abs=1e-15)
    assert cycle[n + 1] == pytest.approx((task.t_move + 0.1, tau_in))
    p_end = solve_ik(design, canon_cfg, task.delta_i, "plus")
    assert tau_in == pytest.approx(posture_terms(design, canon_cfg, p_end)[2], abs=1e-12)
    assert profile.t_rms == pytest.approx(
        math.sqrt(trapz_sq(cycle) / task.t_cycle), rel=1e-12
    )


def test_gravity_free_rms_regression(canon_cfg, canon_task):
    cfg = dataclasses.replace(canon_cfg, gravity=(0.0, 0.0))
    stroke = kinematic_transform(cfg.baseline, cfg, canon_task)
    profile = torque_profile(cfg.baseline, cfg, canon_task, stroke)
    assert profile.t_rms == pytest.approx(0.6430026397722677, rel=1e-12)


def test_rms_agrees_with_simpson_quadrature(canon_cfg):
    # trapezoid vs Simpson on a dense grid: quadrature error, not model error
    cfg = dataclasses.replace(canon_cfg, gravity=(0.0, 0.0))
    task = make_canon_task(n_samples=4001)
    stroke = kinematic_transform(cfg.baseline, cfg, task)
    profile = torque_profile(cfg.baseline, cfg, task, stroke)
    integral = simpson(profile.torque * profile.torque, x=stroke.t)
    rms = math.sqrt(integral / task.t_move)  # mirrored return doubles both factors
    assert profile.t_rms == pytest.approx(rms, rel=1e-4)
    assert abs(profile.t_rms - rms) / rms < 1e-6


def test_power_balance_along_stroke(canon_cfg):
    # motor power equals the rate of change of mechanical energy
    task = make_canon_task(n_samples=4001)
    design = canon_cfg.baseline
    stroke = kinematic_transform(design, canon_cfg, task)
    profile = torque_profile(design, canon_cfg, task, stroke)
    energies = []
    for delta, theta_dot in zip(stroke.delta.tolist(), stroke.theta_dot.tolist()):
        p = solve_ik(design, canon_cfg, delta, "plus")
        energies.append(mechanical_energy(design, canon_cfg, p, theta_dot))
    worst = 0.0
    for k in range(1, task.n_samples - 1):
        h2 = stroke.t[k + 1] - stroke.t[k - 1]
        e_dot = (energies[k + 1] - energies[k - 1]) / h2
        power = profile.torque[k] * stroke.theta_dot[k]
        worst = max(worst, abs(power - e_dot))
    assert worst < 1e-5


@settings(max_examples=200, deadline=None)
@given(
    mechanism=mechanisms(),
    heading=st.floats(-math.pi, math.pi),
    densities=st.tuples(*[st.floats(0.0, 5.0)] * 3),
    payload=st.floats(0.0, 1.0),
    tip_length=st.floats(0.0, 0.4),
)
@example(mechanism=crank_pivot_pass(), heading=-math.pi / 2, densities=(2.0, 2.0, 2.0), payload=0.5, tip_length=0.25)
def test_motor_work_equals_energy_change_on_random_mechanisms(mechanism, heading, densities, payload, tip_length):
    # the motor work over the baseline stroke equals the change of kinetic,
    # gravitational and tip-force potential energy, which the oracle sums
    # part by part from the joints.  The crank starts and ends at rest and
    # theta_ddot is 0 there too, so the trapezoid rule's h^2 error term
    # cancels and its error falls as h^4: under 1.1e-11 of the scale (the
    # absolute work plus both energies) over 10,000 draws at 2,001 samples,
    # 16x less at 4,001.  A term missing from the torque or the energy moves
    # the balance by its share of the work, far above the 1e-9 bound
    cfg, task = mechanism
    gravity = (9.81 * math.cos(heading), 9.81 * math.sin(heading))
    cfg = dataclasses.replace(
        cfg, gravity=gravity, link_density=densities, payload_mass=payload, effector_tip_length=tip_length
    )
    task = dataclasses.replace(task, n_samples=2001)
    design = cfg.baseline
    # where B passes through O with l_ab == l_oa, A is not determined: the
    # walk refuses the stroke rather than jump the crank angle there
    if rocker_tip_meets_crank_pivot(cfg, task):
        event("B passes through O")
        with pytest.raises(CrankIndeterminate):
            kinematic_transform(design, cfg, task)
        return
    stroke = kinematic_transform(design, cfg, task)
    try:
        profile = torque_profile(design, cfg, task, stroke)
    except SingularState:
        event("transmission singularity")
        assume(False)

    def integral(y):  # trapezoid rule over the stroke
        return float(np.sum(0.5 * (y[:-1] + y[1:]) * np.diff(stroke.t)))

    power = profile.torque * stroke.theta_dot
    start, end = postures(stroke, cfg.branch)[:: task.n_samples - 1]
    e_start = mechanical_energy(design, cfg, start, float(stroke.theta_dot[0]))
    e_end = mechanical_energy(design, cfg, end, float(stroke.theta_dot[-1]))
    scale = integral(np.abs(power)) + abs(e_start) + abs(e_end)
    assert abs(integral(power) - (e_end - e_start)) <= 1e-9 * scale
    event(f"branch {cfg.branch}, crank {'wraps past pi' if np.abs(stroke.theta).max() > math.pi else 'within (-pi, pi]'}")
    event(f"peak crank rate {'over' if np.abs(stroke.theta_dot).max() > 10.0 else 'under'} 10 rad/s")


@settings(max_examples=100, deadline=None)
@given(
    mechanism=mechanisms(),
    dwell=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
    force=st.tuples(*[st.floats(-3.0, 3.0)] * 2),
)
def test_rms_matches_a_full_cycle_trapezoid_on_random_mechanisms(mechanism, dwell, force):
    # t_rms sums the forward stroke once for both strokes; the explicit cycle
    # is the forward column, the tau_i dwell, the column mirrored on the
    # return grid (t_move + t_dwell) + t and the tau_e dwell
    cfg, task = mechanism
    cfg = dataclasses.replace(cfg, tip_force=force)
    task = dataclasses.replace(task, t_dwell=dwell)
    stroke = kinematic_transform(cfg.baseline, cfg, task)
    try:
        profile = torque_profile(cfg.baseline, cfg, task, stroke)
    except SingularState:
        event("transmission singularity")
        assume(False)
    cycle = cycle_samples(task, stroke, profile)
    assert profile.t_rms == pytest.approx(math.sqrt(trapz_sq(cycle) / task.t_cycle), rel=1e-12)
    event("with dwell" if dwell else "no dwell")


def test_trajectory_task_mismatch(canon_cfg, canon_task):
    stroke = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    other = make_canon_task(n_samples=101)
    with pytest.raises(ValueError):
        torque_profile(canon_cfg.baseline, canon_cfg, other, stroke)
    with pytest.raises(EmptyTrajectory):
        torque_profile(canon_cfg.baseline, canon_cfg, canon_task, fake_stroke([], []))


def test_torque_profile_names_the_first_singular_sample(canon_cfg, canon_task):
    # coupler folded back onto the rocker at sample 37: the walk completes
    # (the crank only reverses there) but the reflected inertia is unbounded
    cfg = dataclasses.replace(canon_cfg, branch="minus")
    stroke = kinematic_transform(cfg.baseline, cfg, canon_task)
    k = 37
    bx, by = stroke.point_b[k]
    cx, cy = cfg.pivot_c
    ax, ay = bx - 0.25 * (bx - cx) / 0.15, by - 0.25 * (by - cy) / 0.15
    design = DesignParams(math.hypot(ax, ay), 0.25, 0.15)
    folded = kinematic_transform(design, cfg, canon_task)
    with pytest.raises(SingularState) as exc:
        torque_profile(design, cfg, canon_task, folded)
    assert exc.value.t == folded.t[k]
    assert str(exc.value).endswith(f"at t={float(folded.t[k])!r}")


def test_torque_profile_checks_the_carried_joints(canon_cfg, canon_task):
    stroke = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    point_a = stroke.point_a.copy()
    point_a[7, 0] += 1e-3
    with pytest.raises(ValueError):
        torque_profile(
            canon_cfg.baseline, canon_cfg, canon_task, dataclasses.replace(stroke, point_a=point_a)
        )


def test_torque_profile_rejects_nan_joints(canon_cfg, canon_task):
    # a NaN joint has a NaN gap, which compares false with any bound
    stroke = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    point_a = stroke.point_a.copy()
    point_a[5] = math.nan
    with pytest.raises(ValueError, match="inconsistent with the design geometry"):
        torque_profile(
            canon_cfg.baseline, canon_cfg, canon_task, dataclasses.replace(stroke, point_a=point_a)
        )
