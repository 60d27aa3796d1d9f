import dataclasses
import math

import numpy as np
import pytest
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
    DesignParams,
    EmptyTrajectory,
    MechanismConfig,
    SingularState,
)
from fourbar_synth.oracle import mechanical_energy

from conftest import fake_stroke, make_canon_cfg, make_canon_task, mass_variants


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
    mm = mass_model(canon_cfg.baseline, canon_cfg)
    assert mm.crank.mass == pytest.approx(0.2, abs=1e-15)
    assert mm.crank.com == pytest.approx((0.05, 0.0), abs=1e-15)
    assert mm.crank.i_com == pytest.approx(0.2 * 0.10**2 / 12.0, abs=1e-18)
    assert mm.coupler.mass == pytest.approx(0.5, abs=1e-15)
    assert mm.coupler.com == pytest.approx((0.125, 0.0), abs=1e-15)
    assert mm.coupler.i_com == pytest.approx(0.5 * 0.25**2 / 12.0, abs=1e-18)


def test_rocker_composite(canon_cfg):
    # bar + effector beam + point payload, composed about the shared centroid
    parts = [
        (0.3, 0.075, 0.3 * 0.15**2 / 12.0),
        (0.5, 0.125, 0.5 * 0.25**2 / 12.0),
        (0.5, 0.25, 0.0),
    ]
    total = sum(m for m, _, _ in parts)
    gx = sum(m * x for m, x, _ in parts) / total
    i_g = sum(i + m * (x - gx) ** 2 for m, x, i in parts)
    mm = mass_model(canon_cfg.baseline, canon_cfg)
    assert mm.rocker.mass == pytest.approx(total, abs=1e-15)
    assert mm.rocker.com == pytest.approx((gx, 0.0), abs=1e-15)
    assert mm.rocker.i_com == pytest.approx(i_g, abs=1e-15)
    assert mm.rocker.mass == pytest.approx(1.3, abs=1e-12)
    assert mm.rocker.com[0] == pytest.approx(0.21 / 1.3, abs=1e-15)
    assert mm.rocker.i_com == pytest.approx(0.009993589743589743, abs=1e-15)


def test_rocker_composite_offset_beam(canon_cfg):
    # a perpendicular effector beam moves the centroid off the bar axis
    cfg = dataclasses.replace(canon_cfg, effector_offset=math.pi / 2)
    mm = mass_model(cfg.baseline, cfg)
    assert mm.rocker.mass == pytest.approx(1.3, abs=1e-15)
    assert mm.rocker.com[0] == pytest.approx(0.3 * 0.075 / 1.3, abs=1e-15)
    assert mm.rocker.com[1] == pytest.approx((0.5 * 0.125 + 0.5 * 0.25) / 1.3, abs=1e-15)


def rod_reference(density, length):
    mass = density * length
    return mass, 0.5 * length, 0.0, mass * length * length / 12.0


def mass_reference(cfg):
    """Design -> (mass, com_x, com_y, i_com) of crank, coupler and rocker, in Python floats.

    The rocker composite as a list of parts, summed one part at a time and
    squared by Python's float ``**``, the arithmetic of the mass model.
    """
    rho_oa, rho_ab, rho_bc = cfg.link_density
    lt, off = cfg.effector_tip_length, cfg.effector_offset
    if lt > 0.0:
        m_beam = rho_bc * lt
        cx, sx = math.cos(off), math.sin(off)
        attached = [(m_beam, 0.5 * lt * cx, 0.5 * lt * sx, m_beam * lt * lt / 12.0), (cfg.payload_mass, lt * cx, lt * sx, 0.0)]
    else:
        attached = [(cfg.payload_mass, 0.0, 0.0, 0.0)]

    def reference(l_oa, l_ab, l_bc):
        parts = [rod_reference(rho_bc, l_bc), *attached]
        total = mx = my = i_g = 0.0
        for m, x, y, _ in parts:
            total, mx, my = total + m, mx + m * x, my + m * y
        gx = gy = 0.0
        if total > 0.0:
            gx, gy = mx / total, my / total
            for m, x, y, i in parts:
                i_g = i_g + (i + m * ((x - gx) ** 2 + (y - gy) ** 2))
        return (*rod_reference(rho_oa, l_oa), *rod_reference(rho_ab, l_ab), total, gx, gy, i_g)

    return reference


def mass_fields(mm):
    return [v for link in (mm.crank, mm.coupler, mm.rocker) for v in (link.mass, *link.com, link.i_com)]


@pytest.mark.parametrize(
    "cfg",
    [make_canon_cfg(), *mass_variants(make_canon_cfg())],
    ids=["canon", "no-beam", "beam-across", "massless-rocker", "massless"],
)
def test_mass_model_is_elementwise(cfg):
    # 200,000 designs at once equal the plain-float composite and each
    # design's own call, field by field; numpy's ``v ** 2`` (v * v) in place
    # of pow changes some tens of canon rockers
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
    assert profile.t_cycle == pytest.approx(1.0, abs=1e-15)
    assert len(profile.torque) == canon_task.n_samples
    assert profile.t_rms == pytest.approx(1.7428895130664603, rel=1e-12)
    # stored RMS agrees with a direct trapezoid pass over the cycle
    cycle = cycle_samples(canon_task, stroke, profile)
    assert len(cycle) == 2 * canon_task.n_samples
    assert profile.t_rms == pytest.approx(
        math.sqrt(trapz_sq(cycle) / profile.t_cycle), rel=1e-12
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
    assert profile.t_rms == pytest.approx(math.sqrt(2.0 * half / profile.t_cycle), rel=1e-12)


def test_dwell_holds_static_torque(canon_cfg):
    task = make_canon_task()
    task = dataclasses.replace(task, t_dwell=0.1)
    design = canon_cfg.baseline
    stroke = kinematic_transform(design, canon_cfg, task)
    profile = torque_profile(design, canon_cfg, task, stroke)
    n = task.n_samples
    assert profile.t_cycle == pytest.approx(1.2, abs=1e-15)
    cycle = cycle_samples(task, stroke, profile)
    assert len(cycle) == 2 * n + 4
    t_in, tau_in = cycle[n]
    assert t_in == pytest.approx(task.t_move, abs=1e-15)
    assert cycle[n + 1] == pytest.approx((task.t_move + 0.1, tau_in))
    p_end = solve_ik(design, canon_cfg, task.delta_i, "plus")
    assert tau_in == pytest.approx(posture_terms(design, canon_cfg, p_end)[2], abs=1e-12)
    assert profile.t_rms == pytest.approx(
        math.sqrt(trapz_sq(cycle) / profile.t_cycle), rel=1e-12
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
