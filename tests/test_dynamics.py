import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from fourbar_synth.dynamics import posture_terms, torque_profile
from fourbar_synth.kinematics import (
    Posture,
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
    NotAssemblable,
    SingularState,
)
from fourbar_synth.oracle import mechanical_energy

from conftest import (
    crank_pivot_pass,
    fake_stroke,
    make_canon_task,
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


def test_massless_links_give_zero_torque(canon_cfg):
    cfg = dataclasses.replace(
        canon_cfg, link_density=(0.0, 0.0, 0.0), payload_mass=0.0
    )
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


def fold_angles(design, cfg):
    """Crank angles where coupler and rocker are collinear: |A - C| = l_ab + l_bc or |l_ab - l_bc|."""
    (ox, oy), (cx, cy) = cfg.pivot_o, cfg.pivot_c
    ground, heading = math.hypot(cx - ox, cy - oy), math.atan2(cy - oy, cx - ox)
    for reach in (design.l_ab + design.l_bc, abs(design.l_ab - design.l_bc)):
        cos = (design.l_oa**2 + ground**2 - reach**2) / (2.0 * design.l_oa * ground)
        if abs(cos) < 1.0:
            yield from (heading + math.acos(cos), heading - math.acos(cos))


def assembles(design, cfg, theta, elbow):
    try:
        solve_fk(design, cfg, theta, elbow)
    except NotAssemblable:
        return False
    return True


def exact_offset_fk(design, cfg, theta, elbow):
    """``solve_fk``'s posture with B recomputed from its A, the squared offset of B from the line A -> C exact.

    ``solve_fk`` takes that offset as the square root of a difference of
    squares of the lengths, each rounded, so B is off by about 2^-53 l_ab /
    sin(beta) along the direction B moves with theta.  Here the difference is
    taken in rationals and rounded once, and B carries a few ulps of the lengths.
    """
    posture = solve_fk(design, cfg, theta, elbow)
    (ax, ay), (cx, cy) = map(Fraction, posture.point_a), map(Fraction, cfg.pivot_c)
    l_ab, l_bc = Fraction(design.l_ab), Fraction(design.l_bc)
    dx, dy = cx - ax, cy - ay
    dd = dx * dx + dy * dy
    along = (dd + l_ab * l_ab - l_bc * l_bc) / (2 * dd)  # of A -> C, to the foot of B
    side = math.sqrt(l_ab * l_ab / dd - along * along) * (1.0 if elbow == "plus" else -1.0)
    bx, by = float(ax + along * dx) - side * float(dy), float(ay + along * dy) + side * float(dx)
    delta = math.atan2(by - cfg.pivot_c[1], bx - cfg.pivot_c[0]) + cfg.effector_offset
    return dataclasses.replace(posture, delta=delta, point_b=(bx, by))


def normal_mass(hi):
    """A mass per length or a mass in [0, hi], 0 for a draw below 1e-100: the relative bounds need normal floats."""
    return st.floats(0.0, hi).map(lambda x: x if x >= 1e-100 else 0.0)


@settings(max_examples=300, deadline=None)
@given(
    mechanism=mechanisms(),
    force=st.tuples(*[st.floats(-3.0, 3.0)] * 2),
    heading=st.floats(-math.pi, math.pi),
    densities=st.tuples(*[normal_mass(5.0)] * 3),
    payload=normal_mass(1.0),
    tip_length=st.floats(0.0, 0.4),
    theta=st.floats(-math.pi, math.pi),
    fold_gap=st.one_of(st.none(), st.floats(-7.0, -2.0)),
    elbow=st.sampled_from(["plus", "minus"]),
)
# draws that missed a bound with solve_fk's stencil or the design's lengths for I_eq (the task is not read)
@example(  # the quotient of E(0), 6.3e-4 against 1.7e-4
    mechanism=(
        MechanismConfig(
            pivot_o=(0.0, 0.0703125), pivot_c=(-0.0468451224967824, 0.3178724153650022),
            baseline=DesignParams(0.1118822891421072, 0.2796895949074983, 0.05), branch="plus",
        ),
        None,
    ),
    force=(0.0, -1.375), heading=3.0, densities=(0.0, 3.5, 3.875), payload=1.0, tip_length=0.1640625,
    theta=0.0, fold_gap=-6.0, elbow="plus",
)
@example(  # the quotient of E(0), 1.3e-5 against 7.6e-6
    mechanism=(
        MechanismConfig(
            pivot_o=(-0.0625, -0.083984375), pivot_c=(0.20452449695499775, 0.18291095959206355),
            baseline=DesignParams(0.03031014358004852, 0.3427013346021631, 0.0625), branch="plus",
            effector_offset=-0.77734375,
        ),
        None,
    ),
    force=(-2.75, 0.0), heading=-2.7890625, densities=(0.75, 0.0, 0.0), payload=0.9375,
    tip_length=0.255383031898621, theta=1.0, fold_gap=-5.0, elbow="plus",
)
@example(  # I_eq, 8.3e-17 against 4.5e-17
    mechanism=(
        MechanismConfig(
            pivot_o=(1e-12, 0.03652353280879919), pivot_c=(-0.05091280844215925, -0.29289868418261944),
            baseline=DesignParams(0.1071274571095494, 0.4122014839839127, 0.05), branch="plus",
            effector_offset=-0.02910796485533555,
        ),
        None,
    ),
    force=(-5e-324, 1.3832119610955997), heading=-2.859090455468219,
    densities=(2.5352446105318456, 1.3832119610955997, 0.0), payload=0.0, tip_length=0.18242758052751432,
    theta=2.7970357361636813, fold_gap=None, elbow="plus",
)
def test_posture_terms_are_the_energys_difference_quotients_on_random_mechanisms(
    mechanism, force, heading, densities, payload, tip_length, theta, fold_gap, elbow
):
    # at a solve_fk posture, under drawn link densities, payload, effector
    # tip length, tip force and gravity direction, against the oracle's
    # energy, which derives each part's mass and sums it from the velocity
    # closure and the joints:
    #   I_eq = 2 (E(theta_dot = 1) - E(0)), both at the joints' own lengths,
    #   I_eq' = the central difference of I_eq over theta,
    #   G - Q_ext = the central difference of E(0),
    # each difference sixth-order, at a power-of-two step h no larger than
    # 1e-3 or a 50th of the crank angle d to the nearest fold (coupler and
    # rocker collinear), at theta on the step's grid so that every theta
    # + k h is exact.  With fold_gap, theta sits 10^fold_gap from a fold.
    # Relative to I_eq + |E(0)|, |I_eq'| + I_eq / d and |G| + |Q_ext| +
    # |E(0)| / d (d at most 1), the errors times sin(beta) = |cross(B - C,
    # B - A)| / (l_bc l_ab), beta the transmission angle, were at most
    # 3.5e-16, 1.2e-9 and 1.9e-11 in 42,000 draws (14 seeds of 3,000):
    # solve_fk and the closure lose about 1 / sin(beta) of their digits as
    # a fold nears.  The bounds are 1e-15, 1e-8 and 1e-10 over sin(beta).
    #
    # Rounding the bounds leave out, and how the test keeps it out of the errors:
    # - The quotient weighs its six values by 110 / (60 h), so an error e_k
    #   in each carries up to (11 / 6) max |e_k| / h.  At solve_fk postures
    #   B is off by about 2^-53 l_ab / sin(beta) along its motion: the energy
    #   at a crank angle off by 5e-15 and 3e-14 rad at the first two draws
    #   above, so e_k ~ 3e-14 |G| and a quotient error ~ 1e-12 |G| / d, h
    #   being down to d / 100.  That exceeds 1e-10 |G| / sin(beta) once
    #   sin(beta) > 100 d, and the |E(0)| / d term does not cover it where
    #   the potentials of the weights cancel to a small E(0) (1.4e-3 J
    #   against |G| = 1.6e3 N m at the first draw).  So the stencil's
    #   postures theta + k h, k != 0, are ``exact_offset_fk``'s, where e_k is
    #   the rounding of E's own sum, about 2^-53 times its largest term.
    # - The kernel takes l_oa^2 and l_bc^2 from the design, the oracle
    #   |A - O|^2 and |B - C|^2 from the joints.  solve_fk rounds B at the
    #   size of its coordinates, up to 10 l_bc, so |B - C| was 6.2e-15 off
    #   l_bc relative at the third draw, and I_eq off 2 (E(1) - E(0)) by
    #   1.8e-15 / sin(beta) of the bound's scale.  So that term compares at
    #   the lengths the joints have.
    # - A subnormal mass (below 2.2e-308) carries fewer than 53 bits: with
    #   every mass at 2.2e-311 kg/m or below, the kernel's I_eq' and the
    #   quotient differed by 1e-6 relative.  No relative bound holds there,
    #   so a drawn mass below 1e-100 is 0.
    gravity = (9.81 * math.cos(heading), 9.81 * math.sin(heading))
    cfg = dataclasses.replace(
        mechanism[0], tip_force=force, gravity=gravity, link_density=densities, payload_mass=payload,
        effector_tip_length=tip_length,
    )
    design = cfg.baseline
    folds = list(fold_angles(design, cfg))

    def apart(angle):
        return abs(math.remainder(angle - theta, math.tau))

    if fold_gap is not None and folds:
        fold = min(folds, key=apart)
        sides = [fold + side * 10.0**fold_gap for side in (1.0, -1.0)]
        theta = next((t for t in sides if assembles(design, cfg, t, elbow)), theta)
    d = min([1.0, *map(apart, folds)])
    h = 2.0 ** math.floor(math.log2(min(1e-3, d / 50.0)))
    theta = round(theta / h) * h
    assume(assembles(design, cfg, theta, elbow))  # and so every theta + k h, short of the fold
    ps = {k: exact_offset_fk(design, cfg, theta + k * h, elbow) for k in (-3, -2, -1, 1, 2, 3)}
    ps[0] = solve_fk(design, cfg, theta, elbow)
    try:
        i_eq, i_prime, g_tau, q_ext = posture_terms(design, cfg, ps[0])
    except SingularState:
        assume(False)
    (ax, ay), (bx, by) = ps[0].point_a, ps[0].point_b
    cx, cy = cfg.pivot_c
    sin_beta = abs((bx - cx) * (by - ay) - (by - cy) * (bx - ax)) / (design.l_bc * design.l_ab)

    def quotient(f):  # sixth-order central difference at theta
        return sum(w * (f[k] - f[-k]) for k, w in ((1, 45.0), (2, -9.0), (3, 1.0))) / (60.0 * h)

    inertia = {k: posture_terms(design, cfg, p)[0] for k, p in ps.items()}
    rest = {k: mechanical_energy(design, cfg, p, 0.0) for k, p in ps.items()}
    ox, oy = cfg.pivot_o
    joints = DesignParams(math.hypot(ax - ox, ay - oy), math.hypot(bx - ax, by - ay), math.hypot(bx - cx, by - cy))
    moving = mechanical_energy(joints, cfg, ps[0], 1.0) - mechanical_energy(joints, cfg, ps[0], 0.0)
    assert abs(posture_terms(joints, cfg, ps[0])[0] - 2.0 * moving) <= 1e-15 / sin_beta * (i_eq + abs(rest[0]))
    assert abs(i_prime - quotient(inertia)) <= 1e-8 / sin_beta * (abs(i_prime) + i_eq / d)
    assert abs(g_tau - q_ext - quotient(rest)) <= 1e-10 / sin_beta * (abs(g_tau) + abs(q_ext) + abs(rest[0]) / d)
    event(f"sin(beta) {'under 1e-2' if sin_beta < 1e-2 else 'under 1e-1' if sin_beta < 0.1 else 'at least 1e-1'}")


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
    # the balance by its share of the work, far above the 1e-9 bound.  The
    # kinetic energy is 0 at both ends, so an inertia error that I_eq and
    # I_eq' share cancels from the balance; the difference quotients of the
    # energy above check the inertias
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
