"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a PASS line with the measured
numbers.  Tolerances are pinned here and nowhere else; runtime budgets are
asserted where a guarantee carries one.
"""

import json
import math
import time

import numpy as np
import pytest

from fourbar_synth.cli import main as cli_main
from fourbar_synth.constraints import dynamic_constraint, static_gap
from fourbar_synth.dynamics import torque_profile
from fourbar_synth.gp import KernelParams, gp_fit, gp_predict
from fourbar_synth.kinematics import (
    kinematic_coefficients,
    kinematic_transform,
    solve_fk,
    solve_ik,
)
from fourbar_synth.model import DesignParams, NotAssemblable, OptimizerConfig
from fourbar_synth.optimizer import BoStep, bo_minimize, run_optimization
from fourbar_synth.oracle import brute_static_gap, brute_theta_sweep, grid_sweep, mechanical_energy

from conftest import CANON_CONFIG, REPO_ROOT, fake_stroke

ARTIFACTS = REPO_ROOT / "artifacts"


def fk_elbow(posture, cfg):
    ax, ay = posture.point_a
    bx, by = posture.point_b
    cx, cy = cfg.pivot_c
    cross = (cx - ax) * (by - ay) - (cy - ay) * (bx - ax)
    return "plus" if cross > 0.0 else "minus"


def test_criterion_01_ik_fk_round_trip(canon_cfg):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    count = 0
    worst = 0.0
    while count < 1000:
        design = DesignParams(*rng.uniform(0.01, 0.45, size=3))
        delta = rng.uniform(math.radians(80.0), math.radians(160.0))
        elbow = "plus" if rng.random() < 0.5 else "minus"
        try:
            p = solve_ik(design, canon_cfg, delta, elbow)
        except NotAssemblable:
            continue
        q = solve_fk(design, canon_cfg, p.theta, fk_elbow(p, canon_cfg))
        worst = max(worst, abs(q.delta - delta))
        count += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"PASS criterion 1: IK/FK round trip, 1000 pairs, worst {worst:.3e} rad, {elapsed:.2f}s")


def test_criterion_02_hand_checkable_kinematics(canon_cfg):
    plus = solve_ik(canon_cfg.baseline, canon_cfg, math.pi / 2, "plus")
    assert plus.point_a == pytest.approx((0.06, 0.08), abs=1e-9)
    assert plus.theta == pytest.approx(0.927295, abs=1e-6)
    minus = solve_ik(canon_cfg.baseline, canon_cfg, math.pi / 2, "minus")
    assert minus.point_a == pytest.approx((0.10, 0.0), abs=1e-9)
    assert minus.theta == pytest.approx(0.0, abs=1e-9)
    coeff = kinematic_coefficients(plus, canon_cfg.baseline, canon_cfg)
    assert coeff.dtheta_ddelta == pytest.approx(2.4, abs=1e-9)
    print(
        "PASS criterion 2: touch pose A=(0.06,0.08)/theta=0.927295 (plus), "
        f"A=(0.10,0)/theta=0 (minus), dtheta/ddelta={coeff.dtheta_ddelta:.12f}"
    )


def test_criterion_03_energy_balance(canon_cfg, canon_task):
    design = canon_cfg.baseline
    stroke = kinematic_transform(design, canon_cfg, canon_task)
    profile = torque_profile(design, canon_cfg, canon_task, stroke)
    de = canon_task.delta_i - canon_task.delta_e
    tm = canon_task.t_move

    def energy_at(t):
        tau = t / tm
        s = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau * tau)
        sd = 30.0 * tau * tau * (1.0 - tau) ** 2 / tm
        p = solve_ik(design, canon_cfg, canon_task.delta_e + de * s, "plus")
        coeff = kinematic_coefficients(p, design, canon_cfg)
        return mechanical_energy(design, canon_cfg, p, coeff.dtheta_ddelta * de * sd)

    h = 1e-6
    worst = 0.0
    for k in range(1, canon_task.n_samples - 1):
        t = stroke.t[k]
        e_dot = (energy_at(t + h) - energy_at(t - h)) / (2.0 * h)
        power = profile.torque[k] * stroke.theta_dot[k]
        worst = max(worst, abs(power - e_dot) / max(1.0, abs(power)))
    assert worst <= 1e-5
    print(f"PASS criterion 3: energy balance on the stroke, worst residual {worst:.3e}")


def test_criterion_04_static_gap_correctness(canon_cfg, canon_task):
    rng = np.random.default_rng(7)
    checked = skipped = 0
    worst_diff = 0.0
    floor = 0.0
    for _ in range(10_000):
        design = DesignParams(*rng.uniform(0.01, 0.45, size=3))
        pose = "i" if rng.random() < 0.5 else "e"
        res = static_gap(design, canon_cfg, canon_task, pose)
        floor = min(floor, res.value)

        slow = brute_static_gap(design, canon_cfg, canon_task, pose)
        worst_diff = max(worst_diff, abs(res.value - slow))

        # independent sign classifier: annulus reachability + segment occlusion
        delta = canon_task.delta_i if pose == "i" else canon_task.delta_e
        ang = delta - canon_cfg.effector_offset
        bx = canon_cfg.pivot_c[0] + design.l_bc * math.cos(ang)
        by = canon_cfg.pivot_c[1] + design.l_bc * math.sin(ang)
        r_in = abs(design.l_ab - design.l_oa)
        r_out = design.l_ab + design.l_oa
        d_ob = math.hypot(bx, by)
        opx, opy = res.o_prime_init
        s_o = math.hypot(opx, opy)
        if s_o < 1e-9:
            expected_positive = False
        else:
            reachable = r_in <= d_ob <= r_out
            ux, uy = -opx / s_o, -opy / s_o
            t_star = min(max((bx - opx) * ux + (by - opy) * uy, 0.0), s_o)
            dip = math.hypot(opx + t_star * ux - bx, opy + t_star * uy - by)
            guard = min(
                abs(d_ob - r_in), abs(d_ob - r_out), abs(dip - r_in), abs(res.value)
            )
            if guard < 1e-9:
                skipped += 1
                continue
            expected_positive = (not reachable) or dip < r_in
        assert (res.value > 0.0) == expected_positive, (design, pose)
        checked += 1
    assert worst_diff <= 2e-6
    assert floor >= -0.020 - 1e-12
    print(
        f"PASS criterion 4: static gap, {checked} sign classifications "
        f"({skipped} boundary cases skipped), brute diff {worst_diff:.3e} m, floor {floor:.6f} m"
    )


def test_criterion_05_dynamic_constraint_correctness(canon_cfg, canon_task):
    # clean stroke: dense oracle monotone and the constraint is exactly zero
    base_traj = kinematic_transform(canon_cfg.baseline, canon_cfg, canon_task)
    swept = brute_theta_sweep(canon_cfg.baseline, canon_cfg, canon_task, n=4001)
    thetas = [th for _, _, th in swept]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))
    assert dynamic_constraint(base_traj) == 0.0

    # defective stroke: constraint equals the oracle reversal range to a step
    design = DesignParams(0.244710222, 0.133037882, 0.166103598)
    traj = kinematic_transform(design, canon_cfg, canon_task)
    c_dyn = dynamic_constraint(traj)
    assert c_dyn > 0.0
    swept = brute_theta_sweep(design, canon_cfg, canon_task, n=4001)
    thetas = [th for _, _, th in swept]
    net = thetas[-1] - thetas[0]
    ref = 1 if net >= 0 else -1
    viol = [
        thetas[k]
        for k in range(1, len(thetas))
        if abs(thetas[k] - thetas[k - 1]) > 1e-14
        and (1 if thetas[k] - thetas[k - 1] > 0 else -1) == -ref
    ]
    oracle_range = max(viol) - min(viol)
    grid_step = float(np.abs(np.diff(traj.theta)).max())
    assert abs(c_dyn - oracle_range) <= grid_step

    # hand trace: two forward samples, two reversed, one recovering
    hand = fake_stroke([0.0, 0.20, 0.15, 0.05, 0.10], [1.0, 1.0, -1.0, -1.0, 1.0])
    hand_value = dynamic_constraint(hand)
    assert hand_value == 0.15 - 0.05
    assert hand_value == pytest.approx(0.10, abs=1e-15)
    print(
        f"PASS criterion 5: defect range {c_dyn:.6f} vs oracle {oracle_range:.6f} "
        f"(step {grid_step:.6f}), hand trace {hand_value!r}"
    )


def test_criterion_06_gp_exactness():
    bounds = ((0.0, 1.0), (0.0, 1.0))
    xs = np.array([[0.2, 0.3], [0.7, 0.8], [0.5, 0.1]])
    ys = np.array([1.0, -0.5, 0.7])
    kernel = KernelParams(signal_variance=1.3, lengthscales=(0.45, 0.6), noise_variance=1e-5)
    model = gp_fit([(tuple(x), float(y)) for x, y in zip(xs, ys)], bounds, kernel=kernel)

    ls = np.asarray(kernel.lengthscales)

    def k_of(a, b):
        d = (a[:, None, :] - b[None, :, :]) / ls
        r = np.sqrt((d * d).sum(axis=2))
        sr5 = math.sqrt(5.0) * r
        return kernel.signal_variance * (1.0 + sr5 + 5.0 * r * r / 3.0) * np.exp(-sr5)

    y_std = (ys - ys.mean()) / ys.std()
    k_inv = np.linalg.inv(k_of(xs, xs) + kernel.noise_variance * np.eye(3))
    q = np.array([[0.4, 0.4], [0.9, 0.2], [0.15, 0.85]])
    ks = k_of(q, xs)
    mean = ys.mean() + ys.std() * (ks @ k_inv @ y_std)
    var = ys.std() ** 2 * (kernel.signal_variance - np.einsum("ij,ij->i", ks @ k_inv, ks))
    mu, v = gp_predict(model, q)
    worst = max(np.abs(mu - mean).max(), np.abs(v - var).max())
    assert worst <= 1e-10

    tight = KernelParams(signal_variance=1.0, lengthscales=(0.5, 0.5), noise_variance=1e-12)
    interp = gp_fit([(tuple(x), float(y)) for x, y in zip(xs, ys)], bounds, kernel=tight)
    mu_i, _ = gp_predict(interp, xs)
    assert np.abs(mu_i - ys).max() <= 1e-8

    narrow = KernelParams(signal_variance=2.0, lengthscales=(0.02, 0.02), noise_variance=1e-8)
    prior = gp_fit([(tuple(x), float(y)) for x, y in zip(xs, ys)], bounds, kernel=narrow)
    mu_far, var_far = gp_predict(prior, (0.99, 0.99))
    assert mu_far == pytest.approx(ys.mean(), abs=1e-6)
    assert var_far == pytest.approx(prior.prior_variance, rel=1e-6)
    print(f"PASS criterion 6: GP vs dense solve, worst {worst:.3e}; interpolation and prior reversion hold")


def test_criterion_07_constrained_bo_testbed():
    t0 = time.perf_counter()
    bests = []
    for seed in range(5):
        opt = OptimizerConfig(
            bounds=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
            n_init=12, n_max=50, n_acq_starts=16, n_acq_samples=2048, seed=seed,
        )

        def evaluate(x):
            arr = np.asarray(x)
            return BoStep(
                x=x,
                objective=float(arr @ arr),
                constraints={"ball": 0.5 - float(np.linalg.norm(arr))},
            )

        steps, _ = bo_minimize(evaluate, opt)
        feasible = [s.objective for s in steps if s.constraints["ball"] <= 0.0]
        assert feasible, f"seed {seed} found nothing feasible"
        bests.append(min(feasible))
    elapsed = time.perf_counter() - t0
    mean_best = sum(bests) / len(bests)
    assert mean_best <= 0.30
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: testbed mean best {mean_best:.4f} over 5 seeds "
        f"(true optimum 0.25), {elapsed:.1f}s"
    )


def test_criterion_08_end_to_end_synthesis(canon_cfg, canon_task, canon_opt):
    t0 = time.perf_counter()
    records = grid_sweep(canon_cfg, canon_task, canon_opt.bounds, resolution=21)
    grid_best = min(
        r.objective
        for r in records
        if r.constraints.feasible and r.objective is not None
    )
    trace = run_optimization(canon_cfg, canon_task, canon_opt)
    elapsed = time.perf_counter() - t0
    assert trace.best_feasible is not None
    design, bo_best = trace.best_feasible
    ratio = bo_best / grid_best
    assert ratio <= 1.05
    assert elapsed < 900.0
    print(
        f"PASS criterion 8: BO best {bo_best:.6f} at {design.as_tuple()} vs "
        f"grid best {grid_best:.6f}, ratio {ratio:.4f}, {elapsed:.1f}s"
    )


def test_criterion_09_deterministic_optimize(tmp_path, capsys):
    data = json.loads(CANON_CONFIG.read_text())
    config = tmp_path / "canon.json"
    config.write_text(json.dumps(data))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(
            ["optimize", "--config", str(config), "--budget", "16", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    print(f"PASS criterion 9: two optimize runs, byte-identical trace CSVs ({len(outs[0])} bytes)")


def test_criterion_10_constraint_map_topology(canon_cfg, canon_task):
    # the canonical search box holds no motion-defect designs, so the map is
    # drawn on a widened crank window where both constraint families bound
    # the feasible set
    window = ((0.03, 0.26), (0.15, 0.34), (0.08, 0.25))
    res = 15
    records = grid_sweep(canon_cfg, canon_task, window, resolution=res)
    ci = 6  # l_bc ~ 0.153, mid-window slice
    axes = [np.linspace(lo, hi, res) for lo, hi in window]

    def cell(i, j):
        return records[(i * res + j) * res + ci]

    feas = [[cell(i, j).constraints.feasible for j in range(res)] for i in range(res)]

    # exactly one 4-connected feasible component
    seen = [[False] * res for _ in range(res)]
    comps = 0
    for i in range(res):
        for j in range(res):
            if feas[i][j] and not seen[i][j]:
                comps += 1
                stack = [(i, j)]
                seen[i][j] = True
                while stack:
                    a, b = stack.pop()
                    for x, y in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                        if 0 <= x < res and 0 <= y < res and feas[x][y] and not seen[x][y]:
                            seen[x][y] = True
                            stack.append((x, y))
    n_feas = sum(map(sum, feas))
    assert n_feas > 0
    assert comps == 1

    # feasible cells form one contiguous run in every crank row
    for i in range(res):
        run = [j for j in range(res) if feas[i][j]]
        if run:
            assert run == list(range(run[0], run[-1] + 1))

    # classify the infeasible cells that touch the feasible region
    static_rows = []
    dynamic_rows = []
    for i in range(res):
        for j in range(res):
            if feas[i][j]:
                continue
            touches = any(
                0 <= x < res and 0 <= y < res and feas[x][y]
                for x, y in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
            )
            if not touches:
                continue
            c = cell(i, j).constraints
            if c.c_static_i > 0.0 or c.c_static_e > 0.0:
                static_rows.append(i)
            elif c.c_dyn is None or c.c_dyn > 1e-9:
                dynamic_rows.append(i)
    assert static_rows and dynamic_rows
    # static boundaries sit at the short-crank extreme of the window, the
    # motion-defect boundary takes over beyond the wedge
    assert max(static_rows) < min(dynamic_rows)

    ARTIFACTS.mkdir(exist_ok=True)
    lines = [
        "feasibility slice at l_bc = %.4f m (crank rows, coupler columns)" % axes[2][ci],
        "legend: '#' feasible, 's' static gap violated, 'd' crank reversal, 'x' no stroke",
        "",
        "l_oa \\ l_ab " + " ".join(f"{v:.2f}"[1:] for v in axes[1]),
    ]
    for i in range(res):
        row = []
        for j in range(res):
            if feas[i][j]:
                row.append("#")
            else:
                c = cell(i, j).constraints
                if c.c_static_i > 0.0 or c.c_static_e > 0.0:
                    row.append("s")
                elif c.c_dyn is None:
                    row.append("x")
                else:
                    row.append("d" if c.c_dyn > 1e-9 else "?")
        lines.append(f"   {axes[0][i]:.3f}    " + "   ".join(row))
    (ARTIFACTS / "constraint_map.txt").write_text("\n".join(lines) + "\n")
    print(
        f"PASS criterion 10: single feasible component ({n_feas} cells), static "
        f"boundary rows <= {max(static_rows)}, dynamic rows >= {min(dynamic_rows)}, "
        "map written to artifacts/constraint_map.txt"
    )
