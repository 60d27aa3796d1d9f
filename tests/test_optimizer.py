import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from fourbar_synth import gp, optimizer
from fourbar_synth.constraints import static_gaps
from fourbar_synth.gp import KernelParams, gp_fit, gp_predict
from fourbar_synth.model import (
    ConstraintBundle,
    DesignParams,
    EvaluationRecord,
    OptimizerConfig,
    ValidationError,
)
from fourbar_synth.optimizer import (
    BoStep,
    bo_minimize,
    constrained_ei,
    fit_surrogates,
    latin_hypercube,
    propose_next,
    run_optimization,
    step_from_record,
)

from conftest import counting

UNIT2 = ((0.0, 1.0), (0.0, 1.0))


def small_cfg(**over):
    base = dict(bounds=UNIT2, n_init=4, n_max=10, n_acq_starts=4, n_acq_samples=128, seed=1)
    base.update(over)
    return OptimizerConfig(**base)


def bowl(x):
    return (x[0] - 0.3) ** 2 + (x[1] - 0.7) ** 2


def fitted_objective():
    pts = [((0.1, 0.1), 0.8), ((0.9, 0.2), 0.5), ((0.4, 0.8), 0.2), ((0.7, 0.6), 0.4)]
    kernel = KernelParams(signal_variance=1.0, lengthscales=(0.5, 0.5), noise_variance=1e-6)
    return gp_fit(pts, UNIT2, kernel=kernel)


def test_latin_hypercube_strata():
    bounds = ((0.0, 1.0), (10.0, 20.0), (-2.0, 0.0))
    pts = latin_hypercube(8, bounds, seed=3)
    assert pts.shape == (8, 3)
    for j, (lo, hi) in enumerate(bounds):
        unit = np.sort((pts[:, j] - lo) / (hi - lo))
        strata = np.floor(unit * 8).astype(int)
        assert list(strata) == list(range(8))


def test_latin_hypercube_seeding():
    a = latin_hypercube(6, UNIT2, seed=0)
    b = latin_hypercube(6, UNIT2, seed=0)
    c = latin_hypercube(6, UNIT2, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    single = latin_hypercube(1, UNIT2, seed=0)
    assert single.shape == (1, 2)
    assert np.all(single >= 0.0) and np.all(single <= 1.0)
    with pytest.raises(ValueError):
        latin_hypercube(0, UNIT2, seed=0)


def test_ei_at_zero_improvement_is_sigma_scaled():
    model = fitted_objective()
    q = (0.55, 0.45)
    mu, var = gp_predict(model, q)
    # f_best equal to the posterior mean puts z exactly at zero
    val = constrained_ei(q, model, (), f_best=mu)
    assert val == pytest.approx(math.sqrt(var) / math.sqrt(2.0 * math.pi), rel=1e-12)


def test_ei_degrades_to_hinge_at_zero_variance():
    flat = gp_fit([((0.2, 0.2), 1.0), ((0.8, 0.8), 1.0)], UNIT2)
    assert flat.degenerate
    assert constrained_ei((0.5, 0.5), flat, (), f_best=1.3) == pytest.approx(0.3, abs=1e-15)
    assert constrained_ei((0.5, 0.5), flat, (), f_best=0.7) == 0.0


def test_certain_constraints_gate_hard():
    model = fitted_objective()
    q = (0.55, 0.45)
    mu, _ = gp_predict(model, q)
    ok = gp_fit([((0.1, 0.1), -1.0), ((0.9, 0.9), -1.0)], UNIT2)
    bad = gp_fit([((0.1, 0.1), 2.0), ((0.9, 0.9), 2.0)], UNIT2)
    base = constrained_ei(q, model, (), f_best=mu + 0.1)
    assert constrained_ei(q, model, (ok,), f_best=mu + 0.1) == base
    assert constrained_ei(q, model, (bad,), f_best=mu + 0.1) == 0.0


def test_uncertain_constraint_scales_by_feasibility_probability():
    model = fitted_objective()
    pts = [((0.1, 0.1), -0.5), ((0.9, 0.2), 0.4), ((0.4, 0.8), -0.1), ((0.7, 0.6), 0.2)]
    kernel = KernelParams(signal_variance=0.8, lengthscales=(0.4, 0.4), noise_variance=1e-4)
    cmod = gp_fit(pts, UNIT2, kernel=kernel)
    q = (0.5, 0.5)
    mu_o, _ = gp_predict(model, q)
    mu_c, var_c = gp_predict(cmod, q)
    base = constrained_ei(q, model, (), f_best=mu_o + 0.2)
    expected = base * norm.cdf(-mu_c / math.sqrt(var_c))
    assert constrained_ei(q, model, (cmod,), f_best=mu_o + 0.2) == pytest.approx(
        expected, rel=1e-12
    )


@pytest.mark.parametrize("level", [-1.0, 0.0, 2.0])
def test_a_constant_constraint_model_is_a_hard_factor_without_a_prediction(level, monkeypatch):
    model = fitted_objective()
    pts = [((0.1, 0.1), -0.5), ((0.9, 0.2), 0.4), ((0.4, 0.8), -0.1), ((0.7, 0.6), 0.2)]
    kernel = KernelParams(signal_variance=0.8, lengthscales=(0.4, 0.4), noise_variance=1e-4)
    cmod = gp_fit(pts, UNIT2, kernel=kernel)
    const = gp_fit([((0.1, 0.1), level), ((0.9, 0.9), level)], UNIT2)
    assert const.degenerate
    q = np.random.default_rng(3).uniform(size=(50, 2))
    f_best = 0.45

    # the general expression, through a prediction, for every model
    pof = np.ones(len(q))
    for cm in (cmod, const):
        mu, var = gp_predict(cm, q)
        sd = np.sqrt(var)
        ok = sd > 0.0
        pof *= np.where(ok, ndtr(-mu / np.where(ok, sd, 1.0)), (mu <= 0.0).astype(float))
    expected = constrained_ei(q, model, (), f_best) * pof

    calls = {}
    monkeypatch.setattr(optimizer, "gp_predict", counting(calls, "predict", gp_predict))
    got = constrained_ei(q, model, (cmod, const), f_best)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert calls == {"predict": 2}  # the objective and cmod, not the constant model
    assert (got == 0.0).all() == (level > 0.0)


def test_feasibility_only_acquisition_without_objective():
    cmod = gp_fit([((0.1, 0.1), -0.5), ((0.9, 0.9), 0.5)], UNIT2, seed=0)
    q = np.array([[0.3, 0.3], [0.8, 0.8]])
    mu, var = gp_predict(cmod, q)
    expected = norm.cdf(-mu / np.sqrt(var))
    got = constrained_ei(q, None, (cmod,), f_best=None)
    assert got == pytest.approx(expected, rel=1e-12)


def test_propose_next_stays_in_box_and_avoids_repeats():
    opt = small_cfg(n_acq_samples=64)
    steps = [
        BoStep(x=(0.2, 0.2), objective=0.5, constraints={}),
        BoStep(x=(0.8, 0.4), objective=0.3, constraints={}),
        BoStep(x=(0.5, 0.9), objective=0.7, constraints={}),
        BoStep(x=(0.3, 0.6), objective=0.4, constraints={}),
    ]
    models = fit_surrogates(steps, opt)
    x, acq = propose_next([s.x for s in steps], models, opt)
    assert len(x) == 2
    for (lo, hi), v in zip(opt.bounds, x):
        assert lo <= v <= hi
    assert all(x != s.x for s in steps)
    assert acq >= 0.0
    again, _ = propose_next([s.x for s in steps], models, opt)
    assert again == x


def test_always_feasible_constraint_leaves_search_unchanged():
    # a constraint observed at a constant feasible value fits a degenerate
    # model whose feasibility factor is exactly one everywhere
    def run(with_constraint):
        def evaluate(x):
            cons = {"c": -1.0} if with_constraint else {}
            return BoStep(x=x, objective=bowl(x), constraints=cons)

        steps, _ = bo_minimize(evaluate, small_cfg())
        return [s.x for s in steps]

    assert run(False) == run(True)


def test_bo_minimize_budget_and_acquisition_layout():
    def evaluate(x):
        return BoStep(x=x, objective=bowl(x), constraints={})

    opt = small_cfg()
    steps, acq = bo_minimize(evaluate, opt)
    assert len(steps) == opt.n_max
    assert len(acq) == opt.n_max
    assert all(a is None for a in acq[: opt.n_init])
    assert all(isinstance(a, float) for a in acq[opt.n_init :])


def test_bo_minimize_improves_on_initial_design():
    def evaluate(x):
        return BoStep(x=x, objective=bowl(x), constraints={})

    opt = small_cfg(n_max=20, n_acq_samples=256, n_acq_starts=8)
    steps, _ = bo_minimize(evaluate, opt)
    init_best = min(s.objective for s in steps[: opt.n_init])
    final_best = min(s.objective for s in steps)
    assert final_best <= init_best
    assert final_best < 0.02


def test_bo_minimize_reaches_gp_through_module_attributes(monkeypatch):
    # the benchmark times fits and predictions by wrapping these two names
    calls = {"fit": 0, "predict": 0}

    def counting_fit(*args, **kwargs):
        calls["fit"] += 1
        return gp_fit(*args, **kwargs)

    def counting_predict(*args, **kwargs):
        calls["predict"] += 1
        return gp_predict(*args, **kwargs)

    monkeypatch.setattr(optimizer, "gp_fit", counting_fit)
    monkeypatch.setattr(optimizer, "gp_predict", counting_predict)

    def evaluate(x):
        return BoStep(x=x, objective=bowl(x), constraints={"c": x[0] - 0.8})

    bo_minimize(evaluate, small_cfg(n_max=6))
    assert calls["fit"] > 0 and calls["predict"] > 0


def test_bo_minimize_warm_starts_each_surrogate_from_its_previous_fit(monkeypatch):
    starts = []  # x0 of every L-BFGS-B search, in call order
    fits = {}  # id(model) -> the x0s of the search that fitted it
    sets = []  # every SurrogateSet, in iteration order
    real_minimize = gp.minimize

    def recording_minimize(fun, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return real_minimize(fun, x0, *args, **kwargs)

    def recording_fit(*args, **kwargs):
        first = len(starts)
        model = gp_fit(*args, **kwargs)
        fits[id(model)] = starts[first:]
        return model

    def recording_surrogates(*args, **kwargs):
        sets.append(fit_surrogates(*args, **kwargs))
        return sets[-1]

    monkeypatch.setattr(gp, "minimize", recording_minimize)
    monkeypatch.setattr(optimizer, "gp_fit", recording_fit)
    monkeypatch.setattr(optimizer, "fit_surrogates", recording_surrogates)

    evaluated = []

    def evaluate(x):
        evaluated.append(x)
        late = len(evaluated) > 6
        constraints = {
            "c_late": x[0] - 0.5 if late else 0.0,  # constant, so degenerate, at first
            "c_sparse": x[1] - 0.9 if late else None,  # no model before two observations
        }
        return BoStep(x=x, objective=bowl(x), constraints=constraints)

    bo_minimize(evaluate, small_cfg(n_max=10))

    seen = []
    previous = optimizer.SurrogateSet(None, (), (), None)
    for iteration, models in enumerate(sets, start=4):  # n_init = 4
        before = dict(zip(previous.constraint_names, previous.constraints))
        pairs = [("objective", models.objective, previous.objective)]
        pairs += [(name, m, before.get(name)) for name, m in zip(models.constraint_names, models.constraints)]
        for name, model, pred in pairs:
            x0s = fits[id(model)]
            if model.degenerate:
                kind = "degenerate"
                assert x0s == []
            elif pred is None or pred.degenerate:
                kind = "cold" if pred is None else "cold after degenerate"
                assert len(x0s) == 8
            else:
                # the default start joins a warm fit when the evaluation count is a multiple of 4
                kind = "warm, restart" if iteration % 4 == 0 else "warm"
                assert len(x0s) == (2 if iteration % 4 == 0 else 1)
                k = pred.kernel
                assert np.array_equal(x0s[0], np.log([*k.lengthscales, k.noise_variance / k.signal_variance]))
                assert np.array_equal(x0s[1:], [[math.log(0.5), math.log(0.5), math.log(1e-4)]] * (len(x0s) - 1))
            seen.append((name, kind, iteration))
        previous = models

    assert seen == [
        ("objective", "cold", 4),
        ("c_late", "degenerate", 4),
        ("objective", "warm", 5),
        ("c_late", "degenerate", 5),
        ("objective", "warm", 6),
        ("c_late", "degenerate", 6),
        ("objective", "warm", 7),
        ("c_late", "cold after degenerate", 7),
        ("objective", "warm, restart", 8),
        ("c_late", "warm, restart", 8),
        ("c_sparse", "cold", 8),
        ("objective", "warm", 9),
        ("c_late", "warm", 9),
        ("c_sparse", "warm", 9),
    ]


def ball_testbed(x):
    # criterion 07's testbed: minimize |x|^2 outside the ball |x| < 0.5
    arr = np.asarray(x)
    ball = 0.5 - float(np.linalg.norm(arr))
    return BoStep(x=x, objective=float(arr @ arr), constraints={"ball": ball})


def test_known_mask_passing_everything_changes_nothing():
    opt = OptimizerConfig(
        bounds=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        n_init=12, n_max=30, n_acq_starts=16, n_acq_samples=2048, seed=0,
    )
    steps, acq = bo_minimize(ball_testbed, opt)
    masked_steps, masked_acq = bo_minimize(ball_testbed, opt, known=lambda X: np.ones(len(X)))
    assert [s.x for s in masked_steps] == [s.x for s in steps]
    assert masked_acq == acq


def proposal_setup():
    opt = small_cfg(n_acq_samples=256, n_acq_starts=8)
    steps = [
        BoStep(x=(0.2, 0.2), objective=bowl((0.2, 0.2)), constraints={}),
        BoStep(x=(0.8, 0.4), objective=bowl((0.8, 0.4)), constraints={}),
        BoStep(x=(0.5, 0.9), objective=bowl((0.5, 0.9)), constraints={}),
        BoStep(x=(0.3, 0.6), objective=bowl((0.3, 0.6)), constraints={}),
        BoStep(x=(0.9, 0.9), objective=bowl((0.9, 0.9)), constraints={}),
    ]
    return opt, [s.x for s in steps], fit_surrogates(steps, opt)


def test_propose_next_stays_where_the_known_mask_passes():
    opt, evaluated, models = proposal_setup()
    free, _ = propose_next(evaluated, models, opt)
    assert free[0] < 0.6  # the bowl's minimum sits at x0 = 0.3

    def right_strip(X):
        return X[:, 0] > 0.6

    x, acq = propose_next(evaluated, models, opt, known=right_strip)
    assert x[0] > 0.6
    assert acq > 0.0
    assert acq == pytest.approx(
        constrained_ei(x, models.objective, models.constraints, models.f_best), rel=1e-12
    )


def test_propose_next_keeps_to_the_mask_where_ei_underflows():
    # far below every prediction, EI is exactly zero at every point; the
    # tie must still go to a point that passes the mask
    opt, evaluated, models = proposal_setup()
    hopeless = optimizer.SurrogateSet(models.objective, (), (), -1e3)
    x, acq = propose_next(evaluated, hopeless, opt)
    assert acq == 0.0 and x[0] < 0.6  # unmasked, the first probe wins the tie
    x, acq = propose_next(evaluated, hopeless, opt, known=lambda X: X[:, 0] > 0.6)
    assert acq == 0.0 and x[0] > 0.6


def test_propose_next_with_no_probe_passing_proposes_the_first_probe(monkeypatch):
    # every probe masked out leaves a zero acquisition with no slope to
    # descend: no sweep runs, no surrogate is evaluated, and the first probe
    # (a uniform draw) is proposed with value 0.0
    opt, evaluated, models = proposal_setup()
    calls = {}
    monkeypatch.setattr(
        optimizer, "constrained_ei", counting(calls, "constrained_ei", optimizer.constrained_ei)
    )
    masked = []

    def nothing(X):
        masked.append(X.copy())
        return np.zeros(len(X))

    x, acq = propose_next(evaluated, models, opt, known=nothing)
    assert len(masked) == 1 and masked[0].shape == (opt.n_acq_samples, 2)
    assert x == tuple(masked[0][0])
    assert acq == 0.0
    assert calls == {}


def sweep_calls(monkeypatch, mask):
    """The points of each acquisition call of one proposal on the unit line.

    Two starts descend, one at each of two probes; the acquisition peaks at
    the first probe.  The probes pass the ``known`` mask, and every later
    point passes where ``mask(points, probes)`` does.
    """
    opt = OptimizerConfig(
        bounds=((0.0, 1.0),), n_init=4, n_max=5, n_acq_starts=2, n_acq_samples=2, seed=0
    )
    calls = []

    def known(X):
        calls.append(X[:, 0].copy())
        return np.ones(len(X), dtype=bool) if len(calls) == 1 else mask(X[:, 0], calls[0])

    def peaked(X, *models):
        return 1.0 - np.abs(X[:, 0] - calls[0][0])

    monkeypatch.setattr(optimizer, "constrained_ei", peaked)
    propose_next([], optimizer.SurrogateSet(None, (), (), None), opt, known=known)
    return calls


def around(x, step):
    return [x + step, x - step, x + step / 4, x - step / 4]


def test_a_sweep_tries_each_move_at_f_and_at_f_over_4_in_one_call(monkeypatch):
    # the mask passes only within 0.05 of the second probe: that start's
    # move at f = 0.1 is masked, its move at f/4 passes and climbs; the
    # first start sits on the peak, fails at both fractions, shrinks 8-fold
    calls = sweep_calls(monkeypatch, lambda x, probes: np.abs(x - probes[1]) < 0.05)
    peak, second = calls[0]
    assert 0.15 < second < peak - 0.2 and peak < 0.85  # no move is clipped
    assert calls[1] == pytest.approx(around(peak, 0.1) + around(second, 0.1), abs=1e-15)
    moved = second + 0.025  # doubles its winning fraction, to 0.05
    assert calls[2] == pytest.approx(around(peak, 0.0125) + around(moved, 0.05), abs=1e-15)


def test_a_start_that_fails_at_both_fractions_shrinks_8_fold_per_sweep(monkeypatch):
    # past the probes nothing passes: 0.1 -> 0.0125 -> 0.0015625 ->
    # 0.000195 -> 0.0000244, below 1e-4, so four sweeps after the probes
    calls = sweep_calls(monkeypatch, lambda x, probes: np.zeros(len(x), dtype=bool))
    assert len(calls) == 1 + 4
    for k, points in enumerate(calls[1:]):
        step = 0.1 / 8**k
        assert points == pytest.approx(around(calls[0][0], step) + around(calls[0][1], step))


def test_fit_surrogates_best_uses_only_constraint_satisfying_steps():
    opt = small_cfg()
    steps = [
        BoStep(x=(0.1, 0.1), objective=0.1, constraints={"c": 0.5}),
        BoStep(x=(0.2, 0.7), objective=0.9, constraints={"c": -0.5}),
        BoStep(x=(0.8, 0.2), objective=0.4, constraints={"c": -0.1}),
        BoStep(x=(0.6, 0.6), objective=None, constraints={"c": None}),
    ]
    models = fit_surrogates(steps, opt)
    assert models.f_best == pytest.approx(0.4)
    assert models.constraint_names == ("c",)
    assert len(models.constraints) == 1


def test_run_optimization_canon_smoke(canon_cfg, canon_task):
    opt = OptimizerConfig(
        bounds=((0.03, 0.14), (0.15, 0.34), (0.08, 0.25)),
        n_init=4, n_max=7, n_acq_starts=4, n_acq_samples=256, seed=0,
    )
    trace = run_optimization(canon_cfg, canon_task, opt)
    assert len(trace.records) == 7
    assert len(trace.acquisition) == 7
    assert all(a is None for a in trace.acquisition[:4])
    feasible = [
        (r.design, r.objective)
        for r in trace.records
        if r.constraints.feasible and r.objective is not None
    ]
    if feasible:
        assert trace.best_feasible is not None
        best = min(feasible, key=lambda p: p[1])
        assert trace.best_feasible == best
    else:
        assert trace.best_feasible is None
    for r in trace.records:
        for (lo, hi), v in zip(opt.bounds, r.design.as_tuple()):
            assert lo <= v <= hi
    repeat = run_optimization(canon_cfg, canon_task, opt)
    assert [r.design for r in repeat.records] == [r.design for r in trace.records]


def test_run_optimization_flags_infeasible_box(canon_cfg, canon_task):
    opt = OptimizerConfig(
        bounds=((0.01, 0.02), (0.15, 0.34), (0.08, 0.25)),
        n_init=4, n_max=6, n_acq_starts=4, n_acq_samples=128, seed=0,
    )
    trace = run_optimization(canon_cfg, canon_task, opt)
    assert trace.best_feasible is None
    assert all(r.objective is None for r in trace.records)
    # no design in this box assembles, so each proposal is its first probe
    gaps = [(r.constraints.c_static_i, r.constraints.c_static_e) for r in trace.records]
    assert all(max(gap) > 0.0 for gap in gaps)
    assert trace.acquisition[opt.n_init :] == (0.0, 0.0)


def test_optimizer_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(bounds=())
    with pytest.raises(ValidationError):
        OptimizerConfig(bounds=((0.2, 0.1),))
    with pytest.raises(ValidationError):
        OptimizerConfig(bounds=UNIT2, n_init=3)
    with pytest.raises(ValidationError):
        OptimizerConfig(bounds=UNIT2, n_init=8, n_max=8)


def test_run_optimization_reaches_evaluate_design_through_module_attribute(
    monkeypatch, canon_cfg, canon_task
):
    # the benchmark times each design evaluation by wrapping this name
    calls = {}
    monkeypatch.setattr(
        optimizer, "evaluate_design", counting(calls, "evaluate_design", optimizer.evaluate_design)
    )
    opt = OptimizerConfig(
        bounds=((0.03, 0.14), (0.15, 0.34), (0.08, 0.25)),
        n_init=4, n_max=7, n_acq_starts=4, n_acq_samples=256, seed=0,
    )
    assert len(run_optimization(canon_cfg, canon_task, opt).records) == 7
    assert calls == {"evaluate_design": 7}


def test_run_optimization_masks_with_the_static_gaps_exactly(monkeypatch, canon_cfg, canon_task):
    # every mask the acquisition sees equals the two static gaps' verdict
    masks = []
    real = optimizer.assembles

    def recording(points, cfg, task):
        got = real(points, cfg, task)
        masks.append((points.copy(), got))
        return got

    monkeypatch.setattr(optimizer, "assembles", recording)
    opt = OptimizerConfig(
        bounds=((0.03, 0.14), (0.15, 0.34), (0.08, 0.25)),
        n_init=6, n_max=10, n_acq_starts=8, n_acq_samples=512, seed=4,
    )
    run_optimization(canon_cfg, canon_task, opt)
    assert len(masks) > 2 * (opt.n_max - opt.n_init)  # probes and descent sweeps
    for points, got in masks:
        assert np.array_equal(got, (static_gaps(points, canon_cfg, canon_task) <= 0.0).all(axis=0))
    assert 0 < sum(int(got.sum()) for _, got in masks) < sum(len(got) for _, got in masks)


def test_step_from_record_counts_the_tolerance_band_as_zero():
    # a crank-reversal range within FEASIBLE_DYN_TOL is feasible on the
    # record, so the loop must see it as satisfied and take it as f_best
    bounds = ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))
    band = EvaluationRecord(
        DesignParams(0.10, 0.25, 0.15), ConstraintBundle(-0.01, -0.02, 5e-10), 1.5
    )
    clean = EvaluationRecord(
        DesignParams(0.12, 0.20, 0.10), ConstraintBundle(-0.01, -0.01, 0.0), 2.0
    )
    assert band.constraints.feasible
    step = step_from_record(band)
    assert step.constraints["c_dyn"] == 0.0
    models = fit_surrogates([step, step_from_record(clean)], small_cfg(bounds=bounds))
    assert models.f_best == math.log(1.5)


def test_static_rejected_record_is_seen_only_through_c_dyn():
    # the static gaps are the acquisition's known mask, not modelled
    # constraints: a design they reject reaches the loop with c_dyn missing
    # and no objective, so it never becomes f_best
    bounds = ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))
    rejected = EvaluationRecord(
        DesignParams(0.05, 0.30, 0.20), ConstraintBundle(0.03, -0.01, None)
    )
    defective = EvaluationRecord(
        DesignParams(0.06, 0.20, 0.10), ConstraintBundle(-0.01, -0.01, 0.2)
    )
    clean = EvaluationRecord(
        DesignParams(0.12, 0.20, 0.10), ConstraintBundle(-0.01, -0.01, 0.0), 2.0
    )
    costly = EvaluationRecord(
        DesignParams(0.10, 0.22, 0.12), ConstraintBundle(-0.01, -0.02, 0.0), 3.0
    )
    step = step_from_record(rejected)
    assert step.constraints == {"c_dyn": None}
    assert step.objective is None
    assert step.payload is rejected
    steps = [step] + [step_from_record(r) for r in (defective, clean, costly)]
    models = fit_surrogates(steps, small_cfg(bounds=bounds))
    assert models.constraint_names == ("c_dyn",)
    assert models.constraints[0].train_y.shape == (3,)
    assert models.objective.train_y.shape == (2,)
    assert models.f_best == math.log(2.0)
