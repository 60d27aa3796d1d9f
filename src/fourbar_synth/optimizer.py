"""Constrained Bayesian optimization of the bar lengths.

The loop is the classic fit/propose/evaluate cycle: Latin hypercube
initialization, one GP per modelled constraint plus one for the log
objective, and an expected-improvement acquisition weighted by the
probability that every modelled constraint is satisfied.  Designs whose
trajectory never ran simply lack the corresponding observation; the
constraint GPs are trained on whatever is available.

A constraint that is cheap and known in closed form is not modelled: the
loop takes it as a mask (``known``) that zeroes the acquisition wherever it
fails.  The mechanism optimizer does this with the two static gaps,
through ``constraints.assembles``, so its only modelled constraint is the
motion defect.  The Gardner et al. (ICML 2014) acquisition, EI times the
probability of feasibility, is then evaluated only where the mask passes.

Each surrogate's hyperparameter search is warm-started from its own fit
one iteration earlier: one L-BFGS-B start from that kernel, joined by the
default start at every fourth iteration (when the evaluation count is a
multiple of ``_RESTART_EVERY``), which lets a fit leave a local optimum
the warm start keeps it in.  A surrogate's first fit, and a fit after a
constant-data (degenerate) one, is cold (8 starts).  Each start is one
scipy L-BFGS-B search over the lengthscales and the noise ratio; ``gp``
profiles the signal variance out.

A proposal maximizes the acquisition by seeded uniform probes and then a
pattern descent from the best of them (Hooke & Jeeves, J. ACM 1961).  All
starts descend in lockstep, and a sweep polls every axis move of every
start at two step lengths in one acquisition call: the polls of several
step lengths at once, as in Kolda, Lewis & Torczon (SIAM Review 2003), cost
fewer calls than one step length per sweep.

Everything is deterministic for a given seed.  Three things draw random
numbers: the LHS, from ``OptimizerConfig.seed``, and a cold GP fit's 7
random starts and the acquisition probes, from streams derived from the
seed and the iteration.  A warm fit and the pattern-descent refinements
draw nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import ndtr

from .constraints import assembles, evaluate_design
from .gp import GpModel, KernelParams, gp_fit, gp_predict
from .kinematics import validate_baseline
from .model import (
    FEASIBLE_DYN_TOL,
    DesignParams,
    EvaluationRecord,
    MechanismConfig,
    MotionTask,
    OptimizerConfig,
)

__all__ = [
    "BoStep",
    "SurrogateSet",
    "OptimizationTrace",
    "latin_hypercube",
    "constrained_ei",
    "fit_surrogates",
    "propose_next",
    "bo_minimize",
    "step_from_record",
    "run_optimization",
]

_LOG_FLOOR = 1e-300  # guards log() of a zero-torque objective
# a warm fit adds the default start when the evaluation count is a multiple of this
_RESTART_EVERY = 4
# the step fractions a descent sweep tries, as multiples of a start's
# fraction f: every axis move at f and at f/4, in one acquisition call
_SWEEP_STEPS = np.array([1.0, 0.25])


@dataclass(frozen=True)
class BoStep:
    """One evaluated point in the generic loop.

    ``objective`` is the value fed to the objective GP (already transformed
    by the caller), or None when the point yielded no objective.
    ``constraints`` maps constraint names to observations; None marks a
    missing observation, which is excluded from that constraint's GP.
    """

    x: tuple[float, ...]
    objective: float | None
    constraints: dict[str, float | None]
    payload: Any = None


@dataclass(frozen=True)
class SurrogateSet:
    """Models fitted to the trace so far; f_best in objective-GP units.

    ``constraints`` maps each modelled constraint's name to its model, in
    the steps' key order; a constraint with fewer than two observations has
    no model and no entry.
    """

    objective: GpModel | None
    constraints: dict[str, GpModel]
    f_best: float | None


@dataclass(frozen=True)
class OptimizationTrace:
    """Full history of a run: one record per evaluation, in order.

    ``acquisition`` holds the acquisition value of each proposed point
    (None during initialization).  ``best_feasible`` is None when nothing
    feasible was costed, which is not an error: a budget can legitimately
    end with nothing feasible.
    """

    records: tuple[EvaluationRecord, ...]
    acquisition: tuple[float | None, ...]
    best_feasible: tuple[DesignParams, float] | None


def latin_hypercube(n: int, bounds: tuple[tuple[float, float], ...], seed: int) -> np.ndarray:
    """Seeded Latin hypercube: one point per equal-width stratum per axis."""
    if n < 1:
        raise ValueError("latin_hypercube needs n >= 1")
    rng = np.random.default_rng(seed)
    d = len(bounds)
    out = np.empty((n, d))
    for j, (lo, hi) in enumerate(bounds):
        strata = rng.permutation(n)
        offsets = rng.random(n)
        out[:, j] = lo + (strata + offsets) / n * (hi - lo)
    return out


def constrained_ei(
    x,
    objective_model: GpModel | None,
    constraint_models,
    f_best: float | None,
):
    """Expected improvement times the probability all constraints are met.

    Constraints are feasible at or below zero, so each model contributes
    Phi(-mu/sigma); a zero-variance prediction contributes a hard 0/1, and a
    constant (degenerate) model contributes its 0/1 without a prediction.  For
    minimization EI(x) = sigma phi(z) + (f_best - mu) Phi(z) with
    z = (f_best - mu)/sigma, degrading to max(0, f_best - mu) at zero
    variance.  Without an objective observation yet (no f_best), the
    acquisition is the feasibility probability alone.

    Accepts a single point (returns float) or an (m, d) batch.
    """
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    m = q.shape[0]

    pof = np.ones(m)
    for cm in constraint_models:
        if cm.degenerate:  # a constant model predicts y_mean with zero variance everywhere
            pof *= float(cm.y_mean <= 0.0)
            continue
        mu, var = gp_predict(cm, q)
        sd = np.sqrt(var)
        ok = sd > 0.0
        factor = np.where(ok, ndtr(-mu / np.where(ok, sd, 1.0)), (mu <= 0.0).astype(float))
        pof *= factor

    if objective_model is None or f_best is None:
        acq = pof
    else:
        mu, var = gp_predict(objective_model, q)
        sd = np.sqrt(var)
        imp = f_best - mu
        ok = sd > 0.0
        z = imp / np.where(ok, sd, 1.0)
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        ei = np.where(ok, sd * pdf + imp * ndtr(z), np.maximum(imp, 0.0))
        acq = ei * pof

    return float(acq[0]) if single else acq


def _proposal_rng_seed(opt_cfg: OptimizerConfig, n_evaluated: int) -> int:
    return (opt_cfg.seed * 1_000_003 + n_evaluated * 7_919) % (2**63)


def propose_next(
    evaluated: list[tuple[float, ...]],
    models: SurrogateSet,
    opt_cfg: OptimizerConfig,
    known: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[tuple[float, ...], float]:
    """Maximize the acquisition inside the box; returns (point, value).

    Seeded uniform probes followed by derivative-free pattern descent from
    the ``n_acq_starts`` best probes.  Each start carries a step fraction f
    of the box width, 0.1 at first.  A sweep tries every axis move of every
    active start at f and at f/4, all in one acquisition call, and a start
    takes its best candidate if that beats its value by 1e-5 of the
    leader's; the first best wins a tie.  On success f becomes
    min(0.1, 2 x the fraction that won); on failure it shrinks 8-fold, so
    the next sweep tries f/8 and f/32.  A start stops once f < 1e-4, and
    the descent after 150 sweeps.  Deterministic for a given seed and trace
    length.  Never returns an already-evaluated point: exact collisions are
    nudged by a 1e-6 box-width perturbation.

    ``known`` maps an (m, d) array of points to a 0/1 (or boolean) mask of
    the points that satisfy the known constraints.  The acquisition is the
    constrained EI times that mask: zero where it fails, and the surrogates
    are evaluated only where it passes.  Ties go to passing points, so,
    up to the collision nudge, a point that fails the mask is proposed only
    when no probe passes: then there is no slope to descend, the descent is
    skipped and the first probe, a uniform draw, is proposed with value
    0.0.  ``known=None`` masks nothing.

    A point's acquisition value does not depend on the batch it is
    evaluated in (see ``gp_predict``).  So the sweeps may group their
    candidates differently, for instance evaluate only those that could
    move their start, without changing a proposal, as long as each start
    sees the same candidates in the same order.
    """
    bounds = opt_cfg.bounds
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    widths = hi - lo
    d = len(bounds)

    def acq(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The acquisition at each point, and the mask of points that pass ``known``."""
        if known is None:
            passing = np.ones(len(points), dtype=bool)
        else:
            passing = np.asarray(known(points), dtype=bool)
        vals = np.zeros(len(points))
        if passing.any():
            vals[passing] = constrained_ei(
                points[passing], models.objective, models.constraints.values(), models.f_best
            )
        return vals, passing

    rng = np.random.default_rng(_proposal_rng_seed(opt_cfg, len(evaluated)))
    probes = lo + rng.random((opt_cfg.n_acq_samples, d)) * widths
    vals, passing = acq(probes)
    # best first; among equal values (EI can underflow to zero everywhere)
    # passing probes come first, so a masked point never wins a tie
    order = np.lexsort((~passing, -vals))[: opt_cfg.n_acq_starts]

    # all starts descend in lockstep so each sweep costs one batched
    # acquisition call; per-start trajectories are still independent
    xs = probes[order].copy()
    vs = vals[order]
    # the 2d axis moves of a sweep, +width then -width along each axis in
    # turn; x + 0.0 and x + (-a) are exact, so off-axis coordinates stay put
    moves = np.stack([np.diag(widths), -np.diag(widths)], axis=1).reshape(2 * d, d)
    # with every probe masked out all values tie at zero, the stable order
    # puts the first probe first, and a zero step ends the descent at once
    fracs = np.full(len(order), 0.1 if passing.any() else 0.0)
    guard = 0
    while True:
        active = np.nonzero(fracs >= 1e-4)[0]
        if active.size == 0 or guard >= 150:
            break
        guard += 1
        na = active.size
        steps = fracs[active][:, None] * _SWEEP_STEPS  # (na, fractions)
        cand = np.clip(xs[active][:, None, None, :] + steps[:, :, None, None] * moves, lo, hi)
        cand = cand.reshape(na, -1, d)  # per start: the 2d moves at f, then at f/4
        cv = acq(cand.reshape(-1, d))[0].reshape(na, -1)
        # the first best wins a tie: the larger fraction, then the axis order
        best_j = np.argmax(cv, axis=1)
        best_cv = cv[np.arange(na), best_j]
        # a gain only counts if it is visible at the scale of the current
        # leader; otherwise starts stranded where the acquisition is
        # near-zero crawl by huge relative factors without ever mattering
        thresh = 1e-5 * max(float(vs.max()), 1e-300)
        improved = best_cv > vs[active] + thresh
        moved = active[improved]
        xs[moved] = cand[improved, best_j[improved]]
        vs[moved] = best_cv[improved]
        # expand from the winning fraction on success, so a start marching
        # down a gentle slope covers it in logarithmic rather than linear
        # sweeps; on failure shrink 8-fold, so the next sweep tries f/8 and
        # f/32, half the smallest fraction this one tried
        won = steps[improved, best_j[improved] // (2 * d)]
        fracs[moved] = np.minimum(0.1, won * 2.0)
        fracs[active[~improved]] *= 0.5 * _SWEEP_STEPS[-1]

    winner = int(np.argmax(vs))
    best_x = xs[winner].copy()
    best_v = float(vs[winner])

    # never re-propose an evaluated point; nudge by 1e-6 of the box width
    def collides(pt: np.ndarray) -> bool:
        for e in evaluated:
            if all(abs(pt[j] - e[j]) <= 1e-12 * widths[j] for j in range(d)):
                return True
        return False

    scale = 1e-6
    guard = 0
    while collides(best_x) and guard < 60:
        guard += 1
        shift = scale * widths
        cand = best_x + shift
        over = cand > hi
        cand[over] = best_x[over] - shift[over]
        best_x = np.clip(cand, lo, hi)
        scale *= 2.0
    return tuple(float(v) for v in best_x), best_v


def _warm_start(model: GpModel | None) -> KernelParams | None:
    """The kernel a refit starts from: none after a missing or constant model."""
    return None if model is None or model.degenerate else model.kernel


def fit_surrogates(
    steps: list[BoStep], opt_cfg: OptimizerConfig, previous: SurrogateSet | None = None
) -> SurrogateSet:
    """Fit the objective and per-constraint GPs to the evaluations so far.

    The objective model needs at least two observed objectives; below that
    the set carries no f_best and the acquisition degrades to pure
    feasibility search.  Each constraint model trains only on steps where
    that constraint was observed, and is skipped below two observations.

    Without ``previous`` every fit is a cold 8-start search.  With it, each
    model whose counterpart in ``previous`` (the objective model, or the
    constraint model of the same name) is non-degenerate is a warm search
    from that counterpart's kernel: one start, and a second from the
    default when ``len(steps)`` is a multiple of ``_RESTART_EVERY``.
    """
    bounds = opt_cfg.bounds
    iteration = len(steps)
    restart = iteration % _RESTART_EVERY == 0
    prev = previous if previous is not None else SurrogateSet(None, {}, None)

    def model_seed(idx: int) -> int:
        return (opt_cfg.seed * 999_983 + iteration * 101 + idx) % (2**63)

    obj_pts = [(s.x, s.objective) for s in steps if s.objective is not None]
    objective_model = None
    f_best = None
    if len(obj_pts) >= 2:
        objective_model = gp_fit(
            obj_pts, bounds, seed=model_seed(0), start=_warm_start(prev.objective), restart=restart
        )
        # improvement is measured against the best *feasible* observation;
        # infeasible points may carry better objectives but do not count
        feasible_objs = [
            s.objective
            for s in steps
            if s.objective is not None
            and all(v is not None and v <= 0.0 for v in s.constraints.values())
        ]
        if feasible_objs:
            f_best = min(feasible_objs)

    constraint_models = {}
    for k, name in enumerate(steps[0].constraints.keys()):
        pts = [(s.x, s.constraints[name]) for s in steps if s.constraints[name] is not None]
        if len(pts) >= 2:
            start = _warm_start(prev.constraints.get(name))
            constraint_models[name] = gp_fit(pts, bounds, seed=model_seed(k + 1), start=start, restart=restart)
    return SurrogateSet(objective_model, constraint_models, f_best)


def bo_minimize(
    evaluate: Callable[[tuple[float, ...]], BoStep],
    opt_cfg: OptimizerConfig,
    known: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[list[BoStep], list[float | None]]:
    """Generic constrained-BO loop over a black-box evaluator.

    Runs exactly n_max evaluations: n_init from a Latin hypercube, the rest
    proposed by the constrained-EI acquisition.  Each iteration's surrogates
    are warm-started from the previous iteration's.  Returns the steps and
    the acquisition value behind each one (None during initialization).

    ``known`` is the mask of known constraints that ``propose_next`` applies
    to the acquisition; the initial design ignores it.  With ``known=None``
    every point may be proposed.
    """
    bounds = opt_cfg.bounds
    steps: list[BoStep] = []
    acq_values: list[float | None] = []

    for row in latin_hypercube(opt_cfg.n_init, bounds, opt_cfg.seed):
        steps.append(evaluate(tuple(float(v) for v in row)))
        acq_values.append(None)

    models = None
    while len(steps) < opt_cfg.n_max:
        models = fit_surrogates(steps, opt_cfg, previous=models)
        x_next, acq = propose_next([s.x for s in steps], models, opt_cfg, known)
        steps.append(evaluate(x_next))
        acq_values.append(acq)
    return steps, acq_values


def step_from_record(record: EvaluationRecord) -> BoStep:
    """The loop's view of one design evaluation.

    The objective GP sees log(t_rms); the one constraint GP sees the
    crank-reversal range ``c_dyn``, missing where it was not observed.  The
    static gaps are not modelled: ``run_optimization`` applies them exactly,
    as the acquisition's known mask, and a design they reject has neither
    ``c_dyn`` nor an objective.  A range within FEASIBLE_DYN_TOL is reported
    as 0.0, so the loop's feasibility (every constraint <= 0) agrees with
    the record's.  The record, with both gaps, rides along as the payload.
    """
    objective = None
    if record.objective is not None:
        objective = math.log(max(record.objective, _LOG_FLOOR))
    c_dyn = record.constraints.c_dyn
    if c_dyn is not None and c_dyn <= FEASIBLE_DYN_TOL:
        c_dyn = 0.0
    return BoStep(
        x=record.design.as_tuple(),
        objective=objective,
        constraints={"c_dyn": c_dyn},
        payload=record,
    )


def run_optimization(
    cfg: MechanismConfig, task: MotionTask, opt_cfg: OptimizerConfig
) -> OptimizationTrace:
    """Optimize the three bar lengths for minimum RMS torque.

    Validates the baseline once, then runs the constrained-BO loop over
    ``evaluate_design``, each record mapped by ``step_from_record``.  The
    static gate is exact: the acquisition is zero wherever either static
    gap is positive (one ``constraints.assembles`` call per batch of points,
    both poses, equal to the signs of ``static_gaps``), so only the
    objective and the motion defect have surrogates.
    """
    validate_baseline(cfg, task)

    def evaluate(x: tuple[float, ...]) -> BoStep:
        return step_from_record(evaluate_design(DesignParams(*x), cfg, task))

    def known(points: np.ndarray) -> np.ndarray:
        return assembles(points, cfg, task)

    steps, acq_values = bo_minimize(evaluate, opt_cfg, known=known)

    records = tuple(s.payload for s in steps)
    # a record carries an objective only when it is feasible; the first minimum wins
    costed = ((rec.design, rec.objective) for rec in records if rec.objective is not None)
    best = min(costed, key=lambda pair: pair[1], default=None)
    return OptimizationTrace(
        records=records,
        acquisition=tuple(acq_values),
        best_feasible=best,
    )
