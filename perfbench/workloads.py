"""The three workloads, their correctness checks and the tracing sites.

Imported by ``run.py`` only after the BLAS/OpenMP thread cap is set and the
checkout's ``src`` is first on ``sys.path``.  Each workload is one process
and a closed loop with one client: the next call starts when the previous
one returned.  Correctness checks run outside the timed region; a call that
raises or fails a check counts as failed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
from fourbar_synth import constraints, gp, optimizer, oracle
from fourbar_synth.model import (
    FEASIBLE_DYN_TOL,
    DesignParams,
    EvaluationRecord,
    MechanismConfig,
    MotionTask,
    OptimizerConfig,
    load_config,
)
from metrics import RunResult
from spans import Span, Tracer
from speed import SpeedMeter

OPT_RUN_SECONDS = 15  # one run_optimization per this many --seconds (at least one)
GRID_RESOLUTION = 13  # points per axis: 2197 cells per sweep
GRID_BEST_SWEEPS = 3  # grid-sweep: best_t_rms over this many leading sweeps
STREAM_PREFIX = 500  # evaluate-stream: designs always evaluated, whatever --seconds
BEST_BLOCK = 100  # evaluate-stream: best_t_rms per block of this many designs
CHECK_COUNT = 8  # evaluate-stream: designs re-checked against the brute oracle
BRUTE_STEP = 1e-6  # m, march step of oracle.brute_static_gap
SETUP_REPS = 5
STREAM_PROBE_S = 0.25  # evaluate-stream: seconds between machine-speed probes
FIRST_PROBE_S = 0.5  # machine-speed probe before the first call of seconds
PROBE_SHARE = 0.1  # later probes last this share of the call just made
LOAD_CONFIG_REPS = 5


@dataclass(frozen=True)
class Context:
    root: Path
    config: Path
    cfg: MechanismConfig
    task: MotionTask
    opt: OptimizerConfig

    @classmethod
    def load(cls, root: Path, config: Path) -> "Context":
        cfg, task, opt = load_config(str(config))
        return cls(root, config, cfg, task, opt)


@dataclass
class TracedOutcome:
    """A traced run: the same inputs timed without and with the wrappers."""

    untraced_s: float
    traced_s: float
    attempted: int
    failed: int


def _fail(what: str) -> bool:
    print(f"# check failed: {what}", file=sys.stderr)
    return False


def _call(fn: Callable[..., Any], *args: Any) -> Any:
    """Call into the program; a raise is reported and returned as None."""
    try:
        return fn(*args)
    except Exception:  # the run goes on and counts the call as failed
        traceback.print_exc()
        return None


def outcome(rec: EvaluationRecord) -> str:
    """Which gate of the evaluation pipeline decided the record."""
    c = rec.constraints
    if c.c_static_i > 0.0 or c.c_static_e > 0.0:
        return "static_reject"
    if c.c_dyn is None:
        return "unsolvable"
    return "feasible" if c.feasible else "defect"


def record_consistent(rec: EvaluationRecord) -> bool:
    """The feasible flag matches the constraint values; only feasible designs carry t_rms."""
    c = rec.constraints
    expect = (
        c.c_static_i <= 0.0
        and c.c_static_e <= 0.0
        and c.c_dyn is not None
        and c.c_dyn <= FEASIBLE_DYN_TOL
    )
    if c.feasible != expect or (rec.objective is not None and not c.feasible):
        return _fail(f"feasible flag inconsistent for {rec.design.as_tuple()}")
    return True


def _best_feasible(records: list[EvaluationRecord | None]) -> float:
    return min(r.objective for r in records if r is not None and r.objective is not None)


# ---------------------------------------------------------------------------
# set-up


def measure_setup(ctx: Context) -> RunResult:
    """Cold-process ``fourbar-synth validate`` on the canon config, timed.

    Each process is a call, scaled like any call of seconds; one that fails
    or does not report ``ok`` counts as failed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ctx.root / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "fourbar_synth.cli", "validate", "--config", str(ctx.config)]
    res = RunResult()
    speed = SpeedMeter()
    before = speed.probe(FIRST_PROBE_S)
    for _ in range(SETUP_REPS):
        res.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ctx.root, env=env, capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        after = speed.probe(PROBE_SHARE * dt)
        factor, before = 0.5 * (before + after), after
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["status"] == "ok"
        except (ValueError, KeyError):
            ok = False
        if ok:
            res.add_call(dt, factor)
        else:
            res.failed += 1
            _fail(f"validate exited {proc.returncode}: {proc.stderr.strip()}")
    return res


def warm_up(ctx: Context) -> None:
    """Fill the program's lazy caches (baseline postures) before any timing."""
    constraints.evaluate_design(ctx.cfg.baseline, ctx.cfg, ctx.task)


def load_config_ms(ctx: Context) -> float:
    """Median in-process ``load_config`` time on the canon config."""
    samples = []
    for _ in range(LOAD_CONFIG_REPS):
        t0 = time.perf_counter()
        load_config(str(ctx.config))
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# correctness checks


def check_optimization(ctx: Context, trace: optimizer.OptimizationTrace) -> bool:
    """The best design re-evaluates as feasible with the same t_rms."""
    if not all(record_consistent(r) for r in trace.records):
        return False
    if trace.best_feasible is None:
        return _fail("optimization found no feasible design")
    design, t_rms = trace.best_feasible
    rec = constraints.evaluate_design(design, ctx.cfg, ctx.task)
    if not rec.constraints.feasible or rec.objective != t_rms:
        return _fail(f"best design {design.as_tuple()} re-evaluates to {rec.objective}, not {t_rms}")
    return True


def static_gap_matches_brute(ctx: Context, rec: EvaluationRecord) -> bool:
    """Both static gaps agree with the marching oracle within its step."""
    for pose, value in (("i", rec.constraints.c_static_i), ("e", rec.constraints.c_static_e)):
        slow = oracle.brute_static_gap(rec.design, ctx.cfg, ctx.task, pose, step=BRUTE_STEP)
        if abs(value - slow) > BRUTE_STEP * (1.0 + 1e-6):
            return _fail(f"static gap {pose} of {rec.design.as_tuple()}: {value} vs brute {slow}")
    return True


def stream_failures(ctx: Context, seed: int, records: list[EvaluationRecord | None]) -> int:
    """Failed evaluations: raised, inconsistent flag, or brute disagreement."""
    bad = {k for k, r in enumerate(records) if r is None or not record_consistent(r)}
    for k in inputs.check_indices(seed, min(len(records), STREAM_PREFIX), CHECK_COUNT):
        if k not in bad and not static_gap_matches_brute(ctx, records[k]):
            bad.add(k)
    return len(bad)


def check_grid(box: tuple[tuple[float, float], ...], records: list[EvaluationRecord]) -> bool:
    """Cell count and row-major order (l_oa outermost, l_bc innermost)."""
    axes = [np.linspace(lo, hi, GRID_RESOLUTION) for lo, hi in box]
    want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    if len(records) != len(want):
        return _fail(f"grid has {len(records)} cells, expected {len(want)}")
    got = np.array([r.design.as_tuple() for r in records])
    if np.abs(got - want).max() > 1e-12:
        return _fail("grid cells are not in row-major order")
    return all(record_consistent(r) for r in records)


# ---------------------------------------------------------------------------
# untraced workloads


def optimize_canon(ctx: Context, seed: int, seconds: int) -> RunResult:
    """``run_optimization`` on the canon config at its budget, one seed per call.

    The number of calls is fixed by ``--seconds``, not by speed, so
    best_t_rms is a deterministic function of the workload seed.
    """
    res = RunResult()
    speed = SpeedMeter()
    before = speed.probe(FIRST_PROBE_S)
    for opt_seed in inputs.optimizer_seeds(seed, max(1, seconds // OPT_RUN_SECONDS)):
        res.attempted += 1
        t0 = time.perf_counter()
        trace = _call(optimizer.run_optimization, ctx.cfg, ctx.task, replace(ctx.opt, seed=opt_seed))
        dt = time.perf_counter() - t0
        after = speed.probe(PROBE_SHARE * dt)
        factor, before = 0.5 * (before + after), after
        if trace is None or not check_optimization(ctx, trace):
            res.failed += 1
            continue
        res.add_call(dt, factor)
        res.evals += len(trace.records)
        res.best_t_rms.append(trace.best_feasible[1])
    return res


def evaluate_stream(ctx: Context, seed: int, seconds: int) -> RunResult:
    """``evaluate_design`` back to back on seeded designs near the baseline.

    Each call is scaled by the machine speed probed just before it.

    At least ``STREAM_PREFIX`` designs run whatever ``--seconds`` says, so
    best_t_rms (the median of the best feasible t_rms of each block of
    ``BEST_BLOCK`` designs in that prefix) depends only on the seed.
    """
    res = RunResult()
    speed = SpeedMeter()
    stream = inputs.stream_designs(ctx.cfg.baseline.as_tuple(), seed)
    records: list[EvaluationRecord | None] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(records) < STREAM_PREFIX:
        factor = speed.current(STREAM_PROBE_S)
        design = DesignParams(*next(stream))
        t0 = time.perf_counter()
        rec = _call(constraints.evaluate_design, design, ctx.cfg, ctx.task)
        dt = time.perf_counter() - t0
        records.append(rec)
        if rec is not None:
            res.add_call(dt, factor)
    res.attempted = len(records)
    res.failed = stream_failures(ctx, seed, records)
    res.evals = len(res.call_s)
    res.best_t_rms = [
        _best_feasible(records[k : k + BEST_BLOCK]) for k in range(0, STREAM_PREFIX, BEST_BLOCK)
    ]
    return res


def grid_sweep(ctx: Context, seed: int, seconds: int) -> RunResult:
    """``grid_sweep`` over the canon bounds, a fresh seeded box per sweep.

    At least ``GRID_BEST_SWEEPS`` sweeps run, and best_t_rms is the median
    of their best feasible t_rms, so it depends only on the seed.
    """
    res = RunResult()
    deadline = time.perf_counter() + seconds
    sweep = 0
    speed = SpeedMeter()
    before = speed.probe(FIRST_PROBE_S)
    while sweep < GRID_BEST_SWEEPS or time.perf_counter() < deadline:
        box = inputs.grid_box(ctx.opt.bounds, GRID_RESOLUTION, seed, sweep)
        res.attempted += GRID_RESOLUTION**3
        t0 = time.perf_counter()
        records = _call(oracle.grid_sweep, ctx.cfg, ctx.task, box, GRID_RESOLUTION)
        dt = time.perf_counter() - t0
        after = speed.probe(PROBE_SHARE * dt)
        factor, before = 0.5 * (before + after), after
        if records is None or not check_grid(box, records):
            res.failed += GRID_RESOLUTION**3
        else:
            res.add_call(dt, factor)
            res.evals += len(records)
            if sweep < GRID_BEST_SWEEPS:
                res.best_t_rms.append(_best_feasible(records))
        sweep += 1
    return res


UNTRACED: dict[str, Callable[[Context, int, int], RunResult]] = {
    "optimize-canon": optimize_canon,
    "evaluate-stream": evaluate_stream,
    "grid-sweep": grid_sweep,
}


# ---------------------------------------------------------------------------
# traced workloads


def _rows(x: Any) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _ei_points(span: Span, args: tuple, result: Any) -> None:
    span.work = _rows(args[0])


def _predict_points(span: Span, args: tuple, result: Any) -> None:
    span.work = _rows(args[1])


def _nfev(span: Span, args: tuple, result: Any) -> None:
    span.work = int(result.nfev)


def _outcome(span: Span, args: tuple, result: Any) -> None:
    span.tag = outcome(result)


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer entry at the name its callers look it up by."""
    for module in (optimizer, oracle, constraints):
        tracer.wrap(module, "evaluate_design", "constraints.evaluate_design", _outcome)
    tracer.wrap(optimizer, "fit_surrogates", "optimizer.fit_surrogates")
    tracer.wrap(optimizer, "propose_next", "optimizer.propose_next")
    tracer.wrap(optimizer, "constrained_ei", "optimizer.constrained_ei", _ei_points)
    tracer.wrap(optimizer, "gp_fit", "gp.fit")
    tracer.wrap(optimizer, "gp_predict", "gp.predict", _predict_points)
    tracer.wrap(gp, "minimize", "gp.minimize", _nfev)
    tracer.wrap(constraints, "static_gap", "constraints.static_gap")
    tracer.wrap(constraints, "dynamic_constraint", "constraints.dynamic_constraint")
    tracer.wrap(constraints, "_transform_full", "kinematics.transform")
    tracer.wrap(constraints, "torque_profile", "dynamics.torque_profile")


def _root_seconds(tracer: Tracer) -> float:
    return sum(s.seconds for s in tracer.spans if s.parent < 0)


def traced_optimize(ctx: Context, seed: int, seconds: int, tracer: Tracer) -> TracedOutcome:
    """One canon run untraced, then the same seed traced; both must agree."""
    opt = replace(ctx.opt, seed=inputs.optimizer_seeds(seed, 1)[0])
    t0 = time.perf_counter()
    ref = optimizer.run_optimization(ctx.cfg, ctx.task, opt)
    untraced_s = time.perf_counter() - t0
    install_tracing(tracer)
    try:
        with tracer.span("optimizer.run_optimization"):
            got = optimizer.run_optimization(ctx.cfg, ctx.task, opt)
    finally:
        tracer.unwrap_all()
    failed = 0 if check_optimization(ctx, ref) else 1
    if got != ref:
        _fail("traced optimization differs from the untraced one")
        failed += 1
    return TracedOutcome(untraced_s, _root_seconds(tracer), 2, failed)


def traced_stream(ctx: Context, seed: int, seconds: int, tracer: Tracer) -> TracedOutcome:
    """Half the time streams untraced; the same designs are then traced."""
    stream = inputs.stream_designs(ctx.cfg.baseline.as_tuple(), seed)
    designs, ref = [], []
    untraced_s = 0.0
    deadline = time.perf_counter() + seconds / 2.0
    while time.perf_counter() < deadline or not designs:
        design = DesignParams(*next(stream))
        t0 = time.perf_counter()
        ref.append(constraints.evaluate_design(design, ctx.cfg, ctx.task))
        untraced_s += time.perf_counter() - t0
        designs.append(design)
    install_tracing(tracer)
    try:
        got = [constraints.evaluate_design(d, ctx.cfg, ctx.task) for d in designs]
    finally:
        tracer.unwrap_all()
    failed = stream_failures(ctx, seed, ref)
    failed += sum(a != b for a, b in zip(ref, got))
    return TracedOutcome(untraced_s, _root_seconds(tracer), 2 * len(designs), failed)


def traced_grid(ctx: Context, seed: int, seconds: int, tracer: Tracer) -> TracedOutcome:
    """The run's first sweep untraced, then traced; both must agree."""
    box = inputs.grid_box(ctx.opt.bounds, GRID_RESOLUTION, seed, 0)
    t0 = time.perf_counter()
    ref = oracle.grid_sweep(ctx.cfg, ctx.task, box, GRID_RESOLUTION)
    untraced_s = time.perf_counter() - t0
    install_tracing(tracer)
    try:
        with tracer.span("oracle.grid_sweep"):
            got = oracle.grid_sweep(ctx.cfg, ctx.task, box, GRID_RESOLUTION)
    finally:
        tracer.unwrap_all()
    failed = 0 if check_grid(box, ref) else len(ref)
    failed += sum(a != b for a, b in zip(ref, got)) + abs(len(ref) - len(got))
    return TracedOutcome(untraced_s, _root_seconds(tracer), 2 * len(ref), failed)


TRACED: dict[str, Callable[[Context, int, int, Tracer], TracedOutcome]] = {
    "optimize-canon": traced_optimize,
    "evaluate-stream": traced_stream,
    "grid-sweep": traced_grid,
}
