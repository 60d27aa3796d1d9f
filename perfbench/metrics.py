"""End-to-end and per-layer metrics, each as ``{name: (value, unit)}``.

Every workload reports the same metric names, so the end-to-end metrics
are defined in terms of the workload's *call*: one call of the public entry
point the workload drives (``run_optimization``, ``evaluate_design`` or
``grid_sweep``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

from spans import Span, Tracer

TAIL_SUPPORT = 10  # samples that must lie beyond a reported percentile


@dataclass
class RunResult:
    """What one untraced run measured, plus its correctness tally.

    ``call_s[k]`` is the raw wall time of the k-th call that succeeded and
    ``speed[k]`` the machine-speed factor it is scaled by (1 if unscaled).
    """

    call_s: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    evals: int = 0  # design evaluations completed by the timed calls
    best_t_rms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add_call(self, seconds: float, speed: float = 1.0) -> None:
        self.call_s.append(seconds)
        self.speed.append(speed)

    def scaled_s(self, scaled: bool) -> list[float]:
        """Call times, divided by their speed factors if ``scaled``."""
        if not scaled:
            return list(self.call_s)
        return [t / f for t, f in zip(self.call_s, self.speed)]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(q, value) at the highest of p99/p90/p75 with enough support.

    A percentile is used only when at least ``TAIL_SUPPORT`` samples lie
    beyond it.  With fewer than 40 samples none qualifies; the tail is then
    not measurable, and the median stands in for it (q = 50), because the
    slowest of a handful of calls measures the host's noise, not the program.
    """
    n = len(values)
    for q in (99.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= TAIL_SUPPORT:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def end_to_end(setup: RunResult, run: RunResult, scaled: bool) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of an untraced run.

    ``setup`` holds the timed ``validate`` processes, ``run`` the workload's
    calls.  With ``scaled`` every call time is first divided by its speed
    factor; without, the figures are raw.
    """
    calls = run.scaled_s(scaled)
    return {
        "setup_s": (statistics.median(setup.scaled_s(scaled)), "s"),
        "call_p50_ms": (statistics.median(calls) * 1e3, "ms"),
        "call_tail_ms": (tail(calls)[1] * 1e3, "ms"),
        "eval_per_s": (run.evals / sum(calls), "1/s"),
        "best_t_rms": (statistics.median(run.best_t_rms), "N.m"),
    }


def _p50(spans: list[Span], scale: float) -> float:
    return statistics.median(s.seconds for s in spans) * scale if spans else 0.0


def _total(spans: list[Span]) -> float:
    return sum(s.seconds for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, n_samples: int, load_config_ms: float, overhead_frac: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    Every ``*.share`` is the layer's summed span time over the summed time
    of the root spans (the workload's calls), so the shares of one run
    decompose its end-to-end time.  Layers a workload never reaches report
    zero calls, zero time and zero share.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def under(name: str, ancestor: str) -> list[Span]:
        """Spans called ``name`` with an enclosing span called ``ancestor``."""
        out = []
        for s in named(name):
            p = s.parent
            while p >= 0 and spans[p].name != ancestor:
                p = spans[p].parent
            if p >= 0:
                out.append(s)
        return out

    e2e = _total([s for s in spans if s.parent < 0])
    fit = named("gp.fit")
    predict = named("gp.predict")
    points = sum(s.work for s in predict)
    propose = named("optimizer.propose_next")
    bo_evals = under("constraints.evaluate_design", "optimizer.run_optimization")
    transform = named("kinematics.transform")
    transform_ok = [s for s in transform if s.error is None]
    torque = named("dynamics.torque_profile")
    torque_ok = [s for s in torque if s.error is None]
    evals = named("constraints.evaluate_design")

    def tag_frac(group: list[Span], tag: str) -> float:
        return _ratio(sum(s.tag == tag for s in group), len(group))

    return {
        "gp.fit_calls": (len(fit), "count"),
        "gp.fit_ms_p50": (_p50(fit, 1e3), "ms"),
        "gp.fit_share": (_ratio(_total(fit), e2e), "frac"),
        "gp.lml_evals": (sum(s.work for s in named("gp.minimize")), "count"),
        "gp.predict_calls": (len(predict), "count"),
        "gp.predict_points": (points, "count"),
        "gp.predict_us_per_point": (_ratio(_total(predict) * 1e6, points), "us"),
        "gp.predict_share": (_ratio(_total(predict), e2e), "frac"),
        "optimizer.fit_surrogates_ms_p50": (_p50(named("optimizer.fit_surrogates"), 1e3), "ms"),
        "optimizer.propose_ms_p50": (_p50(propose, 1e3), "ms"),
        "optimizer.propose_self_share": (
            _ratio(_total(propose) - _total(under("gp.predict", "optimizer.propose_next")), e2e),
            "frac",
        ),
        "optimizer.acq_points_per_propose": (
            _ratio(sum(s.work for s in named("optimizer.constrained_ei")), len(propose)),
            "count",
        ),
        "optimizer.evaluate_share": (_ratio(_total(bo_evals), e2e), "frac"),
        "optimizer.feasible_frac": (tag_frac(bo_evals, "feasible"), "frac"),
        "kinematics.transform_calls": (len(transform), "count"),
        "kinematics.transform_ms_p50": (_p50(transform, 1e3), "ms"),
        "kinematics.us_per_sample": (
            _ratio(_total(transform_ok) * 1e6, len(transform_ok) * n_samples),
            "us",
        ),
        "kinematics.share": (_ratio(_total(transform), e2e), "frac"),
        "dynamics.torque_profile_calls": (len(torque), "count"),
        "dynamics.torque_profile_ms_p50": (_p50(torque, 1e3), "ms"),
        "dynamics.us_per_sample": (
            _ratio(_total(torque_ok) * 1e6, len(torque_ok) * n_samples),
            "us",
        ),
        "dynamics.share": (_ratio(_total(torque), e2e), "frac"),
        "dynamics.singular_frac": (
            _ratio(sum(s.error == "SingularState" for s in torque), len(torque)),
            "frac",
        ),
        "constraints.evaluate_calls": (len(evals), "count"),
        "constraints.evaluate_ms_p50": (_p50(evals, 1e3), "ms"),
        "constraints.static_gap_us_p50": (_p50(named("constraints.static_gap"), 1e6), "us"),
        "constraints.dynamic_constraint_us_p50": (
            _p50(named("constraints.dynamic_constraint"), 1e6),
            "us",
        ),
        "constraints.static_reject_frac": (tag_frac(evals, "static_reject"), "frac"),
        "constraints.unsolvable_frac": (tag_frac(evals, "unsolvable"), "frac"),
        "constraints.feasible_frac": (tag_frac(evals, "feasible"), "frac"),
        "model.load_config_ms": (load_config_ms, "ms"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
