"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import inputs
import metrics
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_inputs_are_deterministic_per_seed():
    base = (0.10, 0.25, 0.15)
    bounds = ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))

    def draw(seed):
        stream = inputs.stream_designs(base, seed)
        return (
            [next(stream) for _ in range(50)],
            inputs.optimizer_seeds(seed, 3),
            inputs.check_indices(seed, 200, 8),
            [inputs.grid_box(bounds, 13, seed, k) for k in range(3)],
        )

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    designs, _, picks, boxes = draw(5)
    assert all(0.9 * b <= x <= 1.1 * b for d in designs for x, b in zip(d, base))
    assert len(set(picks)) == 8 and all(0 <= k < 200 for k in picks)
    assert len(set(boxes)) == 3
    assert all(lo <= a < b <= hi for box in boxes for (a, b), (lo, hi) in zip(box, bounds))


def test_metric_and_workload_names_match_the_pattern():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += list(declared("end_to_end")) + list(declared("per_layer"))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]


def test_metric_builders_print_every_declared_metric():
    run = metrics.RunResult([0.5, 0.7], [1.0, 1.2], evals=120, best_t_rms=[0.7, 0.8])
    setup = metrics.RunResult([0.9, 1.0, 1.1], [1.0, 0.9, 1.1])
    e2e = metrics.end_to_end(setup, run, scaled=True)
    assert {k: u for k, (_, u) in e2e.items()} == declared("end_to_end")
    layers = metrics.layer_metrics(Tracer(), 201, 0.1, 0.01)
    assert {k: u for k, (_, u) in layers.items()} == declared("per_layer")


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert metrics.tail([1.0, 3.0]) == (50.0, 2.0)
    assert metrics.tail([float(k) for k in range(40)])[0] == 75.0
    assert metrics.tail([float(k) for k in range(999)])[0] == 90.0
    assert metrics.tail([float(k) for k in range(1000)])[0] == 99.0


def test_tracer_records_nesting_self_time_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner", lambda span, args, result: setattr(span, "work", result))
    tracer.wrap(mod, "outer", "outer")
    with tracer.span("root"):
        assert mod.outer(1) == 4
    tracer.unwrap_all()
    assert (mod.inner, mod.outer) == original
    root, outer, inner = tracer.spans
    assert (root.parent, outer.parent, inner.parent) == (-1, 0, 1)
    assert inner.work == 2
    own = tracer.self_ns()
    assert own[1] == (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
    assert sum(own) == root.end_ns - root.start_ns


def test_run_prints_every_declared_metric():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "evaluate-stream",
             "--seed", "3", "--seconds", "1", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
