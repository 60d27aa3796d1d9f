#!/usr/bin/env python3
"""Benchmark entry point for fourbar-synth.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evaluate-stream --seed 1 --seconds 30
    python3 perfbench/run.py --workload optimize-canon --seed 1 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics without ``--trace``, the per-layer metrics with ``--trace 1``.
Lines before it start with ``#`` and repeat the figures for a reader.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("optimize-canon", "evaluate-stream", "grid-sweep")
# BLAS/OpenMP threads per process.  One thread: the GP matrices are at most
# 60x60 and the acquisition batches 4096x60, too small to gain from more,
# and a single thread keeps the timings steady.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int, help="workload seed")
    p.add_argument("--seconds", required=True, type=int, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run printing the per-layer metrics")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 64
    src = ROOT / "src"
    config = ROOT / "configs" / "canon.json"
    if not (src / "fourbar_synth" / "__init__.py").is_file() or not config.is_file():
        print(f"error: no fourbar-synth sources or canon config under {ROOT}", file=sys.stderr)
        return 2

    # numpy reads the thread settings once, when it is first imported
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(src))
    import fourbar_synth
    import metrics
    import workloads
    from spans import Tracer

    if Path(fourbar_synth.__file__).resolve().parent != (src / "fourbar_synth").resolve():
        print(f"error: imported fourbar_synth from {fourbar_synth.__file__}", file=sys.stderr)
        return 2

    ctx = workloads.Context.load(ROOT, config)
    workloads.warm_up(ctx)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# threads: " + " ".join(f"{v}={THREAD_CAP}" for v in THREAD_VARS))
    if args.trace:
        tracer = Tracer()
        traced = workloads.TRACED[args.workload](ctx, args.seed, args.seconds, tracer)
        spans_path = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        overhead = traced.traced_s / traced.untraced_s - 1.0
        values = metrics.layer_metrics(
            tracer, ctx.task.n_samples, workloads.load_config_ms(ctx), overhead
        )
        attempted, failed = traced.attempted, traced.failed
    else:
        setup = workloads.measure_setup(ctx)
        run = workloads.UNTRACED[args.workload](ctx, args.seed, args.seconds)
        if not run.call_s or not setup.call_s:
            print("error: every call failed; nothing to report", file=sys.stderr)
            return 1
        q, _ = metrics.tail(run.call_s)
        print(f"# calls: {len(run.call_s)}, call_tail_ms is p{q:g}; setup runs: {len(setup.call_s)}")
        print(f"# machine speed factor, median over calls: {statistics.median(run.speed):.4f}")
        for name, (value, unit) in metrics.end_to_end(setup, run, scaled=False).items():
            print(f"# raw {name} = {value:.6g} {unit}")
        values = metrics.end_to_end(setup, run, scaled=True)
        attempted = run.attempted + setup.attempted
        failed = run.failed + setup.failed

    for name, (value, unit) in values.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
