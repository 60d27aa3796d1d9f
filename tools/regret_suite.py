#!/usr/bin/env python3
"""BO regret on canon and on mechanisms drawn by a fixed rule, for one or two source trees.

Run from the root of a checkout:

    python3 tools/regret_suite.py --seeds 41000-41009
    python3 tools/regret_suite.py --src ../parent/src --src src --seeds 41000-41009 --seeds 41010-41019
    python3 tools/regret_suite.py --mechanisms 0 --seeds 41000-41039

The suite is ``configs/canon.json`` plus the first ``--mechanisms`` (6)
mechanisms that ``tests/conftest.py::draw_mechanism``, the rule
``conftest.mechanisms`` draws by, draws from ``numpy.random.default_rng(7)``
and ``conftest.read_accepted`` accepts; ``--mechanisms 0`` runs canon
alone.  Every mechanism is a config dict in the package's schema; a drawn
one searches the box of its baseline lengths times e^-0.5 and e^0.5.  Each
run is one ``run_optimization`` of a config at one optimizer seed, in one of
``JOBS`` worker processes that import the package from the ``--src`` tree
(default: this checkout's ``src``) and read the config with
``load_config_dict``.

Regret is (best - reference) / reference.  Canon's reference is 0.630887,
its optimum derived by a 61^3 grid and zoom grids on the static mask's
vertex; each other mechanism's is the best result of any run in this
invocation.  Per mechanism, tree and ``--seeds`` set it prints the median,
the 90th percentile (nearest rank) and the worst regret; with two trees
also how many seeds the second tree beats, ties and loses to the first.  A
run that finds nothing feasible has infinite regret.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CANON_CONFIG = ROOT / "configs" / "canon.json"
CANON_OPTIMUM = 0.630887
DRAW_SEED = 7
JOBS = 2  # worker processes at once
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def draw_mechanisms(count: int) -> list[dict]:
    """The first ``count`` accepted draws of ``draw_mechanism``, as config dicts.

    Each of the rule's floats is a uniform draw and each choice an index
    draw; ``tests`` and this checkout's ``src`` must be on ``sys.path``.
    """
    import numpy as np

    from conftest import draw_mechanism, read_accepted

    rng = np.random.default_rng(DRAW_SEED)
    out = []
    while len(out) < count:
        config = draw_mechanism(rng.uniform, lambda seq: seq[rng.integers(len(seq))])
        if read_accepted(config) is not None:
            out.append(config)
    return out


def run_jobs(configs: list[dict]) -> list[float | None]:
    """Worker: each config's best feasible t_rms, or None; the package comes from sys.path."""
    from fourbar_synth import load_config_dict, run_optimization

    runs = [run_optimization(*load_config_dict(config)).best_feasible for config in configs]
    return [None if best is None else best[1] for best in runs]


def run_tree(src: str, jobs: list[dict]) -> list[float | None]:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"], input=json.dumps(jobs), env=env,
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def seed_range(text: str) -> list[int]:
    """The seeds LO-HI, or the one seed N; an argparse usage error when none."""
    lo, dash, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi if dash else lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} is an empty range: LO exceeds HI")
    return seeds


def percent(regret: float) -> str:
    return "none" if math.isinf(regret) else f"{100.0 * regret:.2f}%"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", action="append", help="a tree's src directory; at most two (default: ./src)")
    p.add_argument("--seeds", action="append", type=seed_range, required=True,
                   help="optimizer seeds LO-HI; repeat for disjoint sets, each summarized apart")
    p.add_argument("--mechanisms", type=int, default=6, help="drawn mechanisms besides canon")
    p.add_argument("--json", help="write every run's best to this path")
    args = p.parse_args(argv)
    trees = args.src or [str(ROOT / "src")]
    if len(trees) > 2:
        p.error("at most two --src trees")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    suite = [json.loads(CANON_CONFIG.read_text()), *draw_mechanisms(args.mechanisms)]
    seeds = sorted({s for group in args.seeds for s in group})
    chunks = [(tree, [(m, s) for m in range(len(suite)) for s in seeds[k::JOBS]])
              for tree in trees for k in range(JOBS)]

    def run_chunk(tree: str, keys: list[tuple[int, int]]) -> list[float | None]:
        return run_tree(tree, [{**suite[m], "optimizer": {**suite[m]["optimizer"], "seed": s}} for m, s in keys])

    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(lambda chunk: run_chunk(*chunk), chunks))
    best = {(tree, m, s): value for (tree, keys), bests in zip(chunks, results) for (m, s), value in zip(keys, bests)}

    if args.json:
        rows = [{"src": t, "mechanism": m, "seed": s, "best": v} for (t, m, s), v in sorted(best.items())]
        Path(args.json).write_text(json.dumps({"suite": suite, "runs": rows}, indent=1) + "\n")
    for m in range(len(suite)):
        found = [v for (_, mm, _), v in best.items() if mm == m and v is not None]
        ref = min(found, default=math.nan) if m else CANON_OPTIMUM
        print(f"mechanism {m} ({'drawn' if m else 'canon'}), reference {ref:.6f}")

        def regret(tree: str, seed: int) -> float:
            value = best[tree, m, seed]
            return math.inf if value is None else (value - ref) / ref

        for group in args.seeds:
            line = f"  seeds {group[0]}-{group[-1]}:"
            for t, tree in enumerate(trees):
                regrets = [regret(tree, s) for s in group]
                p90 = sorted(regrets)[(9 * len(regrets) - 1) // 10]
                line += (f"  tree {t} median {percent(statistics.median(regrets))} p90 {percent(p90)}"
                         f" worst {percent(max(regrets))}")
            if len(trees) == 2:
                pairs = [(best[trees[0], m, s], best[trees[1], m, s]) for s in group]
                pairs = [(math.inf if a is None else a, math.inf if b is None else b) for a, b in pairs]
                wins = sum(b < a for a, b in pairs)
                ties = sum(b == a for a, b in pairs)
                line += f"  tree 1 better/equal/worse {wins}/{ties}/{len(pairs) - wins - ties}"
            print(line)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        print(json.dumps(run_jobs(json.load(sys.stdin))))
        sys.exit(0)
    sys.exit(main())
