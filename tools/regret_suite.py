#!/usr/bin/env python3
"""BO regret on canon and on mechanisms drawn by a fixed rule, for one or two source trees.

Run from the root of a checkout:

    python3 tools/regret_suite.py --seeds 41000-41009
    python3 tools/regret_suite.py --src ../parent/src --src src --seeds 41000-41009 --seeds 41010-41019
    python3 tools/regret_suite.py --mechanisms 0 --seeds 41000-41039

The suite is canon plus the first ``--mechanisms`` (6) mechanisms that a
numpy port of ``tests/conftest.py::mechanisms`` draws from
``numpy.random.default_rng(7)`` and that this checkout's
``validate_baseline`` accepts; ``--mechanisms 0`` runs canon alone.  A
drawn mechanism is optimized inside the box of its baseline lengths times
e^-0.5 and e^0.5, with canon's optimizer settings otherwise.  Each run is
one ``run_optimization`` at one optimizer seed, in one of ``JOBS`` worker
processes that import the package from the ``--src`` tree
(default: this checkout's ``src``).

Regret is (best - reference) / reference.  Canon's reference is 0.630887,
its optimum derived by a 61^3 grid and zoom grids on the static mask's
vertex; each other mechanism's is the best result of any run in this
invocation.  Per mechanism, tree and ``--seeds`` set it prints the median
and the worst regret; with two trees also how many seeds the second tree
beats, ties and loses to the first.  A run that finds nothing feasible has
infinite regret.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    """The first ``count`` accepted draws, as constructor keywords of (cfg, task).

    The draws follow ``tests/conftest.py::mechanisms`` in order, with each
    hypothesis float a uniform draw and each choice an index draw.
    """
    import numpy as np

    from fourbar_synth import DesignParams, MechanismConfig, MechanismError, MotionTask, validate_baseline

    rng = np.random.default_rng(DRAW_SEED)
    out = []
    while len(out) < count:
        ox, oy = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
        ground, heading = rng.uniform(0.15, 0.4), rng.uniform(-math.pi, math.pi)
        cx, cy = ox + ground * math.cos(heading), oy + ground * math.sin(heading)
        offset = rng.uniform(-1.0, 1.0)
        delta_e = rng.uniform(-math.pi, math.pi)
        stroke = rng.uniform(0.3, 1.2) * (1.0, -1.0)[rng.integers(2)]
        l_bc = rng.uniform(0.05, 0.3)
        rocker = np.linspace(delta_e, delta_e + stroke, 61) - offset
        reach = np.hypot(cx + l_bc * np.cos(rocker) - ox, cy + l_bc * np.sin(rocker) - oy)
        near, far = float(reach.min()), float(reach.max())
        l_oa = 0.5 * (far - near) + rng.uniform(0.005, 0.1)
        shortest = max(far - l_oa, l_oa - near)
        l_ab = shortest + rng.uniform(0.1, 0.9) * (near + l_oa - shortest)
        cfg = dict(
            pivot_c=(cx, cy),
            pivot_o=(float(ox), float(oy)),
            baseline=(float(l_oa), float(l_ab), float(l_bc)),
            branch=("plus", "minus")[rng.integers(2)],
            effector_offset=float(offset),
            link_density=(2.0, 2.0, 2.0),
            payload_mass=0.5,
            effector_tip_length=0.25,
            tip_force=(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0))),
        )
        task = dict(delta_i=float(delta_e + stroke), delta_e=float(delta_e), t_move=0.5,
                    t_dwell=(0.0, 0.1)[rng.integers(2)])
        try:
            validate_baseline(MechanismConfig(**{**cfg, "baseline": DesignParams(*cfg["baseline"])}), MotionTask(**task))
        except MechanismError:
            continue
        out.append({"cfg": cfg, "task": task})
    return out


def run_jobs(jobs: list[dict]) -> list[float | None]:
    """Worker: each job's best feasible t_rms, or None; the package comes from sys.path."""
    from fourbar_synth import DesignParams, MechanismConfig, MotionTask, load_config, run_optimization

    canon_cfg, canon_task, canon_opt = load_config(str(CANON_CONFIG))
    bests = []
    for job in jobs:
        mechanism = job["mechanism"]
        if mechanism is None:
            cfg, task, opt = canon_cfg, canon_task, dataclasses.replace(canon_opt, seed=job["seed"])
        else:
            # JSON gives lists; the configs hash their fields, so pairs are tuples again
            kwargs = {key: tuple(v) if isinstance(v, list) else v for key, v in mechanism["cfg"].items()}
            cfg = MechanismConfig(**{**kwargs, "baseline": DesignParams(*kwargs["baseline"])})
            task = MotionTask(**mechanism["task"])
            bounds = tuple((v * math.exp(-0.5), v * math.exp(0.5)) for v in kwargs["baseline"])
            opt = dataclasses.replace(canon_opt, bounds=bounds, seed=job["seed"])
        best = run_optimization(cfg, task, opt).best_feasible
        bests.append(None if best is None else best[1])
    return bests


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
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


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

    sys.path.insert(0, str(ROOT / "src"))
    suite = [None, *draw_mechanisms(args.mechanisms)]
    seeds = sorted({s for group in args.seeds for s in group})
    chunks = [(tree, [{"mechanism": m, "seed": s} for m in suite for s in seeds[k::JOBS]])
              for tree in trees for k in range(JOBS)]
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(lambda chunk: run_tree(*chunk), chunks))
    best: dict[tuple[str, int, int], float | None] = {}
    for (tree, jobs), bests in zip(chunks, results):
        for job, value in zip(jobs, bests):
            best[tree, suite.index(job["mechanism"]), job["seed"]] = value

    if args.json:
        rows = [{"src": t, "mechanism": m, "seed": s, "best": v} for (t, m, s), v in sorted(best.items())]
        Path(args.json).write_text(json.dumps({"suite": suite, "runs": rows}, indent=1) + "\n")
    for m, mechanism in enumerate(suite):
        found = [v for (_, mm, _), v in best.items() if mm == m and v is not None]
        ref = CANON_OPTIMUM if mechanism is None else min(found, default=math.nan)
        print(f"mechanism {m} ({'canon' if mechanism is None else 'drawn'}), reference {ref:.6f}")

        def regret(tree: str, seed: int) -> float:
            value = best[tree, m, seed]
            return math.inf if value is None else (value - ref) / ref

        for group in args.seeds:
            line = f"  seeds {group[0]}-{group[-1]}:"
            for t, tree in enumerate(trees):
                regrets = [regret(tree, s) for s in group]
                line += f"  tree {t} median {percent(statistics.median(regrets))} worst {percent(max(regrets))}"
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
