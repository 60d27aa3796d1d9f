#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, and whether a gain may be claimed.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --seeds 90101-90110
    python3 tools/bench_pairs.py --parent HEAD --change "$(git stash create)" --seeds 90101-90110

``--parent`` and ``--change`` are git revisions; ``git stash create`` names
the staged and unstaged state of the tracked files without touching them.
Each side is a clean ``git archive`` of its revision in a temporary
directory, so no side starts with a ``__pycache__`` left by an earlier
process, and every run has ``PYTHONDONTWRITEBYTECODE=1``, so none is left
for the next: each run compiles the package as a cold benchmark run does.
Pair k runs seed k of ``--seeds`` on both sides, every workload of
``BENCHMARK.json`` in turn for its ``run_seconds``, the parent first in
even pairs and the change first in odd ones, so that every workload and
metric is compared, not only the one a gain is claimed on.  Each run's line
gives its metric values and ``run.py``'s call count, with the percentile
its ``call_tail_ms`` reports, which moves with the count.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints both sides' median and quartiles, how many pairs the change wins
(ties count for neither), and a verdict.  It reads ``gain`` by the
choosing-metrics rule: there are at least ten pairs, the change wins at
least nine tenths of them, and its median is better than the parent's by
more than the parent's interquartile range.  Otherwise it reads ``worse``
when the change's median is worse than the parent's by more than the
metric's ``bound``, a fraction of the parent's median; ``unresolved`` when
the parent's interquartile range exceeds that bound and not every change
run beats every parent run; and ``no gain`` else.  A run that fails or
reports a failed operation stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated linearly between ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The claim and no-regression rules on one metric's runs, pair k being (parent[k], change[k]).

    ``bound`` is the metric's ``BENCHMARK.json`` bound, a fraction of the
    parent's median; the module docstring gives the verdict's readings.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change, strict=True))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = len(parent) >= 10 and 10 * wins >= 9 * len(parent) and sign * (p_median - c_median) > p_q3 - p_q1
    allowed = bound * abs(p_median)
    if gain:
        reading = "gain"
    elif sign * (c_median - p_median) > allowed:
        reading = "worse"
    elif p_q3 - p_q1 > allowed and max(sign * c for c in change) >= min(sign * p for p in parent):
        reading = "unresolved"
    else:
        reading = "no gain"
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "gain": gain,
        "verdict": reading,
    }


def table(runs: dict, workloads: list[str], metrics: list[dict]) -> list[str]:
    """One line per workload and metric: both sides' quartiles, the wins and the verdict.

    ``runs[workload, side]`` lists each pair's metric values for that side,
    and ``metrics`` is ``BENCHMARK.json``'s ``end_to_end``.
    """
    lines = [f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} wins   verdict"]
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            row = verdict(*([r[name] for r in runs[workload, side]] for side in ("parent", "change")),
                          metric["better"], metric["bound"])
            sides = " ".join(f"{f'{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]':34s}" for q in (row["parent"], row["change"]))
            lines.append(f"{workload:16s} {name:12s} {sides} {row['wins']:2d}/{row['pairs']:<2d}  {row['verdict']}")
    return lines


def seed_list(text: str) -> list[int]:
    """The seeds LO-HI, or the one seed N; an argparse usage error when none."""
    lo, dash, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi if dash else lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} is an empty range: LO exceeds HI")
    return seeds


def archive(rev: str, into: Path) -> Path:
    """A clean copy of the tree at ``rev`` under ``into``."""
    into.mkdir()
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE) as git:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=git.stdout, check=True)
    if git.returncode:
        raise subprocess.CalledProcessError(git.returncode, git.args)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """One untraced perfbench run in ``tree``: its end-to-end metric values, and the
    line of ``run.py``'s output that gives its call count and ``call_tail_ms``'s percentile."""
    stale = list(tree.rglob("__pycache__"))
    if stale:
        raise RuntimeError(f"{stale[0]} exists before a cold run")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: {result['failed']} failed operations")
    calls = next((line[2:] for line in lines if line.startswith("# calls:")), "calls: not reported")
    return {name: entry["value"] for name, entry in result["metrics"].items()}, calls


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--seeds", required=True, type=seed_list, help="one seed per pair, as LO-HI")
    args = p.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": archive(args.parent, work / "parent"), "change": archive(args.change, work / "change")}
        runs = {(w, side): [] for w in workloads for side in trees}
        for k, seed in enumerate(args.seeds):
            for workload in workloads:
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    values, calls = run_once(trees[side], workload, seed, bench["run_seconds"])
                    runs[workload, side].append(values)
                    shown = " ".join(f"{name}={value:.6g}" for name, value in values.items())
                    print(f"# pair {k} seed {seed} {workload} {side}: {shown} ({calls})", flush=True)
    finally:
        shutil.rmtree(work)

    print("\n".join(table(runs, workloads, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
