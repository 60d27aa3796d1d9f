"""Seeded input generators.

The workload seed stays in the benchmark: the program only receives what
these functions derive from it (optimizer seeds, designs, grid boxes).  The
same seed always yields the same inputs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

STREAM_SPREAD = 0.10  # designs are drawn within +-10% of the baseline lengths


def optimizer_seeds(seed: int, count: int) -> list[int]:
    """One optimizer seed per ``run_optimization`` repetition."""
    rng = np.random.default_rng([seed, 0])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


def stream_designs(baseline: tuple[float, float, float], seed: int) -> Iterator[tuple[float, ...]]:
    """Endless stream of designs uniform within the spread around ``baseline``.

    Drawn one at a time, so the k-th design does not depend on how many are
    consumed.
    """
    rng = np.random.default_rng([seed, 1])
    base = np.asarray(baseline, dtype=float)
    while True:
        scale = rng.uniform(1.0 - STREAM_SPREAD, 1.0 + STREAM_SPREAD, size=base.size)
        yield tuple(float(v) for v in base * scale)


def check_indices(seed: int, population: int, count: int) -> list[int]:
    """Sorted sample of ``count`` distinct indices below ``population``."""
    rng = np.random.default_rng([seed, 2])
    picked = rng.choice(population, size=min(count, population), replace=False)
    return sorted(int(v) for v in picked)


def grid_box(
    bounds: tuple[tuple[float, float], ...], resolution: int, seed: int, sweep: int
) -> tuple[tuple[float, float], ...]:
    """The search box shrunk by half a grid step, placed by a seeded offset.

    Each sweep of a run gets its own offset, so no two sweeps share cells
    and a result cache cannot turn repeated sweeps into free work.
    """
    rng = np.random.default_rng([seed, 3, sweep])
    box = []
    for (lo, hi), u in zip(bounds, rng.random(len(bounds))):
        half = 0.5 * (hi - lo) / (resolution - 1)
        box.append((lo + u * half, hi - (1.0 - u) * half))
    return tuple(box)
