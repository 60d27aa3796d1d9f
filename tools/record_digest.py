#!/usr/bin/env python3
"""Digests of the records of fixed design sets, to hold a change's records bit for bit to its parent's.

Run from the root of a checkout, once per tree, and compare the outputs:

    python3 tools/record_digest.py --src ../parent/src
    python3 tools/record_digest.py

For each set it prints the set's name, its record count and a sha256 over
the ``float.hex`` of every value of every record, in order: both static
gaps, ``c_dyn``, ``feasible`` and ``t_rms`` (a missing value hashes as
``None``).  The sets:

- ``grid-21``: canon's ``grid_sweep`` at 21 points per axis on the
  optimizer bounds, and ``grid-21-shifted`` on those bounds shifted by a
  third of a cell;
- ``stream``: 2,000 canon designs within 10% of the baseline per length,
  drawn from ``numpy.random.default_rng(0)``, one ``evaluate_design`` each;
- ``drawn``: the 6 mechanisms of ``tools/regret_suite.py``
  (``draw_mechanisms``), each with 50 designs within e^-0.5 and e^0.5 of
  its baseline per length, drawn from ``numpy.random.default_rng(1)``, one
  ``evaluate_designs`` batch each;
- ``edges``: the designs the other sets miss, two ``evaluate_designs``
  batches on draws from ``numpy.random.default_rng(2)``.  On canon,
  ``SINGULAR`` (feasible, its torque singular at delta_i) and 100 designs
  within e^-0.2 and e^0.2 of ``REVERSAL`` per length (motion defects and
  static rejects); on ``stretched``, canon with the pivot and baseline
  whose crank and coupler stretch into one line at mid-stroke, 200 designs
  within e^-0.2 and e^0.2 of that baseline (designs that pass the static
  gate and do not assemble along the stroke, motion defects, static
  rejects and costed designs).

The package is imported from the ``--src`` tree (default: this checkout's
``src``); the drawn mechanisms always come from this checkout's
``tests/conftest.py``, so it needs pytest and hypothesis.  A run takes
about 2 s.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID_RESOLUTION = 21
STREAM_DESIGNS = 2000
DRAWN_MECHANISMS = 6
DRAWN_DESIGNS = 50
EDGE_DESIGNS = 100
# canon designs: coupler and rocker collinear at delta_i; a crank that reverses mid-stroke
SINGULAR = (0.20531415706603068, 0.25, 0.15)
REVERSAL = (0.244710222, 0.133037882, 0.166103598)


def digest(records) -> str:
    """sha256 over the ``float.hex`` of each record's gaps, ``c_dyn``, ``feasible`` and ``t_rms``."""
    sha = hashlib.sha256()
    for record in records:
        c = record.constraints
        for value in (c.c_static_i, c.c_static_e, c.c_dyn, c.feasible, record.objective):
            sha.update(b"None," if value is None else float(value).hex().encode() + b",")
    return sha.hexdigest()


def record_sets() -> dict[str, list]:
    """The records of each fixed set, by name; the package comes from ``sys.path``."""
    import numpy as np

    from fourbar_synth import DesignParams, evaluate_design, evaluate_designs, grid_sweep, load_config, load_config_dict
    from regret_suite import draw_mechanisms

    cfg, task, opt = load_config(str(ROOT / "configs" / "canon.json"))
    third = [(hi - lo) / (GRID_RESOLUTION - 1) / 3.0 for lo, hi in opt.bounds]
    shifted = tuple((lo + d, hi + d) for (lo, hi), d in zip(opt.bounds, third))
    sets = {
        "grid-21": grid_sweep(cfg, task, opt.bounds, GRID_RESOLUTION),
        "grid-21-shifted": grid_sweep(cfg, task, shifted, GRID_RESOLUTION),
    }
    designs = np.random.default_rng(0).uniform(0.9, 1.1, (STREAM_DESIGNS, 3)) * cfg.baseline.as_tuple()
    sets["stream"] = [evaluate_design(DesignParams(*row), cfg, task) for row in designs.tolist()]
    rng = np.random.default_rng(1)
    sets["drawn"] = []
    for config in draw_mechanisms(DRAWN_MECHANISMS):
        cfg, task, _ = load_config_dict(config)
        designs = np.exp(rng.uniform(-0.5, 0.5, (DRAWN_DESIGNS, 3))) * cfg.baseline.as_tuple()
        sets["drawn"] += evaluate_designs(designs, cfg, task)
    sets["edges"] = edge_records(*load_config(str(ROOT / "configs" / "canon.json"))[:2])
    return sets


def edge_records(cfg, task) -> list:
    """The ``edges`` set, from canon's ``cfg`` and ``task``."""
    import dataclasses

    import numpy as np

    from fourbar_synth import DesignParams, evaluate_designs

    stretched = dataclasses.replace(
        cfg, pivot_c=(0.25, 0.0), baseline=DesignParams(0.125, 0.375, 0.25), effector_offset=task.delta_mid
    )
    rng = np.random.default_rng(2)
    near_reversal = np.exp(rng.uniform(-0.2, 0.2, (EDGE_DESIGNS, 3))) * REVERSAL
    near_stretched = np.exp(rng.uniform(-0.2, 0.2, (2 * EDGE_DESIGNS, 3))) * stretched.baseline.as_tuple()
    records = evaluate_designs(np.vstack([SINGULAR, near_reversal]), cfg, task)
    return records + evaluate_designs(near_stretched, stretched, task)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="the src directory to import the package from")
    args = p.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests"), str(ROOT / "tools")]
    for name, records in record_sets().items():
        print(f"{name:16s} {len(records):6d} {digest(records)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
