"""``tools/record_digest.py``: its digest sees one ulp of one value and nothing else."""
import dataclasses
import math
import runpy
import sys

import numpy as np

from fourbar_synth import evaluate_designs

from conftest import REPO_ROOT

TOOL = runpy.run_path(str(REPO_ROOT / "tools" / "record_digest.py"))


def test_the_digest_moves_with_one_ulp_of_one_t_rms_and_only_then(canon_cfg, canon_task):
    digest = TOOL["digest"]
    designs = np.exp(np.random.default_rng(5).uniform(-0.2, 0.2, (40, 3))) * canon_cfg.baseline.as_tuple()
    records = evaluate_designs(designs, canon_cfg, canon_task)
    costed = [k for k, record in enumerate(records) if record.objective is not None]
    assert costed and len(costed) < len(records)
    assert digest(records) == digest(evaluate_designs(designs, canon_cfg, canon_task))
    assert digest(records) == digest([dataclasses.replace(record) for record in records])
    for k in (costed[0], costed[-1]):
        for direction in (math.inf, -math.inf):
            moved = list(records)
            moved[k] = dataclasses.replace(records[k], objective=math.nextafter(records[k].objective, direction))
            assert digest(moved) != digest(records)


def test_it_prints_each_sets_count_and_digest(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert TOOL["main"]([]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(name, int(count)) for name, count, _ in lines] == [
        ("grid-21", 9261), ("grid-21-shifted", 9261), ("stream", 2000), ("drawn", 300), ("edges", 301),
    ]
    assert all(len(sha) == 64 for *_, sha in lines)


def test_the_edges_set_holds_every_outcome_the_other_sets_lack(canon_cfg, canon_task):
    outcomes = set()
    for record in TOOL["edge_records"](canon_cfg, canon_task):
        c = record.constraints
        if c.c_static_i > 0.0 or c.c_static_e > 0.0:
            outcomes.add("static reject")
        elif c.c_dyn is None:
            outcomes.add("unsolvable")
        elif c.c_dyn > 0.0:
            outcomes.add("motion defect")
        else:
            outcomes.add("costed" if record.objective is not None else "singular")
    assert outcomes == {"static reject", "unsolvable", "motion defect", "costed", "singular"}
