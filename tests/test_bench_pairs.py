"""The claim rule of ``tools/bench_pairs.py`` on fixed runs."""
import runpy

import pytest

from conftest import REPO_ROOT

TOOL = runpy.run_path(str(REPO_ROOT / "tools" / "bench_pairs.py"))
verdict, quartiles = TOOL["verdict"], TOOL["quartiles"]

# ten parent runs with quartiles 0.22225 and 0.22775 (IQR 0.0055) and median 0.225
PARENT = [0.22, 0.221, 0.222, 0.223, 0.224, 0.226, 0.227, 0.228, 0.229, 0.23]


def test_quartiles_interpolate_between_ranks():
    assert quartiles(PARENT) == pytest.approx((0.22225, 0.225, 0.22775))
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    lower = [p - 0.02 for p in PARENT]
    row = verdict(PARENT, lower, "lower")
    assert (row["wins"], row["pairs"], row["gain"]) == (10, 10, True)
    assert row["parent"] == pytest.approx(quartiles(PARENT)) and row["change"] == pytest.approx(quartiles(lower))
    # nine wins still gain; eight do not
    nine = lower[:9] + [PARENT[9] + 0.01]
    assert verdict(PARENT, nine, "lower")["gain"]
    eight = lower[:8] + [PARENT[8] + 0.01, PARENT[9] + 0.01]
    assert verdict(PARENT, eight, "lower")["wins"] == 8 and not verdict(PARENT, eight, "lower")["gain"]
    # ten wins with the medians 0.004 apart, inside the parent's IQR of 0.0055
    close = [p - 0.004 for p in PARENT]
    assert verdict(PARENT, close, "lower")["wins"] == 10 and not verdict(PARENT, close, "lower")["gain"]


def test_ties_count_for_neither_side_and_direction_follows_the_metric():
    tied = [p - 0.02 for p in PARENT[:9]] + [PARENT[9]]
    assert verdict(PARENT, tied, "lower")["wins"] == 9
    # a higher-is-better metric: the same lower runs lose every pair
    row = verdict(PARENT, [p - 0.02 for p in PARENT], "higher")
    assert (row["wins"], row["gain"]) == (0, False)
    assert verdict(PARENT, [p + 0.02 for p in PARENT], "higher")["gain"]


def test_fewer_than_ten_pairs_never_gain():
    assert not verdict(PARENT[:9], [p - 0.02 for p in PARENT[:9]], "lower")["gain"]


def test_the_table_has_one_line_per_workload_and_metric():
    runs = {("grid-sweep", "parent"): [{"call_p50_ms": p, "eval_per_s": 1.0 / p} for p in PARENT],
            ("grid-sweep", "change"): [{"call_p50_ms": p - 0.02, "eval_per_s": 1.0 / (p - 0.02)} for p in PARENT]}
    metrics = [{"name": "call_p50_ms", "better": "lower"}, {"name": "eval_per_s", "better": "higher"}]
    header, *rows = TOOL["table"](runs, ["grid-sweep"], metrics)
    assert header.split()[:2] == ["workload", "metric"]
    assert rows[0].split() == ["grid-sweep", "call_p50_ms", "0.225", "[0.22225,", "0.22775]",
                               "0.205", "[0.20225,", "0.20775]", "10/10", "gain"]
    assert rows[1].split()[1] == "eval_per_s" and rows[1].split()[-2:] == ["10/10", "gain"]
