"""The claim and no-regression rules of ``tools/bench_pairs.py`` on fixed runs, and what a run reports."""
import runpy

import pytest

from conftest import REPO_ROOT

TOOL = runpy.run_path(str(REPO_ROOT / "tools" / "bench_pairs.py"))
quartiles = TOOL["quartiles"]
BOUND = 0.25  # BENCHMARK.json's bound on each end-to-end metric


def verdict(parent, change, better, bound=BOUND):
    return TOOL["verdict"](parent, change, better, bound)


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
    metrics = [{"name": "call_p50_ms", "better": "lower", "bound": BOUND},
               {"name": "eval_per_s", "better": "higher", "bound": BOUND}]
    header, *rows = TOOL["table"](runs, ["grid-sweep"], metrics)
    assert header.split()[:2] == ["workload", "metric"]
    assert rows[0].split() == ["grid-sweep", "call_p50_ms", "0.225", "[0.22225,", "0.22775]",
                               "0.205", "[0.20225,", "0.20775]", "10/10", "gain"]
    assert rows[1].split()[1] == "eval_per_s" and rows[1].split()[-2:] == ["10/10", "gain"]


def test_a_median_worse_by_more_than_the_bound_reads_worse():
    # the bound is a fraction of the parent's median: 0.25 of 0.225 here
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower")["verdict"] == "no gain"
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower")["verdict"] == "worse"
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "higher")["verdict"] == "worse"
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "lower")["verdict"] == "gain"
    runs = {("grid-sweep", "parent"): [{"call_p50_ms": p} for p in PARENT],
            ("grid-sweep", "change"): [{"call_p50_ms": p * 1.3} for p in PARENT]}
    _, row = TOOL["table"](runs, ["grid-sweep"], [{"name": "call_p50_ms", "better": "lower", "bound": BOUND}])
    assert row.split()[-2:] == ["0/10", "worse"]


# ten parent runs with median 5.5 and IQR 4.5, over 0.25 of the median
WIDE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    assert verdict(WIDE, WIDE[::-1], "lower")["verdict"] == "unresolved"
    assert verdict(PARENT, PARENT[::-1], "lower")["verdict"] == "no gain"
    # unless every change run beats every parent run (nine pairs never gain)
    assert verdict(WIDE[:9], [0.9] * 9, "lower")["verdict"] == "no gain"
    assert verdict(WIDE[:9], [1.0] + [0.9] * 8, "lower")["verdict"] == "unresolved"
    # a median worse by more than the bound still reads worse
    assert verdict(WIDE, [w + 3.0 for w in WIDE], "lower")["verdict"] == "worse"


def test_seed_ranges_run_from_lo_to_hi():
    assert TOOL["seed_list"]("90101-90110") == list(range(90101, 90111))
    assert TOOL["seed_list"]("7") == [7]


@pytest.mark.parametrize("seeds", ["90110-90101", "a-b", "5-", ""])
def test_an_empty_reversed_or_non_numeric_seed_range_is_a_usage_error(seeds, capsys):
    with pytest.raises(SystemExit) as stop:
        TOOL["main"](["--parent", "HEAD", "--change", "HEAD", "--seeds", seeds])
    assert stop.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_a_run_gives_its_values_and_the_line_naming_its_tail_percentile(tmp_path):
    # call_tail_ms is p90 or p99 by the run's call count, so each run's line carries run.py's count
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'print("# calls: 957, call_tail_ms is p90; setup runs: 5")\n'
        'print(\'{"failed": 0, "metrics": {"call_p50_ms": {"value": 25.5, "unit": "ms"}}}\')\n'
    )
    values, calls = TOOL["run_once"](tmp_path, "grid-sweep", 1, 30)
    assert values == {"call_p50_ms": 25.5}
    assert calls == "calls: 957, call_tail_ms is p90; setup runs: 5"
