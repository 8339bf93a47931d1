"""The summary of `tools/bench_pairs.py` on synthetic runs; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "adam_steps_per_s": "higher"}


def result(wall_s, rate=None, attempted=10, failed=0):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}}
    metrics["adam_steps_per_s"] = {"value": rate, "unit": "steps/s"}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def pairs(parent_walls, change_walls, **change):
    return [{"parent": result(p), "change": result(c, **change)} for p, c in zip(parent_walls, change_walls)]


def test_clear_gain_is_claimable():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    change = [w - 0.1 for w in parent]
    wall = bench_pairs.summarize(pairs(parent, change), BETTER)["metrics"]["wall_s"]
    assert wall["change_wins"] == "10/10" and wall["ties"] == 0
    assert wall["parent"]["median"] == pytest.approx(1.0)
    assert wall["change_vs_parent"] == pytest.approx(0.9)
    assert wall["gain_claimable"]


def test_eight_wins_of_ten_is_not_enough():
    parent = [1.0] * 10
    change = [0.8] * 8 + [1.2, 1.0]
    wall = bench_pairs.summarize(pairs(parent, change), BETTER)["metrics"]["wall_s"]
    assert wall["change_wins"] == "8/10" and wall["ties"] == 1
    assert not wall["gain_claimable"]


def test_gap_within_the_parents_spread_is_not_a_gain():
    parent = [0.8, 1.2] * 5  # quartiles 0.8 and 1.2
    change = [w - 0.05 for w in parent]  # wins every pair by less than the spread
    wall = bench_pairs.summarize(pairs(parent, change), BETTER)["metrics"]["wall_s"]
    assert wall["change_wins"] == "10/10"
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(0.4)
    assert not wall["gain_claimable"]


def test_higher_is_better_and_failures_and_missing_values():
    runs = [{"parent": result(1.0, 100.0, failed=1), "change": result(1.0, 150.0 + k)} for k in range(10)]
    summary = bench_pairs.summarize(runs, BETTER)
    rate = summary["metrics"]["adam_steps_per_s"]
    assert rate["change_wins"] == "10/10" and rate["gain_claimable"]
    assert summary["metrics"]["wall_s"]["ties"] == 10 and not summary["metrics"]["wall_s"]["gain_claimable"]
    assert summary["parent_failed_share"] == pytest.approx(0.1) and summary["change_failed_share"] == 0.0
    runs[0]["change"]["metrics"]["adam_steps_per_s"]["value"] = None  # a workload without Adam steps
    assert "adam_steps_per_s" not in bench_pairs.summarize(runs, BETTER)["metrics"]


STDERR = """failed operation: none
10 timed rounds: raw wall_s median {raw:.4f}, pace median {pace:.4f}, paced wall_s median 0.6000; raw setup_s {setup:.4f}
"""


def test_raw_wall_and_pace_are_read_from_the_run_s_standard_error():
    parsed = bench_pairs.parse_unpaced(STDERR.format(raw=1.2345, pace=2.5, setup=0.2291))
    assert parsed == {"raw_wall_s": 1.2345, "pace": 2.5, "raw_setup_s": 0.2291}
    assert bench_pairs.parse_unpaced("check failed: no line here\n") == {}


def test_summary_gives_the_median_pace_ratio():
    runs = pairs([1.0] * 10, [0.9] * 10)
    for k, pair in enumerate(runs):
        pair["parent"].update(bench_pairs.parse_unpaced(STDERR.format(raw=2.0, pace=2.0, setup=0.25)))
        change = STDERR.format(raw=1.9, pace=2.0 + 0.1 * (k % 3), setup=0.2 + 0.01 * k)
        pair["change"].update(bench_pairs.parse_unpaced(change))
    unpaced = bench_pairs.summarize(runs, BETTER)["unpaced"]
    assert unpaced["pace"]["change_vs_parent_median_ratio"] == pytest.approx(1.05)  # ratios 1, 1.05, 1.1
    assert unpaced["raw_wall_s"]["change_vs_parent_median_ratio"] == pytest.approx(0.95)
    assert unpaced["raw_wall_s"]["parent"]["median"] == 2.0
    setup = unpaced["raw_setup_s"]  # change 0.20 ... 0.29 against 0.25: ratios 0.80 ... 1.16
    assert setup["change_vs_parent_median_ratio"] == pytest.approx(0.98)
    assert setup["change"]["median"] == pytest.approx(0.245) and setup["parent"]["q3"] == 0.25
    del runs[0]["change"]["pace"]  # a run without the value: no summary of it
    assert list(bench_pairs.summarize(runs, BETTER)["unpaced"]) == ["raw_wall_s", "raw_setup_s"]


@pytest.mark.parametrize("direction,parent,change,within", [
    ("lower", 1.0, 1.24, True),  # 24% slower against a 25% bound
    ("lower", 1.0, 1.26, False),
    ("lower", 1.0, 0.5, True),  # better by any amount
    ("higher", 100.0, 76.0, True),  # 24% fewer steps a second
    ("higher", 100.0, 74.0, False),
    ("higher", 100.0, 200.0, True),
])
def test_within_bound_is_the_no_regression_half(direction, parent, change, within):
    # the change's median is worse than the parent's by at most bound x the parent's median
    runs = [{"parent": result(parent + 0.001 * k), "change": result(change + 0.001 * k)} for k in range(5)]
    wall = bench_pairs.summarize(runs, {"wall_s": direction}, {"wall_s": 0.25})["metrics"]["wall_s"]
    assert wall["within_bound"] is within
    assert "within_bound" not in bench_pairs.summarize(runs, {"wall_s": direction})["metrics"]["wall_s"]
