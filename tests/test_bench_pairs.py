"""tools/bench_pairs.py reads each metric's paired runs as the acceptance rule does."""

import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import bench_pairs
    return bench_pairs


def _runs(values):
    return [{"metrics": {"setup_s": {"value": v}, "cos_avg": {"value": v}}} for v in values]


SPEC = {"setup_s": {"better": "lower", "bound": 0.25},
        "cos_avg": {"better": "higher", "bound": 0.25}}
PARENT = [0.80, 0.82, 0.84, 0.86, 0.88, 0.90, 0.92, 0.94, 0.96, 0.98]


@pytest.mark.parametrize("change, lower, higher", [
    # 10 of 10 pairs lower, the medians 0.69 apart against a parent IQR of 0.09
    ([0.20] * 10, "gain", "worse"),
    # 9 of 10 pairs lower; the one loss is a tie
    ([0.20] * 9 + [0.98], "gain", "worse"),
    # 8 of 10 pairs lower: not a gain, and no worse than the bound either way
    ([0.79, 0.81, 0.83, 0.85, 0.87, 0.89, 0.91, 0.93, 1.2, 1.2], "within bound",
     "within bound"),
    # every pair lower by 0.01: 10 of 10 pairs, but inside the parent's IQR
    ([v - 0.01 for v in PARENT], "within bound", "within bound"),
    # the median 1.30 against 0.89: 46 % higher, past the 25 % bound
    ([1.30] * 10, "worse", "gain"),
    # 20 % higher: inside the bound, and 10 of 10 pairs, but a loss
    ([1.068] * 10, "within bound", "gain"),
])
def test_verdicts_follow_the_acceptance_rule(bench_pairs, change, lower, higher):
    out = bench_pairs.summarize(_runs(PARENT), _runs(change), SPEC)
    assert out["setup_s"]["verdict"] == lower
    assert out["cos_avg"]["verdict"] == higher


def test_a_parent_spread_past_the_bound_is_unresolved(bench_pairs):
    parent = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]  # IQR 0.9, median 1.1
    out = bench_pairs.summarize(_runs(parent), _runs([v * 1.01 for v in parent]), SPEC)
    assert out["setup_s"]["verdict"] == "unresolved"
    assert out["setup_s"]["change_wins"] == 0 and out["setup_s"]["parent_wins"] == 10
