"""tools/bench_pairs.py's summary of paired runs, on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_counts_won_pairs_in_the_better_direction():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [9.0, 12.0, 11.5, 12.0, 8.0]   # lower, tie, higher, lower, lower
    low = bench_pairs.summarize(parent, change, "lower")
    assert (low["change_won_pairs"], low["change_lost_pairs"],
            low["tied_pairs"]) == (3, 1, 1)
    high = bench_pairs.summarize(parent, change, "higher")
    assert (high["change_won_pairs"], high["change_lost_pairs"],
            high["tied_pairs"]) == (1, 3, 1)
    # quartiles interpolate as numpy.percentile does
    assert low["parent"] == {"runs": parent, "min": 9.0, "q1": 10.0,
                             "median": 11.0, "q3": 12.0}
    assert (low["change"]["median"], low["change"]["q1"],
            low["change"]["q3"]) == (11.5, 9.0, 12.0)
    assert low["median_ratio"] == pytest.approx(11.5 / 11.0)
    one = bench_pairs.summarize([2.0], [2.0], "lower")
    assert one["tied_pairs"] == 1 and one["parent"]["q1"] == 2.0
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "smaller")


def hand_run(rhs_evals, err_gmean, ops):
    return {"correct": True, "failed": 0, "attempted": 6,
            "metrics": {"rhs_evals": {"value": rhs_evals, "unit": "count"},
                        "err_gmean": {"value": err_gmean, "unit": "rel"},
                        "solve_s": {"value": 3.0, "unit": "s"}},
            "ops": ops}


def test_counts_equal_needs_every_pair_to_repeat_the_counts():
    ops = {"ssp4": {"rhs": 900, "rej": 0, "err": 1e-6},
           "rkl": {"rhs": 300, "rej": 2, "err": 3e-6}}
    parent = [hand_run(1200, 2e-6, ops), hand_run(1210, 2e-6, ops)]
    same = [hand_run(1200, 2e-6, ops), hand_run(1210, 2e-6, ops)]
    assert bench_pairs.counts_equal(parent, same)
    moved_rej = {**ops, "rkl": {"rhs": 300, "rej": 3, "err": 3e-6}}
    for change in ([hand_run(1200, 2e-6, ops), hand_run(1211, 2e-6, ops)],
                   [hand_run(1200, 2.1e-6, ops), hand_run(1210, 2e-6, ops)],
                   [hand_run(1200, 2e-6, ops),
                    hand_run(1210, 2e-6, moved_rej)]):
        assert not bench_pairs.counts_equal(parent, change)
    # the counts are compared pair by pair, not as pooled runs
    assert not bench_pairs.counts_equal(parent, same[::-1])
    # the BENCH file carries the verdict per workload
    runs = {"w": {"parent": parent, "change": same}}
    out = bench_pairs.report("topic", "", [301, 302], {"solve_s": "lower"},
                             runs, 3)
    assert out["workloads"]["w"]["counts_equal"] is True


def test_pair_ratio_cancels_drift_that_both_sides_of_a_pair_share():
    # 20 pairs; the machine's speed drifts over 3.0-3.4 s and pairs 1-4
    # run 1.5x slower on both sides; the change is 5% faster in every
    # pair, give or take 1% of noise of its own
    drift = [(1.5 if k < 4 else 1.0) * (3.0 + 0.1 * (k % 5))
             for k in range(20)]
    noise = [1.0 + 0.01 * ((-1) ** k) for k in range(20)]
    parent = [d * e for d, e in zip(drift, noise)]
    change = [0.95 * d * e for d, e in zip(drift, noise[::-1])]
    out = bench_pairs.summarize(parent, change, "lower")
    p, c = out["parent"], out["change"]
    # pooled, the sides' interquartile ranges overlap, and the gap
    # between the medians is inside the parent's own spread
    assert c["q3"] > p["q1"]
    assert p["median"] - c["median"] < p["q3"] - p["q1"]
    # per pair, the drift cancels and the change shows
    r = out["pair_ratio"]
    assert r["runs"] == pytest.approx([cv / pv for pv, cv in
                                       zip(parent, change)])
    assert r["q3"] < 1.0
    assert 0.93 < r["q1"] <= r["median"] <= r["q3"] < 0.97
    assert out["change_won_pairs"] == 20
    # no ratio from a parent run of 0
    assert bench_pairs.summarize([0.0, 1.0], [1.0, 1.0],
                                 "lower")["pair_ratio"] is None
