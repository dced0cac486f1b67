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
