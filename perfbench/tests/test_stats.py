"""Percentile and sample-count selection used for the latency metrics."""

import pytest

from stats import beyond, fastest, median, percentile, repeat_drift, tail_percentile


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.5) == 50.0
    assert percentile(values, 0.99) == 99.0
    assert percentile(values, 1.0) == 100.0
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(values, 0.0)


def test_p99_needs_ten_samples_beyond_it():
    assert beyond(1000, 0.99) == 10
    assert beyond(999, 0.99) == 9
    assert tail_percentile(list(range(1000)), 0.99) == 989
    assert tail_percentile(list(range(999)), 0.99) is None
    assert tail_percentile(list(range(20)), 0.5) == 9


def test_tail_percentile_sorts_its_input():
    values = list(range(2000, 0, -1))
    assert tail_percentile(values, 0.99) == 1980


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_fastest_takes_each_steps_minimum():
    assert fastest([[3.0, 1.0, 5.0], [2.0, 4.0, 5.0], [9.0, 9.0, 0.5]]) == [
        2.0, 1.0, 0.5]
    assert fastest([[1.5, 2.5]]) == [1.5, 2.5]
    with pytest.raises(ValueError):
        fastest([])
    with pytest.raises(ValueError, match="differ in length"):
        fastest([[1.0, 2.0], [1.0]])


def test_repeat_drift_names_the_counter():
    same = {"psi": 0.9, "lookup.routed": 181}
    assert repeat_drift([same, dict(same), dict(same)]) == []
    drifted = repeat_drift([same, dict(same), {"psi": 0.9, "lookup.routed": 182}])
    assert len(drifted) == 1
    assert "'lookup.routed'" in drifted[0]
    assert "run 2 = 182" in drifted[0]
    assert "missing" in repeat_drift([same, {**same, "missing": 1}])[0]
