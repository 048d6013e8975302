"""Percentiles with the sample-count rule the benchmark reports by.

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; with fewer, its value is set by a handful of
outliers and says nothing stable about the tail.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

__all__ = [
    "MIN_BEYOND", "beyond", "fastest", "median", "percentile", "repeat_drift",
    "tail_percentile",
]

MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ascending ``sorted_values`` (0 < q <= 1)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` value."""
    return n - math.ceil(q * n)


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when too few samples lie beyond it."""
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(sorted(values), q)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def fastest(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise minimum of equally long timing series.

    ``repeats[p][i]`` is the time of step ``i`` in repetition ``p`` of
    the same work; the result is each step's fastest time.
    """
    if not repeats:
        raise ValueError("fastest of no repetitions")
    if len({len(r) for r in repeats}) != 1:
        raise ValueError(
            f"repetitions differ in length: {sorted({len(r) for r in repeats})}"
        )
    return [min(step) for step in zip(*repeats)]


def repeat_drift(runs: Sequence[Dict[str, object]]) -> List[str]:
    """Counters whose value differs between same-seed runs, by name.

    Every run must carry the same counter names with identical values;
    the message names the counter and the first differing pair.
    """
    if not runs:
        return []
    first = runs[0]
    drift = []
    for name in sorted(set().union(*runs)):
        for i, run in enumerate(runs[1:], start=1):
            if run.get(name) != first.get(name):
                drift.append(
                    f"counter {name!r} drifted between same-seed runs: "
                    f"run 0 = {first.get(name)!r}, run {i} = {run.get(name)!r}"
                )
                break
    return drift
