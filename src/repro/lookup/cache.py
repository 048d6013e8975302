"""Bounded, generation-invalidated caches for the discovery fast paths.

The discovery plane re-walks the DHT for records that only change on
churn.  These helpers make repeated lookups O(1) wall-clock while
keeping the *simulated* semantics byte-identical:

* :class:`BoundedCache` -- an LRU-evicting mapping with a hard size cap
  and hit/miss accounting, plus a **generation** tag.  Membership events
  (ring ``join``/``leave``) bump the owner's generation counter; a cache
  whose generation does not match the ring's is cleared wholesale before
  use, so no entry can survive a membership change.
* :class:`CacheStats` -- plain hit/miss counters shared by every cache
  site (CAN's route memo, the registry's record cache, the QCS plan
  cache).

Neither of these draw RNG, advance the simulator or emit bus events --
instrumentation is metrics-counters only, so a cached run's telemetry
JSONL export stays byte-identical to an uncached one (the differential
test in ``tests/perf/test_fast_paths.py`` proves it).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

__all__ = ["CacheStats", "BoundedCache"]


class CacheStats:
    """Hit/miss tallies for one cache site."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.total
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CacheStats hits={self.hits} misses={self.misses} "
                f"rate={self.hit_rate:.1%}>")


class BoundedCache:
    """An LRU mapping with a size cap and a generation tag.

    The owner decides what a generation means (for CAN's route memo and
    the registry's record cache it is the membership counter).
    :meth:`check_generation` clears the cache when the tag moved, which
    is the *only* invalidation a route memo needs: every entry is a pure
    function of (key, membership).

    Hit/miss accounting is explicit (``stats``) rather than implicit in
    :meth:`get`, because call sites count at different granularities --
    the CAN walk probes the memo once per visited node but records one
    hit/miss per *lookup*.
    """

    __slots__ = ("cap", "generation", "stats", "_data")

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError("cache cap must be positive")
        self.cap = cap
        self.generation: Optional[int] = None
        self.stats = CacheStats()
        self._data: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def check_generation(self, generation: int) -> None:
        """Clear everything if the owner's generation moved."""
        if generation != self.generation:
            self._data.clear()
            self.generation = generation

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshed to most-recently-used) or None."""
        data = self._data
        value = data.get(key)
        if value is not None:
            # Move-to-end keeps eviction LRU (dicts preserve insertion
            # order, so re-inserting refreshes the entry's position).
            del data[key]
            data[key] = value
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.cap:
            data.pop(next(iter(data)))
        data[key] = value

    def clear(self) -> None:
        self._data.clear()

