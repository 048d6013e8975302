"""Per-peer neighbor tables with benefit ordering and the M budget.

The table keeps at most ``budget`` entries.  When over budget it evicts
the *least beneficial* entries first, where benefit follows the paper's
probing order ("any peer first probes its 1-hop direct neighbors, then
1-hop indirect neighbors, then 2-hop direct neighbors and so on"):

    priority = 2 * hop + (0 if direct else 1)

(lower is better).  Ties are broken by recency -- fresher entries win.
Entries are soft state: each carries an expiry time and expired entries
are treated as absent (and lazily pruned).

Storage is three parallel arrays in insertion order -- peer id,
priority and expiry -- rather than one object per entry.  A priority
encodes its ``(hop, direct)`` pair exactly (``hop = priority >> 1``,
``direct`` iff the priority is even), so nothing else is stored.
Membership of a whole candidate block is one sorted search that also
yields each member's slot, and over-budget eviction is one stable
``lexsort``.  :class:`NeighborEntry` is the record that
:meth:`NeighborTable.get` and :meth:`NeighborTable.entries` hand out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["NeighborEntry", "NeighborTable"]


@dataclass(slots=True)
class NeighborEntry:
    """One (soft-state) neighbor relationship."""

    peer_id: int
    hop: int
    direct: bool
    expires_at: float

    @property
    def priority(self) -> int:
        """Benefit rank; lower probes first (paper §2.2 ordering)."""
        return 2 * self.hop + (0 if self.direct else 1)


def _entry(pid: int, priority: int, expires_at: float) -> NeighborEntry:
    return NeighborEntry(pid, priority >> 1, priority % 2 == 0, expires_at)


class NeighborTable:
    """The neighbor set one peer maintains (bounded by the probe budget).

    ``pids``, ``priorities`` and ``expiry`` are the parallel entry
    arrays, read-only outside this class; every mutation goes through
    :meth:`resolve`, :meth:`merge` or the removal methods.
    """

    __slots__ = ("budget", "pids", "priorities", "expiry")

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self.pids = np.empty(0, dtype=np.int64)
        self.priorities = np.empty(0, dtype=np.int64)
        self.expiry = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.pids)

    def __contains__(self, peer_id: int) -> bool:
        return bool((self.pids == peer_id).any())

    def slots(self, peer_ids: np.ndarray) -> np.ndarray:
        """The slot of every id in ``peer_ids`` (-1 for non-members).

        Expired entries are still members here; callers decide whether
        an expired slot counts as absent.
        """
        pids = self.pids
        n = len(pids)
        if n == 0:
            return np.full(len(peer_ids), -1, dtype=np.int64)
        order = np.argsort(pids)
        pos = np.searchsorted(pids, peer_ids, sorter=order)
        np.minimum(pos, n - 1, out=pos)
        slot = order[pos]
        slot[pids[slot] != peer_ids] = -1
        return slot

    def _slot(self, peer_id: int) -> int:
        hits = np.flatnonzero(self.pids == peer_id)
        return int(hits[0]) if len(hits) else -1

    def entries(self) -> List[NeighborEntry]:
        return [
            _entry(pid, prio, exp)
            for pid, prio, exp in zip(
                self.pids.tolist(), self.priorities.tolist(),
                self.expiry.tolist(),
            )
        ]

    def get(self, peer_id: int, now: float) -> Optional[NeighborEntry]:
        """The active entry for ``peer_id``, or ``None`` (expired counts
        as absent and is pruned)."""
        slot = self._slot(peer_id)
        if slot < 0:
            return None
        expires_at = float(self.expiry[slot])
        if expires_at < now:
            self._keep(np.arange(len(self.pids)) != slot)
            return None
        return _entry(peer_id, int(self.priorities[slot]), expires_at)

    def resolve(
        self,
        neighbors: Iterable[Tuple[int, int, bool]],
        now: float,
        ttl: float,
    ) -> int:
        """Add/refresh ``(peer_id, hop, direct)`` relations; enforce budget.

        An existing entry is refreshed (expiry extended) and upgraded to
        the better (lower) priority of old vs. new.  Returns the number
        of entries *newly added* (refreshes are free under the budget).
        """
        triples = list(neighbors)
        for _, hop, _ in triples:
            if hop < 1:
                raise ValueError(f"hop must be >= 1, got {hop}")
        pids = np.fromiter((t[0] for t in triples), np.int64, len(triples))
        prios = np.fromiter(
            (2 * hop + (0 if direct else 1) for _, hop, direct in triples),
            np.int64, len(triples),
        )
        slots = self.slots(pids)
        member = slots >= 0
        fresh = ~member
        new_pids = pids[fresh]
        new_prios = prios[fresh]
        if len(new_pids) > 1:
            # One staged entry per new id: at its first position, with
            # the best priority any of its occurrences carries.
            uniq, first, inverse = np.unique(
                new_pids, return_index=True, return_inverse=True
            )
            best = np.full(len(uniq), np.iinfo(np.int64).max)
            np.minimum.at(best, inverse, new_prios)
            order = np.argsort(first)
            new_pids = uniq[order]
            new_prios = best[order]
        return self.merge(
            slots[member], prios[member], new_pids, new_prios, now, now + ttl
        )

    def merge(
        self,
        slots: np.ndarray,
        priorities: np.ndarray,
        new_pids: np.ndarray,
        new_priorities: np.ndarray,
        now: float,
        expires: float,
    ) -> int:
        """Array core of :meth:`resolve`; returns the number added.

        ``slots``/``priorities`` refresh existing entries (repeats
        allowed): expiry extends to ``expires`` and the priority drops
        to the best seen.  ``new_pids`` are non-members, unique, in
        arrival order.  Over budget, expired entries go first, then the
        union ranks by (priority desc, expiry asc) with insertion order
        -- existing entries before new ones -- breaking ties, and the
        best ``budget`` stay.
        """
        if len(slots):
            expiry = self.expiry
            expiry[slots] = np.maximum(expiry[slots], expires)
            np.minimum.at(self.priorities, slots, priorities)
        added = len(new_pids)
        if added == 0:
            return 0
        if len(self.pids) + added > self.budget:
            live = self.expiry >= now
            if not live.all():
                self._keep(live)
        overflow = len(self.pids) + added - self.budget
        pids = np.concatenate((self.pids, new_pids))
        prios = np.concatenate((self.priorities, new_priorities))
        expiry = np.concatenate((self.expiry, np.full(added, expires)))
        if overflow > 0:
            # lexsort is stable, so equal keys keep insertion order.
            evict = np.lexsort((expiry, -prios))[:overflow]
            keep = np.ones(len(pids), dtype=bool)
            keep[evict] = False
            pids, prios, expiry = pids[keep], prios[keep], expiry[keep]
        self.pids, self.priorities, self.expiry = pids, prios, expiry
        return added

    def _keep(self, mask: np.ndarray) -> None:
        self.pids = self.pids[mask]
        self.priorities = self.priorities[mask]
        self.expiry = self.expiry[mask]

    def remove_slots(self, slots: np.ndarray) -> None:
        """Drop the entries at ``slots`` (repeats allowed)."""
        keep = np.ones(len(self.pids), dtype=bool)
        keep[slots] = False
        self._keep(keep)

    def drop(self, peer_id: int) -> None:
        slot = self._slot(peer_id)
        if slot >= 0:
            self._keep(np.arange(len(self.pids)) != slot)

    def active_ids(self, now: float) -> List[int]:
        return self.pids[self.expiry >= now].tolist()
