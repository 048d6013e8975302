"""Reference neighbor table: one dict entry per neighbor, scalar loops.

The straightforward spelling of the neighbor-table contract that the
array-backed :class:`repro.probing.neighbors.NeighborTable` must match
entry for entry and in the same order: resolve refreshes existing
entries (expiry extended, priority upgraded) and stages new ones at
their first position with their best priority; over budget, expired
entries go first, then the union ranks by (priority desc, expiry asc)
with insertion order breaking ties.
"""

from typing import Dict, Iterable, List, Optional, Tuple

from repro.probing.neighbors import NeighborEntry


class DictNeighborTable:
    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._entries: Dict[int, NeighborEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._entries

    def entries(self) -> List[NeighborEntry]:
        return list(self._entries.values())

    def get(self, peer_id: int, now: float) -> Optional[NeighborEntry]:
        entry = self._entries.get(peer_id)
        if entry is None:
            return None
        if entry.expires_at < now:
            del self._entries[peer_id]
            return None
        return entry

    def resolve(
        self, neighbors: Iterable[Tuple[int, int, bool]], now: float, ttl: float
    ) -> int:
        expires = now + ttl
        added = 0
        for peer_id, hop, direct in neighbors:
            if hop < 1:
                raise ValueError(f"hop must be >= 1, got {hop}")
            entry = self._entries.get(peer_id)
            if entry is None:
                self._entries[peer_id] = NeighborEntry(
                    peer_id, hop, direct, expires
                )
                added += 1
                continue
            if expires > entry.expires_at:
                entry.expires_at = expires
            if 2 * hop + (0 if direct else 1) < entry.priority:
                entry.hop, entry.direct = hop, direct
        if len(self._entries) > self.budget:
            self._evict(now)
        return added

    def _evict(self, now: float) -> None:
        for pid in [p for p, e in self._entries.items() if e.expires_at < now]:
            del self._entries[pid]
        overflow = len(self._entries) - self.budget
        if overflow <= 0:
            return
        ranked = sorted(
            self._entries.values(), key=lambda e: (-e.priority, e.expires_at)
        )
        for entry in ranked[:overflow]:
            del self._entries[entry.peer_id]

    def drop(self, peer_id: int) -> None:
        self._entries.pop(peer_id, None)

    def active_ids(self, now: float) -> List[int]:
        return [pid for pid, e in self._entries.items() if e.expires_at >= now]
