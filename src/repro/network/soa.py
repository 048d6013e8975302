"""Struct-of-arrays peer state: the arrays behind the peer directory.

:class:`~repro.network.peer.PeerDirectory` keeps every alive peer's
state as contiguous numpy arrays (:class:`PeerStore`) so the hot planes
-- candidate selection, prober snapshot refresh, admission accounting
-- operate on array slices instead of looping over Python objects.
:class:`PeerRowView` gives one row the ``Peer`` surface for the callers
that handle a single peer at a time.

Layout
------
:class:`PeerStore` owns, per row:

* ``capacity``/``available`` -- ``(rows, m)`` end-system resource
  matrices (``available`` is the admission ledger's debit target),
* ``access_bw``/``avail_up``/``avail_down`` -- access-link state,
* ``joined_at``/``departed_at``/``alive`` -- uptime + occupancy,
* ``snap_*`` -- the prober's soft-state freshness plane: per-row
  epoch-snapshotted availability/uplink/uptime and the epoch stamp
  that makes a snapshot current (see ``probing/prober.py``).

Rows are recycled through a free list when peers depart; ``generation``
bumps on every membership change (the same invalidation discipline the
discovery-plane caches use, see ``lookup/cache.py``), so anything
holding row indices can cheaply detect staleness.  A departing peer's
final state moves into a detached :class:`~repro.network.peer.Peer`
tombstone before its row returns to the free list, so nothing that
outlives the departure can write into a recycled row.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.resources import ResourceVector

__all__ = ["PeerStore", "PeerRowView"]


class PeerStore:
    """Contiguous per-peer state arrays with row recycling.

    Rows are allocated by :meth:`alloc_row` (free list first, then the
    append cursor; arrays grow by doubling) and returned by
    :meth:`free_row`.  ``generation`` increments on every allocation
    and every free, mirroring the membership-generation discipline of
    the discovery caches.
    """

    def __init__(self, resource_names: Sequence[str], initial_rows: int = 256) -> None:
        self.resource_names = tuple(resource_names)
        rows = max(int(initial_rows), 16)
        m = len(self.resource_names)
        self.capacity = np.zeros((rows, m), dtype=np.float64)
        self.available = np.zeros((rows, m), dtype=np.float64)
        self.access_bw = np.zeros(rows, dtype=np.float64)
        self.avail_up = np.zeros(rows, dtype=np.float64)
        self.avail_down = np.zeros(rows, dtype=np.float64)
        self.joined_at = np.zeros(rows, dtype=np.float64)
        self.departed_at = np.full(rows, np.nan, dtype=np.float64)
        self.alive = np.zeros(rows, dtype=bool)
        # -- prober soft-state freshness plane ---------------------------
        #: Epoch stamp of the row's snapshot; -1 = never snapshotted
        #: (reset on row recycling so a reused row can never serve a
        #: prior tenant's state).
        self.snap_epoch = np.full(rows, -1, dtype=np.int64)
        self.snap_avail = np.zeros((rows, m), dtype=np.float64)
        self.snap_up = np.zeros(rows, dtype=np.float64)
        self.snap_uptime = np.zeros(rows, dtype=np.float64)
        #: Membership generation (bumped on alloc/free) -- the PR-4
        #: invalidation discipline for anything caching row indices.
        self.generation = 0
        #: Lifetime counters (capability/status reporting).
        self.rows_recycled = 0
        self._free: List[int] = []
        self._high = 0  # append cursor / high-water mark

    # -- row lifecycle ---------------------------------------------------
    @property
    def row_capacity(self) -> int:
        return len(self.access_bw)

    @property
    def n_rows(self) -> int:
        """Occupied rows (== alive peers)."""
        return self._high - len(self._free)

    def _grow(self, min_rows: int) -> None:
        new = max(min_rows, 2 * self.row_capacity)
        for name in (
            "capacity", "available", "access_bw", "avail_up", "avail_down",
            "joined_at", "departed_at", "alive",
            "snap_epoch", "snap_avail", "snap_up", "snap_uptime",
        ):
            old = getattr(self, name)
            shape = (new,) + old.shape[1:]
            fresh = np.zeros(shape, dtype=old.dtype)
            if name == "departed_at":
                fresh.fill(np.nan)
            elif name == "snap_epoch":
                fresh.fill(-1)
            fresh[: len(old)] = old
            setattr(self, name, fresh)

    def alloc_row(self) -> int:
        if self._free:
            row = self._free.pop()
            self.rows_recycled += 1
        else:
            if self._high >= self.row_capacity:
                self._grow(self._high + 1)
            row = self._high
            self._high += 1
        self.generation += 1
        return row

    def free_row(self, row: int) -> None:
        self.alive[row] = False
        self.snap_epoch[row] = -1
        self._free.append(row)
        self.generation += 1

    def init_row(
        self, row: int, capacity: np.ndarray, access_bw: float, joined_at: float
    ) -> None:
        self.capacity[row] = capacity
        self.available[row] = capacity
        self.access_bw[row] = access_bw
        self.avail_up[row] = access_bw
        self.avail_down[row] = access_bw
        self.joined_at[row] = joined_at
        self.departed_at[row] = np.nan
        self.alive[row] = True
        self.snap_epoch[row] = -1

    # -- introspection ---------------------------------------------------
    def memory_bytes(self) -> int:
        """Total bytes held by the state arrays (capability reporting)."""
        return sum(
            getattr(self, name).nbytes
            for name in (
                "capacity", "available", "access_bw", "avail_up",
                "avail_down", "joined_at", "departed_at", "alive",
                "snap_epoch", "snap_avail", "snap_up", "snap_uptime",
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PeerStore {self.n_rows}/{self.row_capacity} rows, "
            f"gen={self.generation}, {self.memory_bytes()} B>"
        )


class PeerRowView:
    """A ``Peer``-shaped facade over one :class:`PeerStore` row.

    Never caches array views: every property fetches through the store
    so buffer growth (reallocation) can never leave a stale alias.
    Row views exist only for *alive* peers -- departure replaces the
    view with a detached tombstone (see
    :meth:`repro.network.peer.PeerDirectory.depart`).
    """

    __slots__ = ("peer_id", "_store", "_row")

    def __init__(self, peer_id: int, store: PeerStore, row: int) -> None:
        self.peer_id = peer_id
        self._store = store
        self._row = row

    # -- lifecycle -------------------------------------------------------
    @property
    def alive(self) -> bool:
        return True

    @property
    def departed_at(self) -> Optional[float]:
        return None

    def uptime(self, now: float) -> float:
        return max(0.0, now - self._store.joined_at[self._row])

    # -- state views -----------------------------------------------------
    @property
    def capacity(self) -> ResourceVector:
        rv = ResourceVector.__new__(ResourceVector)
        rv.names = self._store.resource_names
        rv.values = self._store.capacity[self._row]
        return rv

    @property
    def available(self) -> ResourceVector:
        rv = ResourceVector.__new__(ResourceVector)
        rv.names = self._store.resource_names
        rv.values = self._store.available[self._row]
        return rv

    @property
    def access_bw(self) -> float:
        return float(self._store.access_bw[self._row])

    @property
    def avail_up(self) -> float:
        return float(self._store.avail_up[self._row])

    @avail_up.setter
    def avail_up(self, value: float) -> None:
        self._store.avail_up[self._row] = value

    @property
    def avail_down(self) -> float:
        return float(self._store.avail_down[self._row])

    @avail_down.setter
    def avail_down(self, value: float) -> None:
        self._store.avail_down[self._row] = value

    @property
    def joined_at(self) -> float:
        return float(self._store.joined_at[self._row])

    # -- end-system resource accounting ---------------------------------
    def reserve(self, requirement: ResourceVector) -> bool:
        avail = self._store.available[self._row]
        if not (avail >= requirement.values).all():
            return False
        avail -= requirement.values
        return True

    def release(self, requirement: ResourceVector) -> None:
        store, row = self._store, self._row
        store.available[row] += requirement.values
        if np.any(store.available[row] > store.capacity[row] + 1e-9):
            raise ValueError(
                f"peer {self.peer_id}: release exceeds capacity "
                f"(avail={store.available[row]}, cap={store.capacity[row]})"
            )

    # -- access-link accounting ------------------------------------------
    def reserve_up(self, bw: float) -> bool:
        store, row = self._store, self._row
        if bw > store.avail_up[row] + 1e-9:
            return False
        store.avail_up[row] -= bw
        return True

    def reserve_down(self, bw: float) -> bool:
        store, row = self._store, self._row
        if bw > store.avail_down[row] + 1e-9:
            return False
        store.avail_down[row] -= bw
        return True

    def release_up(self, bw: float) -> None:
        store, row = self._store, self._row
        store.avail_up[row] = min(
            store.avail_up[row] + bw, store.access_bw[row]
        )

    def release_down(self, bw: float) -> None:
        store, row = self._store, self._row
        store.avail_down[row] = min(
            store.avail_down[row] + bw, store.access_bw[row]
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PeerRowView {self.peer_id} row={self._row} "
            f"avail={self._store.available[self._row]}>"
        )
