"""Peers and the peer directory: capacity, uptime and access links.

Paper §4.1: "Each peer is randomly assigned an initial resource
availability RA = [cpu, memory], ranging from [100,100] to [1000,1000]
units.  Different units reflect the heterogeneity in P2P systems" --
a laptop is ~[100,100], a desktop ~[500,500], a cluster server
~[1000,1000].

Every peer has

* ``capacity``  -- the fixed end-system resource vector,
* ``available`` -- capacity minus active reservations,
* ``access_bw`` -- the access-link rate (one of the evaluation's
  bandwidth classes), with separate up/down residual counters, and
* ``joined_at`` -- for uptime (= ``now - joined_at``), the peer-selection
  longevity signal.

:class:`PeerDirectory` owns the id space and the alive set.  Alive
peers live as rows of a struct-of-arrays
:class:`~repro.network.soa.PeerStore`, so scoring, probing and churn
sampling stay numpy operations over O(alive peers) rows; callers that
handle one peer at a time get a :class:`~repro.network.soa.PeerRowView`.
A departing peer's final state is frozen into a detached :class:`Peer`
tombstone before its row is recycled: session rollback still credits a
departed peer, and those credits must never reach the row's next
tenant.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.resources import ResourceVector
from repro.network.soa import PeerRowView, PeerStore

__all__ = ["Peer", "PeerDirectory"]


class Peer:
    """One peer host, detached from the store (a departed peer's tombstone)."""

    __slots__ = (
        "peer_id",
        "capacity",
        "available",
        "access_bw",
        "avail_up",
        "avail_down",
        "joined_at",
        "departed_at",
    )

    def __init__(
        self,
        peer_id: int,
        capacity: ResourceVector,
        access_bw: float,
        joined_at: float = 0.0,
    ) -> None:
        self.peer_id = peer_id
        self.capacity = capacity
        self.available = capacity.copy()
        if access_bw <= 0:
            raise ValueError(f"peer {peer_id}: access bandwidth must be positive")
        self.access_bw = float(access_bw)
        self.avail_up = float(access_bw)
        self.avail_down = float(access_bw)
        self.joined_at = float(joined_at)
        self.departed_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.departed_at is None

    def uptime(self, now: float) -> float:
        """Time connected to the grid so far (paper's peer-selection metric)."""
        end = self.departed_at if self.departed_at is not None else now
        return max(0.0, end - self.joined_at)

    # -- end-system resource accounting -----------------------------------
    def reserve(self, requirement: ResourceVector) -> bool:
        """Atomically reserve ``requirement``; False if it does not fit."""
        if not self.available.covers(requirement):
            return False
        self.available.values -= requirement.values
        return True

    def release(self, requirement: ResourceVector) -> None:
        self.available.values += requirement.values
        # Guard against release/reserve mismatches inflating capacity.
        if np.any(self.available.values > self.capacity.values + 1e-9):
            raise ValueError(
                f"peer {self.peer_id}: release exceeds capacity "
                f"(avail={self.available.values}, cap={self.capacity.values})"
            )

    # -- access-link accounting ---------------------------------------------
    def reserve_up(self, bw: float) -> bool:
        if bw > self.avail_up + 1e-9:
            return False
        self.avail_up -= bw
        return True

    def reserve_down(self, bw: float) -> bool:
        if bw > self.avail_down + 1e-9:
            return False
        self.avail_down -= bw
        return True

    def release_up(self, bw: float) -> None:
        self.avail_up = min(self.avail_up + bw, self.access_bw)

    def release_down(self, bw: float) -> None:
        self.avail_down = min(self.avail_down + bw, self.access_bw)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "departed"
        return f"<Peer {self.peer_id} {state} avail={self.available.values}>"


class PeerDirectory:
    """The id space and alive set of the grid, backed by a PeerStore.

    Answers ``get``/``__getitem__``/``__contains__`` for every id ever
    created (row views while alive, tombstones after departure) and
    exposes :attr:`store` plus vectorized row resolution so the hot
    planes (selection, probing, admission) can work on array slices.
    """

    def __init__(
        self,
        resource_names: Sequence[str] = ("cpu", "memory"),
        initial_rows: int = 256,
    ) -> None:
        self.resource_names = tuple(resource_names)
        self.store = PeerStore(resource_names, initial_rows)
        #: pid -> row for alive peers; -1 once departed (grown with ids).
        self._row_of = np.full(max(initial_rows, 16), -1, dtype=np.int64)
        #: PeerRowView while alive, a detached ``Peer`` tombstone after
        #: departure.
        self._views: Dict[int, Union[PeerRowView, Peer]] = {}
        self._alive_ids: List[int] = []
        #: Store rows of ``_alive_ids``, position for position, in the
        #: first ``len(_alive_ids)`` slots (spare capacity past that).
        self._alive_rows = np.empty(max(initial_rows, 16), dtype=np.int64)
        self._next_id = 0
        #: Optional :class:`repro.sim.sanitizer.Sanitizer` write barrier.
        self.sanitizer = None

    @property
    def generation(self) -> int:
        """Membership generation (the store's alloc/free counter)."""
        return self.store.generation

    # -- population ------------------------------------------------------
    def create_peer(
        self, capacity: ResourceVector, access_bw: float, joined_at: float
    ) -> PeerRowView:
        if access_bw <= 0:
            raise ValueError(
                f"peer {self._next_id}: access bandwidth must be positive"
            )
        pid = self._next_id
        self._next_id += 1
        row = self.store.alloc_row()
        self.store.init_row(row, capacity.values, float(access_bw), float(joined_at))
        if pid >= len(self._row_of):
            grown = np.full(2 * len(self._row_of), -1, dtype=np.int64)
            grown[: len(self._row_of)] = self._row_of
            self._row_of = grown
        self._row_of[pid] = row
        n = len(self._alive_ids)
        if n == len(self._alive_rows):
            grown = np.empty(2 * n, dtype=np.int64)
            grown[:n] = self._alive_rows
            self._alive_rows = grown
        self._alive_rows[n] = row
        self._alive_ids.append(pid)
        view = PeerRowView(pid, self.store, row)
        self._views[pid] = view
        if self.sanitizer is not None:
            self.sanitizer.note_write(
                "network", "peer-create", self.store.generation
            )
        return view

    def depart(self, peer_id: int, now: float) -> Peer:
        row = self.row_of(peer_id)
        if row < 0:
            if peer_id in self._views:
                raise ValueError(f"peer {peer_id} already departed")
            raise KeyError(peer_id)
        store = self.store
        # Freeze the final mutable state into a detached tombstone so
        # post-departure mutations (rollback credits, ghost snapshots)
        # can never touch a recycled row.
        corpse = Peer(
            peer_id,
            ResourceVector(self.resource_names, store.capacity[row].copy()),
            float(store.access_bw[row]),
            float(store.joined_at[row]),
        )
        corpse.available.values[:] = store.available[row]
        corpse.avail_up = float(store.avail_up[row])
        corpse.avail_down = float(store.avail_down[row])
        corpse.departed_at = now
        store.departed_at[row] = now
        store.free_row(row)
        self._row_of[peer_id] = -1
        self._views[peer_id] = corpse
        # In-place removal preserves the alive-id ordering the workload
        # RNG indexes into.  Alive rows are unique and aligned with the
        # ids, so one array scan finds the position; ids and rows then
        # shift down by that same one slot.
        n = len(self._alive_ids)
        rows = self._alive_rows
        i = int(np.flatnonzero(rows[:n] == row)[0])
        del self._alive_ids[i]
        rows[i:n - 1] = rows[i + 1:n]
        if self.sanitizer is not None:
            self.sanitizer.note_write(
                "network", "peer-depart", self.store.generation
            )
        return corpse

    # -- lookup ----------------------------------------------------------
    def __getitem__(self, peer_id: int) -> Union[PeerRowView, Peer]:
        view = self._views.get(peer_id)
        if view is None:
            raise KeyError(peer_id)
        return view

    def get(self, peer_id: int) -> Optional[Union[PeerRowView, Peer]]:
        return self._views.get(peer_id)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._views

    def __len__(self) -> int:
        return self._next_id

    def is_alive(self, peer_id: int) -> bool:
        return 0 <= peer_id < self._next_id and self._row_of[peer_id] >= 0

    # -- row resolution (the SoA fast-plane entry point) -----------------
    def row_of(self, peer_id: int) -> int:
        """The store row of ``peer_id``; -1 when departed or unknown."""
        if 0 <= peer_id < self._next_id:
            return int(self._row_of[peer_id])
        return -1

    def rows_for(self, peer_ids: np.ndarray) -> np.ndarray:
        """Vectorized ``row_of`` (-1 marks departed/unknown ids)."""
        return self._row_of[peer_ids]

    # -- alive views ------------------------------------------------------
    @property
    def alive_ids(self) -> List[int]:
        """Ids of currently alive peers, in creation order."""
        return self._alive_ids

    def alive_rows(self) -> np.ndarray:
        """Store rows of the alive peers, aligned with :attr:`alive_ids`.

        A view that the next membership change overwrites; copy it to
        keep it.
        """
        return self._alive_rows[: len(self._alive_ids)]

    @property
    def n_alive(self) -> int:
        return len(self.alive_ids)

    def alive_peers(self) -> Iterator[Union[PeerRowView, Peer]]:
        return (self._views[pid] for pid in self._alive_ids)

    # -- vectorized views -------------------------------------------------
    def uptimes(self, now: float) -> Tuple[np.ndarray, List[int]]:
        """``(uptimes, ids)`` arrays over alive peers, aligned."""
        ids = self.alive_ids
        up = now - self.store.joined_at[self.alive_rows()]
        return up, ids

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PeerDirectory {self.n_alive} alive / {self._next_id} total, "
            f"{self.store.memory_bytes()} B>"
        )
