"""Unit coverage for the struct-of-arrays peer store and directory.

The directory differential (test_directory_differential.py) checks the
directory's public surface against an object reference; these tests pin
the store's own mechanics -- row recycling on departure/rejoin,
generation bumps, snapshot-epoch reset, free-list order, array growth --
at the unit level, where a regression is attributable to one method.
"""

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.network.peer import Peer, PeerDirectory
from repro.network.soa import PeerRowView, PeerStore

NAMES = ("cpu", "memory")


def rv(*values):
    return ResourceVector(NAMES, np.asarray(values, dtype=np.float64))


def make_directory(initial_rows=16):
    return PeerDirectory(NAMES, initial_rows=initial_rows)


class TestPeerStoreRows:
    def test_alloc_appends_then_recycles_lifo(self):
        store = PeerStore(NAMES, initial_rows=16)
        r0, r1, r2 = store.alloc_row(), store.alloc_row(), store.alloc_row()
        assert (r0, r1, r2) == (0, 1, 2)
        store.free_row(r0)
        store.free_row(r2)
        # Free list is LIFO: the most recently freed row comes back first.
        assert store.alloc_row() == r2
        assert store.alloc_row() == r0
        assert store.rows_recycled == 2
        # Only fresh appends move the high-water mark.
        assert store.alloc_row() == 3

    def test_generation_bumps_on_alloc_and_free(self):
        store = PeerStore(NAMES, initial_rows=16)
        g0 = store.generation
        row = store.alloc_row()
        assert store.generation == g0 + 1
        store.free_row(row)
        assert store.generation == g0 + 2

    def test_free_resets_alive_and_snap_epoch(self):
        store = PeerStore(NAMES, initial_rows=16)
        row = store.alloc_row()
        store.init_row(row, np.array([4.0, 8.0]), 1e5, joined_at=0.0)
        store.snap_epoch[row] = 7  # pretend the prober snapshotted it
        store.free_row(row)
        assert not store.alive[row]
        # A recycled row must never serve the prior tenant's snapshot.
        assert store.snap_epoch[row] == -1

    def test_grow_preserves_state_and_fill_values(self):
        store = PeerStore(NAMES, initial_rows=16)
        cap = store.row_capacity
        for i in range(cap + 1):  # force one doubling
            row = store.alloc_row()
            store.init_row(row, np.array([1.0 + i, 2.0]), 1e5, joined_at=float(i))
        assert store.row_capacity >= 2 * cap
        assert store.capacity[0, 0] == 1.0
        assert store.joined_at[cap] == float(cap)
        # Fresh tail rows keep the sentinel fills.
        assert np.isnan(store.departed_at[cap + 1 :]).all()
        assert (store.snap_epoch[cap + 1 :] == -1).all()

    def test_memory_bytes_counts_every_array(self):
        store = PeerStore(NAMES, initial_rows=16)
        m = len(NAMES)
        expected = store.row_capacity * (
            3 * m * 8   # capacity, available, snap_avail matrices
            + 8 * 8     # the seven f8 vectors + snap_epoch (i8)
            + 1         # alive (bool)
        )
        assert store.memory_bytes() == expected


class TestDirectoryLifecycle:
    def test_create_returns_row_view_with_peer_surface(self):
        d = make_directory()
        p = d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
        assert isinstance(p, PeerRowView)
        assert p.peer_id == 0
        assert p.alive and p.departed_at is None
        assert p.capacity.names == NAMES
        assert p.available.values.tolist() == [4.0, 8.0]
        assert p.uptime(5.0) == 5.0
        assert d.is_alive(0) and 0 in d and d[0] is p

    def test_depart_recycles_row_and_rejoin_reuses_it(self):
        d = make_directory()
        a = d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
        b = d.create_peer(rv(2.0, 2.0), 1e5, joined_at=0.0)
        row_a = d.row_of(a.peer_id)
        d.depart(a.peer_id, now=3.0)
        assert d.row_of(a.peer_id) == -1
        assert not d.is_alive(a.peer_id)
        # The rejoining peer gets a fresh id but recycles a's row.
        c = d.create_peer(rv(9.0, 9.0), 2e5, joined_at=3.0)
        assert c.peer_id == 2
        assert d.row_of(c.peer_id) == row_a
        assert d.store.rows_recycled == 1
        # The recycled row carries only the new tenant's state.
        assert c.available.values.tolist() == [9.0, 9.0]
        assert c.joined_at == 3.0
        assert d.store.snap_epoch[row_a] == -1
        assert b.available.values.tolist() == [2.0, 2.0]

    def test_departed_peer_becomes_detached_tombstone(self):
        d = make_directory()
        p = d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
        assert p.reserve(rv(1.0, 1.0))
        corpse = d.depart(p.peer_id, now=7.0)
        assert isinstance(corpse, Peer)
        assert corpse.departed_at == 7.0
        assert corpse.available.values.tolist() == [3.0, 7.0]
        # The directory still answers for the departed id ...
        assert d.get(p.peer_id) is corpse
        assert p.peer_id in d
        # ... and corpse mutations (rollback credits) never touch the
        # store: recycle the row and check the new tenant is unharmed.
        fresh = d.create_peer(rv(5.0, 5.0), 1e5, joined_at=8.0)
        corpse.release(rv(1.0, 1.0))
        assert fresh.available.values.tolist() == [5.0, 5.0]

    def test_depart_twice_and_unknown_raise(self):
        d = make_directory()
        p = d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        d.depart(p.peer_id, now=1.0)
        with pytest.raises(ValueError):
            d.depart(p.peer_id, now=2.0)
        with pytest.raises(KeyError):
            d.depart(99, now=2.0)

    def test_generation_tracks_membership_changes(self):
        d = make_directory()
        g0 = d.store.generation
        a = d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        assert d.store.generation == g0 + 2
        d.depart(a.peer_id, now=1.0)
        assert d.store.generation == g0 + 3

    def test_alive_views_stay_aligned_under_churn(self):
        d = make_directory()
        peers = [d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
                 for _ in range(5)]
        d.depart(peers[1].peer_id, now=1.0)
        d.depart(peers[3].peer_id, now=1.0)
        assert d.alive_ids == [0, 2, 4]
        assert d.n_alive == 3 and len(d) == 5
        rows = d.alive_rows()
        assert rows.tolist() == [d.row_of(pid) for pid in d.alive_ids]
        up, ids = d.uptimes(4.0)
        assert ids == [0, 2, 4] and up.tolist() == [4.0, 4.0, 4.0]

    def test_directory_grows_row_index_past_initial_rows(self):
        d = make_directory(initial_rows=16)
        for _ in range(40):
            d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        assert d.n_alive == 40
        assert d.row_of(39) >= 0

    def test_row_view_accounting_matches_object_peer(self):
        d = make_directory()
        p = d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
        assert p.reserve(rv(3.0, 3.0))
        assert not p.reserve(rv(2.0, 1.0))  # atomic: nothing deducted
        assert p.available.values.tolist() == [1.0, 5.0]
        p.release(rv(3.0, 3.0))
        with pytest.raises(ValueError):
            p.release(rv(1.0, 1.0))  # over capacity
        assert p.reserve_up(4e4) and p.reserve_down(2e4)
        assert p.avail_up == 6e4 and p.avail_down == 8e4
        p.release_up(9e5)  # clamped at access_bw
        assert p.avail_up == 1e5
