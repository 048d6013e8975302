"""Differential: the store-backed peer directory against an object one.

Hypothesis draws random sequences of create / depart / reserve /
release / reserve_up / reserve_down / release_up / release_down calls
on a small id space -- unknown and departed ids included, so departed
``get`` and tombstone credits are common -- with the clock moving
forward, and replays each on :class:`~repro.network.peer.PeerDirectory`
and on the one-object-per-peer reference in ``object_directory.py``.
After every step both must expose the same alive ids in the same order,
the same generation, availability and uptimes for every id, and every
call must return the same value or raise the same ``KeyError`` /
``ValueError``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.resources import ResourceVector
from repro.network.peer import PeerDirectory

from tests.network.object_directory import ObjectPeerDirectory

NAMES = ("cpu", "memory")
N_IDS = 10
PIDS = st.integers(-1, N_IDS - 1)
AMOUNT = st.integers(0, 60).map(float)

OPS = st.one_of(
    st.tuples(st.just("create"), AMOUNT, AMOUNT,
              st.sampled_from([0.0, 50.0, 1e5])),
    st.tuples(st.just("depart"), PIDS),
    st.tuples(st.sampled_from(["reserve", "release"]), PIDS, AMOUNT, AMOUNT),
    st.tuples(st.sampled_from(["reserve_up", "reserve_down",
                               "release_up", "release_down"]), PIDS, AMOUNT),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 3.0])),
)


def _call(directory, op, now):
    kind = op[0]
    try:
        if kind == "create":
            _, cpu, mem, bw = op
            peer = directory.create_peer(
                ResourceVector(NAMES, [cpu, mem]), bw, joined_at=now
            )
            return peer.peer_id
        if kind == "depart":
            corpse = directory.depart(op[1], now)
            return corpse.peer_id, corpse.departed_at
        if kind in ("reserve", "release"):
            _, pid, cpu, mem = op
            return getattr(directory[pid], kind)(
                ResourceVector(NAMES, [cpu, mem])
            )
        _, pid, bw = op
        return getattr(directory[pid], kind)(bw)
    except (KeyError, ValueError) as exc:
        return type(exc).__name__


def _peer_state(peer, now):
    if peer is None:
        return None
    return (
        peer.peer_id, peer.alive, peer.departed_at,
        peer.capacity.values.tolist(), peer.available.values.tolist(),
        peer.access_bw, peer.avail_up, peer.avail_down, peer.uptime(now),
    )


def _state(directory, now):
    up, ids = directory.uptimes(now)
    return (
        list(directory.alive_ids), ids, up.tolist(),
        [p.peer_id for p in directory.alive_peers()],
        directory.n_alive, len(directory), directory.generation,
        [_peer_state(directory.get(pid), now) for pid in range(-1, N_IDS)],
        [pid in directory for pid in range(-1, N_IDS)],
        [directory.is_alive(pid) for pid in range(-1, N_IDS)],
    )


@settings(max_examples=300)
@given(ops=st.lists(OPS, max_size=40))
def test_store_directory_matches_object_directory(ops):
    prod, ref = PeerDirectory(NAMES, initial_rows=16), ObjectPeerDirectory(NAMES)
    now = 0.0
    for op in ops:
        if op[0] == "advance":
            now += op[1]
        else:
            assert _call(prod, op, now) == _call(ref, op, now), op
        assert _state(prod, now) == _state(ref, now)
        # The store rows stay aligned with the alive ids.
        assert prod.alive_rows().tolist() == [
            prod.row_of(pid) for pid in prod.alive_ids
        ]
        assert np.array_equal(
            prod.store.available[prod.alive_rows()],
            np.array([p.available.values for p in ref.alive_peers()]).reshape(
                -1, len(NAMES)
            ),
        )
