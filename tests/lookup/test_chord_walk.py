"""Differential oracle for the closed-form Chord walk.

With ``fast_paths`` on, :class:`~repro.lookup.chord.ChordRing` jumps
each hop straight to the closest preceding finger, computed in closed
form; with it off, the ring probes every finger bit by bit -- the walk
as Chord states it, kept as the reference.  Both must visit the same
nodes, so:

* Hypothesis drives join/leave/lookup interleavings over every
  identifier width the ring supports, starting lookups from members and
  from peers outside the ring (the bootstrap start), and asserts the
  same responsible node and hop count on both sides, plus a brute-force
  successor check over the *current* membership;
* the dry :meth:`~repro.lookup.chord.ChordRing.cached_route_hops` count
  must equal the reference hop count and leave the routing statistics
  untouched;
* deterministic rings pin the edge cases: a one-node ring, a start at
  the key's predecessor, a key id equal to a node id, and a key past the
  largest id.
"""

import pytest
from hypothesis import given, strategies as st

from repro.lookup.chord import ChordRing

BITS = (8, 16, 32, 64)
KEYS = [f"key/{i}" for i in range(12)]
#: Peer ids at or above this never join: lookups from them bootstrap.
OUTSIDER_BASE = 1_000_000

# op = (kind, a, b): kind 0 = join, 1 = leave, 2 = lookup from a member,
# 3 = lookup from a non-member
ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=60,
)


def _pair(bits, seed, n):
    """A closed-form ring and a reference ring with the same members."""
    fast = ChordRing(bits=bits, seed=seed)
    slow = ChordRing(bits=bits, seed=seed)
    slow.fast_paths = False
    for pid in range(n):
        fast.join(pid)
        slow.join(pid)
    return fast, slow


def _brute_force_responsible(ring, key):
    """Successor responsibility recomputed from scratch every call."""
    key_id = ring.key_id(key)
    ids = sorted(ring._ids)
    for node_id in ids:
        if node_id >= key_id:
            return node_id
    return ids[0]


def _check_lookup(fast, slow, key, from_peer):
    """Both walks agree, and the dry count matches without side effects."""
    stats = (fast.n_lookups, fast.total_hops)
    dry = fast.cached_route_hops(key, from_peer)
    assert (fast.n_lookups, fast.total_hops) == stats
    node_f, hops_f = fast.lookup(key, from_peer)
    node_s, hops_s = slow.lookup(key, from_peer)
    assert node_f.node_id == node_s.node_id
    assert hops_f == hops_s == dry
    assert node_f.node_id == _brute_force_responsible(fast, key)
    return node_f, hops_f


@given(
    ops=ops_strategy,
    bits=st.sampled_from(BITS),
    seed=st.integers(min_value=0, max_value=7),
)
def test_closed_form_walk_matches_reference_under_churn(ops, bits, seed):
    fast, slow = _pair(bits, seed, 8)
    members = list(range(8))
    next_pid = 8
    for kind, a, b in ops:
        if kind == 0:
            fast.join(next_pid)
            slow.join(next_pid)
            members.append(next_pid)
            next_pid += 1
        elif kind == 1 and len(members) > 2:
            pid = members.pop(a % len(members))
            fast.leave(pid)
            slow.leave(pid)
        else:
            key = KEYS[a % len(KEYS)]
            if kind == 3:
                from_peer = OUTSIDER_BASE + b
            else:
                from_peer = members[b % len(members)]
            node, _ = _check_lookup(fast, slow, key, from_peer)
            assert node.peer_id in members
    assert fast.n_lookups == slow.n_lookups
    assert fast.total_hops == slow.total_hops


def _find_key(ring, predicate):
    """The first probe key whose id satisfies ``predicate``."""
    for i in range(100_000):
        key = f"probe/{i}"
        if predicate(ring.key_id(key)):
            return key
    raise AssertionError("no probe key satisfies the predicate")


@pytest.mark.parametrize("bits", BITS)
def test_one_node_ring_routes_in_zero_hops(bits):
    fast, slow = _pair(bits, 0, 1)
    for from_peer in (0, OUTSIDER_BASE):
        for key in KEYS:
            node, hops = _check_lookup(fast, slow, key, from_peer)
            assert node.peer_id == 0 and hops == 0


@pytest.mark.parametrize("bits", BITS)
def test_start_at_predecessor_is_one_hop(bits):
    fast, slow = _pair(bits, 1, 40)
    ids = fast._ids
    for key in KEYS:
        target = _brute_force_responsible(fast, key)
        pred = ids[ids.index(target) - 1]
        node, hops = _check_lookup(fast, slow, key, fast._nodes[pred].peer_id)
        assert node.node_id == target and hops == 1


def test_key_id_equal_to_a_node_id():
    # 8-bit ids: 60 members cover a quarter of the circle, so a probe
    # key lands exactly on a node id within a few tries.
    fast, slow = _pair(8, 2, 60)
    members = set(fast._ids)
    key = _find_key(fast, members.__contains__)
    node_id = fast.key_id(key)
    for from_peer in fast.peers():
        node, hops = _check_lookup(fast, slow, key, from_peer)
        assert node.node_id == node_id
        if fast._peer_to_id[from_peer] == node_id:
            assert hops == 0


def test_key_past_the_largest_id_wraps_to_the_first_node():
    fast, slow = _pair(8, 3, 20)
    top = fast._ids[-1]
    assert top < (1 << 8) - 1  # room for a key past the largest id
    key = _find_key(fast, lambda kid: kid > top)
    for from_peer in fast.peers() + [OUTSIDER_BASE]:
        node, _ = _check_lookup(fast, slow, key, from_peer)
        assert node.node_id == fast._ids[0]
