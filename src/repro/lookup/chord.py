"""A Chord distributed hash table (Stoica et al., SIGCOMM 2001).

This is the discovery substrate the paper plugs in by reference.  The
implementation covers the pieces the aggregation model exercises:

* an ``m``-bit circular identifier space; peers and keys are hashed onto
  it with BLAKE2b;
* **successor responsibility**: key ``k`` lives on the first node whose
  id is >= ``k`` (mod 2^m);
* **per-node storage with handoff**: a joining node takes over the keys
  it becomes responsible for from its successor; a leaving node hands its
  keys to its successor (so records survive churn, as Chord prescribes);
* **greedy finger routing**: node ``n``'s ``i``-th finger is
  ``successor(n + 2^i)``; a lookup repeatedly forwards to the closest
  preceding finger and counts application-level hops, giving the
  classic O(log N) hop behaviour (verified by the ``bench_chord_lookup``
  bench and unit tests).

Fingers are *derived* from the current ring membership (equivalent to a
fully converged stabilization protocol) rather than incrementally
maintained -- the simplification and its rationale are recorded in
DESIGN.md §4.  Derived fingers need no table at all: the closest
preceding finger has a closed form (see :meth:`ChordRing._walk`), so a
hop costs one bisect over the sorted membership.  Ring membership itself
is explicit: ``join``/``leave`` mutate a sorted id list (bisect-based,
O(log N) search, O(N) splice -- cheap at the churn rates simulated).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ChordNode", "ChordRing"]


def _hash_to_id(label: str, bits: int) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (1 << bits)


class ChordNode:
    """One ring member: identifier plus locally stored records."""

    __slots__ = ("node_id", "peer_id", "store")

    def __init__(self, node_id: int, peer_id: int) -> None:
        self.node_id = node_id
        self.peer_id = peer_id
        self.store: Dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChordNode peer={self.peer_id} id={self.node_id:#x}>"


class ChordRing:
    """The ring: membership, responsibility, storage and routing."""

    #: Optional :class:`repro.telemetry.Telemetry`; set by the grid when
    #: telemetry is enabled (per-lookup hop events + histograms).
    telemetry = None
    #: Routing fast path (synced with ``GridConfig.fast_paths`` by the
    #: grid): on, each hop jumps to the closest preceding finger in closed
    #: form; off, the walk probes every finger bit by bit.  Both visit the
    #: same nodes, so hop counts agree to the digit.
    fast_paths = True
    #: Key-id memo cap (keys beyond it are re-hashed per call).
    KEY_ID_CAP = 1 << 16

    def __init__(self, bits: int = 32, seed: int = 0) -> None:
        if not 8 <= bits <= 64:
            raise ValueError("identifier space must be 8..64 bits")
        self.bits = bits
        self.seed = seed
        self._ids: List[int] = []            # sorted node ids
        self._nodes: Dict[int, ChordNode] = {}  # node id -> node
        self._peer_to_id: Dict[int, int] = {}   # peer id -> node id
        #: Ring-membership generation: bumped by every join/leave; cache
        #: consumers (the registry's record cache) treat a generation
        #: mismatch as wholesale invalidation.
        self.generation = 0
        #: key -> key_id memo (pure function of the key for a fixed seed).
        self._key_ids: Dict[str, int] = {}
        #: Routing statistics.
        self.n_lookups = 0
        self.total_hops = 0

    # -- hashing ------------------------------------------------------------
    def node_id_for(self, peer_id: int) -> int:
        return _hash_to_id(f"{self.seed}/peer/{peer_id}", self.bits)

    def key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = _hash_to_id(f"{self.seed}/key/{key}", self.bits)
            if len(self._key_ids) < self.KEY_ID_CAP:
                self._key_ids[key] = kid
        return kid

    # -- membership ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peer_to_id

    def join(self, peer_id: int) -> ChordNode:
        """Add a peer; it takes over its share of keys from its successor."""
        if peer_id in self._peer_to_id:
            raise ValueError(f"peer {peer_id} already in the ring")
        node_id = self.node_id_for(peer_id)
        while node_id in self._nodes:  # vanishingly rare id collision
            node_id = (node_id + 1) % (1 << self.bits)
        node = ChordNode(node_id, peer_id)
        if self._ids:
            successor = self._successor_node(node_id)
            # Keys in (pred(node), node] move from the successor to the
            # new node: exactly the keys whose responsible node is now
            # us.  The circular-interval test is equivalent to (and much
            # cheaper than) re-running responsibility with the candidate
            # id spliced in per key.
            pred = self._ids[bisect.bisect_left(self._ids, node_id) - 1]
            kid = self.key_id
            if pred < node_id:
                moving = [
                    k for k in successor.store if pred < kid(k) <= node_id
                ]
            else:
                moving = [
                    k
                    for k in successor.store
                    if kid(k) > pred or kid(k) <= node_id
                ]
            for k in moving:
                node.store[k] = successor.store.pop(k)
        bisect.insort(self._ids, node_id)
        self._nodes[node_id] = node
        self._peer_to_id[peer_id] = node_id
        self.generation += 1
        return node

    def leave(self, peer_id: int) -> None:
        """Remove a peer; its keys hand off to its successor."""
        node_id = self._peer_to_id.pop(peer_id, None)
        if node_id is None:
            raise KeyError(f"peer {peer_id} is not in the ring")
        node = self._nodes.pop(node_id)
        idx = bisect.bisect_left(self._ids, node_id)
        self._ids.pop(idx)
        self.generation += 1
        if self._ids and node.store:
            successor = self._successor_node(node_id)
            successor.store.update(node.store)

    def peers(self) -> List[int]:
        return list(self._peer_to_id)

    # -- responsibility ------------------------------------------------------
    def _successor_node(self, ident: int) -> ChordNode:
        """First live node at or clockwise-after ``ident``."""
        idx = bisect.bisect_left(self._ids, ident)
        if idx == len(self._ids):
            idx = 0
        return self._nodes[self._ids[idx]]

    def _responsible_id(self, key_id: int) -> int:
        """Node id responsible for ``key_id``."""
        ids = self._ids
        idx = bisect.bisect_left(ids, key_id)
        if idx == len(ids):
            idx = 0
        return ids[idx]

    def responsible_node(self, key: str) -> ChordNode:
        if not self._ids:
            raise RuntimeError("ring is empty")
        return self._successor_node(self.key_id(key))

    # -- storage ---------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self.responsible_node(key).store[key] = value

    def get_local(self, key: str) -> Any:
        """Read without routing (used by maintenance code, not lookups)."""
        return self.responsible_node(key).store.get(key)

    def update(self, key: str, fn) -> Any:
        """Read-modify-write at the responsible node."""
        node = self.responsible_node(key)
        node.store[key] = value = fn(node.store.get(key))
        return value

    # -- routing ------------------------------------------------------------
    @staticmethod
    def _in_open_interval(x: int, a: int, b: int) -> bool:
        """``x in (a, b)`` on the circle (everything but ``a`` when a == b)."""
        if a < b:
            return a < x < b
        return x > a or x < b

    def _closest_preceding(self, node_id: int, key_id: int) -> int:
        """Reference greedy step: the farthest finger of ``node_id``
        preceding the key, found by probing every finger in turn."""
        space = 1 << self.bits
        for i in range(self.bits - 1, -1, -1):
            finger = self._successor_node((node_id + (1 << i)) % space).node_id
            if self._in_open_interval(finger, node_id, key_id):
                return finger
        return node_id

    def _start_id(self, from_peer: int) -> int:
        start_id = self._peer_to_id.get(from_peer)
        if start_id is None:
            # A peer outside the ring bootstraps through its hashed
            # position: one extra hop to whoever is responsible there.
            start_id = self._successor_node(self.node_id_for(from_peer)).node_id
        return start_id

    def lookup(self, key: str, from_peer: int) -> Tuple[ChordNode, int]:
        """Route from ``from_peer`` to the node holding ``key``.

        Returns ``(responsible node, hop count)``; hop count is the
        number of application-level forwardings (0 when the start node is
        itself responsible).
        """
        if not self._ids:
            raise RuntimeError("ring is empty")
        target, hops = self._walk(self.key_id(key), self._start_id(from_peer))
        self._account_lookup(key, from_peer, hops)
        return self._nodes[target], hops

    def _walk(self, key_id: int, start_id: int) -> Tuple[int, int]:
        """The greedy finger walk from ``start_id``: ``(target, hops)``.

        Closed form: let ``t`` be the node responsible for ``k`` and
        ``p`` the node before it.  Finger ``i`` of ``n``,
        ``successor(n + 2^i)``, lies in ``(n, k)`` exactly when some node
        sits in ``[n + 2^i, k)``, i.e. when ``2^i <= (p - n) mod 2^m``.
        So ``p`` hands over to ``t``, and any other node forwards to
        ``successor(n + 2^j)`` with ``j = bit_length((p - n) mod 2^m) - 1``:
        one bisect per hop, the same nodes as :meth:`_reference_walk`.
        """
        if not self.fast_paths:
            return self._reference_walk(key_id, start_id)
        ids = self._ids
        n = len(ids)
        idx = bisect.bisect_left(ids, key_id)
        if idx == n:
            idx = 0
        target = ids[idx]
        pred = ids[idx - 1]
        mask = (1 << self.bits) - 1
        bisect_left = bisect.bisect_left
        current = start_id
        hops = 0
        while current != target:
            hops += 1
            if current == pred:
                break
            jump = 1 << (((pred - current) & mask).bit_length() - 1)
            # Subtracting ``n`` wraps an end-of-list hit back to ids[0].
            current = ids[bisect_left(ids, (current + jump) & mask) - n]
        return target, hops

    def _reference_walk(self, key_id: int, start_id: int) -> Tuple[int, int]:
        """The walk as Chord states it, probing fingers bit by bit."""
        space = 1 << self.bits
        hops = 0
        current = start_id
        target = self._responsible_id(key_id)
        # Greedy finger walk until the key falls between us and our
        # successor (then one final hop to the successor).
        while current != target:
            succ = self._successor_node((current + 1) % space).node_id
            if succ == target and (
                self._in_open_interval(key_id, current, succ)
                or key_id == succ
            ):
                current = succ
                hops += 1
                break
            nxt = self._closest_preceding(current, key_id)
            if nxt == current:
                current = succ
            else:
                current = nxt
            hops += 1
        return current, hops

    def _account_lookup(self, key: str, from_peer: int, hops: int) -> None:
        """Per-lookup statistics + telemetry, identical cached/uncached."""
        self.n_lookups += 1
        self.total_hops += hops
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("lookup.count").inc()
            tel.metrics.histogram("lookup.hops").observe(hops)
            tel.bus.emit(
                "lookup.done",
                key=key, from_peer=from_peer, hops=hops, protocol="chord",
            )

    def note_cached_lookup(self, key: str, from_peer: int, hops: int) -> None:
        """Account a lookup served from a value-layer cache upstream.

        The registry's record cache answers a read without touching the
        ring; this replays exactly the statistics and telemetry the
        routed walk would have produced (same ``lookup.done`` event, same
        hop count), keeping seeded exports byte-identical.
        """
        self._account_lookup(key, from_peer, hops)

    def cached_route_hops(self, key: str, from_peer: int) -> Optional[int]:
        """The exact hop count a routed lookup would report.

        A dry walk: no statistics, no telemetry, no store access, no
        state written (``None`` only on an empty ring).  The registry's
        value-layer cache uses this to serve repeated reads of an
        unchanged record from *any* requester while replaying
        byte-identical ``lookup.done`` telemetry.
        """
        if not self._ids:
            return None
        return self._walk(self.key_id(key), self._start_id(from_peer))[1]

    def get(self, key: str, from_peer: int) -> Tuple[Any, int]:
        """Routed read: ``(value or None, hops)``."""
        node, hops = self.lookup(key, from_peer)
        return node.store.get(key), hops

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.n_lookups if self.n_lookups else 0.0
