"""Pairwise network properties and bandwidth reservation accounting.

Paper §4.1: "The end-to-end available network bandwidth between any two
peers is defined as the bottleneck bandwidth along the network path
between two peers, which is initialized randomly as 10M, 500k, 100k, or
56k bps.  The network latency between two peers are also randomly set as
200, 150, 80, 20, or 1 ms [12]."

A literal N x N matrix is 10^8 entries at the paper's 10^4-peer scale, so
pairwise classes are *derived*, not stored: a deterministic BLAKE2b hash
of ``(seed, min(a,b), max(a,b))`` indexes into the class table.  This has
the same marginal distribution as random initialization, is symmetric
and is reproducible.

Memory is bounded by a cap: the bottleneck capacity, which every
β evaluation reads, is memoized per unordered pair up to
:attr:`NetworkModel.MEMO_CAP` entries (the memo then stops growing), so
each hot pair is hashed once.  Latency is hashed on demand and never
memoized -- only the latency-aware Φ term, the latency experiments and
single-target ``ProbingService.observe`` read it.

End-to-end *available* bandwidth additionally accounts for consumption:

``beta(a, b) = min(pair_class(a,b) - reserved(a,b), a.avail_up, b.avail_down)``

where per-pair reservations live in a sparse dict (only pairs with active
flows appear) and the access-link residuals live on the peers.  The
access-link terms are our substitution for shared-path contention -- see
DESIGN.md §4.
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.network.peer import PeerDirectory

__all__ = [
    "BANDWIDTH_CLASSES",
    "LATENCY_CLASSES_MS",
    "PairwiseClasses",
    "NetworkModel",
]

#: §4.1 bottleneck-bandwidth classes (bps).
BANDWIDTH_CLASSES: Tuple[float, ...] = (10e6, 500e3, 100e3, 56e3)

#: §4.1 latency classes (ms), from [12] (Nettimer measurements).
LATENCY_CLASSES_MS: Tuple[float, ...] = (200.0, 150.0, 80.0, 20.0, 1.0)

#: Default pair-class mix: broadband-leaning, following the Gnutella/
#: Napster population measurements the paper cites ([17]: most peers on
#: cable/DSL or better, a modem tail).  Aligned with BANDWIDTH_CLASSES.
DEFAULT_BANDWIDTH_WEIGHTS: Tuple[float, ...] = (0.35, 0.35, 0.2, 0.1)


class PairwiseClasses:
    """Deterministic, symmetric pairwise class assignment via hashing.

    ``weights`` optionally skews the class distribution (e.g. towards the
    broadband classes measured for real P2P populations [17]); ``None``
    gives the uniform distribution.  ``class_index`` is a pure function
    of the unordered pair and keeps no state; callers that re-read hot
    pairs memoize the derived value themselves.
    """

    def __init__(
        self,
        seed: int,
        n_classes: int,
        weights: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.seed = int(seed)
        self.n_classes = int(n_classes)
        if weights is None:
            self._cumulative: Optional[np.ndarray] = None
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n_classes,) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError(f"bad class weights {weights!r}")
            self._cumulative = np.cumsum(w / w.sum())

    def class_index(self, a: int, b: int) -> int:
        """The class index for the unordered pair ``{a, b}``."""
        lo, hi = (a, b) if a <= b else (b, a)
        return int(self.class_indices((lo,), (hi,))[0])

    def class_indices(self, lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
        """:meth:`class_index` of every pair ``(lo[i], hi[i])``.

        Pairs must already be ordered (``lo[i] <= hi[i]``).  The hash
        state after the shared ``"{seed}:"`` prefix is built once per
        block and copied per pair -- the same bytes, hence the same
        digests -- and the digests map to classes in one array pass:
        a little-endian ``uint32`` view is ``int.from_bytes(d,
        "little")``, and ``searchsorted(side="right")`` is ``bisect_right``.
        """
        base = hashlib.blake2b(f"{self.seed}:".encode(), digest_size=4)
        digests = []
        for a, b in zip(lo, hi):
            h = base.copy()
            h.update(b"%d:%d" % (a, b))
            digests.append(h.digest())
        raw = np.frombuffer(b"".join(digests), dtype="<u4")
        n = self.n_classes
        if self._cumulative is None:
            return (raw % n).astype(np.intp)
        idx = np.searchsorted(self._cumulative, raw / 2**32, side="right")
        return np.minimum(idx, n - 1)


class NetworkModel:
    """End-to-end bandwidth/latency plus reservation accounting.

    Per-pair state (the capacity memo and the sparse reservations) is
    keyed by one int per unordered pair, ``min << 32 | max``, so block
    lookups can build their keys with a few array operations and probe
    the dicts at C speed.
    """

    #: The capacity memo stops growing at this many pairs: selection
    #: re-reads the same hot pairs, so a soft cap bounds memory without
    #: eviction bookkeeping.
    MEMO_CAP = 1 << 18

    def __init__(
        self,
        peers: PeerDirectory,
        seed: int = 0,
        bandwidth_classes: Tuple[float, ...] = BANDWIDTH_CLASSES,
        latency_classes: Tuple[float, ...] = LATENCY_CLASSES_MS,
        bandwidth_weights: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.peers = peers
        self.bandwidth_classes = tuple(bandwidth_classes)
        self.latency_classes = tuple(latency_classes)
        if bandwidth_weights is None:
            bandwidth_weights = DEFAULT_BANDWIDTH_WEIGHTS
        self._bw_hash = PairwiseClasses(
            seed * 2 + 1, len(self.bandwidth_classes), bandwidth_weights
        )
        self._lat_hash = PairwiseClasses(seed * 2 + 2, len(self.latency_classes))
        #: Active per-pair reservations (sparse; pair key -> bps).
        self._reserved: Dict[int, float] = {}
        #: Bounded pair-capacity memo (pair key -> class capacity).
        self._capacity_memo: Dict[int, float] = {}

    # -- static pairwise properties -----------------------------------------
    @staticmethod
    def _key(a: int, b: int) -> int:
        return (a << 32) | b if a <= b else (b << 32) | a

    @staticmethod
    def _keys(targets: np.ndarray, peer: int) -> Tuple[np.ndarray, np.ndarray, list]:
        """``(lo, hi, keys)``: :meth:`_key` of every ``(target, peer)``."""
        lo = np.minimum(targets, peer)
        hi = np.maximum(targets, peer)
        return lo, hi, ((lo << 32) | hi).tolist()

    def pair_capacity(self, a: int, b: int) -> float:
        """The bottleneck-class capacity of the path between ``a``, ``b``."""
        if a == b:
            return float("inf")  # local connection
        key = self._key(a, b)
        memo = self._capacity_memo
        capacity = memo.get(key)
        if capacity is None:
            capacity = self.bandwidth_classes[self._bw_hash.class_index(a, b)]
            if len(memo) < self.MEMO_CAP:
                memo[key] = capacity
        return capacity

    def latency_ms(self, a: int, b: int) -> float:
        """The latency class of the pair (hashed on every call)."""
        if a == b:
            return 0.0
        return self.latency_classes[self._lat_hash.class_index(a, b)]

    def pair_capacities(self, targets: Sequence[int], observer: int) -> np.ndarray:
        """:meth:`pair_capacity` of every ``(target, observer)`` pair.

        Memo hits are gathered in one C-level pass; the misses (first
        sightings) are hashed as one block and memoized while there is
        room.
        """
        t = np.asarray(targets, dtype=np.int64)
        n = len(t)
        lo, hi, keys = self._keys(t, observer)
        memo = self._capacity_memo
        # Every class capacity is positive, so 0.0 marks a memo miss.
        out = np.fromiter(map(memo.get, keys, repeat(0.0, n)), np.float64, n)
        miss = np.flatnonzero(out == 0.0)
        if len(miss):
            m_lo, m_hi = lo[miss], hi[miss]
            local = m_lo == m_hi
            if local.any():  # self pairs: local connection, never memoized
                out[miss[local]] = np.inf
                remote = ~local
                miss, m_lo, m_hi = miss[remote], m_lo[remote], m_hi[remote]
            classes = self.bandwidth_classes
            caps = [
                classes[i]
                for i in self._bw_hash.class_indices(
                    m_lo.tolist(), m_hi.tolist()
                ).tolist()
            ]
            out[miss] = caps
            room = self.MEMO_CAP - len(memo)
            if room > 0:
                memo.update(zip([keys[i] for i in miss[:room].tolist()], caps))
        return out

    # -- availability ---------------------------------------------------------
    def pair_reserved(self, a: int, b: int) -> float:
        return self._reserved.get(self._key(a, b), 0.0)

    def pair_reservations(self, targets: Sequence[int], observer: int) -> np.ndarray:
        """:meth:`pair_reserved` of every ``(target, observer)`` pair."""
        t = np.asarray(targets, dtype=np.int64)
        n = len(t)
        if not self._reserved:
            return np.zeros(n)
        return np.fromiter(
            map(self._reserved.get, self._keys(t, observer)[2], repeat(0.0, n)),
            np.float64, n,
        )

    def available_bandwidth(self, src: int, dst: int) -> float:
        """β: end-to-end available bandwidth for a ``src -> dst`` flow."""
        if src == dst:
            return float("inf")
        path_avail = self.pair_capacity(src, dst) - self.pair_reserved(src, dst)
        up = self.peers[src].avail_up
        down = self.peers[dst].avail_down
        return max(0.0, min(path_avail, up, down))

    # -- reservations ---------------------------------------------------------
    def reserve(self, src: int, dst: int, bw: float) -> bool:
        """Reserve ``bw`` bps on ``src -> dst``; atomic, False on shortage."""
        if bw < 0:
            raise ValueError(f"negative bandwidth reservation: {bw}")
        if src == dst or bw == 0.0:
            return True
        if self.available_bandwidth(src, dst) + 1e-9 < bw:
            return False
        src_peer, dst_peer = self.peers[src], self.peers[dst]
        if not src_peer.reserve_up(bw):
            return False
        if not dst_peer.reserve_down(bw):
            src_peer.release_up(bw)
            return False
        key = self._key(src, dst)
        self._reserved[key] = self._reserved.get(key, 0.0) + bw
        return True

    def release(self, src: int, dst: int, bw: float) -> None:
        """Release a prior reservation (tolerates departed peers)."""
        if src == dst or bw == 0.0:
            return
        key = self._key(src, dst)
        remaining = self._reserved.get(key, 0.0) - bw
        if remaining <= 1e-9:
            self._reserved.pop(key, None)
        else:
            self._reserved[key] = remaining
        src_peer = self.peers.get(src)
        if src_peer is not None:
            src_peer.release_up(bw)
        dst_peer = self.peers.get(dst)
        if dst_peer is not None:
            dst_peer.release_down(bw)

    @property
    def n_reserved_pairs(self) -> int:
        return len(self._reserved)
