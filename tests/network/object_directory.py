"""Reference peer directory: one ``Peer`` object per host, scalar loops.

The straightforward spelling of the directory contract that the
store-backed :class:`repro.network.peer.PeerDirectory` must match: ids
are handed out sequentially, ``alive_ids`` keeps creation order with
departed ids removed, ``generation`` bumps on every create and depart,
and a departed peer stays reachable through ``get``/``__getitem__`` as
a frozen object whose later credits touch nothing else.
"""

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ResourceVector
from repro.network.peer import Peer


class ObjectPeerDirectory:
    def __init__(self, resource_names: Sequence[str] = ("cpu", "memory")) -> None:
        self.resource_names = tuple(resource_names)
        self._peers: Dict[int, Peer] = {}
        self._next_id = 0
        self.generation = 0

    def create_peer(
        self, capacity: ResourceVector, access_bw: float, joined_at: float
    ) -> Peer:
        peer = Peer(self._next_id, capacity.copy(), access_bw, joined_at)
        self._peers[peer.peer_id] = peer
        self._next_id += 1
        self.generation += 1
        return peer

    def depart(self, peer_id: int, now: float) -> Peer:
        peer = self._peers[peer_id]
        if not peer.alive:
            raise ValueError(f"peer {peer_id} already departed")
        peer.departed_at = now
        self.generation += 1
        return peer

    def __getitem__(self, peer_id: int) -> Peer:
        return self._peers[peer_id]

    def get(self, peer_id: int) -> Optional[Peer]:
        return self._peers.get(peer_id)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def is_alive(self, peer_id: int) -> bool:
        peer = self._peers.get(peer_id)
        return peer is not None and peer.alive

    @property
    def alive_ids(self) -> List[int]:
        return [pid for pid, peer in self._peers.items() if peer.alive]

    @property
    def n_alive(self) -> int:
        return len(self.alive_ids)

    def alive_peers(self) -> Iterator[Peer]:
        return (self._peers[pid] for pid in self.alive_ids)

    def uptimes(self, now: float) -> Tuple[np.ndarray, List[int]]:
        ids = self.alive_ids
        up = np.array([now - self._peers[pid].joined_at for pid in ids])
        return up, ids
