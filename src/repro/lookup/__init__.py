"""P2P lookup substrate: Chord DHT, flooding, and the service registry.

The paper treats discovery as a pluggable black box ("the P2P lookup
protocol, such as Chord [20] or CAN [16], is invoked to retrieve the
locations and QoS specifications of all candidate service instances").
We implement the box:

* :mod:`~repro.lookup.chord` -- a Chord ring: hashed identifier space,
  successor responsibility, per-node key storage with handoff on
  join/leave, and greedy finger routing with O(log N) hop counts; each
  hop jumps to the closest preceding finger in closed form (one bisect,
  no finger table).
* :mod:`~repro.lookup.can` -- a CAN: d-dimensional torus key space,
  zone splits/takeovers under churn, greedy coordinate routing with
  O(d N^(1/d)) hop counts.
* :mod:`~repro.lookup.flooding` -- a Gnutella-style TTL-bounded flooding
  overlay, the pre-DHT alternative, used by the lookup-cost comparison
  bench.
* :mod:`~repro.lookup.registry` -- the service registry layered on
  Chord: service-name records carrying candidate instance specs and
  instance records carrying hosting peer sets, maintained under churn.
"""

from repro.lookup.chord import ChordRing, ChordNode
from repro.lookup.can import CanNetwork, CanNode, Zone
from repro.lookup.flooding import FloodingOverlay, FloodResult
from repro.lookup.registry import DhtProtocol, ServiceRegistry

__all__ = [
    "CanNetwork",
    "CanNode",
    "ChordNode",
    "ChordRing",
    "DhtProtocol",
    "FloodResult",
    "FloodingOverlay",
    "ServiceRegistry",
    "Zone",
]
