"""The service registry layered on the Chord DHT.

Discovery is the first protocol step of on-demand composition (§3.2):
"the P2P lookup protocol ... is invoked to retrieve the locations (i.e.,
IP addresses) and QoS specifications (Qin, Qout, R) of all candidate
service instances, according to the abstract service path."

Records (all living in Chord node stores, re-homed automatically on
churn by the ring's key handoff):

* ``service:<name>``  -> tuple of candidate :class:`ServiceInstance`
  specs (the co-located QoS specifications of assumption 1, §3.1);
* ``instance:<id>``   -> frozenset of hosting peer ids (the locations).

Host sets change under churn; :meth:`ServiceRegistry.peer_departed` and
:meth:`ServiceRegistry.peer_joined` keep them in sync with the catalog's
ground truth while exercising real DHT update paths.

Fault tolerance
---------------
With a :class:`~repro.faults.injector.FaultInjector` attached
(:meth:`ServiceRegistry.configure_faults`), each routed query may fail
in flight.  The registry retries with capped exponential backoff,
re-routing around the hop that dropped the previous copy (retry with
exclusion -- each copy's fate is an independent draw, and each retry
re-pays the routing hops).  Budget exhaustion degrades to "no record
found", which the composition layer already treats as NO_CANDIDATES.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Optional, Protocol, Tuple

from repro.lookup.cache import BoundedCache
from repro.services.catalog import ServiceCatalog
from repro.services.model import ServiceInstance

__all__ = ["DhtProtocol", "ServiceRegistry"]


class DhtProtocol(Protocol):
    """What the registry needs from a lookup substrate.

    Satisfied by both :class:`~repro.lookup.chord.ChordRing` and
    :class:`~repro.lookup.can.CanNetwork` (the paper's "Chord or CAN").
    ``generation``/``note_cached_lookup`` power the registry's record
    cache; a substrate without them (checked via ``getattr``) simply
    runs with the value-layer cache disabled.
    """

    #: Membership generation, bumped by every join/leave.
    generation: int

    def put(self, key: str, value: Any) -> None: ...
    def get(self, key: str, from_peer: int) -> Tuple[Any, int]: ...
    def lookup(self, key: str, from_peer: int) -> Tuple[Any, int]: ...
    def update(self, key: str, fn) -> Any: ...
    def join(self, peer_id: int): ...
    def leave(self, peer_id: int) -> None: ...
    def note_cached_lookup(self, key: str, from_peer: int, hops: int) -> None: ...
    def cached_route_hops(self, key: str, from_peer: int) -> Optional[int]: ...
    def __contains__(self, peer_id: int) -> bool: ...


class ServiceRegistry:
    """Service and instance records on a DHT (Chord or CAN)."""

    SERVICE_PREFIX = "service:"
    INSTANCE_PREFIX = "instance:"

    #: Value-layer record cache (synced with ``GridConfig.fast_paths`` by
    #: the grid).  An entry ``key -> value`` is valid only while *both*
    #: the ring-membership generation and the record's per-key generation
    #: (bumped by ``peer_joined``/``peer_departed`` content updates) are
    #: unchanged.  A hit replays the exact hop count the routed walk
    #: would report for the requesting peer
    #: (:meth:`~repro.lookup.chord.ChordRing.cached_route_hops`: Chord
    #: re-walks in closed form without touching a store, CAN answers from
    #: its route memo) and the matching ``lookup.done`` telemetry, so any
    #: requester is served without a routed read.
    #: (Keying the value layer per ``(key, from_peer)`` made the hit rate
    #: collapse to ~0: requesters are drawn at random, so the same pair
    #: almost never recurs.)  Disabled whenever a fault injector is
    #: attached -- every routed attempt must keep drawing its fault RNG.
    fast_paths = True
    #: Optional :class:`repro.telemetry.Telemetry`; set by the grid (cache
    #: and discovery counters are metrics-only, never bus events).
    telemetry = None
    RECORD_CACHE_CAP = 1 << 14

    def __init__(self, ring: DhtProtocol, catalog: ServiceCatalog) -> None:
        self.ring = ring
        self.catalog = catalog
        #: Discovery accounting: totals plus the routed/cached split
        #: (``n_discoveries == n_routed_discoveries + n_cached_discoveries``).
        self.n_discoveries = 0
        self.discovery_hops = 0
        self.n_routed_discoveries = 0
        self.n_cached_discoveries = 0
        self.routed_discovery_hops = 0
        self.cached_discovery_hops = 0
        self.injector = None
        self.retry = None
        self._record_cache = BoundedCache(self.RECORD_CACHE_CAP)
        #: Per-key content generations (missing key = generation 0).
        self._key_gens: Dict[str, int] = {}
        self._populate()

    def configure_faults(self, injector, retry) -> None:
        """Attach a fault injector + :class:`~repro.faults.RetryPolicy`."""
        self.injector = injector
        self.retry = retry

    def _populate(self) -> None:
        for service, instances in self.catalog.by_service.items():
            self.ring.put(self.SERVICE_PREFIX + service, tuple(instances))
        for iid, hosts in self.catalog.replicas.items():
            self.ring.put(self.INSTANCE_PREFIX + iid, frozenset(hosts))

    # -- discovery (routed; costs hops) -----------------------------------
    def _routed_get(self, key: str, from_peer: int) -> Tuple[Any, int]:
        """One routed read, retrying around in-flight query drops."""
        inj = self.injector
        if inj is None:
            return self.ring.get(key, from_peer)
        retry = self.retry
        total_hops = 0
        attempts = 0
        while True:
            node, hops = self.ring.lookup(key, from_peer)
            total_hops += hops
            if not inj.lookup_fails(key, from_peer, node.peer_id):
                return node.store.get(key), total_hops
            attempts += 1
            if attempts > retry.max_retries:
                inj.retry_exhausted("lookup", attempts=attempts, key=key)
                return None, total_hops
            inj.retry_attempt(
                "lookup", attempts, retry.delay(attempts, inj.rng), key=key
            )

    # -- record cache (fast path) ------------------------------------------
    @property
    def cache_active(self) -> bool:
        """True when reads may be served/deduped from cached values.

        Requires ``fast_paths``, a substrate that exposes a membership
        generation, and *no* fault injector -- with faults attached every
        routed attempt draws from the fault RNG stream, which a cached
        answer would skip (diverging the seeded fault schedule).
        """
        return (
            self.fast_paths
            and self.injector is None
            and getattr(self.ring, "generation", None) is not None
        )

    def _cached_get(self, key: str, from_peer: int) -> Tuple[Any, int, bool]:
        """One read, preferring the record cache: ``(value, hops, cached)``."""
        if not self.cache_active:
            value, hops = self._routed_get(key, from_peer)
            return value, hops, False
        cache = self._record_cache
        cache.check_generation(self.ring.generation)
        key_gen = self._key_gens.get(key, 0)
        entry = cache.get(key)
        tel = self.telemetry
        if entry is not None and entry[1] == key_gen:
            hops = self.ring.cached_route_hops(key, from_peer)
            if hops is not None:
                cache.stats.hits += 1
                if tel is not None:
                    tel.metrics.counter("cache.record.hits").inc()
                # Replay the routed walk's accounting exactly (same
                # lookup.done event, same hop count, same ring stats).
                self.ring.note_cached_lookup(key, from_peer, hops)
                return entry[0], hops, True
        cache.stats.misses += 1
        if tel is not None:
            tel.metrics.counter("cache.record.misses").inc()
        value, hops = self._routed_get(key, from_peer)
        cache.put(key, (value, key_gen))
        return value, hops, False

    def _account_discovery(self, hops: int, cached: bool) -> None:
        self.n_discoveries += 1
        self.discovery_hops += hops
        if cached:
            self.n_cached_discoveries += 1
            self.cached_discovery_hops += hops
        else:
            self.n_routed_discoveries += 1
            self.routed_discovery_hops += hops
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter(
                "discovery.cached" if cached else "discovery.routed"
            ).inc()

    def replay_discovery(self, key: str, from_peer: int, hops: int) -> None:
        """Account one discovery served from an upstream dedupe.

        Callers (batched path discovery, the aggregator's duplicate-
        instance dedupe) hold a value fetched moments ago in the same
        operation; this replays the lookup telemetry and discovery
        accounting the repeated read would have produced.  Only legal
        while :attr:`cache_active` (the caller's dedupe must be too).
        """
        self.ring.note_cached_lookup(key, from_peer, hops)
        self._account_discovery(hops, cached=True)

    def discover_service(
        self, service: str, from_peer: int
    ) -> Tuple[Tuple[ServiceInstance, ...], int]:
        """All candidate instances of ``service``: ``(specs, hops)``."""
        value, hops, cached = self._cached_get(
            self.SERVICE_PREFIX + service, from_peer
        )
        self._account_discovery(hops, cached)
        return (value or ()), hops

    def discover_hosts(
        self, instance_id: str, from_peer: int
    ) -> Tuple[FrozenSet[int], int]:
        """Peers hosting ``instance_id``: ``(host set, hops)``."""
        value, hops, cached = self._cached_get(
            self.INSTANCE_PREFIX + instance_id, from_peer
        )
        self._account_discovery(hops, cached)
        return (value or frozenset()), hops

    def discover_path_candidates(
        self, services: Iterable[str], from_peer: int
    ) -> Tuple[Dict[str, Tuple[ServiceInstance, ...]], int]:
        """One routed lookup per abstract service; total hops returned.

        Batched: with the fast paths active, a service repeated in the
        path is resolved by the first lookup and the repeats are served
        from that answer -- the query already routed to the responsible
        node -- with per-occurrence accounting replayed so hop totals
        and telemetry match the unbatched walks.
        """
        out: Dict[str, Tuple[ServiceInstance, ...]] = {}
        total = 0
        dedupe = self.cache_active
        seen: Dict[str, int] = {}
        for service in services:
            prior_hops = seen.get(service) if dedupe else None
            if prior_hops is None:
                specs, hops = self.discover_service(service, from_peer)
                if dedupe:
                    seen[service] = hops
            else:
                specs, hops = out[service], prior_hops
                self.replay_discovery(
                    self.SERVICE_PREFIX + service, from_peer, hops
                )
            out[service] = specs
            total += hops
        return out, total

    # -- churn maintenance -----------------------------------------------------
    def peer_departed(self, peer_id: int, hosted: Iterable[str]) -> None:
        """Remove a departed peer from every instance record it hosted.

        Must run *before* the ring drops the peer so record re-homing and
        content updates stay ordered like the real protocol (the
        successor inherits already-cleaned records).
        """
        for iid in hosted:
            key = self.INSTANCE_PREFIX + iid
            self._key_gens[key] = self._key_gens.get(key, 0) + 1
            self.ring.update(
                key, lambda hosts: frozenset((hosts or frozenset()) - {peer_id})
            )
        if peer_id in self.ring:
            self.ring.leave(peer_id)

    def peer_joined(self, peer_id: int, hosted: Iterable[str]) -> None:
        """Add an arriving peer to the ring and its hosted records."""
        if peer_id not in self.ring:
            self.ring.join(peer_id)
        for iid in hosted:
            key = self.INSTANCE_PREFIX + iid
            self._key_gens[key] = self._key_gens.get(key, 0) + 1
            self.ring.update(
                key, lambda hosts: frozenset((hosts or frozenset()) | {peer_id})
            )

    @property
    def mean_discovery_hops(self) -> float:
        if self.n_discoveries == 0:
            return 0.0
        return self.discovery_hops / self.n_discoveries

    @property
    def record_cache_stats(self):
        return self._record_cache.stats

    @property
    def discovery_cache_hit_rate(self) -> float:
        """Fraction of discoveries served without a routed walk."""
        if self.n_discoveries == 0:
            return 0.0
        return self.n_cached_discoveries / self.n_discoveries
