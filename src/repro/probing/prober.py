"""The probing service: stale-by-one-epoch performance views.

Implements the :class:`~repro.core.selection.PerformanceView` protocol on
top of per-peer :class:`~repro.probing.neighbors.NeighborTable`\\ s.

Semantics
---------
* ``observe(observer, target)`` returns information only when ``target``
  is an active neighbor of ``observer`` -- the scalability constraint of
  §2.2 (no peer knows more than ``M`` others).
* The returned state is the target's state **as of the start of the
  current probing epoch** (``epoch = floor(now / period)``): a periodic
  prober refreshes once per period, so every observer within an epoch
  sees the same, possibly stale snapshot.  Snapshots are taken lazily on
  first access per epoch, making the simulation cost proportional to
  queries rather than ``peers x neighbors x epochs``.
* The available bandwidth β combines the snapshot's uplink residual with
  the (current) pair bottleneck and the observer's own downlink -- the
  observer always knows its own side precisely.

Overhead accounting
-------------------
``probe_messages`` counts one message per probe attempt (including
fault-triggered retries) and ``resolution_messages`` counts
neighbor-resolution notifications, so the benches can verify the
paper's "probing overhead within M/N = 1%" claim.

Fault tolerance
---------------
With a :class:`~repro.faults.injector.FaultInjector` attached, probe
messages may be lost or delayed.  An attempt whose injected delay
exceeds ``ProbingConfig.timeout`` counts as lost; lost attempts retry
with the capped exponential backoff of ``ProbingConfig.retry``.  When
the retry budget runs dry the prober degrades instead of failing: it
keeps serving the previous epoch's snapshot (marked stale) or, with no
snapshot to fall back on, reports the target as unknown -- which sends
the selector down its plain random-fallback path.  The backoff delays
are virtual (the setup exchange is synchronous); they are recorded on
``retry.attempt`` telemetry events rather than the sim clock.

Snapshot planes
---------------
Without an injector, epoch snapshots live in the peer store's
``snap_*`` arrays and a whole candidate list is observed in one array
pass (:meth:`ProbingService.observe_block`).  Under fault injection the
prober answers one target at a time, in candidate order, so the
injector's draws keep their order; its snapshots are per-peer objects,
because a ghost snapshot (``stale_state``) must outlive the departed
peer's recycled store row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ResourceVector
from repro.core.selection import ObservedBlock, PeerInfo, block_from_infos
from repro.faults.backoff import RetryPolicy
from repro.network.peer import PeerDirectory
from repro.network.topology import NetworkModel
from repro.probing.neighbors import NeighborTable
from repro.sim.engine import Simulator

__all__ = ["ProbingConfig", "ProbingService"]

@dataclass(frozen=True)
class ProbingConfig:
    """Probing parameters (defaults mirror §4.1: ``M = 100``)."""

    #: Max neighbors any peer maintains/probes (the paper's ``M``).
    budget: int = 100
    #: Probe period in minutes (information staleness bound).
    period: float = 1.0
    #: Soft-state TTL for neighbor entries, minutes.
    ttl: float = 10.0
    #: A probe attempt slower than this (minutes) counts as lost.
    timeout: float = 0.25
    #: Retry budget + backoff for lost/timed-out probes (only exercised
    #: when a fault injector is attached).
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("probe period must be positive")
        if self.ttl <= 0:
            raise ValueError("neighbor TTL must be positive")
        if self.timeout <= 0:
            raise ValueError("probe timeout must be positive")


#: Sentinel: the probe failed this epoch but the peer is not known dead.
_LOST = object()


@dataclass
class _Snapshot:
    epoch: int
    availability: np.ndarray
    avail_up: float
    uptime: float
    #: True when the refresh failed and these are a prior epoch's values.
    stale: bool = False


class ProbingService:
    """Bounded-neighborhood, epoch-snapshotted performance information."""

    #: Resolution fast path (synced with ``GridConfig.fast_paths`` by the
    #: grid): :meth:`resolve_selection_hops` skips re-resolving targets
    #: whose soft-state entries are still fresh and at least as good --
    #: the table refresh would be a pure no-op (``expires_at`` is already
    #: past ``now + ttl`` and the priority cannot upgrade), so table
    #: state and all downstream selection stay bit-identical; only the
    #: duplicate notification messages disappear.
    fast_paths = True

    def __init__(
        self,
        sim: Simulator,
        directory: PeerDirectory,
        network: NetworkModel,
        config: ProbingConfig | None = None,
        telemetry=None,
        injector=None,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.network = network
        self.config = config or ProbingConfig()
        #: Optional :class:`repro.telemetry.Telemetry` (probe fan-out and
        #: budget-usage instrumentation); ``None`` keeps observe() clean.
        self.telemetry = telemetry
        #: Optional :class:`repro.faults.injector.FaultInjector`; ``None``
        #: keeps the probe fast path loss-free and allocation-identical.
        self.injector = injector
        self._tables: Dict[int, NeighborTable] = {}
        #: Epoch snapshots live in the store's ``snap_*`` arrays
        #: (refreshed per neighbor block).  Under fault injection they
        #: live here instead, one ``_Snapshot`` per peer: a ghost
        #: snapshot must outlive its peer's recycled row, and a failed
        #: refresh degrades to the previous epoch's object.
        self._snapshots: Dict[int, _Snapshot] = {}
        self.probe_messages = 0
        self.resolution_messages = 0

    # -- neighbor resolution (paper §3.3) ------------------------------------
    def table(self, peer_id: int) -> NeighborTable:
        tbl = self._tables.get(peer_id)
        if tbl is None:
            tbl = NeighborTable(self.config.budget)
            self._tables[peer_id] = tbl
        return tbl

    def resolve(
        self,
        observer: int,
        neighbors: Iterable[Tuple[int, int, bool]],
    ) -> int:
        """Resolve ``(peer_id, hop, direct)`` relations at ``observer``."""
        triples = list(neighbors)
        added = self.table(observer).resolve(triples, self.sim.now, self.config.ttl)
        self._note_resolution(len(triples))
        return added

    def _note_resolution(self, n_messages: int) -> None:
        self.resolution_messages += n_messages
        tel = self.telemetry
        if tel is not None:
            m = tel.metrics
            m.counter("probe.resolution_messages").inc(n_messages)
            m.gauge("probe.tables").set(len(self._tables))

    def selection_plan(
        self, hop_candidates: Sequence[Sequence[int]]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Pre-flatten a selection walk's candidate lists, once.

        ``_select_walk`` calls :meth:`resolve_selection_hops` with the
        suffix ``hop_candidates[i:]`` at every hop; flattening the full
        list once and slicing ``(flat[off[i]:], hops[off[i]:] - i)`` per
        suffix spares the per-hop re-flatten.  Returns ``(flat, hops,
        offsets)`` or ``None`` when the fast path is off (the scalar
        path never uses a plan).
        """
        if not self.fast_paths:
            return None
        lens = [len(c) for c in hop_candidates]
        total = sum(lens)
        flat = np.fromiter(
            (pid for cands in hop_candidates for pid in cands),
            np.int64, total,
        )
        hops = np.repeat(np.arange(1, len(lens) + 1), lens)
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        return flat, hops, offsets

    def resolve_selection_hops(
        self,
        observer: int,
        hop_candidates: Sequence[Sequence[int]],
        direct: bool,
        plan: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Resolve the candidate providers of the next hops at ``observer``.

        ``hop_candidates[i]`` are the peers able to provide the service
        ``i+1`` hops away from the observer (reverse flow direction).
        ``direct=True`` when the observer is the requesting host itself
        (its own application), ``False`` for peers along someone else's
        path (indirect neighbors).
        """
        if not self.fast_paths:
            triples: List[Tuple[int, int, bool]] = []
            for i, cands in enumerate(hop_candidates):
                hop = i + 1
                for pid in cands:
                    if pid != observer:
                        triples.append((pid, hop, direct))
            if triples:
                self.resolve(observer, triples)
            return
        # Fast path.  Two exact reductions before the table sees anything:
        # * targets whose existing soft state is fresh (expiry already
        #   past now + ttl) and at least as good are skipped -- resolving
        #   them again would change neither the entry nor its expiry;
        # * new targets are merged (best priority, first position) and
        #   only the top ``budget`` kept: a new entry outranked by
        #   ``budget`` same-call newcomers loses the table eviction no
        #   matter what the table holds, so it can never survive, and
        #   dropping it cannot change which other entries do.
        # Only the notification-message count differs from the plain path.
        #
        # Vectorized end to end: the candidate flood is a numpy array,
        # table membership (with each member's slot) is one sorted
        # search, and the staged merge exploits that priority
        # ``2 * hop + bias`` grows monotonically with position -- the
        # first occurrence of a pid is always its best, so the scalar
        # "update on strictly lower priority" branch can never fire.
        # The surviving relations go to the table as arrays; each one
        # still counts as one notification message.
        if plan is not None:
            flat, hops_arr = plan
            if not len(flat):
                return
        else:
            lens = [len(c) for c in hop_candidates]
            total = sum(lens)
            if total == 0:
                return
            flat = np.fromiter(
                (pid for cands in hop_candidates for pid in cands),
                np.int64, total,
            )
            hops_arr = np.repeat(np.arange(1, len(lens) + 1), lens)
        keep = flat != observer
        if not keep.all():
            flat = flat[keep]
            hops_arr = hops_arr[keep]
            if not len(flat):
                return
        prios = 2 * hops_arr + (0 if direct else 1)
        now = self.sim.now
        expires = now + self.config.ttl
        tbl = self._tables.get(observer)
        if tbl is not None and len(tbl):
            slots = tbl.slots(flat)
            member = slots >= 0
            m_slots = slots[member]
            m_prios = prios[member]
            stale = (tbl.expiry[m_slots] < expires) | (
                tbl.priorities[m_slots] > m_prios
            )
            r_slots = m_slots[stale]
            r_prios = m_prios[stale]
            staged = ~member
            s_pids = flat[staged]
            s_prios = prios[staged]
        else:
            r_slots = r_prios = np.empty(0, dtype=np.int64)
            s_pids, s_prios = flat, prios
        if len(s_pids):
            _, first_idx = np.unique(s_pids, return_index=True)
            first_idx.sort()  # first occurrence per pid, arrival order
            s_pids = s_pids[first_idx]
            s_prios = s_prios[first_idx]
            budget = self.config.budget
            if len(s_pids) > budget:
                # Keep the eviction's best ``budget`` newcomers: lowest
                # priority, latest position on ties (same-call entries
                # share an expiry, so later insertion wins the stable
                # tie-break) -- then back to arrival order.
                arrival = np.arange(len(s_pids))
                sel = np.lexsort((-arrival, s_prios))[:budget]
                sel.sort()
                s_pids = s_pids[sel]
                s_prios = s_prios[sel]
        n_messages = len(r_slots) + len(s_pids)
        if n_messages:
            self.table(observer).merge(
                r_slots, r_prios, s_pids, s_prios, now, expires
            )
            self._note_resolution(n_messages)

    def drop_peer(self, peer_id: int) -> None:
        """Forget a departed peer everywhere (lazy tables stay lazy)."""
        self._tables.pop(peer_id, None)
        inj = self.injector
        if inj is None or not inj.ghost_active(peer_id):
            self._snapshots.pop(peer_id, None)
        # A ghost-active peer keeps its last snapshot: the stale_state
        # fault makes observers serve it until the lingering soft state
        # expires.  Entries pointing *to* the departed peer are pruned
        # lazily on observe() (observers discover the death on probe).

    # -- the PerformanceView protocol -------------------------------------
    def _record_probe(self) -> None:
        self.probe_messages += 1
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("probe.messages_sent").inc()

    def _take_snapshot(self, peer, target: int, epoch: int) -> _Snapshot:
        snap = _Snapshot(
            epoch=epoch,
            availability=peer.available.values.copy(),
            avail_up=peer.avail_up,
            uptime=peer.uptime(self.sim.now),
        )
        self._snapshots[target] = snap
        tel = self.telemetry
        if tel is not None:
            tel.bus.emit("probe.refresh", target=target, epoch=epoch)
        return snap

    def _snapshot(self, target: int):
        """The current-epoch snapshot of ``target`` (fault injection only).

        Returns ``None`` when the peer is dead, the sentinel ``_LOST``
        when the probe failed this epoch but the peer may still be
        alive, or a (possibly stale) :class:`_Snapshot` otherwise.
        """
        peer = self.directory.get(target)
        if peer is None or not peer.alive:
            return None
        epoch = int(self.sim.now / self.config.period)
        snap = self._snapshots.get(target)
        if snap is not None and snap.epoch == epoch:
            return snap
        return self._probe_with_faults(peer, target, epoch, snap, self.injector)

    def _probe_with_faults(self, peer, target, epoch, prev, inj):
        """One refresh under fault injection: timeout, retry, degrade."""
        retry = self.config.retry
        attempts = 0
        while True:
            self._record_probe()
            lost = inj.probe_lost(target)
            if not lost:
                delay = inj.probe_delay(target)
                if delay <= self.config.timeout:
                    return self._take_snapshot(peer, target, epoch)
                # The reply missed the timeout window: count as a loss.
            attempts += 1
            if attempts > retry.max_retries:
                inj.retry_exhausted("probe", attempts=attempts, target=target)
                if prev is not None:
                    # Degrade to the previous epoch's values; marking the
                    # current epoch avoids re-burning the budget on every
                    # observe() within it.
                    prev.epoch = epoch
                    prev.stale = True
                    return prev
                return _LOST
            inj.retry_attempt(
                "probe", attempts, retry.delay(attempts, inj.rng),
                target=target,
            )

    def observe(self, observer: int, target: int) -> Optional[PeerInfo]:
        """The observer's (stale, bounded) view of target; None if unknown."""
        inj = self.injector
        if inj is None:
            _, avail, betas, uptimes, _ = self.observe_block(observer, (target,))
            if not len(betas):
                return None
            availability = ResourceVector.__new__(ResourceVector)
            availability.names = self.directory.resource_names
            availability.values = avail[0]
            return PeerInfo(
                peer_id=target,
                availability=availability,
                bandwidth_to_observer=float(betas[0]),
                uptime=float(uptimes[0]),
                latency=self.network.latency_ms(target, observer),
            )
        tbl = self._tables.get(observer)
        if tbl is None or tbl.get(target, self.sim.now) is None:
            return None
        if inj.partitioned(observer, target):
            # The probe cannot cross the cut; the entry stays (soft
            # state survives a partition, unlike a discovered death).
            inj.inject("partition", "probe", observer=observer, target=target)
            return None
        snap = self._snapshot(target)
        if snap is _LOST:
            return None  # probe failed; keep the entry, report unknown
        if snap is None and inj.ghost_active(target):
            # stale_state fault: the departure has not propagated yet, so
            # the observer still trusts the last snapshot it holds.
            snap = self._snapshots.get(target)
        if snap is None:
            tbl.drop(target)  # probe discovered the departure
            self._snapshots.pop(target, None)
            return None
        observer_peer = self.directory.get(observer)
        observer_down = (
            observer_peer.avail_down if observer_peer is not None else float("inf")
        )
        pair_avail = self.network.pair_capacity(target, observer) - (
            self.network.pair_reserved(target, observer)
        )
        beta = max(0.0, min(pair_avail, snap.avail_up, observer_down))
        # Fast-path ResourceVector construction: observe() runs for every
        # candidate of every hop, and the snapshot array is read-only by
        # contract, so skip the validating constructor and the copy.
        availability = ResourceVector.__new__(ResourceVector)
        availability.names = self.directory.resource_names
        availability.values = snap.availability
        return PeerInfo(
            peer_id=target,
            availability=availability,
            bandwidth_to_observer=beta,
            uptime=snap.uptime,
            latency=self.network.latency_ms(target, observer),
        )

    def observe_block(
        self, observer: int, targets: Sequence[int], latency: bool = False
    ) -> ObservedBlock:
        """Array form of ``[observe(observer, t) for t in targets]``.

        Returns the :data:`~repro.core.selection.ObservedBlock`
        ``(known, avail, betas, uptimes, latencies)``; ``latencies`` may
        be ``None`` unless ``latency`` is set (only a latency-aware Φ
        reads it).  Without an injector the block comes from the store's
        ``snap_*`` plane: stale rows refresh under one mask in candidate
        order (a repeated target refreshes once), expired entries and
        departed targets are pruned from the table, and β is
        ``min(pair capacity - reserved, snapshot uplink, observer
        downlink)`` clamped at zero.  Under fault
        injection it is built from per-target :meth:`observe` calls in
        candidate order, so every injector draw happens in that order.
        """
        if self.injector is not None:
            return block_from_infos(
                [self.observe(observer, t) for t in targets],
                len(self.directory.resource_names),
            )
        n = len(targets)
        tbl = self._tables.get(observer)
        if tbl is None or not len(tbl):
            return self._empty_block(n)
        t_arr = np.fromiter(targets, np.int64, n)
        slots = tbl.slots(t_arr)
        pos = np.flatnonzero(slots >= 0)
        if not len(pos):
            return self._empty_block(n)
        now = self.sim.now
        k_slots = slots[pos]
        k_targets = t_arr[pos]
        rows = self.directory.rows_for(k_targets)
        expired = tbl.expiry[k_slots] < now
        gone = expired | (rows < 0)
        if gone.any():
            # Expired entries are pruned; a departed target is a probe
            # discovering the death.  Repeats of a pruned target are
            # misses too, so a mask drops them all.
            tbl.remove_slots(k_slots[gone])
            live = ~gone
            pos, k_targets, rows = pos[live], k_targets[live], rows[live]
            if not len(pos):
                return self._empty_block(n)
        store = self.directory.store
        epoch = int(now / self.config.period)
        stale = store.snap_epoch[rows] != epoch
        if stale.any():
            srows = rows[stale]
            stargets = k_targets[stale]
            if len(srows) > 1:
                # A repeated target refreshes once, at its first position.
                _, first = np.unique(srows, return_index=True)
                if len(first) < len(srows):
                    first.sort()
                    srows, stargets = srows[first], stargets[first]
            store.snap_avail[srows] = store.available[srows]
            store.snap_up[srows] = store.avail_up[srows]
            uptimes = now - store.joined_at[srows]
            np.maximum(uptimes, 0.0, out=uptimes)
            store.snap_uptime[srows] = uptimes
            store.snap_epoch[srows] = epoch
            self.probe_messages += len(srows)
            tel = self.telemetry
            if tel is not None:
                tel.metrics.counter("probe.messages_sent").inc(len(srows))
                bus = tel.bus
                for target in stargets.tolist():
                    bus.emit("probe.refresh", target=target, epoch=epoch)
        network = self.network
        betas = network.pair_capacities(k_targets, observer)
        betas -= network.pair_reservations(k_targets, observer)
        np.minimum(betas, store.snap_up[rows], out=betas)
        orow = self.directory.row_of(observer)
        if orow >= 0:
            np.minimum(betas, store.avail_down[orow], out=betas)
        np.maximum(betas, 0.0, out=betas)
        known = np.zeros(n, dtype=bool)
        known[pos] = True
        latencies = None
        if latency:
            latencies = np.fromiter(
                map(network.latency_ms, k_targets.tolist(), repeat(observer)),
                np.float64, len(pos),
            )
        return (
            known,
            store.snap_avail[rows],
            betas,
            store.snap_uptime[rows],
            latencies,
        )

    def _empty_block(self, n: int) -> ObservedBlock:
        empty = np.empty(0, dtype=np.float64)
        m = len(self.directory.resource_names)
        return np.zeros(n, dtype=bool), np.empty((0, m)), empty, empty, None

    # -- overhead metrics ------------------------------------------------------
    def overhead_ratio(self) -> float:
        """Mean neighbors probed per peer / population size.

        The paper controls this to ``M / N`` (= 1% at M=100, N=10^4).
        """
        n = self.directory.n_alive
        if n == 0 or not self._tables:
            return 0.0
        mean_table = sum(len(t) for t in self._tables.values()) / len(self._tables)
        return mean_table / n

    @property
    def n_tables(self) -> int:
        return len(self._tables)
