"""Equivalence tests for the probing-plane fast paths.

``resolve_selection_hops``'s fast path pre-trims the triple list before
the neighbor table sees it, and ``observe_block`` observes a whole
candidate list in one array pass.  Both are claimed *exact*: identical
table state (contents AND iteration order, which future evictions
depend on) and identical observations.  These tests drive randomized
schedules through a fast and a slow instance side by side.
"""

import numpy as np

from repro.grid import GridConfig, P2PGrid
from repro.probing.prober import ProbingService


def _table_state(service):
    return {
        observer: [(e.peer_id, e.hop, e.direct, e.expires_at)
                   for e in tbl.entries()]
        for observer, tbl in service._tables.items()
    }


def test_resolve_selection_hops_fast_path_is_exact():
    grid = P2PGrid(GridConfig(n_peers=120, seed=5))
    slow = ProbingService(
        grid.sim, grid.directory, grid.network, grid.probing.config
    )
    slow.fast_paths = False
    fast = grid.probing
    assert fast.fast_paths

    rng = np.random.default_rng(42)
    pids = list(grid.directory.alive_ids)
    for step in range(200):
        observer = int(rng.choice(pids))
        n_hops = int(rng.integers(1, 5))
        hop_candidates = [
            [int(p) for p in rng.choice(pids, size=rng.integers(1, 30))]
            for _ in range(n_hops)
        ]
        direct = bool(rng.integers(0, 2))
        fast.resolve_selection_hops(observer, hop_candidates, direct)
        slow.resolve_selection_hops(observer, hop_candidates, direct)
        if step % 20 == 19:
            grid.sim.run(until=grid.sim.now + 2.0)  # let soft state age
        assert _table_state(fast) == _table_state(slow)


def _twin_grid():
    grid = P2PGrid(GridConfig(n_peers=120, seed=5))
    agg = grid.make_aggregator("qsa")
    for _ in range(10):  # populate tables + snapshots through real traffic
        agg.aggregate(grid.make_request("video-on-demand",
                                        qos_level="average", duration=3.0))
    grid.sim.run(until=grid.sim.now + 1.5)  # next epoch: snapshots stale
    return grid


def test_observe_block_matches_sequential_observe():
    block_grid, scalar_grid = _twin_grid(), _twin_grid()
    rng = np.random.default_rng(7)
    observers = [o for o, t in block_grid.probing._tables.items() if len(t) > 3]
    assert observers
    pids = list(block_grid.directory.alive_ids)
    now = block_grid.sim.now
    for observer in observers:
        members = [e.peer_id for e in
                   block_grid.probing._tables[observer].entries()]
        expired, departed = members[0], members[1]
        for grid in (block_grid, scalar_grid):
            tbl = grid.probing._tables[observer]
            tbl.expiry[tbl.slots(np.array([expired]))] = now - 1.0
            if grid.directory.is_alive(departed) and departed != observer:
                grid.directory.depart(departed, now)
        targets = ([int(p) for p in rng.choice(pids, size=20)]
                   + members[:10] + members[2:5]  # repeated targets
                   + [expired, departed])
        known, avail, betas, uptimes, latencies = (
            block_grid.probing.observe_block(observer, targets, latency=True)
        )
        infos = [scalar_grid.probing.observe(observer, t) for t in targets]
        assert known.tolist() == [i is not None for i in infos]
        hits = [i for i in infos if i is not None]
        assert np.array_equal(
            avail.reshape(len(hits), -1),
            np.array([i.availability.values for i in hits]).reshape(
                len(hits), -1),
        )
        assert betas.tolist() == [i.bandwidth_to_observer for i in hits]
        assert uptimes.tolist() == [i.uptime for i in hits]
        assert latencies.tolist() == [i.latency for i in hits]
        assert (_table_state(block_grid.probing)
                == _table_state(scalar_grid.probing))
        assert (block_grid.probing.probe_messages
                == scalar_grid.probing.probe_messages)
        assert not known[-2:].any()  # the expired and the departed entry
