"""Property test: the registry's record cache never serves a stale host set.

Hypothesis drives randomized depart/rejoin/discover interleavings against
a :class:`~repro.lookup.registry.ServiceRegistry` under host-set churn --
a departed peer must never appear in a discovered host set, and a joined
peer must appear immediately.  (The Chord ring itself keeps no route
state; its closed-form walk is checked against the reference walk in
``tests/lookup/test_chord_walk.py``.)

Run under ``HYPOTHESIS_PROFILE=chaos`` for the CI chaos budget.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.lookup.chord import ChordRing
from repro.lookup.registry import ServiceRegistry
from repro.services.applications import default_applications
from repro.services.catalog import CatalogConfig, generate_catalog

# op = (kind, a, b): kind 0 = depart a host, 1 = rejoin, 2 = discover
registry_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None)
@given(ops=registry_ops)
def test_host_sets_never_stale_under_churn(ops):
    rng = np.random.default_rng(0)
    apps = default_applications()[:2]
    core = list(range(50))          # never depart: the ring stays alive
    hosts_pool = list(range(50, 90))
    catalog = generate_catalog(
        apps,
        core + hosts_pool,
        rng,
        CatalogConfig(instances_per_service=(2, 3), replicas_per_instance=(3, 6)),
    )
    ring = ChordRing(bits=24, seed=2)
    for pid in core + hosts_pool:
        ring.join(pid)
    registry = ServiceRegistry(ring, catalog)

    iids = sorted(catalog.instances)[:8]
    expected = {iid: set(catalog.hosts(iid)) for iid in iids}
    hosted_by = {}
    for iid in iids:
        for pid in expected[iid]:
            hosted_by.setdefault(pid, []).append(iid)
    departed = []

    for kind, a, b in ops:
        if kind == 0 and hosted_by:
            pid = sorted(hosted_by)[a % len(hosted_by)]
            if pid in core:
                continue
            hosted = hosted_by.pop(pid)
            registry.peer_departed(pid, hosted)
            for iid in hosted:
                expected[iid].discard(pid)
            departed.append((pid, hosted))
        elif kind == 1 and departed:
            pid, hosted = departed.pop(a % len(departed))
            registry.peer_joined(pid, hosted)
            hosted_by[pid] = hosted
            for iid in hosted:
                expected[iid].add(pid)
        else:
            iid = iids[a % len(iids)]
            from_peer = core[b % len(core)]
            found, _ = registry.discover_hosts(iid, from_peer)
            # Exactness: never a departed peer, always every joined one.
            assert found == frozenset(expected[iid])
    # The cache was actually exercised along the way (or no repeat reads
    # happened -- either way the split bookkeeping must balance).
    assert (registry.n_routed_discoveries + registry.n_cached_discoveries
            == registry.n_discoveries)
