"""Unit tests for the discovery-plane caches.

Covers the :mod:`repro.lookup.cache` primitives (bounded LRU with
generation invalidation, plain-dict trimming) and the registry's
value-layer record cache: hit/miss accounting, the routed+cached
bookkeeping invariant, per-key generation invalidation, batched path
discovery dedupe and the fault-injector bypass.
"""

import numpy as np
import pytest

from repro.lookup.cache import BoundedCache, CacheStats
from repro.lookup.chord import ChordRing
from repro.lookup.registry import ServiceRegistry
from repro.services.applications import default_applications
from repro.services.catalog import CatalogConfig, generate_catalog


class TestBoundedCache:
    def test_roundtrip(self):
        cache = BoundedCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert len(cache) == 1 and "a" in cache

    def test_cap_evicts_oldest(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_get_refreshes_lru_position(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")       # now "b" is the least recently used
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_put_existing_key_does_not_evict(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)   # overwrite, still 2 entries
        assert len(cache) == 2
        assert cache.get("a") == 10 and cache.get("b") == 2

    def test_generation_clears_wholesale(self):
        cache = BoundedCache(8)
        cache.check_generation(0)
        cache.put("a", 1)
        cache.check_generation(0)
        assert cache.get("a") == 1      # same generation: survives
        cache.check_generation(1)
        assert cache.get("a") is None   # bumped: gone
        assert len(cache) == 0

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedCache(0)

    def test_stats_are_caller_driven(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.get("a")
        assert cache.stats.total == 0   # get() itself never counts
        cache.stats.hits += 1
        assert cache.stats.hit_rate == 1.0


class TestCacheStats:
    def test_empty_rate(self):
        assert CacheStats().hit_rate == 0.0

    def test_as_dict(self):
        s = CacheStats()
        s.hits, s.misses = 3, 1
        assert s.as_dict() == {"hits": 3, "misses": 1, "hit_rate": 0.75}


@pytest.fixture()
def setup():
    rng = np.random.default_rng(0)
    apps = default_applications()[:3]
    peer_ids = list(range(150))
    catalog = generate_catalog(
        apps,
        peer_ids,
        rng,
        CatalogConfig(instances_per_service=(3, 5), replicas_per_instance=(4, 8)),
    )
    ring = ChordRing(bits=24, seed=1)
    for pid in peer_ids:
        ring.join(pid)
    registry = ServiceRegistry(ring, catalog)
    return apps, catalog, ring, registry


class TestRegistryRecordCache:
    def test_repeat_discovery_served_from_cache(self, setup):
        apps, _, ring, registry = setup
        service = apps[0].services[0]
        specs1, hops1 = registry.discover_service(service, from_peer=5)
        lookups_before = ring.n_lookups
        specs2, hops2 = registry.discover_service(service, from_peer=5)
        # Identical answer AND identical accounting -- the cached read
        # replays the routed walk's hop count and ring statistics.
        assert specs2 == specs1 and hops2 == hops1
        assert ring.n_lookups == lookups_before + 1
        assert registry.n_cached_discoveries == 1
        assert registry.record_cache_stats.hits == 1

    def test_accounting_invariant(self, setup):
        apps, catalog, _, registry = setup
        for app in apps:
            for service in app.services:
                registry.discover_service(service, from_peer=7)
                registry.discover_service(service, from_peer=7)
        for iid in list(catalog.instances)[:10]:
            registry.discover_hosts(iid, from_peer=3)
        assert (registry.n_routed_discoveries + registry.n_cached_discoveries
                == registry.n_discoveries)
        assert (registry.routed_discovery_hops + registry.cached_discovery_hops
                == registry.discovery_hops)
        assert 0.0 < registry.discovery_cache_hit_rate < 1.0

    def test_departure_invalidates_host_set(self, setup):
        _, catalog, _, registry = setup
        iid = next(iter(catalog.instances))
        hosts, _ = registry.discover_hosts(iid, from_peer=2)
        victim = next(iter(hosts))
        registry.discover_hosts(iid, from_peer=2)  # warm the cache
        registry.peer_departed(victim, [iid])
        after, _ = registry.discover_hosts(iid, from_peer=2)
        assert victim not in after
        assert after == hosts - {victim}

    def test_join_invalidates_host_set(self, setup):
        _, catalog, _, registry = setup
        iid = next(iter(catalog.instances))
        registry.discover_hosts(iid, from_peer=2)  # warm the cache
        newcomer = 10_000
        registry.peer_joined(newcomer, [iid])
        after, _ = registry.discover_hosts(iid, from_peer=2)
        assert newcomer in after

    def test_membership_change_invalidates_route_layer(self, setup):
        apps, _, ring, registry = setup
        service = apps[0].services[0]
        registry.discover_service(service, from_peer=5)
        ring.leave(60)  # unrelated membership event
        before = registry.n_cached_discoveries
        registry.discover_service(service, from_peer=5)
        # The ring generation moved, so the record cache may not answer.
        assert registry.n_cached_discoveries == before

    def test_injector_disables_cache(self, setup):
        _, _, _, registry = setup
        assert registry.cache_active
        registry.configure_faults(object(), object())
        assert not registry.cache_active

    def test_fast_paths_flag_disables_cache(self, setup):
        apps, _, _, registry = setup
        registry.fast_paths = False
        assert not registry.cache_active
        service = apps[0].services[0]
        registry.discover_service(service, from_peer=5)
        registry.discover_service(service, from_peer=5)
        assert registry.n_cached_discoveries == 0
        assert registry.record_cache_stats.total == 0

    def test_batched_path_discovery_dedupes_repeats(self, setup):
        apps, _, ring, registry = setup
        services = list(apps[1].services)
        path = services + [services[0]]  # one repeated abstract service
        lookups_before = ring.n_lookups
        candidates, total = registry.discover_path_candidates(path, from_peer=9)
        # Per-occurrence accounting: every element of the path counts one
        # discovery and one ring lookup, but only unique services route.
        assert registry.n_discoveries == len(path)
        assert ring.n_lookups - lookups_before == len(path)
        assert registry.n_routed_discoveries == len(set(path))
        assert registry.n_cached_discoveries == len(path) - len(set(path))
        assert set(candidates) == set(path)
        assert total == registry.discovery_hops
