"""Unit tests for pairwise classes and bandwidth accounting."""

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.network.peer import PeerDirectory
from repro.network.topology import (
    BANDWIDTH_CLASSES,
    LATENCY_CLASSES_MS,
    NetworkModel,
    PairwiseClasses,
)

NAMES = ("cpu", "memory")


def make_net(n=10, access=1e6, seed=0, weights=None):
    d = PeerDirectory(NAMES)
    for _ in range(n):
        d.create_peer(ResourceVector(NAMES, [100, 100]), access, 0.0)
    return d, NetworkModel(d, seed=seed, bandwidth_weights=weights)


class TestPairwiseClasses:
    def test_deterministic_and_symmetric(self):
        pc = PairwiseClasses(seed=3, n_classes=4)
        assert pc.class_index(5, 9) == pc.class_index(9, 5)
        assert pc.class_index(5, 9) == PairwiseClasses(3, 4).class_index(5, 9)

    def test_seed_changes_assignment(self):
        a = PairwiseClasses(1, 4)
        b = PairwiseClasses(2, 4)
        diffs = sum(
            a.class_index(i, j) != b.class_index(i, j)
            for i in range(20)
            for j in range(i + 1, 20)
        )
        assert diffs > 0

    def test_uniform_marginal_distribution(self):
        pc = PairwiseClasses(seed=0, n_classes=4)
        counts = np.zeros(4)
        for i in range(100):
            for j in range(i + 1, 100):
                counts[pc.class_index(i, j)] += 1
        frac = counts / counts.sum()
        assert np.all(np.abs(frac - 0.25) < 0.02)

    def test_weighted_marginal_distribution(self):
        w = (0.5, 0.3, 0.15, 0.05)
        pc = PairwiseClasses(seed=0, n_classes=4, weights=w)
        counts = np.zeros(4)
        for i in range(120):
            for j in range(i + 1, 120):
                counts[pc.class_index(i, j)] += 1
        frac = counts / counts.sum()
        assert np.all(np.abs(frac - np.array(w)) < 0.02)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            PairwiseClasses(0, 4, weights=(1.0, 0.0))
        with pytest.raises(ValueError):
            PairwiseClasses(0, 2, weights=(-1.0, 2.0))


class TestNetworkModel:
    def test_pair_capacity_in_classes(self):
        _, net = make_net()
        for a in range(5):
            for b in range(a + 1, 5):
                assert net.pair_capacity(a, b) in BANDWIDTH_CLASSES

    def test_latency_in_classes(self):
        _, net = make_net()
        assert net.latency_ms(0, 1) in LATENCY_CLASSES_MS
        assert net.latency_ms(0, 0) == 0.0

    def test_self_pair_infinite(self):
        _, net = make_net()
        assert net.pair_capacity(3, 3) == float("inf")
        assert net.available_bandwidth(3, 3) == float("inf")

    def test_available_includes_access_links(self):
        d, net = make_net(access=500.0)
        # Pair class is way above the access link, so access dominates.
        assert net.available_bandwidth(0, 1) <= 500.0

    def test_reserve_decrements_and_release_restores(self):
        d, net = make_net(access=1e6)
        before = net.available_bandwidth(0, 1)
        assert net.reserve(0, 1, 200.0)
        assert net.available_bandwidth(0, 1) == pytest.approx(before - 200.0)
        assert d[0].avail_up == pytest.approx(1e6 - 200.0)
        assert d[1].avail_down == pytest.approx(1e6 - 200.0)
        net.release(0, 1, 200.0)
        assert net.available_bandwidth(0, 1) == pytest.approx(before)
        assert net.n_reserved_pairs == 0

    def test_reserve_rejects_when_insufficient(self):
        d, net = make_net(access=100.0)
        assert not net.reserve(0, 1, 150.0)
        # State unchanged after rejection.
        assert d[0].avail_up == 100.0
        assert d[1].avail_down == 100.0

    def test_reserve_fills_pair_capacity(self):
        d, net = make_net(access=1e9)
        cap = net.pair_capacity(0, 1)
        assert net.reserve(0, 1, cap)
        assert net.available_bandwidth(0, 1) == 0.0
        assert not net.reserve(0, 1, 1.0)

    def test_directional_reservations_share_pair(self):
        """Flows in both directions share the bottleneck capacity."""
        d, net = make_net(access=1e9)
        cap = net.pair_capacity(0, 1)
        assert net.reserve(0, 1, cap * 0.6)
        assert not net.reserve(1, 0, cap * 0.6)
        assert net.reserve(1, 0, cap * 0.4)

    def test_zero_reservation_noop(self):
        d, net = make_net()
        assert net.reserve(0, 1, 0.0)
        assert net.n_reserved_pairs == 0

    def test_negative_reservation_rejected(self):
        _, net = make_net()
        with pytest.raises(ValueError):
            net.reserve(0, 1, -5.0)

    def test_release_tolerates_departed_peers(self):
        d, net = make_net()
        assert net.reserve(0, 1, 100.0)
        d.depart(1, 0.0)
        net.release(0, 1, 100.0)  # must not raise
        assert net.n_reserved_pairs == 0

    def test_block_calls_match_scalar(self):
        d, net = make_net(n=8)
        assert net.reserve(0, 5, 2000.0)
        assert net.reserve(5, 3, 500.0)
        targets = np.array([0, 1, 3, 5, 0, 7])
        caps = net.pair_capacities(targets, 5)
        resv = net.pair_reservations(targets, 5)
        for i, t in enumerate(targets.tolist()):
            assert caps[i] == net.pair_capacity(t, 5)
            assert resv[i] == net.pair_reserved(t, 5)
        assert caps[3] == float("inf")  # self pair
        assert resv.tolist() == [2000.0, 0.0, 500.0, 0.0, 2000.0, 0.0]

    def test_access_capacity_bounds_total_flows(self):
        d, net = make_net(access=1000.0)
        # Peer 0 fans out to many destinations; uplink caps the total.
        total = 0.0
        for dst in range(1, 10):
            if net.reserve(0, dst, 300.0):
                total += 300.0
        assert total <= 1000.0
        assert d[0].avail_up == pytest.approx(1000.0 - total)


#: (a, b, capacity, latency) at seeds 0 and 7, recorded before the pair
#: memos were reworked; the hash itself must never move (it feeds ψ and
#: every golden digest).
PINNED_PAIRS = {
    0: [
        (0, 1, 100e3, 20.0), (1, 0, 100e3, 20.0), (5, 9, 100e3, 1.0),
        (17, 3, 10e6, 20.0), (123, 4567, 10e6, 1.0), (4567, 123, 10e6, 1.0),
        (9999, 0, 10e6, 150.0), (2048, 8191, 100e3, 20.0),
        (42, 42, float("inf"), 0.0), (31, 7777, 10e6, 20.0),
    ],
    7: [
        (0, 1, 10e6, 200.0), (1, 0, 10e6, 200.0), (5, 9, 500e3, 20.0),
        (17, 3, 500e3, 80.0), (123, 4567, 10e6, 20.0), (4567, 123, 10e6, 20.0),
        (9999, 0, 10e6, 150.0), (2048, 8191, 10e6, 1.0),
        (42, 42, float("inf"), 0.0), (31, 7777, 10e6, 200.0),
    ],
}


class TestPinnedPairClasses:
    @pytest.mark.parametrize("seed", sorted(PINNED_PAIRS))
    def test_scalar_values_pinned(self, seed):
        net = NetworkModel(PeerDirectory(NAMES), seed=seed)
        for a, b, cap, lat in PINNED_PAIRS[seed]:
            assert net.pair_capacity(a, b) == cap
            assert net.latency_ms(a, b) == lat

    @pytest.mark.parametrize("seed", sorted(PINNED_PAIRS))
    def test_latency_first_and_block_values_pinned(self, seed):
        # Latency is hashed lazily and never memoized: reading it first,
        # twice, or after the capacity memo has filled must not matter.
        net = NetworkModel(PeerDirectory(NAMES), seed=seed)
        rows = PINNED_PAIRS[seed]
        assert [net.latency_ms(a, b) for a, b, _, _ in rows] == [
            lat for _, _, _, lat in rows
        ]
        for a, b, cap, lat in rows:
            got = net.pair_capacities(np.array([a]), b)
            assert got.tolist() == [cap]
            assert net.latency_ms(a, b) == lat
            assert net.pair_capacity(b, a) == cap

