"""Tests for the consistency graph's size statistics."""

import numpy as np

from repro.core.composition import ConsistencyGraph
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.services.model import AbstractServicePath, ServiceInstance

NAMES = ("cpu", "memory")
WEIGHTS = WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e6)


def make_catalog(seed=0, n_services=3, per_layer=8):
    rng = np.random.default_rng(seed)
    services = tuple(f"s{k}" for k in range(n_services))
    cat = {}
    for k, svc in enumerate(services):
        cat[svc] = []
        for j in range(per_layer):
            fmt_in = f"if{k}/{rng.integers(2)}"
            fmt_out = (
                f"if{k+1}/{rng.integers(2)}" if k < n_services - 1 else "final"
            )
            q = int(rng.integers(1, 4))
            cat[svc].append(ServiceInstance(
                f"{svc}/{j}", svc,
                qin=QoSVector(format=fmt_in, quality=Interval(q, 3)),
                qout=QoSVector(format=fmt_out, quality=q),
                resources=ResourceVector(NAMES, rng.uniform(1, 500, 2)),
                bandwidth=float(rng.uniform(1e3, 5e4)),
            ))
    return AbstractServicePath("cachetest", services), cat


USERS = [
    QoSVector(format="final", quality=Interval(1, 3)),
    QoSVector(format="final", quality=Interval(2, 3)),
    QoSVector(format="final", quality=Interval(3, 3)),
]


class TestGraphStats:
    def test_node_edge_counts_consistent(self):
        path, cat = make_catalog(seed=2)
        g = ConsistencyGraph(path, cat, USERS[0], WEIGHTS)
        assert g.n_nodes == 1 + sum(len(v) for v in cat.values())
        assert g.n_edges == sum(len(v) for v in g.edges.values())

    def test_dense_catalog_has_full_interior_edges(self):
        """All-compatible formats/qualities give complete bipartite layers."""
        services = ("a", "b")
        cat = {
            "a": [ServiceInstance(
                f"a/{j}", "a",
                qin=QoSVector(format="origin", quality=Interval(1, 3)),
                qout=QoSVector(format="mid", quality=3),
                resources=ResourceVector(NAMES, [1, 1]), bandwidth=1.0,
            ) for j in range(4)],
            "b": [ServiceInstance(
                f"b/{j}", "b",
                qin=QoSVector(format="mid", quality=Interval(1, 3)),
                qout=QoSVector(format="final", quality=3),
                resources=ResourceVector(NAMES, [1, 1]), bandwidth=1.0,
            ) for j in range(5)],
        }
        path = AbstractServicePath("dense", services)
        g = ConsistencyGraph(path, cat, USERS[0], WEIGHTS)
        # sink->b: 5 edges; each b->a: 4 edges.
        assert g.n_edges == 5 + 5 * 4
