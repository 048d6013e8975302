"""QCS -- the "QoS Consistent and Shortest" composition algorithm (§3.2).

Given

* an abstract service path (flow order ``source -> ... -> last``),
* for every abstract service, the candidate :class:`ServiceInstance`\\ s
  discovered through the P2P lookup substrate, and
* the user's end-to-end QoS requirement,

QCS builds the *consistency graph* of Fig. 3 and finds the QoS-consistent
service path with minimum aggregated resource requirements:

1. Start from the (data) **sink** -- a virtual node representing the
   user's host whose input requirement is the user's QoS vector (the
   paper phrases this as "the Qout of the sink service is set as the
   user's QoS requirements"; either way the first consistency check is
   *last-hop instance output vs. user requirement*).
2. Walk layer by layer in the **reverse direction of the aggregation
   flow**, adding a directed edge ``current -> predecessor`` whenever the
   predecessor's ``Qout`` *satisfies* the current node's ``Qin`` (Eq. 1).
3. Weight the edge into instance ``B`` with the resource tuple
   ``(R_B, b_{B,A})`` (Def. 3.1); the sink's own resources are excluded
   (paper footnote 3).
4. Run Dijkstra from the sink to the source layer under the
   weighted-normalized tuple order; report the minimum-cost source-layer
   node's path.

Because tuple comparison is equivalent to comparing scalar *scores* (see
:class:`~repro.core.resources.WeightProfile`), Dijkstra runs on
non-negative additive edge scores, which makes it correct.

The graph is a layered DAG, so a single dynamic-programming sweep gives
the same answer in ``O(E)``; both methods are implemented
(``method="dijkstra"`` for paper fidelity, ``"dp"`` as the fast path) and
tested to agree.  The worst-case work is ``O(K V^2)`` in the paper's
notation (``V`` candidate instances overall, ``K`` candidates for the
source service).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.qos import QoSVector, satisfies
from repro.core.resources import ResourceTuple, WeightProfile
from repro.services.model import AbstractServicePath, ServiceInstance
from repro.telemetry.spans import NULL_TRACER

__all__ = [
    "CompositionError",
    "ComposedPath",
    "ConsistencyGraph",
    "compose_qcs",
]


class CompositionError(Exception):
    """No QoS-consistent service path exists for the request."""


@dataclass(frozen=True)
class ComposedPath:
    """The result of QCS: one instance per abstract service, flow order.

    Attributes
    ----------
    instances:
        Chosen instances, **flow order** (source first, user-adjacent
        last).
    total:
        Aggregated resource tuple over the path: the sum of every chosen
        instance's ``R`` and of every connection's bandwidth (each
        instance contributes its outgoing bandwidth; the last instance's
        connection goes to the user host).
    score:
        ``WeightProfile.score(total)`` -- the Dijkstra distance at the
        source node.
    """

    instances: Tuple[ServiceInstance, ...]
    total: ResourceTuple
    score: float

    @property
    def hops(self) -> int:
        return len(self.instances)

    def edge_bandwidths(self) -> Tuple[float, ...]:
        """Bandwidth per connection, selection order (user side first).

        Element ``i`` is the bandwidth on the connection *out of* the
        ``i``-th peer counted from the user, i.e.
        ``instances[-1].bandwidth`` first.
        """
        return tuple(inst.bandwidth for inst in reversed(self.instances))

    def __repr__(self) -> str:
        chain = " -> ".join(i.instance_id for i in self.instances)
        return f"<ComposedPath {chain} (score={self.score:.4f})>"


class ConsistencyGraph:
    """The layered QoS-consistency graph of Fig. 3.

    Layers are indexed in *reverse flow order*: layer 0 is the virtual
    sink (the user host), layer 1 the user-adjacent abstract service, ...,
    layer ``n`` the source service.  ``edges[(layer, i)]`` lists
    ``(pred_index, tuple_score, resource_tuple)`` for every consistent
    predecessor instance in layer ``layer + 1``.
    """

    def __init__(
        self,
        path: AbstractServicePath,
        candidates: Mapping[str, Sequence[ServiceInstance]],
        user_qos: QoSVector,
        weights: WeightProfile,
    ) -> None:
        self.path = path
        self.user_qos = user_qos
        self.weights = weights
        # Edge cost per predecessor instance, computed once per graph (an
        # instance is the predecessor of every node in the layer above).
        self._costs: Dict[str, Tuple[float, ResourceTuple]] = {}
        #: layers[k] for k >= 1: candidate instances of the k-th service
        #: from the user side.  layers[0] is a placeholder for the sink.
        self.layers: List[List[ServiceInstance]] = [[]]
        for service in path.reversed():
            cands = list(candidates.get(service, ()))
            if not cands:
                raise CompositionError(
                    f"no candidate instances discovered for service {service!r}"
                )
            self.layers.append(cands)
        self.n_layers = len(self.layers)  # sink layer + one per service
        # Adjacency: edge from node (k, i) to predecessor (k+1, j).
        self.edges: Dict[Tuple[int, int], List[Tuple[int, float, ResourceTuple]]] = {}
        self._build()

    # -- construction --------------------------------------------------------
    def _required_qin(self, layer: int, index: int) -> QoSVector:
        """The input requirement of node ``(layer, index)``.

        Layer 0 is the sink: its requirement is the user's end-to-end QoS
        vector.
        """
        if layer == 0:
            return self.user_qos
        return self.layers[layer][index].qin

    def _edge_cost(self, pred: ServiceInstance) -> Tuple[float, ResourceTuple]:
        entry = self._costs.get(pred.instance_id)
        if entry is None:
            cost = ResourceTuple(pred.resources, pred.bandwidth)
            entry = (self.weights.score(cost), cost)
            self._costs[pred.instance_id] = entry
        return entry

    def _build(self) -> None:
        """Add every consistency edge; cost = (R_pred, b_pred) per Def. 3.1."""
        for layer in range(0, self.n_layers - 1):
            n_here = 1 if layer == 0 else len(self.layers[layer])
            preds = self.layers[layer + 1]
            for i in range(n_here):
                qin = self._required_qin(layer, i)
                out: List[Tuple[int, float, ResourceTuple]] = []
                for j, pred in enumerate(preds):
                    if satisfies(pred.qout, qin):
                        score, cost = self._edge_cost(pred)
                        out.append((j, score, cost))
                if out:
                    self.edges[(layer, i)] = out

    # -- statistics ----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return 1 + sum(len(layer) for layer in self.layers[1:])

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.edges.values())


def _shortest_dp(
    graph: ConsistencyGraph,
) -> Optional[Tuple[List[int], float, ResourceTuple]]:
    """Layer-by-layer DP sweep (the DAG fast path)."""
    # dist[(layer, i)] = (score, predecessor index in layer-1 sense).
    # Only scores drive the relaxations; the accumulated resource tuple
    # is recomputed once along the chosen path by _extract.
    dist: Dict[Tuple[int, int], Tuple[float, Optional[int]]] = {
        (0, 0): (0.0, None)
    }
    edges = graph.edges
    for layer in range(0, graph.n_layers - 1):
        n_here = 1 if layer == 0 else len(graph.layers[layer])
        next_layer = layer + 1
        for i in range(n_here):
            here = dist.get((layer, i))
            if here is None:
                continue
            score_here = here[0]
            for j, edge_score, _edge_tuple in edges.get((layer, i), ()):
                cand = score_here + edge_score
                existing = dist.get((next_layer, j))
                if existing is None or cand < existing[0]:
                    dist[(next_layer, j)] = (cand, i)
    return _extract(graph, dist)


def _shortest_dijkstra(
    graph: ConsistencyGraph,
) -> Optional[Tuple[List[int], float, ResourceTuple]]:
    """Dijkstra from the sink, as §3.2 prescribes."""
    dist: Dict[Tuple[int, int], Tuple[float, Optional[int]]] = {
        (0, 0): (0.0, None)
    }
    done: set = set()
    heap: List[Tuple[float, int, int]] = [(0.0, 0, 0)]
    while heap:
        score_here, layer, i = heapq.heappop(heap)
        node = (layer, i)
        if node in done:
            continue
        done.add(node)
        for j, edge_score, _edge_tuple in graph.edges.get(node, ()):
            nxt = (layer + 1, j)
            if nxt in done:
                continue
            cand = score_here + edge_score
            existing = dist.get(nxt)
            # Tie-break on equal scores toward the smaller predecessor
            # index: the DP's first-strict-improvement scan keeps the
            # smallest minimizing index, and edge scores are positive,
            # so every tying predecessor settles before ``nxt`` pops --
            # making the three kernels path-identical even on exact
            # score ties, as the compose_qcs contract promises.
            if (
                existing is None
                or cand < existing[0]
                or (cand == existing[0]
                    and existing[1] is not None
                    and i < existing[1])
            ):
                dist[nxt] = (cand, i)
                heapq.heappush(heap, (cand, layer + 1, j))
    return _extract(graph, dist)


def _extract(
    graph: ConsistencyGraph,
    dist: Dict[Tuple[int, int], Tuple[float, Optional[int]]],
) -> Optional[Tuple[List[int], float, ResourceTuple]]:
    """Pick the best source-layer node and backtrack the chosen indices."""
    source_layer = graph.n_layers - 1
    best_j: Optional[int] = None
    best: Optional[Tuple[float, Optional[int]]] = None
    for j in range(len(graph.layers[source_layer])):
        entry = dist.get((source_layer, j))
        if entry is not None and (best is None or entry[0] < best[0]):
            best, best_j = entry, j
    if best is None:
        return None
    # Backtrack: indices[k] = chosen instance index in layer k (1-based layers).
    indices = [0] * (graph.n_layers - 1)
    layer, j = source_layer, best_j
    entry = best
    while layer >= 1:
        indices[layer - 1] = j
        j = entry[1]
        layer -= 1
        if layer >= 1:
            entry = dist[(layer, j)]
    # Re-accumulate the resource tuple along the chosen path in the same
    # zero + e1 + e2 + ... order the relaxations used to carry it, so the
    # reported total is bit-identical to the carried spelling.
    total = ResourceTuple.zero(graph.weights.resource_names)
    prev_i = 0
    for layer in range(0, source_layer):
        nxt_j = indices[layer]
        for j2, _edge_score, edge_tuple in graph.edges[(layer, prev_i)]:
            if j2 == nxt_j:
                total = total + edge_tuple
                break
        prev_i = nxt_j
    return indices, best[0], total


def compose_qcs(
    path: AbstractServicePath,
    candidates: Mapping[str, Sequence[ServiceInstance]],
    user_qos: QoSVector,
    weights: WeightProfile,
    method: str = "dp",
    telemetry: Optional[Any] = None,
) -> ComposedPath:
    """Run QCS and return the QoS-consistent, resource-shortest path.

    Parameters
    ----------
    path:
        Abstract service path in flow order.
    candidates:
        Discovered instances per abstract service.
    user_qos:
        The user's end-to-end QoS requirement (checked against the
        user-adjacent instance's ``Qout``).
    weights:
        Def. 3.1 weight profile used for the tuple order.
    method:
        ``"dp"`` (default, layered-DAG sweep) or ``"dijkstra"``
        (the paper's formulation).  Both return identical paths.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; instruments the
        graph-build and shortest-path phases at phase granularity only
        (never inside the edge loops).

    Raises
    ------
    CompositionError
        If some service has no candidates or no QoS-consistent path
        exists.
    """
    tracer = telemetry.tracer if telemetry is not None else NULL_TRACER
    with tracer.span("qcs.compose", application=path.application):
        with tracer.span("qcs.graph_build"):
            graph = ConsistencyGraph(path, candidates, user_qos, weights)
        if telemetry is not None:
            m = telemetry.metrics
            m.counter("qcs.compositions").inc()
            m.counter("qcs.graph_nodes").inc(graph.n_nodes)
            m.counter("qcs.graph_edges").inc(graph.n_edges)
        # One kernel-neutral span name: the exactness contract demands
        # byte-identical telemetry across kernels (dp / dijkstra /
        # vectorized), so the solver phase may not leak the method.
        if method == "dp":
            with tracer.span("qcs.solve"):
                result = _shortest_dp(graph)
        elif method == "dijkstra":
            with tracer.span("qcs.solve"):
                result = _shortest_dijkstra(graph)
        else:
            raise ValueError(
                f"unknown method {method!r} (use 'dp' or 'dijkstra')"
            )
    if result is None:
        if telemetry is not None:
            telemetry.metrics.counter("qcs.no_path").inc()
            telemetry.bus.emit(
                "qcs.failed",
                application=path.application,
                n_nodes=graph.n_nodes,
                n_edges=graph.n_edges,
            )
        raise CompositionError(
            f"no QoS-consistent service path for application "
            f"{path.application!r} at requirement {user_qos!r}"
        )
    indices, score, total = result
    # indices[k] indexes graph.layers[k+1] (reverse flow order); flip to
    # flow order for the ComposedPath contract.
    chosen_reverse = [
        graph.layers[k + 1][indices[k]] for k in range(len(indices))
    ]
    if telemetry is not None:
        telemetry.bus.emit(
            "qcs.composed",
            application=path.application,
            n_nodes=graph.n_nodes,
            n_edges=graph.n_edges,
            score=score,
            hops=len(chosen_reverse),
        )
    return ComposedPath(
        instances=tuple(reversed(chosen_reverse)), total=total, score=score
    )
