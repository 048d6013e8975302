"""Shared pieces of the benchmark: workloads, inputs, the correctness gate.

Every benchmark process (the runner, the in-process pass worker and the
serving host) imports this module first.  :func:`load_repro` puts the
checkout's ``src`` directory on ``sys.path`` and fails loudly when it is
missing, so a copy of the benchmark without the program exits non-zero.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: System builds per pass; every build is one ``setup_s`` sample.
SETUP_REPEATS = 2

#: Sim-minutes per timed slice of the in-process workload phase.
CHUNK_MIN = 0.25


def chunk_ends(horizon_min: float) -> List[float]:
    """Sim-times at which the workload phase's timed slices end."""
    n = math.ceil(horizon_min / CHUNK_MIN - 1e-9)
    return [min((k + 1) * CHUNK_MIN, horizon_min) for k in range(n)]


#: Typical time of :func:`time_reference`'s work between slices on the
#: host the benchmark was written on (a shared 2-vCPU Xeon virtual
#: machine at 2.0 GHz nominal).  Timings are reported as on that host.
REFERENCE_S = 2.4e-3

_REF_ROWS = np.random.default_rng([7, 1]).random((10_000, 8))
_REF_PICKS = np.random.default_rng([7, 2]).integers(0, 10_000, size=(200, 32))


def time_reference() -> float:
    """Time a fixed slice of interpreter, dict and array-gather work.

    It uses nothing of the program, so its time measures only how fast
    the host runs at the moment (see README.md, "Timing").
    """
    t0 = time.perf_counter()
    counts: Dict[int, int] = {}
    acc = 0.0
    for i in range(len(_REF_PICKS)):
        acc += float(_REF_ROWS[_REF_PICKS[i]].sum(axis=0).max())
        key = (i * 7919) % 251
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def setup_reference() -> float:
    """The median of five reference timings, taken right after a build.

    A build is one long step, not a run of slices, so its host factor
    comes from references timed back to back after it.
    """
    return statistics.median(time_reference() for _ in range(5))


#: Seed of the system under test: peer population, service catalog,
#: overlay and churn schedule.  It is the program's own default (also
#: what ``repro serve`` runs without ``--seed``); ``--seed`` draws the
#: request stream sent to that system.
GRID_SEED = 0


def load_repro() -> None:
    """Make ``import repro`` resolve to this checkout's source tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"inproc"`` (simulator in the pass worker) or ``"serve"``.
    kind: str
    #: In-process grid shape (paper §4.1).
    n_peers: int = 10_000
    probe_budget: int = 100
    rate_per_min: float = 100.0
    horizon_min: float = 15.0
    churn_per_min: float = 0.0
    duration_range: tuple = (1.0, 60.0)
    #: Serving only: compose requests per pass, and the share of
    #: admitted sessions released right after set-up.
    n_requests: int = 0
    release_ratio: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    "paper-steady": Workload("paper-steady", "inproc"),
    "paper-churn": Workload("paper-churn", "inproc", churn_per_min=200.0),
    # The server runs its shipped defaults (10^3 peers, M = 10), so the
    # grid fields do not apply; the rest describe the client's load.
    "serve-loopback": Workload(
        "serve-loopback", "serve", duration_range=(1.0, 15.0),
        n_requests=1_500, release_ratio=0.25,
    ),
}

QOS_LEVELS = ("low", "average", "high")


def request_stream(workload: Workload, seed: int) -> List[Dict[str, Any]]:
    """The workload's requests, drawn from ``seed`` alone.

    Every request carries a uniform draw that picks the requesting peer
    among those alive when it is sent.  In-process requests also carry
    their arrival minute (a Poisson stream at ``rate_per_min`` up to the
    horizon); serving requests carry whether the session is released
    right after set-up.
    """
    from repro.services.applications import default_applications

    apps = default_applications()
    rng = np.random.default_rng([seed, 11])
    lo, hi = workload.duration_range
    out: List[Dict[str, Any]] = []
    t = 0.0
    while True:
        if workload.kind == "inproc":
            t += float(rng.exponential(1.0 / workload.rate_per_min))
            if t > workload.horizon_min:
                return out
        elif len(out) == workload.n_requests:
            return out
        app = apps[int(rng.integers(len(apps)))]
        formats = app.user_formats()
        req = {
            "application": app.name,
            "qos_level": QOS_LEVELS[int(rng.integers(len(QOS_LEVELS)))],
            "duration": float(rng.uniform(lo, hi)),
            "out_format": formats[int(rng.integers(len(formats)))],
            "peer_draw": float(rng.random()),
        }
        if workload.kind == "inproc":
            req["arrival"] = t
        else:
            req["release"] = bool(rng.random() < workload.release_ratio)
        out.append(req)


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gate(grid: Any, sent: int, admitted: int, denied: int,
         errors: List[str]) -> List[str]:
    """Correctness problems of a drained run (empty list = correct).

    * the program's own invariant sweep is clean;
    * no session is still active;
    * every alive peer's available resources and access bandwidth are
      back at capacity (nothing leaked, nothing double-released);
    * every request was either admitted or denied, and none raised.
    """
    from repro.diagnostics import check_grid_invariants

    problems = list(errors[:5])
    if len(errors) > 5:
        problems.append(f"... {len(errors) - 5} more errored requests")
    problems += [f"invariant: {p}" for p in check_grid_invariants(grid)[:10]]
    if grid.ledger.n_active:
        problems.append(f"{grid.ledger.n_active} sessions still active")
    if admitted + denied != sent:
        problems.append(
            f"admitted {admitted} + denied {denied} != sent {sent}"
        )
    if grid.ledger.n_admitted != admitted:
        problems.append(
            f"ledger admitted {grid.ledger.n_admitted} != results {admitted}"
        )
    leaked = 0
    for peer in grid.directory.alive_peers():
        ok = all(
            math.isclose(a, c, rel_tol=1e-9, abs_tol=1e-6)
            for a, c in zip(peer.available.values, peer.capacity.values)
        ) and all(
            math.isclose(bw, peer.access_bw, rel_tol=1e-9, abs_tol=1e-6)
            for bw in (peer.avail_up, peer.avail_down)
        )
        if not ok:
            leaked += 1
            if leaked <= 3:
                problems.append(
                    f"peer {peer.peer_id}: available {peer.available.values} "
                    f"/ links ({peer.avail_up}, {peer.avail_down}) not back "
                    f"at capacity {peer.capacity.values} / {peer.access_bw}"
                )
    if leaked > 3:
        problems.append(f"... {leaked - 3} more peers not back at capacity")
    return problems


def grid_counters(grid: Any) -> Dict[str, Any]:
    """Deterministic work counters the program keeps on its own objects."""
    registry = grid.registry
    store = getattr(grid.directory, "store", None)
    churn = grid.churn
    return {
        "lookup.routed": registry.n_routed_discoveries,
        "lookup.cached": registry.n_cached_discoveries,
        "lookup.hops": registry.discovery_hops,
        "probing.probe_messages": grid.probing.probe_messages,
        "probing.resolution_messages": grid.probing.resolution_messages,
        "churn.arrivals": churn.n_arrivals if churn is not None else 0,
        "churn.departures": churn.n_departures if churn is not None else 0,
        "network.store_bytes": store.memory_bytes() if store is not None else 0,
        "network.rows_recycled": store.rows_recycled if store is not None else 0,
        "telemetry.events": grid.telemetry.bus.n_emitted,
    }
