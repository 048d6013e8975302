"""In-process passes: build the paper-scale grid, run the stream, gate.

Started once per run by ``perfbench/run.py``; reads one line per pass
from standard input (``0`` untraced, ``1`` traced) and answers each with
one JSON line::

    echo 0 | python3 perfbench/inproc.py --workload paper-steady --seed 1

A pass reports its set-up times, the workload phase's wall time,
per-request set-up latencies, deterministic counters, the correctness
gate's findings and, when traced, per-layer span summaries.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from typing import Any, Dict, List

from common import (
    GRID_SEED,
    OUT,
    SETUP_REPEATS,
    WORKLOADS,
    Workload,
    chunk_ends,
    gate,
    grid_counters,
    load_repro,
    peak_rss_mb,
    request_stream,
    setup_reference,
    time_reference,
)

clock = time.perf_counter


def run_pass(workload: Workload, seed: int, trace: bool) -> Dict[str, Any]:
    from repro.experiments.metrics import MetricsCollector
    from repro.grid import GridConfig, P2PGrid
    from repro.network.churn import ChurnConfig
    from repro.probing.prober import ProbingConfig
    from repro.services.qoscompiler import UserRequest

    from tracing import SpanRecorder, instrument

    stream = request_stream(workload, seed)
    config = GridConfig(
        n_peers=workload.n_peers,
        probing=ProbingConfig(budget=workload.probe_budget),
        churn=(ChurnConfig(rate_per_min=workload.churn_per_min)
               if workload.churn_per_min > 0 else None),
        seed=GRID_SEED,
    )
    # Set up SETUP_REPEATS times and keep the last system; every build is
    # one set-up sample.
    setup_s: List[float] = []
    setup_reference_s: List[float] = []
    for _ in range(SETUP_REPEATS):
        grid = aggregator = None
        gc.collect()
        t0 = clock()
        grid = P2PGrid(config)
        aggregator = grid.make_aggregator("qsa")
        setup_s.append(clock() - t0)
        setup_reference_s.append(setup_reference())

    collector = MetricsCollector()
    collector.attach(grid.telemetry.bus)
    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        instrument(recorder, grid, aggregator)

    latencies: List[float] = []
    #: Index of the timed slice each latency falls in.
    latency_slices: List[int] = []
    chunks_s: List[float] = []
    reference_s: List[float] = []
    errors: List[str] = []
    outcome = {"admitted": 0, "denied": 0, "hops": 0}

    def arrive(i: int) -> None:
        spec = stream[i]
        ids = grid.directory.alive_ids
        request = UserRequest(
            request_id=i,
            peer_id=ids[int(spec["peer_draw"] * len(ids))],
            application=spec["application"],
            qos_level=spec["qos_level"],
            session_duration=spec["duration"],
            arrival_time=grid.sim.now,
            out_format=spec["out_format"],
        )
        start = clock()
        try:
            result = aggregator.aggregate(request)
        except Exception:  # an errored request is reported, not fatal
            errors.append(f"request {i} raised:\n{traceback.format_exc()}")
            return
        latencies.append(clock() - start)
        latency_slices.append(len(chunks_s))
        outcome["admitted" if result.admitted else "denied"] += 1
        outcome["hops"] += result.lookup_hops

    for i, spec in enumerate(stream):
        grid.sim.call_at(spec["arrival"], arrive, i)

    # The workload phase runs in slices of CHUNK_MIN sim-minutes, each
    # timed on its own (a slice is the same work in every pass of a run)
    # and followed by a timed reference, outside the slice's time.
    for end in chunk_ends(workload.horizon_min):
        c0 = clock()
        grid.sim.run(until=end)
        chunks_s.append(clock() - c0)
        reference_s.append(time_reference())
    # Drain: membership freezes when the stream ends, then every
    # admitted session runs to its scheduled completion.
    if grid.churn is not None:
        grid.churn.stop()
    grid.sim.run()

    sent = len(stream)
    problems = gate(grid, sent, outcome["admitted"], outcome["denied"], errors)
    if collector.n_requests != sent - len(errors):
        problems.append(
            f"metrics saw {collector.n_requests} requests, sent {sent}"
        )
    unresolved = sum(1 for r in collector.records.values() if r.success is None)
    if unresolved:
        problems.append(f"{unresolved} requests never resolved")

    counters = grid_counters(grid)
    counters.update({
        "sent": sent,
        "admitted": outcome["admitted"],
        "denied": outcome["denied"],
        "psi": collector.success_ratio(),
        "lookup.hops_per_request": outcome["hops"] / max(sent, 1),
    })
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "workload_s": sum(chunks_s),
        "chunks_s": chunks_s,
        "reference_s": reference_s,
        "latencies_s": latencies,
        "latency_slices": latency_slices,
        "errors": len(errors),
        "problems": problems,
        "counters": counters,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        result.update(recorder.report(
            ["sim"], OUT / f"spans-{workload.name}-seed{seed}.jsonl"))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w for w, v in WORKLOADS.items()
                                 if v.kind == "inproc"])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    load_repro()
    for line in sys.stdin:
        result = run_pass(WORKLOADS[args.workload], args.seed,
                          line.strip() == "1")
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
