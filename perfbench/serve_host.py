"""Host one ``repro serve`` instance for the serving workload.

Boots the server exactly as ``repro serve`` does -- shipped defaults
(``ServeConfig()``: baseline scenario, seed 0, sim-tick clock, telemetry
and the observability plane on) on an ephemeral port -- then prints::

    READY <port>

and serves until SIGTERM.  On shutdown it drains the resident grid
(every admitted session runs to completion), runs the correctness gate,
and prints one JSON line with counters, peak RSS and, with
``--trace 1``, per-layer span summaries plus the duration of every
``GridRuntime.compose`` call in arrival order.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import signal
import time
from typing import Any, Dict, List

from common import (
    OUT,
    SETUP_REPEATS,
    gate,
    grid_counters,
    load_repro,
    peak_rss_mb,
    setup_reference,
)


async def serve(trace: bool) -> Dict[str, Any]:
    from repro.serve.core import (
        GridRuntime,
        ServeConfig,
        ServeServer,
        tune_gc_for_serving,
    )

    from tracing import SpanRecorder, instrument

    config = ServeConfig(port=0)
    tune_gc_for_serving()
    # Build the resident runtime SETUP_REPEATS times; the last one serves.
    setup_s: List[float] = []
    setup_reference_s: List[float] = []
    for _ in range(SETUP_REPEATS):
        runtime = server = None
        gc.collect()
        t0 = time.perf_counter()
        runtime = GridRuntime(config)
        server = ServeServer(runtime, config.host, config.port)
        setup_s.append(time.perf_counter() - t0)
        setup_reference_s.append(setup_reference())
    t0 = time.perf_counter()
    await server.start()
    setup_s[-1] += time.perf_counter() - t0

    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        instrument(recorder, runtime.grid, runtime.aggregator)
        recorder.patch(runtime, "compose", "serve.runtime_compose")
        recorder.patch(runtime, "release", "serve.runtime_release")

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    print(f"READY {server.address[1]}", flush=True)
    await stop.wait()
    await server.stop()

    grid = runtime.grid
    grid.sim.run()  # drain: remaining sessions complete
    problems = gate(grid, runtime.n_compose, runtime.n_admitted,
                    runtime.n_rejected, [])
    counters = grid_counters(grid)
    counters.update({
        "sent": runtime.n_compose,
        "admitted": runtime.n_admitted,
        "denied": runtime.n_rejected,
        "released": runtime.n_released,
        "lookup.hops_per_request": runtime.total_lookup_hops
        / max(runtime.n_compose, 1),
    })
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "problems": problems,
        "counters": counters,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        result.update(recorder.report(
            ["serve.runtime_compose", "serve.runtime_release"],
            OUT / "spans-serve-loopback.jsonl"))
        result["compose_s"] = [
            end - start
            for name, start, end in zip(recorder.names, recorder.starts,
                                        recorder.ends)
            if name == "serve.runtime_compose"
        ]
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_repro()
    result = asyncio.run(serve(bool(args.trace)))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
