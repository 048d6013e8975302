"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload paper-churn --seed 1 --seconds 55 --trace 0

A run repeats *passes* for ``--seconds`` (at least :data:`MIN_PASSES`).
A pass sets the system up afresh, sends the workload's whole request
stream (drawn from ``--seed``), drains, and runs the correctness gate.
In-process passes run in one worker process per run; every serving pass
boots its own server process.  Passes of one run share the seed, so
every deterministic counter must repeat exactly across them.

Every pass times its work in slices; the end-to-end timings take each
slice's fastest repetition over the passes, scaled to a reference host
speed (README.md, "Timing").

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` alternates an untraced and a traced pass and prints the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when the gate or the exact-repeat check fails, or when the program's
source is missing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from common import (
    HERE,
    OUT,
    REFERENCE_S,
    ROOT,
    WORKLOADS,
    Workload,
    load_repro,
    request_stream,
    time_reference,
)
from stats import (
    MIN_BEYOND,
    beyond,
    fastest,
    median,
    percentile,
    repeat_drift,
    tail_percentile,
)

MIN_PASSES = 3
#: Compose requests per timed slice of a serving pass.
CHUNK_REQUESTS = 25
#: Slices on either side of a slice whose reference times give the
#: host's speed at that slice (see :func:`host_factors`).
HOST_WINDOW = 5
PASS_TIMEOUT_S = 150

#: Layers traced by ``tracing.instrument`` (and the serving wrappers).
LAYERS = (
    "sim", "aggregate", "services.compile", "lookup.candidates",
    "lookup.hosts", "qcs.compose", "probing.resolve", "selection.hop",
    "sessions.admit", "sessions.release", "sessions.fail_peer",
    "churn.arrive", "churn.depart", "telemetry.emit",
    "serve.runtime_compose", "serve.runtime_release",
)

#: Counters that must be identical across same-seed passes.
REPEAT_COUNTERS = (
    "psi", "sent", "admitted", "denied", "lookup.routed", "lookup.cached",
    "lookup.hops", "probing.probe_messages", "probing.resolution_messages",
    "churn.arrivals", "churn.departures", "network.rows_recycled",
)

clock = time.perf_counter


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # The workloads fix their own population; the library-wide scale
    # switch must not leak into the serving defaults.
    env.pop("REPRO_PAPER_SCALE", None)
    # Same string hashes, hence same dict and set layouts, in every pass.
    env["PYTHONHASHSEED"] = "0"
    return env


# -- passes ------------------------------------------------------------------

class InprocWorker:
    """The run's in-process pass worker: one process, one pass per call."""

    def __init__(self, workload: Workload, seed: int) -> None:
        cmd = [sys.executable, str(HERE / "inproc.py"),
               "--workload", workload.name, "--seed", str(seed)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def run(self, trace: bool) -> Dict[str, Any]:
        self.proc.stdin.write(f"{int(trace)}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"pass worker exited ({self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PASS_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def _round_trip(conn: http.client.HTTPConnection, method: str, path: str,
                body: bytes = b"") -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body or None, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def drive_server(port: int, stream: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One client, closed loop: compose, and release the chosen sessions."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    latencies: List[float] = []
    latency_slices: List[int] = []
    errors: List[str] = []
    admitted = denied = released = 0
    try:
        status, raw = _round_trip(conn, "GET", "/status")
        if status != 200:
            raise RuntimeError(f"GET /status answered {status}")
        n_peers = json.loads(raw)["grid"]["n_peers"]
        # Slices of CHUNK_REQUESTS composes, each timed on its own.
        chunks: List[float] = []
        reference: List[float] = []
        chunk0 = clock()
        for i, spec in enumerate(stream):
            if i and i % CHUNK_REQUESTS == 0:
                chunks.append(clock() - chunk0)
                reference.append(time_reference())
                chunk0 = clock()
            body = json.dumps({
                "application": spec["application"],
                "qos_level": spec["qos_level"],
                "duration": spec["duration"],
                "out_format": spec["out_format"],
                # No churn on the resident grid: peers 0..n-1 stay alive.
                "peer_id": int(spec["peer_draw"] * n_peers),
            }).encode()
            start = clock()
            try:
                status, raw = _round_trip(conn, "POST", "/compose", body)
            except (OSError, http.client.HTTPException) as exc:
                errors.append(f"compose {i}: transport error {exc!r}")
                conn.close()
                continue
            latencies.append(clock() - start)
            latency_slices.append(len(chunks))
            if status == 409:
                denied += 1
                continue
            if status != 201:
                errors.append(f"compose {i}: HTTP {status} {raw[:200]!r}")
                continue
            admitted += 1
            if spec["release"]:
                session_id = json.loads(raw)["session_id"]
                try:
                    status, raw = _round_trip(conn, "DELETE",
                                              f"/sessions/{session_id}")
                except (OSError, http.client.HTTPException) as exc:
                    errors.append(f"release {session_id}: transport error {exc!r}")
                    conn.close()
                    continue
                if status != 200:
                    errors.append(f"release {session_id}: HTTP {status}")
                else:
                    released += 1
        chunks.append(clock() - chunk0)
        reference.append(time_reference())
    finally:
        conn.close()
    return {"latencies_s": latencies, "latency_slices": latency_slices,
            "workload_s": sum(chunks),
            "chunks_s": chunks, "reference_s": reference,
            "errors": errors, "admitted": admitted, "denied": denied,
            "released": released}


def serve_pass(workload: Workload, seed: int, trace: bool) -> Dict[str, Any]:
    stream = request_stream(workload, seed)
    cmd = [sys.executable, str(HERE / "serve_host.py"),
           "--trace", str(int(trace))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            raise RuntimeError(f"server did not start: {ready!r}")
        client = drive_server(int(ready[1]), stream)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"server exited {proc.returncode}")
    host = json.loads(out.strip().splitlines()[-1])
    counters = host["counters"]
    problems = list(host["problems"]) + client["errors"]
    for key in ("admitted", "denied", "released"):
        if counters[key] != client[key]:
            problems.append(f"server counted {key} {counters[key]}, "
                            f"client {client[key]}")
    sent = len(stream)
    counters["psi"] = client["admitted"] / sent
    host.update({
        "workload_s": client["workload_s"],
        "chunks_s": client["chunks_s"],
        "reference_s": client["reference_s"],
        "latencies_s": client["latencies_s"],
        "latency_slices": client["latency_slices"],
        "errors": len(client["errors"]),
        "problems": problems,
    })
    return host


def pass_summary(p: Dict[str, Any]) -> Dict[str, float]:
    """One pass's own figures; a run reports their median over passes."""
    lat_us = [x * 1e6 for x in p["latencies_s"]]
    p99 = tail_percentile(lat_us, 0.99)
    if p99 is None:
        raise RuntimeError(
            f"{len(lat_us)} latency samples leave {beyond(len(lat_us), 0.99)} "
            f"beyond p99 (need {MIN_BEYOND})"
        )
    ordered = sorted(lat_us)
    return {
        "requests_per_s": p["counters"]["sent"] / p["workload_s"],
        "setup_p50_us": percentile(ordered, 0.5),
        "setup_p95_us": percentile(ordered, 0.95),
        "setup_p99_us": p99,
        "setup_s": median(p["setup_s"]),
        "peak_rss_mb": p["peak_rss_mb"],
    }


def median_of(passes: List[Dict[str, Any]], key: str) -> float:
    return median([pass_summary(p)[key] for p in passes])


def host_factors(p: Dict[str, Any]) -> List[float]:
    """Per slice of a pass: how much slower than usual the host ran then.

    The median reference time over the slices within
    :data:`HOST_WINDOW` of it, over :data:`REFERENCE_S`.
    """
    ref = p["reference_s"]
    return [median(ref[max(0, i - HOST_WINDOW): i + HOST_WINDOW + 1])
            / REFERENCE_S for i in range(len(ref))]


def setup_times(passes: List[Dict[str, Any]], scaled: bool) -> List[float]:
    """Every build's time, divided by its host factor when ``scaled``."""
    return [t * REFERENCE_S / r if scaled else t
            for p in passes
            for t, r in zip(p["setup_s"], p["setup_reference_s"])]


def fastest_timings(passes: List[Dict[str, Any]],
                    scaled: bool) -> Dict[str, float]:
    """``requests_per_s`` and ``setup_p50_us`` of a run's passes.

    Every pass of a run does the same work, slice by slice and request
    by request, so each slice and each request counts at its fastest
    repetition (:func:`stats.fastest`): the host's slow spells rarely
    cover the same slice in every pass.  ``scaled`` first divides each
    slice's and request's time by its slice's :func:`host_factors`.
    """
    chunks, latencies = [], []
    for p in passes:
        factors = (host_factors(p) if scaled
                   else [1.0] * len(p["chunks_s"]))
        chunks.append([t / f for t, f in zip(p["chunks_s"], factors)])
        latencies.append([t / factors[c] for t, c in
                          zip(p["latencies_s"], p["latency_slices"])])
    latencies_us = sorted(x * 1e6 for x in fastest(latencies))
    return {
        "requests_per_s": passes[0]["counters"]["sent"] / sum(fastest(chunks)),
        "setup_p50_us": percentile(latencies_us, 0.5),
    }


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` over the untraced passes."""
    n = len(passes)
    timings = fastest_timings(passes, scaled=True)
    setup = setup_times(passes, scaled=True)
    return {
        "requests_per_s": (timings["requests_per_s"], "1/s",
                           n * len(passes[0]["chunks_s"])),
        "setup_p50_us": (timings["setup_p50_us"], "us",
                         n * len(passes[0]["latencies_s"])),
        "psi": (passes[0]["counters"]["psi"], "ratio", n),
        "setup_s": (median(setup), "s", len(setup)),
        "peak_rss_mb": (median_of(passes, "peak_rss_mb"), "MB", n),
    }


def reported_only(passes: List[Dict[str, Any]]) -> Dict[str, Tuple[float, str, int]]:
    """Figures printed beside the end-to-end metrics but not gated.

    Tails are made of the slowest requests, so they follow the host's
    slow spells; on a shared host their run-to-run spread can exceed
    any bound BENCHMARK.json may set (see README.md).
    """
    n = len(passes)
    slices = n * len(passes[0]["chunks_s"])
    samples = n * len(passes[0]["latencies_s"])
    unscaled = fastest_timings(passes, scaled=False)
    return {
        "host_factor": (median([f for p in passes for f in host_factors(p)]),
                        "ratio", slices),
        "unscaled.requests_per_s": (unscaled["requests_per_s"], "1/s", slices),
        "unscaled.setup_p50_us": (unscaled["setup_p50_us"], "us", samples),
        "unscaled.setup_s": (median(setup_times(passes, scaled=False)), "s",
                             n * len(passes[0]["setup_s"])),
        "setup_p95_us": (median_of(passes, "setup_p95_us"), "us", samples),
        "setup_p99_us": (median_of(passes, "setup_p99_us"), "us", samples),
    }


def per_layer(untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              workload: Workload) -> Dict[str, Tuple[float, str, int]]:
    """Layer metrics of the traced passes (self time: median over passes)."""
    n = len(traced)
    first = traced[0]
    c = first["counters"]
    sent = c["sent"]
    out: Dict[str, Tuple[float, str, int]] = {}
    for layer in LAYERS:
        stats = first["layers"].get(layer, {"calls": 0, "failed": 0})
        out[f"{layer}.calls"] = (stats["calls"], "count", n)
        out[f"{layer}.self_s"] = (
            median([p["layers"].get(layer, {}).get("self_s", 0.0)
                    for p in traced]), "s", n)
        out[f"{layer}.failed"] = (stats["failed"], "count", n)
    discoveries = c["lookup.routed"] + c["lookup.cached"]
    overhead_us = 0.0
    if workload.kind == "serve":
        overhead_us = median([
            (rtt - compose) * 1e6
            for p in traced
            for rtt, compose in zip(p["latencies_s"], p["compose_s"])
        ])
    out.update({
        "selection.random_fallbacks": (
            first["trace_counters"].get("selection.random_fallbacks", 0),
            "count", n),
        "probing.probe_messages": (c["probing.probe_messages"], "count", n),
        "probing.resolution_messages": (
            c["probing.resolution_messages"], "count", n),
        "lookup.routed": (c["lookup.routed"], "count", n),
        "lookup.cached": (c["lookup.cached"], "count", n),
        "lookup.hit_ratio": (
            c["lookup.cached"] / discoveries if discoveries else 0.0, "ratio", n),
        "lookup.hops_per_request": (c["lookup.hops_per_request"], "hops/req", n),
        "network.store_bytes": (c["network.store_bytes"], "B", n),
        "network.rows_recycled": (c["network.rows_recycled"], "count", n),
        "telemetry.events_per_request": (
            c["telemetry.events"] / sent, "events/req", n),
        "serve.overhead_us": (overhead_us, "us", n),
        "trace.overhead": (
            fastest_timings(untraced, scaled=True)["requests_per_s"]
            / fastest_timings(traced, scaled=True)["requests_per_s"] - 1.0,
            "ratio", n),
        "trace.coverage": (median([p["coverage"] for p in traced]), "ratio", n),
    })
    return out


# -- the run -------------------------------------------------------------------

def measure(run_pass: Callable[[bool], Dict[str, Any]], seconds: float,
            trace: bool) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Untraced (and traced) passes, as many as fit in ``seconds``.

    A further round starts only if a round of the mean length so far
    still ends within ``seconds``.  An untraced run makes at least
    ``MIN_PASSES`` passes so its medians shrug off one disturbed pass;
    a traced run makes at least one untraced and one traced pass.
    """
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    start = clock()
    while True:
        untraced.append(run_pass(False))
        if trace:
            traced.append(run_pass(True))
        elif len(untraced) < MIN_PASSES:
            continue
        elapsed = clock() - start
        if elapsed + elapsed / len(untraced) > seconds:
            return untraced, traced


def dump_timings(untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]],
                 path: Path) -> None:
    """Write every pass's raw timings, for a look behind the medians."""
    keys = ("setup_s", "setup_reference_s", "chunks_s", "reference_s",
            "latencies_s", "latency_slices")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "sent": untraced[0]["counters"]["sent"],
        "untraced": [{k: p[k] for k in keys} for p in untraced],
        "traced": [{k: p[k] for k in keys} for p in traced],
    }))


def report(metrics: Dict[str, Tuple[float, str, int]], header: str) -> None:
    print(header)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit:10s} (n={samples})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_repro()
    workload = WORKLOADS[args.workload]

    trace = bool(args.trace)
    if workload.kind == "serve":
        untraced, traced = measure(
            lambda t: serve_pass(workload, args.seed, t), args.seconds, trace)
    else:
        worker = InprocWorker(workload, args.seed)
        try:
            untraced, traced = measure(worker.run, args.seconds, trace)
        finally:
            worker.close()
    passes = untraced + traced
    dump_timings(untraced, traced,
                 OUT / f"timings-{workload.name}-seed{args.seed}"
                       f"-trace{args.trace}.json")
    attempted = sum(p["counters"]["sent"] for p in passes)
    failed = sum(p["errors"] for p in passes)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes)
                for msg in p["problems"]]
    problems += repeat_drift([
        {k: p["counters"][k] for k in REPEAT_COUNTERS} for p in passes
    ])
    problems += repeat_drift([
        {layer: stats["calls"] for layer, stats in p["layers"].items()}
        for p in traced
    ])
    if problems:
        print(f"{workload.name} seed {args.seed}: correctness check FAILED",
              file=sys.stderr)
        for msg in problems:
            print(f"  {msg}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        metrics = per_layer(untraced, traced, workload)
    else:
        metrics = end_to_end(untraced)
    denied = sum(p["counters"]["denied"] for p in passes)
    for i, p in enumerate(untraced):
        print(f"pass {i}: " + json.dumps(pass_summary(p)))
    report(metrics, f"{workload.name} seed {args.seed}: {len(untraced)} "
                    f"untraced + {len(traced)} traced passes, {attempted} "
                    f"requests ({denied} denied, {failed} errored)")
    if not args.trace:
        report(reported_only(untraced), "reported only:")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
