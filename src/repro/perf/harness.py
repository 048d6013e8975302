"""Perf-regression harness: record scenarios, compare against a baseline.

The ROADMAP's north star is "as fast as the hardware allows" -- which is
only falsifiable against a *recorded trajectory*.  This module turns the
repo-root ``BENCH_<n>.json`` sequence into that trajectory:

* :data:`SCENARIOS` names the standard workloads (steady / churny /
  heavy / smoke), each a seed-parameterized
  :class:`~repro.experiments.config.ExperimentConfig` factory;
* :func:`record_bench` runs each scenario under the wall-clock profiler
  (:func:`repro.telemetry.profiling.profile_run`) and collects wall
  throughput, ψ, and setup-latency percentiles (the profiler's reservoir
  histogram -- same class the metrics registry uses) plus seed / scale /
  host metadata into one schema-validated document;
* :func:`compare_benches` diffs two documents and flags regressions
  beyond configurable thresholds (``repro perf compare`` exits non-zero
  on any).

Wall-clock numbers are host-dependent by nature; the committed baseline
pins the *methodology* (scenario, seed, telemetry-on measurement), and
CI compares warn-only while local ``repro perf compare`` enforces.

ψ is seeded-deterministic per scenario, so a ψ change in a comparison is
a behaviour change, not noise; throughput and latency carry host noise,
hence the ratio thresholds.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import (
    ExperimentConfig,
    default_scale,
    scale_factor,
)
from repro.grid import GridConfig
from repro.probing.prober import ProbingConfig
from repro.workload.generator import WorkloadConfig

__all__ = [
    "BENCH_SCHEMA",
    "SCENARIOS",
    "Scenario",
    "BenchComparison",
    "record_bench",
    "compare_benches",
    "validate_bench",
    "load_bench",
    "write_bench",
    "next_bench_path",
]

#: Document format identifier; bump on incompatible layout changes.
BENCH_SCHEMA = "repro-bench/1"

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass(frozen=True)
class Scenario:
    """A named, seed-parameterized workload for the harness.

    Exactly one of the two fields drives a recording:

    * ``make`` -- an :class:`ExperimentConfig` factory; the harness runs
      it in-process under the wall-clock profiler (the classic path).
    * ``recorder`` -- a ``(seed, algorithm) -> scenario dict`` callable
      that measures by its own means (the ``serving`` scenario boots a
      real HTTP server) and returns a schema-conformant scenario object.
    """

    name: str
    description: str
    make: Optional[Callable[[int], ExperimentConfig]] = None
    recorder: Optional[Callable[[int, str], Dict]] = None

    def __post_init__(self) -> None:
        if (self.make is None) == (self.recorder is None):
            raise ValueError(
                f"scenario {self.name!r} needs exactly one of make/recorder"
            )


def _compose_stress(seed: int) -> ExperimentConfig:
    # Composition-bound: 3-5x the default candidate instances per
    # abstract service makes the QCS kernel (graph build + relaxation)
    # dominate each request, so this scenario isolates the compose
    # kernel's throughput the way `heavy` isolates admission contention.
    from repro.services.catalog import CatalogConfig

    return ExperimentConfig(
        grid=GridConfig(
            n_peers=1000,
            probing=ProbingConfig(budget=10),
            catalog=CatalogConfig(instances_per_service=(50, 60)),
            seed=seed,
        ),
        workload=WorkloadConfig(
            rate_per_min=120.0, horizon=15.0, duration_range=(1.0, 8.0)
        ),
        drain_minutes=10.0,
    )


def _smoke(seed: int) -> ExperimentConfig:
    # Deliberately tiny: a few hundred peers, short horizon, short
    # sessions -- the CI perf-smoke job runs this on every push.
    return ExperimentConfig(
        grid=GridConfig(
            n_peers=250, probing=ProbingConfig(budget=10), seed=seed
        ),
        workload=WorkloadConfig(
            rate_per_min=30.0, horizon=10.0, duration_range=(1.0, 8.0)
        ),
        drain_minutes=10.0,
    )


SCENARIOS: Dict[str, Scenario] = {
    "smoke": Scenario(
        "smoke",
        "reduced sanity scenario (250 peers, 10 min) for CI",
        _smoke,
    ),
    "baseline": Scenario(
        "baseline",
        "steady §4.1 load, 100 req/min paper units, no churn",
        lambda seed: default_scale(100.0, 20.0, 0.0, seed),
    ),
    "churn": Scenario(
        "churn",
        "steady load under 50 peers/min churn (paper units)",
        lambda seed: default_scale(100.0, 20.0, 50.0, seed),
    ),
    "heavy": Scenario(
        "heavy",
        "4x request rate, the contention regime of Fig. 5's right edge",
        lambda seed: default_scale(400.0, 20.0, 0.0, seed),
    ),
    "compose-stress": Scenario(
        "compose-stress",
        "composition-bound load: 50-60 candidate instances per service "
        "so the QCS kernel dominates each request",
        _compose_stress,
    ),
    "serving": Scenario(
        "serving",
        "closed-loop HTTP serving: compose/release over real TCP "
        "against a resident grid",
        recorder=lambda seed, algorithm: _record_serving(seed, algorithm),
    ),
    "serving-slo": Scenario(
        "serving-slo",
        "observability overhead: serving with the SLO/window/trace "
        "plane on, against a plane-off control run",
        recorder=lambda seed, algorithm: _record_serving_slo(seed, algorithm),
    ),
    "scale-1x": Scenario(
        "scale-1x",
        "paper scale end to end: 10^4 peers, M = 100, steady load",
        recorder=lambda seed, algorithm: _record_scale(
            SCENARIOS["scale-1x"].description,
            10_000, 100.0, 10.0, seed, algorithm,
        ),
    ),
    "scale-10x": Scenario(
        "scale-10x",
        "capacity probe: 10^5 peers, M = 1000, short steady load",
        recorder=lambda seed, algorithm: _record_scale(
            SCENARIOS["scale-10x"].description,
            100_000, 100.0, 5.0, seed, algorithm,
        ),
    ),
}

#: Scenarios a bare ``repro perf record`` runs (smoke stays CI-only).
DEFAULT_SCENARIOS: Tuple[str, ...] = (
    "baseline", "churn", "heavy", "compose-stress", "serving",
    "scale-1x", "scale-10x",
)


def _record_serving(seed: int, algorithm: str) -> Dict:
    # Imported lazily: repro.serve resolves scenario names through this
    # module, so a top-level import would be circular.
    from repro.perf.serving import record_serving

    return record_serving(seed, algorithm)


def _record_serving_slo(seed: int, algorithm: str) -> Dict:
    from repro.perf.serving import record_serving_slo

    return record_serving_slo(seed, algorithm)


# -- recording --------------------------------------------------------------

def _scenario_record(description: str, config, result, report) -> Dict:
    """The per-scenario bench object shared by every make-style recorder."""
    p = report.latency_percentiles()
    compose_spans = [
        r for r in report.wall_spans if r.name == "qcs.compose"
    ]
    compose_wall = sum(r.end - r.start for r in compose_spans)
    return {
        "description": description,
        "n_peers": config.grid.n_peers,
        # Additive (validate_bench checks required fields only): the
        # scenario's own population scale relative to the paper's 10^4
        # peers -- the scale-Nx scenarios run above the process default.
        "scale_factor": config.grid.n_peers / 10_000.0,
        "rate_per_min": config.workload.rate_per_min,
        "horizon": config.workload.horizon,
        "churn_per_min": (
            config.grid.churn.rate_per_min if config.grid.churn else 0.0
        ),
        "n_requests": result.n_requests,
        "psi": result.success_ratio,
        "wall_seconds": result.wall_seconds,
        "throughput": dict(report.throughput),
        "setup_latency_us": {
            "count": int(p["count"]),
            "mean": p["mean"],
            "p50": p["p50"],
            "p95": p["p95"],
            "p99": p["p99"],
            "max": p["max"],
        },
        "mean_lookup_hops": result.mean_lookup_hops,
        "probe_overhead": result.probe_overhead,
        # Additive: the discovery fast-path split recorded alongside the
        # wall numbers.
        "discovery_cache": {
            "routed": result.n_routed_discoveries,
            "cached": result.n_cached_discoveries,
            "hit_rate": (
                result.n_cached_discoveries
                / (result.n_routed_discoveries
                   + result.n_cached_discoveries)
                if result.n_routed_discoveries
                + result.n_cached_discoveries
                else 0.0
            ),
        },
        "n_admitted": result.n_admitted,
        # Additive: the QCS kernel's share of the run, from the
        # wall-span mirror -- the BENCH_3 speedup evidence compares
        # this block across composition kernels.  The qsa aggregator
        # runs the vectorized kernel with the fast paths on and the
        # memo-free reference DP with them off.
        "compose_kernel": {
            "kernel": "vectorized" if config.grid.fast_paths else "dp",
            "compositions": len(compose_spans),
            "wall_seconds": compose_wall,
            "per_sec": (
                len(compose_spans) / compose_wall
                if compose_wall > 0
                else 0.0
            ),
        },
    }


def _record_scale(
    description: str,
    n_peers: int,
    rate_per_min: float,
    horizon: float,
    seed: int,
    algorithm: str,
) -> Dict:
    """Record one explicit-population scenario, with memory telemetry.

    Unlike the default scenarios (which follow the process-wide
    ``REPRO_PAPER_SCALE``), the scale scenarios pin ``n_peers``
    explicitly -- ``scale-1x`` is the paper's 10^4 population end to
    end, ``scale-10x`` a 10^5-peer capacity probe.  Both keep the
    paper's ``M/N = 1 %`` probe-budget fraction and record the process
    peak RSS plus the struct-of-arrays store footprint so memory
    regressions surface next to the wall numbers.
    """
    import resource

    from repro.telemetry.profiling import Profiler
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig(
        grid=GridConfig(
            n_peers=n_peers,
            probing=ProbingConfig(budget=max(10, int(round(0.01 * n_peers)))),
            seed=seed,
            telemetry=True,
        ),
        workload=WorkloadConfig(
            rate_per_min=rate_per_min, horizon=horizon,
            duration_range=(1.0, 8.0),
        ),
        drain_minutes=10.0,
    ).with_algorithm(algorithm)
    profiler = Profiler()
    result = run_experiment(config, profiler=profiler)
    report = profiler.report(
        wall_seconds=result.wall_seconds, n_requests=result.n_requests
    )
    record = _scenario_record(description, config, result, report)
    # ru_maxrss is KiB on Linux; the high-water mark covers this run and
    # anything recorded before it in the same process, which is exactly
    # the "does the full record fit in memory" question the guard asks.
    record["peak_rss_bytes"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    )
    grid = profiler.grid
    if grid is not None:
        record["store_memory_bytes"] = grid.directory.store.memory_bytes()
    return record


def record_bench(
    scenario_names: Optional[Sequence[str]] = None,
    seed: int = 0,
    algorithm: str = "qsa",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the named scenarios and return one bench document."""
    from repro.telemetry.profiling import profile_run

    names = list(scenario_names or DEFAULT_SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(SCENARIOS))}"
        )
    scenarios: Dict[str, Dict] = {}
    for name in names:
        scenario = SCENARIOS[name]
        if progress is not None:
            progress(f"recording scenario '{name}' "
                     f"({scenario.description}) ...")
        if scenario.recorder is not None:
            scenarios[name] = scenario.recorder(seed, algorithm)
            continue
        assert scenario.make is not None  # __post_init__ invariant
        config = scenario.make(seed).with_algorithm(algorithm)
        result, report = profile_run(config)
        scenarios[name] = _scenario_record(scenario.description, config,
                                           result, report)
    doc = {
        "schema": BENCH_SCHEMA,
        "recorded_unix": time.time(),
        "seed": seed,
        "algorithm": algorithm,
        "scale_factor": scale_factor(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "scenarios": scenarios,
    }
    validate_bench(doc)
    return doc


# -- schema validation -------------------------------------------------------

_SCENARIO_FIELDS = {
    "description": str,
    "n_peers": int,
    "rate_per_min": (int, float),
    "horizon": (int, float),
    "churn_per_min": (int, float),
    "n_requests": int,
    "psi": (int, float),
    "wall_seconds": (int, float),
    "throughput": dict,
    "setup_latency_us": dict,
    "mean_lookup_hops": (int, float),
    "probe_overhead": (int, float),
}
_THROUGHPUT_FIELDS = ("requests_per_sec", "lookups_per_sec", "probes_per_sec")
_LATENCY_FIELDS = ("count", "mean", "p50", "p95", "p99", "max")


def validate_bench(doc: Dict) -> None:
    """Raise ``ValueError`` naming the first schema violation found."""
    if not isinstance(doc, dict):
        raise ValueError("bench document must be a JSON object")
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"schema mismatch: expected {BENCH_SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    for key, kind in (
        ("recorded_unix", (int, float)),
        ("seed", int),
        ("algorithm", str),
        ("scale_factor", (int, float)),
        ("host", dict),
        ("scenarios", dict),
    ):
        if key not in doc:
            raise ValueError(f"missing top-level field {key!r}")
        if not isinstance(doc[key], kind):
            raise ValueError(f"field {key!r} has wrong type "
                             f"{type(doc[key]).__name__}")
    if not doc["scenarios"]:
        raise ValueError("bench document records no scenarios")
    for name, sc in doc["scenarios"].items():
        if not isinstance(sc, dict):
            raise ValueError(f"scenario {name!r} must be an object")
        for key, kind in _SCENARIO_FIELDS.items():
            if key not in sc:
                raise ValueError(f"scenario {name!r} missing field {key!r}")
            if not isinstance(sc[key], kind):
                raise ValueError(
                    f"scenario {name!r} field {key!r} has wrong type "
                    f"{type(sc[key]).__name__}"
                )
        for key in _THROUGHPUT_FIELDS:
            if not isinstance(sc["throughput"].get(key), (int, float)):
                raise ValueError(
                    f"scenario {name!r} throughput missing {key!r}"
                )
        for key in _LATENCY_FIELDS:
            if not isinstance(sc["setup_latency_us"].get(key), (int, float)):
                raise ValueError(
                    f"scenario {name!r} setup_latency_us missing {key!r}"
                )
        if not 0.0 <= sc["psi"] <= 1.0:
            raise ValueError(f"scenario {name!r} psi out of [0, 1]")


def load_bench(path: str) -> Dict:
    """Read and validate one bench document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        validate_bench(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return doc


def write_bench(doc: Dict, path: str) -> None:
    """Validate then write one bench document (stable key order)."""
    validate_bench(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def next_bench_path(root: str = ".") -> str:
    """The next free ``BENCH_<n>.json`` under ``root`` (gap-free append)."""
    taken = [
        int(m.group(1))
        for entry in os.listdir(root)
        if (m := _BENCH_RE.match(entry))
    ]
    n = max(taken) + 1 if taken else 0
    return os.path.join(root, f"BENCH_{n}.json")


# -- comparison --------------------------------------------------------------

@dataclass
class BenchComparison:
    """The verdict of comparing a new bench document to an old one."""

    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: List[str] = []
        for note in self.notes:
            lines.append(f"note: {note}")
        for text in self.improvements:
            lines.append(f"improved: {text}")
        for text in self.regressions:
            lines.append(f"REGRESSION: {text}")
        if not self.regressions:
            lines.append("no regressions beyond threshold")
        return "\n".join(lines)


def compare_benches(
    old: Dict,
    new: Dict,
    threshold: float = 0.25,
    psi_tolerance: float = 0.02,
) -> BenchComparison:
    """Flag per-scenario regressions of ``new`` relative to ``old``.

    * throughput (requests/sec) may not drop by more than ``threshold``
      (a ratio, e.g. 0.25 = 25 %);
    * setup-latency p95 may not rise by more than ``threshold``;
    * ψ may not drop by more than ``psi_tolerance`` (absolute --
      deterministic per seed, so any real drop is a behaviour change).

    Symmetric improvements are reported informationally.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must be a ratio in (0, 1)")
    comp = BenchComparison()
    old_sc, new_sc = old["scenarios"], new["scenarios"]
    only_old = sorted(set(old_sc) - set(new_sc))
    only_new = sorted(set(new_sc) - set(old_sc))
    if only_old:
        comp.notes.append(f"scenarios only in OLD: {', '.join(only_old)}")
    if only_new:
        comp.notes.append(f"scenarios only in NEW: {', '.join(only_new)}")
    if old.get("host") != new.get("host"):
        comp.notes.append(
            "recorded on different hosts; wall-clock deltas are indicative"
        )

    for name in sorted(set(old_sc) & set(new_sc)):
        o, n = old_sc[name], new_sc[name]

        o_rps = o["throughput"]["requests_per_sec"]
        n_rps = n["throughput"]["requests_per_sec"]
        if o_rps > 0:
            ratio = n_rps / o_rps
            text = (f"{name}: throughput {o_rps:.1f} -> {n_rps:.1f} req/s "
                    f"({ratio - 1:+.1%})")
            if ratio < 1 - threshold:
                comp.regressions.append(text)
            elif ratio > 1 + threshold:
                comp.improvements.append(text)

        o_p95 = o["setup_latency_us"]["p95"]
        n_p95 = n["setup_latency_us"]["p95"]
        if o_p95 > 0:
            ratio = n_p95 / o_p95
            text = (f"{name}: setup latency p95 {o_p95:.0f} -> "
                    f"{n_p95:.0f} µs ({ratio - 1:+.1%})")
            if ratio > 1 + threshold:
                comp.regressions.append(text)
            elif ratio < 1 - threshold:
                comp.improvements.append(text)

        dpsi = n["psi"] - o["psi"]
        text = f"{name}: ψ {o['psi']:.3f} -> {n['psi']:.3f} ({dpsi:+.3f})"
        if dpsi < -psi_tolerance:
            comp.regressions.append(text)
        elif dpsi > psi_tolerance:
            comp.improvements.append(text)

        cache = n.get("discovery_cache")
        if cache is not None:
            comp.notes.append(
                f"{name}: discovery cache {cache['cached']}/"
                f"{cache['cached'] + cache['routed']} hits "
                f"({cache['hit_rate']:.1%})"
            )
        o_ck, n_ck = o.get("compose_kernel"), n.get("compose_kernel")
        if n_ck is not None and n_ck["compositions"]:
            text = (
                f"{name}: compose kernel [{n_ck['kernel']}] "
                f"{n_ck['per_sec']:.0f} compositions/s"
            )
            if o_ck is not None and o_ck["per_sec"] > 0:
                text += (
                    f" (was [{o_ck['kernel']}] {o_ck['per_sec']:.0f}, "
                    f"{n_ck['per_sec'] / o_ck['per_sec']:.2f}x)"
                )
            comp.notes.append(text)
    return comp
