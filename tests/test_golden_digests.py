"""Frozen per-seed digests: the behavioural contract of the QSA pipeline.

Each row pins one seeded end-to-end run by four observables:

* ``n_requests`` and ψ (to 6 dp) -- the paper's headline metric;
* the blake2b-16 digest of the telemetry JSONL export, which serializes
  every bus event in emission order (so it also pins per-request
  outcomes, QCS choices, selection hops and their interleaving);
* the blake2b-16 digest of the determinism-sanitizer ledger, which pins
  every RNG draw count, bit-generator state checkpoint and membership /
  session write.

The rows are the ``repro perf`` in-process scenarios at seed 0, one
faulted run under churn, the ``fast_paths=False`` reference run of
the baseline scenario (memo-free discovery and composition), and a
short paper-scale run (10^4 peers, M = 100, 200 peers/min churn) --
the only row where neighbor tables run full at the paper's budget.  A change
that deletes or replaces a code path keeps every row; a change that
moves a row must say why and is a behaviour change, not a refactor.

The table is literal on purpose: there is no regeneration switch.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultPlan, FaultSpec
from repro.grid import GridConfig
from repro.network.churn import ChurnConfig
from repro.perf.harness import SCENARIOS
from repro.probing.prober import ProbingConfig
from repro.workload.generator import WorkloadConfig

FAULTED_PLAN = FaultPlan((
    FaultSpec(kind="probe_loss", rate=0.3),
    FaultSpec(kind="lookup_failure", rate=0.15),
    FaultSpec(kind="admission_failure", rate=0.1),
    FaultSpec(kind="stale_state", rate=0.5, staleness=2.0),
    FaultSpec(kind="partition", start=2.0, end=4.0, fraction=0.3),
), name="golden-faulted")


def _faulted_churn(seed: int) -> ExperimentConfig:
    config = SCENARIOS["smoke"].make(seed)
    grid = replace(
        config.grid,
        churn=ChurnConfig(rate_per_min=5.0),
        faults=FAULTED_PLAN,
    )
    return replace(config, grid=grid)


def _reference_baseline(seed: int) -> ExperimentConfig:
    config = SCENARIOS["baseline"].make(seed)
    return replace(config, grid=replace(config.grid, fast_paths=False))


def _paper_churn_3min(seed: int) -> ExperimentConfig:
    # The paper's §4.1 point (10^4 peers, M = 100, 100 req/min) under
    # Fig. 7's heaviest churn, cut to a 3-minute request horizon.
    return ExperimentConfig(
        grid=GridConfig(
            n_peers=10_000,
            probing=ProbingConfig(budget=100),
            churn=ChurnConfig(rate_per_min=200.0),
            seed=seed,
        ),
        workload=WorkloadConfig(rate_per_min=100.0, horizon=3.0),
    )


CONFIGS = {
    "smoke": SCENARIOS["smoke"].make,
    "baseline": SCENARIOS["baseline"].make,
    "churn": SCENARIOS["churn"].make,
    "heavy": SCENARIOS["heavy"].make,
    "compose-stress": SCENARIOS["compose-stress"].make,
    "faulted-churn": _faulted_churn,
    "baseline-reference": _reference_baseline,
    "paper-churn-3min": _paper_churn_3min,
}

#: row -> (n_requests, ψ to 6 dp, telemetry JSONL blake2b-16,
#: sanitizer ledger blake2b-16), all at seed 0.
GOLDENS = {
    "baseline": (
        159, 0.893082,
        "b527d66eaf69b196ef46c7d8be9c77cb",
        "81c176ba1aed6fedac50a67f182a0261",
    ),
    "baseline-reference": (
        159, 0.893082,
        "b527d66eaf69b196ef46c7d8be9c77cb",
        "81c176ba1aed6fedac50a67f182a0261",
    ),
    "churn": (
        159, 0.716981,
        "70ab22b5d7065ade20c4700de0662bd4",
        "d7322dd01d0b961181c715b22a3f1246",
    ),
    "compose-stress": (
        1808, 0.990044,
        "637cf4c0183c771b9a185700ce05025b",
        "fb137fc5f4281cfcdb6ef849d97a8ee7",
    ),
    "faulted-churn": (
        271, 0.608856,
        "b6c25ed150372bf705c4a4e630f6136d",
        "6b374e02713d42a92f3ad587f969b37a",
    ),
    "heavy": (
        774, 0.885013,
        "8c862a5c9fd9d01ace2b4890bc40b27c",
        "11c067e2a4f3cb7ee8957ee9d9a99872",
    ),
    "paper-churn-3min": (
        271, 0.601476,
        "5f68ba9a9d74b7cf5418daed63b6dea1",
        "6cd36ad78ad6afc91d342def77fab30c",
    ),
    "smoke": (
        271, 0.885609,
        "c4c9848693a7802e63996aaf0a302da1",
        "ec0cd738dfe1569f7335b4f6987def4f",
    ),
}


def _digest(path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


@pytest.fixture(autouse=True)
def _reduced_scale(monkeypatch):
    # The perf scenarios follow the process-wide scale; the goldens are
    # recorded at the reduced (10^3-peer) default.
    monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)


def test_every_row_has_a_config():
    assert sorted(GOLDENS) == sorted(CONFIGS)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name, tmp_path):
    telemetry = tmp_path / "telemetry.jsonl"
    ledger = tmp_path / "ledger.jsonl"
    config = CONFIGS[name](0).with_telemetry(str(telemetry))
    result = run_experiment(config.with_sanitize(str(ledger)))
    observed = (
        result.n_requests,
        round(result.success_ratio, 6),
        _digest(telemetry),
        _digest(ledger),
    )
    assert observed == GOLDENS[name]
