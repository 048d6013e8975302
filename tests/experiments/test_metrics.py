"""Unit tests for the ψ metric collector, fed through an event bus.

The helpers publish ``request.setup`` and ``session.resolved`` with the
same fields the aggregators and the grid publish in a real run.
"""

import numpy as np
import pytest

from repro.core.aggregation import AggregationStatus
from repro.experiments.metrics import MetricsCollector
from repro.sessions.session import SessionState
from repro.telemetry.bus import EventBus


class Feed:
    """A collector attached to a dispatch-only bus, plus publishers."""

    def __init__(self):
        self.bus = EventBus(lambda: 0.0, record=False)
        self.m = MetricsCollector()
        self.m.attach(self.bus)

    def setup(self, rid, status, arrival=0.0, hops=3):
        self.bus.emit(
            "request.setup",
            request_id=rid,
            peer=0,
            application="video-on-demand",
            level="average",
            status=status.value,
            admitted=status is AggregationStatus.ADMITTED,
            lookup_hops=hops,
            random_fallbacks=0,
            arrival_time=arrival,
            duration=5.0,
        )

    def resolve(self, rid, state, reason=None):
        self.bus.emit(
            "session.resolved",
            session_id=rid,
            request_id=rid,
            state=state.value,
            reason=reason,
        )


class TestOutcomes:
    def test_rejection_resolves_immediately(self):
        f = Feed()
        m = f.m
        f.setup(0, AggregationStatus.RESOURCES_DENIED)
        assert m.n_requests == 1
        assert m.n_resolved == 1
        assert m.success_ratio() == 0.0

    def test_admitted_pending_until_session(self):
        f = Feed()
        m = f.m
        f.setup(0, AggregationStatus.ADMITTED)
        assert m.n_resolved == 0
        f.resolve(0, SessionState.COMPLETED)
        assert m.n_resolved == 1
        assert m.success_ratio() == 1.0

    def test_session_failure_counts_against(self):
        f = Feed()
        m = f.m
        f.setup(0, AggregationStatus.ADMITTED)
        f.resolve(0, SessionState.FAILED, "peer 3 departed")
        assert m.success_ratio() == 0.0
        assert "departed" in m.records[0].status

    def test_unknown_session_ignored(self):
        f = Feed()
        m = f.m
        f.resolve(99, SessionState.COMPLETED)
        assert m.n_requests == 0

    def test_mixed_ratio(self):
        f = Feed()
        m = f.m
        for rid, status in enumerate(
            [
                AggregationStatus.ADMITTED,
                AggregationStatus.ADMITTED,
                AggregationStatus.SELECTION_FAILED,
                AggregationStatus.COMPOSITION_FAILED,
            ]
        ):
            f.setup(rid, status)
        f.resolve(0, SessionState.COMPLETED)
        f.resolve(1, SessionState.FAILED, "x")
        assert m.success_ratio() == pytest.approx(0.25)

    def test_breakdown(self):
        f = Feed()
        m = f.m
        f.setup(0, AggregationStatus.ADMITTED)
        f.setup(1, AggregationStatus.BANDWIDTH_DENIED)
        f.resolve(0, SessionState.COMPLETED)
        b = m.breakdown()
        assert b["completed"] == 1
        assert b["bandwidth-denied"] == 1


class TestSeries:
    def test_binning_by_arrival(self):
        f = Feed()
        m = f.m
        # Two requests in bin 0 (one success), one in bin 2 (success).
        for rid, (arrival, ok) in enumerate(
            [(0.5, True), (1.5, False), (5.0, True)]
        ):
            status = (
                AggregationStatus.ADMITTED if ok
                else AggregationStatus.RESOURCES_DENIED
            )
            f.setup(rid, status, arrival=arrival)
            if ok:
                f.resolve(rid, SessionState.COMPLETED)
        times, ratios = m.time_series(bin_minutes=2.0, horizon=6.0)
        assert list(times) == [2.0, 4.0, 6.0]
        assert ratios[0] == pytest.approx(0.5)
        assert np.isnan(ratios[1])
        assert ratios[2] == pytest.approx(1.0)

    def test_empty_series(self):
        f = Feed()
        m = f.m
        times, ratios = m.time_series()
        assert len(times) == 0 and len(ratios) == 0

    def test_hops_and_fallbacks(self):
        f = Feed()
        m = f.m
        f.setup(0, AggregationStatus.ADMITTED, hops=7)
        assert m.mean_lookup_hops() == 7.0
        assert m.fallback_rate() == 0.0
