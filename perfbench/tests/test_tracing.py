"""Span recording and self-time arithmetic of the benchmark's tracer."""

import json

import pytest

import tracing
from tracing import SpanRecorder, coverage


@pytest.fixture
def ticks(monkeypatch):
    """A clock that advances one unit per reading."""
    state = {"now": -1.0}

    def fake_clock():
        state["now"] += 1.0
        return state["now"]

    monkeypatch.setattr(tracing, "_clock", fake_clock)
    return state


def test_self_time_subtracts_direct_children_only(ticks):
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", lambda: None)
    mid = rec.wrap("mid", lambda: leaf())
    outer = rec.wrap("outer", lambda: (mid(), leaf()))
    outer()
    # One tick per clock reading gives:
    #   outer [0, 7], mid [1, 4], leaf [2, 3], leaf [5, 6]
    assert (rec.names[0], rec.starts[0], rec.ends[0]) == ("outer", 0.0, 7.0)
    assert rec.parents == [-1, 0, 1, 0]
    layers = rec.layers()
    assert layers["outer"]["total_s"] == 7.0
    assert layers["outer"]["self_s"] == 7.0 - 3.0 - 1.0
    assert layers["mid"]["self_s"] == 3.0 - 1.0
    assert layers["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0,
                              "failed": 0}
    # Self times partition the root's wall time exactly.
    assert sum(v["self_s"] for v in layers.values()) == 7.0


def test_raised_calls_are_recorded_and_counted(ticks):
    rec = SpanRecorder()

    def boom():
        raise ValueError("denied")

    inner = rec.wrap("inner", boom)

    def body():
        with pytest.raises(ValueError):
            inner()

    rec.wrap("outer", body)()
    layers = rec.layers()
    assert layers["inner"]["failed"] == 1
    assert layers["outer"]["failed"] == 0
    assert rec.parents == [-1, 0]
    assert all(end > start for start, end in zip(rec.starts, rec.ends))


def test_request_id_tags_nested_spans_and_is_restored(ticks):
    class Request:
        request_id = 42

    rec = SpanRecorder()
    child = rec.wrap("child", lambda: None)
    aggregate = rec.wrap_request("aggregate", lambda req: child())
    aggregate(Request())
    rec.wrap("after", lambda: None)()
    assert rec.request_ids == [42, 42, None]


def test_patch_shadows_only_the_instance(ticks):
    class Service:
        def work(self, x):
            return x * 2

    traced, plain = Service(), Service()
    rec = SpanRecorder()
    rec.patch(traced, "work", "svc.work", on_result=lambda r: rec.count("out", r))
    assert traced.work(3) == 6
    assert plain.work(3) == 6
    assert rec.names == ["svc.work"]
    assert rec.counters == {"out": 6}


def test_coverage_is_share_of_root_time_in_named_children(ticks):
    rec = SpanRecorder()
    child = rec.wrap("child", lambda: None)
    rec.wrap("sim", lambda: (child(), child(), child()))()
    # sim [0, 7]; three children of 1 unit each.
    layers = rec.layers()
    assert coverage(layers, ["sim"]) == pytest.approx(3.0 / 7.0)
    assert coverage(layers, ["missing"]) == 0.0


def test_report_writes_every_span(ticks, tmp_path):
    rec = SpanRecorder()
    child = rec.wrap("child", lambda: None)
    rec.wrap("sim", lambda: child())()
    summary = rec.report(["sim"], tmp_path / "out" / "spans.jsonl")
    lines = (tmp_path / "out" / "spans.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"name": "sim", "start": 0.0, "end": 3.0, "parent": -1,
         "request_id": None, "raised": False},
        {"name": "child", "start": 1.0, "end": 2.0, "parent": 0,
         "request_id": None, "raised": False},
    ]
    assert summary["coverage"] == pytest.approx(1.0 / 3.0)
    assert summary["layers"]["sim"]["self_s"] == 2.0
