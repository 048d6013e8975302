"""Out-of-process-style tracing: spans recorded around public calls.

The benchmark never edits the program to trace it.  Instead,
:func:`instrument` replaces public methods on the *built* objects (a
grid, its aggregator, a serving runtime) with wrappers that record one
span per call in memory: name, start, end, parent span and the id of the
request being set up.  Spans are written out once, after the run.

A layer's self time is its spans' total duration minus the time covered
by their direct child spans (:meth:`SpanRecorder.layers`).  Calls run on one
thread and nest strictly, so a stack gives every span its parent.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["SpanRecorder", "coverage", "instrument"]

_clock = time.perf_counter
_SPAN_FIELDS = ("name", "start", "end", "parent", "request_id", "raised")


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it.

    Spans are kept column-wise (one list per field) so recording one
    costs a few list appends.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.request_ids: List[Optional[int]] = []
        self.raised: List[bool] = []
        #: Id of the request whose set-up is in progress (None between).
        self.request_id: Optional[int] = None
        #: Counters filled by result hooks (e.g. selection fallbacks).
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, request_ids, raised = self.parents, self.request_ids, self.raised
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            request_ids.append(self.request_id)
            raised.append(False)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = True
                raise
            finally:
                ends[idx] = _clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_request(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Like :meth:`wrap`, tagging every nested span with the request id."""
        inner = self.wrap(name, fn)

        def traced(request: Any, *args: Any, **kwargs: Any) -> Any:
            outer = self.request_id
            self.request_id = request.request_id
            try:
                return inner(request, *args, **kwargs)
            finally:
                self.request_id = outer

        return traced

    def patch(
        self,
        obj: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a traced wrapper (instance attribute)."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), on_result))

    def count(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``total_s``, ``self_s`` and ``failed``.

        ``self_s`` is the layer's span time minus the time covered by
        each span's direct children; children nest inside their parent,
        so the covered time is the sum of their durations.
        """
        n = len(self.names)
        child_time = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.names):
            layer = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}
            )
            dur = self.ends[i] - self.starts[i]
            layer["calls"] += 1
            layer["total_s"] += dur
            layer["self_s"] += dur - child_time[i]
            if self.raised[i]:
                layer["failed"] += 1
        return out

    def report(self, roots: Sequence[str], path: Path) -> Dict[str, Any]:
        """Write every span to ``path`` (JSON lines); return the summary."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents,
                            self.request_ids, self.raised):
                fh.write(json.dumps(dict(zip(_SPAN_FIELDS, span))) + "\n")
        layers = self.layers()
        return {
            "layers": layers,
            "trace_counters": dict(self.counters),
            "coverage": coverage(layers, roots),
        }


def coverage(layers: Dict[str, Dict[str, float]], roots: Sequence[str]) -> float:
    """Share of the root layers' time that named child layers account for.

    The roots' own self time is the unattributed remainder (event loop,
    bookkeeping); everything else below them is a named layer.
    """
    total = sum(layers[r]["total_s"] for r in roots if r in layers)
    if total <= 0:
        return 0.0
    remainder = sum(layers[r]["self_s"] for r in roots if r in layers)
    return 1.0 - remainder / total


def instrument(recorder: SpanRecorder, grid: Any, aggregator: Any) -> None:
    """Wrap each pipeline layer's public calls on a built grid.

    Layer names follow the program's own span taxonomy where one exists
    (``lookup.candidates``, ``probing.resolve``, ``selection.hop`` ...).
    """

    def note_hop(outcome: Any) -> None:
        if outcome.random_fallback:
            recorder.count("selection.random_fallbacks")

    recorder.patch(grid.sim, "run", "sim")
    aggregator.aggregate = recorder.wrap_request("aggregate", aggregator.aggregate)
    recorder.patch(aggregator.compiler, "compile", "services.compile")
    recorder.patch(grid.registry, "discover_path_candidates", "lookup.candidates")
    recorder.patch(grid.registry, "discover_hosts", "lookup.hosts")
    recorder.patch(aggregator, "compose", "qcs.compose")
    recorder.patch(grid.probing, "resolve_selection_hops", "probing.resolve")
    recorder.patch(aggregator.selector, "select_hop", "selection.hop", note_hop)
    recorder.patch(grid.ledger, "admit", "sessions.admit")
    recorder.patch(grid.ledger, "release_session", "sessions.release")
    recorder.patch(grid.ledger, "fail_peer", "sessions.fail_peer")
    recorder.patch(grid.telemetry.bus, "emit", "telemetry.emit")
    recorder.patch(grid.telemetry.bus, "emit_event", "telemetry.emit")
    if grid.churn is not None:
        recorder.patch(grid.churn, "arrive", "churn.arrive")
        recorder.patch(grid.churn, "depart", "churn.depart")
