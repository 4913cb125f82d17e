"""Unit tests for the span model's contexts and request tracing, and handles."""

from __future__ import annotations

import asyncio
import os
import pickle

import pytest

from repro.obs import reset_observability, tracing
from repro.obs.metrics import (
    counter_handle,
    gauge_handle,
    global_registry,
    histogram_handle,
    set_enabled,
)
from repro.obs.records import validate_record
from repro.obs.tracing import (
    RequestCapture,
    RequestContext,
    RequestTraceStore,
    SpanRecord,
    bind_context,
    current_context,
    global_tracer,
    new_request_id,
    new_span_id,
    stitch_timeline,
)


@pytest.fixture(autouse=True)
def _clean_observability():
    reset_observability()
    previous = set_enabled(True)
    yield
    set_enabled(previous)
    reset_observability()


_SPAN_OUTER = "test.outer"
_SPAN_INNER = "test.inner"
_SPAN_EXPLICIT = "test.explicit"


# ---------------------------------------------------------------------------
# Contexts and ids
# ---------------------------------------------------------------------------


def test_request_context_wire_roundtrip():
    # The frozen context is its own wire form: pool payloads pickle it.
    context = RequestContext(request_id="r1", parent_span_id="abc-1")
    assert pickle.loads(pickle.dumps(context)) == context
    bare = RequestContext(request_id="r2")
    assert pickle.loads(pickle.dumps(bare)) == bare


def test_new_request_id_is_unique_and_pid_tagged():
    first, second = new_request_id(), new_request_id()
    assert first != second
    assert first.startswith(f"r{os.getpid():x}-")
    assert second.startswith(f"r{os.getpid():x}-")


def test_new_span_id_embeds_pid():
    sid = new_span_id()
    pid_hex, _, seq = sid.partition("-")
    assert int(pid_hex, 16) == os.getpid()
    assert seq
    assert new_span_id() != sid


def test_bind_context_scoping():
    assert current_context() is None
    context = RequestContext(request_id="r-bind")
    with bind_context(context):
        assert current_context() == context
        with bind_context(None):
            assert current_context() is None
        assert current_context() == context
    assert current_context() is None


# ---------------------------------------------------------------------------
# Request spans
# ---------------------------------------------------------------------------


def test_request_span_parents_nested_children():
    context = RequestContext(request_id="r-span")
    with bind_context(context):
        with global_tracer().span(_SPAN_OUTER):
            with global_tracer().span(_SPAN_INNER):
                pass
    records = [
        r for r in global_tracer().records() if r.request_id == "r-span"
    ]
    by_name = {r.name: r for r in records}
    assert set(by_name) == {_SPAN_OUTER, _SPAN_INNER}
    outer, inner = by_name[_SPAN_OUTER], by_name[_SPAN_INNER]
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert outer.pid == os.getpid()


def test_span_noop_when_disabled(monkeypatch):
    set_enabled(False)

    def no_clock():
        raise AssertionError("a disabled span read the clock")

    monkeypatch.setattr(tracing.time, "perf_counter", no_clock)
    with bind_context(RequestContext(request_id="r-off")):
        with global_tracer().span(_SPAN_OUTER):
            assert current_context() == RequestContext(request_id="r-off")
    assert global_tracer().records() == ()


def test_span_outside_request_nests_by_id():
    with global_tracer().span(_SPAN_OUTER):
        with global_tracer().span(_SPAN_INNER):
            pass
    inner, outer = global_tracer().records()
    assert (inner.request_id, outer.request_id) == (None, None)
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert current_context() is None


def test_emit_request_span_explicit_ids():
    context = RequestContext(request_id="r-emit", parent_span_id="p-1")
    sid = global_tracer().emit_span(_SPAN_EXPLICIT, 1.0, 2.5, context)
    assert sid is not None
    (record,) = global_tracer().records()
    assert record.span_id == sid
    assert record.parent_id == "p-1"
    assert record.request_id == "r-emit"
    assert record.duration_s == pytest.approx(1.5)
    # Explicit span_id, e.g. one batch span shared by every member.
    shared = new_span_id()
    sid2 = global_tracer().emit_span(
        _SPAN_EXPLICIT, 2.5, 3.0, RequestContext("r-emit", "x"), span_id=shared
    )
    assert sid2 == shared
    assert global_tracer().records()[-1].parent_id == "x"
    # Without an explicit context the bound one applies.
    with bind_context(context):
        global_tracer().emit_span(_SPAN_EXPLICIT, 3.0, 3.5)
    assert global_tracer().records()[-1].parent_id == "p-1"


def test_emit_request_span_disabled_returns_none():
    set_enabled(False)
    context = RequestContext(request_id="r-emit-off")
    assert global_tracer().emit_span(_SPAN_EXPLICIT, 0.0, 1.0, context) is None


def test_interleaved_tasks_parent_on_their_own_spans():
    # Two tasks nest spans across awaits, interleaving on one loop: each
    # child must parent on its own task's outer span.
    async def worker(request_id):
        with bind_context(RequestContext(request_id=request_id)):
            with global_tracer().span(_SPAN_OUTER):
                await asyncio.sleep(0)
                with global_tracer().span(_SPAN_INNER):
                    await asyncio.sleep(0)
                await asyncio.sleep(0)

    async def main():
        await asyncio.gather(worker("r-a"), worker("r-b"))

    asyncio.run(main())
    records = global_tracer().records()
    assert [r.name for r in records] == [_SPAN_INNER] * 2 + [_SPAN_OUTER] * 2
    for request_id in ("r-a", "r-b"):
        mine = {r.name: r for r in records if r.request_id == request_id}
        assert mine[_SPAN_INNER].parent_id == mine[_SPAN_OUTER].span_id
        assert mine[_SPAN_OUTER].parent_id is None


# ---------------------------------------------------------------------------
# Capture and store
# ---------------------------------------------------------------------------


def test_request_capture_filters_by_request_id():
    mine = RequestContext(request_id="r-mine")
    other = RequestContext(request_id="r-other")
    with RequestCapture("r-mine") as capture:
        with bind_context(mine), global_tracer().span(_SPAN_OUTER):
            pass
        with bind_context(other), global_tracer().span(_SPAN_OUTER):
            pass
    assert [r.request_id for r in capture.records] == ["r-mine"]
    # Sink removed on exit: later spans are not captured.
    with bind_context(mine), global_tracer().span(_SPAN_INNER):
        pass
    assert len(capture.records) == 1


def test_trace_store_collects_and_evicts_oldest():
    store = RequestTraceStore(capacity=2)
    for rid in ("r1", "r2", "r3"):
        store.add(
            SpanRecord(
                name=_SPAN_OUTER,
                start_s=0.0,
                duration_s=1.0,
                span_id=new_span_id(),
                request_id=rid,
            )
        )
    assert list(store.traces()) == ["r2", "r3"]
    drained = store.drain()
    assert set(drained) == {"r2", "r3"}
    assert len(store) == 0


def test_trace_store_sink_ignores_classic_spans():
    store = RequestTraceStore()
    store.sink(
        SpanRecord(name=_SPAN_OUTER, start_s=0.0, duration_s=1.0)
    )
    assert len(store) == 0


def test_trace_store_rejects_bad_capacity():
    with pytest.raises(ValueError):
        RequestTraceStore(capacity=0)


def test_trace_store_follows_replaced_tracer():
    store = RequestTraceStore()
    store.attach()
    context = RequestContext(request_id="r-before")
    global_tracer().emit_span(_SPAN_OUTER, 0.0, 1.0, context)
    reset_observability(clear=True)
    store.attach()
    global_tracer().emit_span(_SPAN_OUTER, 0.0, 1.0, RequestContext("r-after"))
    assert list(store.traces()) == ["r-before", "r-after"]
    store.detach()
    global_tracer().emit_span(_SPAN_OUTER, 0.0, 1.0, RequestContext("r-late"))
    assert "r-late" not in store.traces()


def test_old_v2_span_dict_with_parent_and_depth_loads():
    # Records written before the merge carry name-stack parent/depth.
    old = {
        "name": "serve.queue",
        "start_s": 0.5,
        "duration_s": 0.25,
        "parent": "serve.request",
        "depth": 1,
        "span_id": "a-2",
        "parent_id": "a-1",
        "request_id": "r-old",
        "pid": 7,
    }
    record = SpanRecord.from_dict(old)
    assert record == SpanRecord("serve.queue", 0.5, 0.25, "a-2", "a-1", "r-old", 7)
    assert SpanRecord.from_dict(record.as_dict()) == record
    v2 = {
        "schema_version": 2,
        "experiment": "x",
        "created_at": "2026-01-01T00:00:00",
        "wall_s": 0.5,
        "jobs": None,
        "workers": 0,
        "config": {},
        "seeds": {},
        "observability_enabled": True,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": {},
        "meta": {"python": "3.x"},
        "request_traces": {"r-old": [old]},
    }
    assert validate_record(v2) == []


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------


def _record(name, span_id, parent_id=None, pid=1):
    return SpanRecord(
        name=name,
        start_s=0.0,
        duration_s=1.0,
        span_id=span_id,
        parent_id=parent_id,
        request_id="r-stitch",
        pid=pid,
    )


def test_stitch_timeline_orders_parent_before_child_across_pids():
    # Emission order scrambled; stitching must follow parent_id only.
    records = [
        _record("task.worker", "b-1", parent_id="a-2", pid=2),
        _record("serve.request", "a-1", pid=1),
        _record("serve.batch_member", "a-2", parent_id="a-1", pid=1),
    ]
    ordered = stitch_timeline(records)
    assert [r.span_id for r in ordered] == ["a-1", "a-2", "b-1"]


def test_stitch_timeline_handles_cycles_and_orphans():
    cyclic = [
        _record("a", "s-1", parent_id="s-2"),
        _record("b", "s-2", parent_id="s-1"),
    ]
    ordered = stitch_timeline(cyclic)
    assert {r.span_id for r in ordered} == {"s-1", "s-2"}
    orphan = _record("c", "s-3", parent_id="gone")
    ordered = stitch_timeline([orphan])
    assert ordered == [orphan]  # unknown parent -> treated as a root


# ---------------------------------------------------------------------------
# Stale-proof handles (satellite: reset_observability regression)
# ---------------------------------------------------------------------------


def test_handles_survive_reset_observability():
    counter = counter_handle("test.handle.hits")
    gauge = gauge_handle("test.handle.depth")
    histogram = histogram_handle("test.handle.wait_s")
    counter.inc(3)
    gauge.set(7.0)
    histogram.observe(0.5)
    # The regression: reset replaces the registry object outright; stale
    # handles used to keep feeding the dead registry silently.
    reset_observability(clear=True)
    counter.inc(2)
    gauge.set(4.0)
    histogram.observe(0.25)
    snapshot = global_registry().snapshot()
    assert snapshot.counters["test.handle.hits"] == 2
    assert snapshot.gauges["test.handle.depth"] == 4.0
    assert snapshot.histograms["test.handle.wait_s"].count == 1


def test_handles_shared_between_factory_and_registry():
    counter = counter_handle("test.handle.shared")
    global_registry().counter("test.handle.shared").inc(5)
    counter.inc()
    assert global_registry().snapshot().counters["test.handle.shared"] == 6
