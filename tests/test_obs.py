"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.em.antennas import IsotropicAntenna
from repro.em.geometry import Point
from repro.em.trace_cache import TraceCache
from repro.obs import reset_observability
from repro.obs.metrics import (
    Histogram,
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
    enabled,
    global_registry,
    log_bin_edges,
    merge_snapshots,
    set_enabled,
)
from repro.obs.records import (
    RunRecorder,
    SpanSummary,
    merge_samples,
    read_records,
    run_metadata,
    validate_record,
)
from repro.obs.tracing import (
    SpanTracer,
    global_tracer,
    merge_span_summaries,
)


@pytest.fixture(autouse=True)
def _clean_observability():
    """Each test starts and ends with fresh global instruments."""
    reset_observability()
    previous = set_enabled(True)
    yield
    set_enabled(previous)
    reset_observability()


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_counter_and_gauge_roundtrip():
    registry = MetricsRegistry()
    counter = registry.counter("test.hits")
    counter.inc()
    counter.inc(4)
    gauge = registry.gauge("test.level")
    gauge.set(7)
    snap = registry.snapshot()
    assert snap.counters["test.hits"] == 5
    assert snap.gauges["test.level"] == 7.0


def test_registry_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_histogram_re_registration_with_different_edges_raises():
    registry = MetricsRegistry()
    registry.histogram("h", lo=1e-6, hi=1e3)
    with pytest.raises(ValueError):
        registry.histogram("h", lo=1e-3, hi=1e3)


def test_log_bin_edges_are_deterministic_and_sorted():
    edges_a = log_bin_edges(1e-6, 1e3, 3)
    edges_b = log_bin_edges(1e-6, 1e3, 3)
    assert edges_a == edges_b  # bit-identical, not just approximately
    assert list(edges_a) == sorted(edges_a)
    # 9 decades x 3 bins/decade spans 27 intervals -> 28 edges.
    assert len(edges_a) == 28


def test_histogram_observe_places_values_in_bins():
    hist = Histogram("h", log_bin_edges(1e-3, 1e3, 1))
    hist.observe(1e-5)  # underflow
    hist.observe(0.5)
    hist.observe(2.0)
    hist.observe(1e6)  # overflow
    state = hist.state()
    assert state.count == 4
    assert state.counts[0] == 1  # underflow bin
    assert state.counts[-1] == 1  # overflow bin
    assert sum(state.counts) == 4
    assert state.min == 1e-5
    assert state.max == 1e6
    assert state.sum == pytest.approx(1e6 + 2.5 + 1e-5)


def test_snapshot_delta_isolates_a_window():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    hist = registry.histogram("h")
    counter.inc(3)
    hist.observe(1.0)
    before = registry.snapshot()
    counter.inc(2)
    hist.observe(2.0)
    hist.observe(3.0)
    delta = registry.snapshot().delta(before)
    assert delta.counters["c"] == 2
    assert delta.histograms["h"].count == 2
    assert delta.histograms["h"].sum == pytest.approx(5.0)


def test_disabled_instruments_record_nothing():
    set_enabled(False)
    registry = MetricsRegistry()
    counter = registry.counter("c")
    hist = registry.histogram("h")
    gauge = registry.gauge("g")
    counter.inc(10)
    hist.observe(1.0)
    gauge.set(5)
    snap = registry.snapshot()
    assert snap.counters["c"] == 0
    assert snap.histograms["h"].count == 0
    assert snap.gauges["g"] == 0.0
    assert not enabled()


# ---------------------------------------------------------------------------
# Histogram / snapshot merge algebra
# ---------------------------------------------------------------------------


def _histogram_state_from(values) -> HistogramState:
    hist = Histogram("h", log_bin_edges(1e-3, 1e3, 2))
    for value in values:
        hist.observe(value)
    return hist.state()


def test_histogram_merge_is_associative_and_commutative():
    # Dyadic values make float sums exactly associative, so merged states
    # can be compared for full equality rather than approximately.
    parts = [
        _histogram_state_from([0.5, 2.0, 1024.0]),
        _histogram_state_from([0.25, 8.0]),
        _histogram_state_from([1e-5, 4.0, 0.125]),
    ]

    def merge_all(states):
        out = states[0]
        for state in states[1:]:
            out = out.merged(state)
        return out

    reference = merge_all(parts)
    for perm in itertools.permutations(parts):
        assert merge_all(list(perm)) == reference
    # Grouping permutations: (a+b)+c == a+(b+c).
    a, b, c = parts
    assert a.merged(b).merged(c) == a.merged(b.merged(c))
    assert reference.count == 8
    assert sum(reference.counts) == 8
    assert reference.min == 1e-5
    assert reference.max == 1024.0


def test_histogram_merge_rejects_mismatched_edges():
    a = Histogram("a", log_bin_edges(1e-3, 1e3, 1)).state()
    b = Histogram("b", log_bin_edges(1e-6, 1e3, 1)).state()
    with pytest.raises(ValueError):
        a.merged(b)


def test_snapshot_merge_associativity_with_grouping():
    def snap(counter_value, hist_values):
        registry = MetricsRegistry()
        registry.counter("c").inc(counter_value)
        hist = registry.histogram("h", lo=1e-3, hi=1e3, bins_per_decade=2)
        for value in hist_values:
            hist.observe(value)
        return registry.snapshot()

    parts = [snap(1, [0.5]), snap(2, [2.0, 4.0]), snap(4, [8.0])]
    for perm in itertools.permutations(parts):
        merged = merge_snapshots(perm)
        assert merged.counters["c"] == 7
        assert merged.histograms["h"].count == 4
    a, b, c = parts
    left = a.merged(b).merged(c)
    right = a.merged(b.merged(c))
    assert left.counters == right.counters
    assert left.histograms["h"] == right.histograms["h"]


def test_snapshot_dict_roundtrip():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(2.5)
    registry.histogram("h").observe(0.1)
    snap = registry.snapshot()
    restored = MetricsSnapshot.from_dict(snap.as_dict())
    assert restored.counters == snap.counters
    assert restored.gauges == snap.gauges
    assert restored.histograms == snap.histograms


# ---------------------------------------------------------------------------
# Span tracing
# ---------------------------------------------------------------------------


def test_span_nesting_records_parent_and_depth():
    tracer = SpanTracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    records = tracer.records()
    assert [r.name for r in records] == ["inner", "outer"]
    inner, outer = records
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert inner.span_id != outer.span_id
    assert outer.duration_s >= inner.duration_s >= 0.0


def test_span_ring_buffer_keeps_aggregates_past_eviction():
    tracer = SpanTracer(capacity=4)
    for _ in range(10):
        with tracer.span("s"):
            pass
    assert len(tracer.records()) == 4
    summary = tracer.summaries()["s"]
    assert summary.count == 10
    assert summary.total_s >= 0.0


def test_disabled_tracer_records_nothing():
    set_enabled(False)
    tracer = SpanTracer()
    with tracer.span("s"):
        pass
    assert tracer.records() == ()
    assert tracer.summaries() == {}


def test_span_summary_merge_and_delta():
    a = SpanSummary(name="s", count=2, total_s=1.0, min_s=0.25, max_s=0.75)
    b = SpanSummary(name="s", count=3, total_s=2.0, min_s=0.125, max_s=1.5)
    merged = a.merged(b)
    assert merged.count == 5
    assert merged.total_s == pytest.approx(3.0)
    assert merged.min_s == 0.125
    assert merged.max_s == 1.5
    delta = merged.delta(a)
    assert delta.count == 3
    assert delta.total_s == pytest.approx(2.0)
    combined = merge_span_summaries([{"s": a}, {"s": b}])
    assert combined["s"] == merged


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


def test_run_recorder_writes_valid_jsonl(tmp_path):
    path = tmp_path / "records.jsonl"
    with RunRecorder(
        "unit_test",
        config={"alpha": 1},
        path=str(path),
        jobs=1,
        seeds={"seed": 42},
    ):
        global_registry().counter("test.work").inc(3)
        with global_tracer().span("unit.phase"):
            pass
    records = read_records(str(path))
    assert len(records) == 1
    record = records[0]
    assert validate_record(record) == []
    assert record["experiment"] == "unit_test"
    assert record["config"] == {"alpha": 1}
    assert record["seeds"] == {"seed": 42}
    assert record["metrics"]["counters"]["test.work"] == 3
    assert "unit.phase" in record["spans"]
    assert record["wall_s"] >= 0.0


def test_run_recorder_delta_excludes_prior_activity(tmp_path):
    global_registry().counter("test.before").inc(5)
    path = tmp_path / "records.jsonl"
    with RunRecorder("unit_test", path=str(path)):
        global_registry().counter("test.during").inc(1)
    record = read_records(str(path))[0]
    assert record["metrics"]["counters"].get("test.before", 0) == 0
    assert record["metrics"]["counters"]["test.during"] == 1


def test_run_recorder_skips_write_on_exception(tmp_path):
    path = tmp_path / "records.jsonl"
    with pytest.raises(RuntimeError):
        with RunRecorder("unit_test", path=str(path)):
            raise RuntimeError("boom")
    assert not path.exists()


def test_validate_record_flags_malformed_records():
    assert validate_record({"schema_version": 1}) != []
    assert validate_record("not a dict") != []
    good = {
        "schema_version": 1,
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
    }
    assert validate_record(good) == []
    bad = dict(good, wall_s="fast")
    assert any("wall_s" in err for err in validate_record(bad))


def test_read_records_reports_bad_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(ValueError, match=r"records\.jsonl:2"):
        read_records(str(path))


def test_merge_samples_sums_counters_across_pids():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.gauge("g").set(3)
    base = registry.snapshot()
    tracer = SpanTracer()
    with tracer.span("s"):
        pass
    from repro.obs.records import ObsSample

    sample_a = ObsSample(metrics=base, spans=tracer.summaries(), pid=100)
    sample_b = ObsSample(metrics=base, spans=tracer.summaries(), pid=200)
    merged = merge_samples([sample_a, sample_b])
    assert merged.metrics.counters["c"] == 4
    # Gauges sum across distinct pids (total residency), not max.
    assert merged.metrics.gauges["g"] == 6.0
    assert merged.spans["s"].count == 2


def test_run_metadata_has_versions():
    meta = run_metadata()
    assert isinstance(meta["python"], str)
    assert isinstance(meta["numpy"], str)


def test_record_is_json_serialisable_with_numpy_config(tmp_path):
    path = tmp_path / "records.jsonl"
    with RunRecorder(
        "unit_test",
        config={"width": np.int64(4), "gain": np.float64(1.5)},
        path=str(path),
    ):
        pass
    line = path.read_text().strip()
    record = json.loads(line)
    assert record["config"] == {"width": 4, "gain": 1.5}


# ---------------------------------------------------------------------------
# TraceCache counters (satellite b)
# ---------------------------------------------------------------------------


def _tiny_tracer():
    from repro.em.raytracer import RayTracer
    from repro.em.scene import shoebox_scene

    return RayTracer(shoebox_scene(width=6.0, height=5.0), max_bounces=1)


def test_trace_cache_counts_evictions_and_resets():
    tracer = _tiny_tracer()
    cache = TraceCache(maxsize=2)
    antenna = IsotropicAntenna()
    points = [Point(1.0 + 0.1 * i, 1.0) for i in range(3)]
    tx = Point(2.0, 2.0)
    for point in points:
        cache.get_or_trace(tracer, tx, point, antenna, antenna)
    assert cache.misses == 3
    assert cache.evictions == 1  # each trace stores its wall part
    assert len(cache) == 2
    cache.get_or_trace(tracer, tx, points[-1], antenna, antenna)
    assert cache.hits == 1
    cache.reset_counters()
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
    assert len(cache) == 2  # reset_counters keeps entries


def test_trace_cache_batch_path_hits_and_misses():
    tracer = _tiny_tracer()
    cache = TraceCache(maxsize=8)
    antenna = IsotropicAntenna()
    tx = Point(2.0, 2.0)
    rx_points = [Point(1.0, 1.0), Point(3.0, 1.5)]
    first = cache.get_or_trace_batch(tracer, tx, rx_points, antenna, antenna)
    assert cache.misses == 1 and cache.hits == 0
    second = cache.get_or_trace_batch(tracer, tx, rx_points, antenna, antenna)
    assert cache.hits == 1
    assert first is second

    snap = global_registry().snapshot()
    assert snap.counters["em.trace_cache.batch_misses"] == 1
    assert snap.counters["em.trace_cache.batch_hits"] == 1
