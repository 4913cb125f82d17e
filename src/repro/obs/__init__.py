"""Unified observability: metrics registry, span tracing, run records.

See DESIGN.md "Observability" for the instrument naming scheme, span
model, and run-record schema.  Quick tour:

* :func:`global_registry` — process-local counters/gauges/histograms that
  every subsystem (``em.trace_cache``, ``em.raytracer``, ``core.basis``,
  ``control.protocol``, ``core.controller``) registers instruments in.
* :func:`global_tracer` — one span model for phases and requests alike:
  every span gets an id and a parent from the :class:`RequestContext`
  bound in one context variable (:func:`bind_context`), so a request's
  spans stitch into one timeline (:func:`stitch_timeline`) across tasks
  and processes.
* :class:`RunRecorder` — assembles one schema-validated JSONL run record
  per experiment, merging parent and worker observability deltas.
* :func:`set_enabled` / ``REPRO_OBS=0`` — global on/off switch; results
  are bit-identical either way (instruments never touch random streams).
"""

from .metrics import (
    Counter,
    CounterHandle,
    Gauge,
    GaugeHandle,
    Histogram,
    HistogramHandle,
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
    counter_handle,
    enabled,
    gauge_handle,
    global_registry,
    histogram_handle,
    log_bin_edges,
    merge_snapshots,
    monotonic_s,
    reset_metrics,
    set_enabled,
)
from .records import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ObsSample,
    RunRecorder,
    append_record,
    current_sample,
    merge_samples,
    read_records,
    run_metadata,
    validate_record,
)
from .tracing import (
    RequestCapture,
    RequestContext,
    RequestTraceStore,
    SpanRecord,
    SpanSummary,
    SpanTracer,
    bind_context,
    current_context,
    global_tracer,
    merge_span_summaries,
    new_request_id,
    new_span_id,
    reset_tracing,
    stitch_timeline,
)

__all__ = [
    "Counter",
    "CounterHandle",
    "Gauge",
    "GaugeHandle",
    "Histogram",
    "HistogramHandle",
    "HistogramState",
    "MetricsRegistry",
    "MetricsSnapshot",
    "counter_handle",
    "enabled",
    "gauge_handle",
    "global_registry",
    "histogram_handle",
    "log_bin_edges",
    "merge_snapshots",
    "monotonic_s",
    "reset_metrics",
    "set_enabled",
    "SpanRecord",
    "SpanSummary",
    "SpanTracer",
    "global_tracer",
    "merge_span_summaries",
    "new_span_id",
    "reset_tracing",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ObsSample",
    "RunRecorder",
    "append_record",
    "current_sample",
    "merge_samples",
    "read_records",
    "run_metadata",
    "validate_record",
    "RequestCapture",
    "RequestContext",
    "RequestTraceStore",
    "bind_context",
    "current_context",
    "new_request_id",
    "stitch_timeline",
]


def reset_observability(clear: bool = False) -> None:
    """Zero the global registry and tracer (tests/benchmarks).

    ``clear=True`` replaces both objects outright, dropping instruments
    and sinks registered since import — full isolation between test
    phases.  Library modules hold stale-proof handles
    (:func:`counter_handle` and friends), so their recording continues
    seamlessly into the fresh registry, and a serving
    :class:`RequestTraceStore` re-attaches to the fresh tracer on its
    next request.
    """
    reset_metrics(clear=clear)
    reset_tracing(clear=clear)


__all__.append("reset_observability")
