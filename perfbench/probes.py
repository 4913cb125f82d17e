"""Where the traced run attaches to the program, and what it reports.

:func:`install` wraps the public entry points of each layer with a
:class:`~perfbench.layers.LayerTracer` and meters what the serving layer
ships to its worker pool.  :func:`layer_metrics` turns the gathered
timings, the program's own counters and its request spans into the
per-layer metrics listed in ``BENCHMARK.json``.  A metric whose layer a
workload never reaches in this process reads 0.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Optional

from . import stats
from .layers import LayerStats, LayerTracer

#: Per-layer metrics: name -> (unit, better).  ``BENCHMARK.json`` lists
#: the same names; a test keeps the two in step.
PER_LAYER = {
    "em.trace_calls": ("count", "lower"),
    "em.trace_ms_per_call": ("ms", "lower"),
    "em.cache_hit_frac": ("frac", "higher"),
    "core.basis.flips": ("count", "lower"),
    "core.basis.flip_us": ("us", "lower"),
    "core.basis.element_scan_us": ("us", "lower"),
    "core.basis.ml_flip_us": ("us", "lower"),
    "core.basis.ml_element_scan_us": ("us", "lower"),
    "core.basis.evaluate_us_per_row": ("us", "lower"),
    "core.basis.busy_frac": ("frac", "lower"),
    "core.search.soundings_per_round": ("count", "lower"),
    "core.search.self_ms_per_round": ("ms", "lower"),
    "core.joint.measurements_per_round": ("count", "lower"),
    "core.joint.self_ms_per_round": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.session_hit_frac": ("frac", "higher"),
    "serve.queue_wait_ms_p50": ("ms", "lower"),
    "serve.queue_wait_ms_p99": ("ms", "lower"),
    "serve.loop_busy_frac": ("frac", "lower"),
    "serve.search_compute_ms_p50": ("ms", "lower"),
    "serve.search_handoff_ms_p50": ("ms", "lower"),
    "serve.unattributed_frac": ("frac", "lower"),
    "serve.rejected_frac": ("frac", "lower"),
    "runner.tasks": ("count", "lower"),
    "runner.ship_bytes_per_task": ("B", "lower"),
    "obs.spans_per_request": ("count", "lower"),
    "bench.trace_overhead_frac": ("frac", "lower"),
}

_EM = ("Testbed.bases_for_points", "ChannelBasis.trace_chunked")
_FLIP = ("DeltaEvaluator.flip", "DeltaEvaluator.flip_many")
_ML_FLIP = ("MultiLinkDeltaEvaluator.flip", "MultiLinkDeltaEvaluator.flip_many")


def pickled_size(obj: object) -> int:
    """Bytes ``obj`` pickles to, array buffers included but not copied."""
    buffers: list = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return len(data) + sum(buffer.raw().nbytes for buffer in buffers)


class ShipMeter:
    """Executor proxy recording the pickled size of every submitted call."""

    def __init__(self) -> None:
        self.pool = None
        self.sizes: list[int] = []

    def submit(self, fn, /, *args):
        self.sizes.append(pickled_size((fn, args)))
        return self.pool.submit(fn, *args)


@dataclass
class Probes:
    """Installed wrappers plus what they observed."""

    tracer: LayerTracer
    meter: ShipMeter
    rows: int = 0
    soundings: list = field(default_factory=list)
    measurements: list = field(default_factory=list)

    def take(self) -> tuple[LayerStats, int, list, list, list]:
        """Observations since the last take, then start afresh."""
        out = (self.tracer.take(), self.rows, self.soundings, self.measurements, self.meter.sizes)
        self.rows = 0
        self.soundings, self.measurements, self.meter.sizes = [], [], []
        return out


def install() -> Probes:
    from repro.core import basis
    from repro.core.search import Searcher
    from repro.sdr.testbed import Testbed
    from repro.serve import service, work

    probes = Probes(tracer=LayerTracer(), meter=ShipMeter())
    wrap = probes.tracer.wrap

    def count_rows(cfr) -> None:
        probes.rows += int(cfr.shape[0])

    wrap(Testbed, "bases_for_points", _EM[0], "em")
    wrap(basis.ChannelBasis, "trace_chunked", _EM[1], "em")
    for cls in (basis.DeltaEvaluator, basis.MultiLinkDeltaEvaluator):
        for method in ("flip", "flip_many", "scores_for_element"):
            wrap(cls, method, f"{cls.__name__}.{method}", "core.basis")
    wrap(basis.ChannelBasis, "evaluate", "ChannelBasis.evaluate", "core.basis", count_rows)
    wrap(
        Searcher, "search_basis", "Searcher.search_basis", "core.search",
        lambda result: probes.soundings.append(result.num_evaluations),
    )
    wrap(
        work, "optimize_joint", "optimize_joint", "core.joint",
        lambda result: probes.measurements.append(result.num_measurements),
    )

    real_pool = service.shared_pool

    def metered_pool(jobs):
        pool = real_pool(jobs)
        if pool is None:
            return None
        probes.meter.pool = pool
        return probes.meter

    probes.tracer.replace(service, "shared_pool", metered_pool)
    return probes


def registry_counters() -> dict:
    from repro.obs.metrics import global_registry

    return dict(global_registry().snapshot().counters)


def counters_since(before: dict) -> dict:
    """Program counter increments since the ``before`` snapshot."""
    after = registry_counters()
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class ServeSpans:
    """Per-request stage durations read from the service's span records."""

    queue_ms: list = field(default_factory=list)
    search_compute_ms: list = field(default_factory=list)
    search_handoff_ms: list = field(default_factory=list)
    latency_s: list = field(default_factory=list)
    stages_s: list = field(default_factory=list)
    spans_per_request: list = field(default_factory=list)


def layer_metrics(
    setup: LayerStats,
    run: LayerStats,
    rows: int,
    soundings: list,
    measurements: list,
    ship_sizes: list,
    rounds: int,
    busy_base_s: float,
    counters: dict,
    spans: Optional[ServeSpans],
    trace_overhead: float,
) -> dict:
    """Every :data:`PER_LAYER` metric from one traced phase.

    ``setup`` covers the traced cold build, ``run`` the timed phase after
    it; ``busy_base_s`` is the phase's summed operation time, which busy
    shares are taken of.
    """
    both = setup.merged(run)
    em_calls = sum(both.calls[s] for s in _EM)
    hits = counters.get("em.trace_cache.hits", 0) + counters.get("em.trace_cache.batch_hits", 0)
    misses = counters.get("em.trace_cache.misses", 0) + counters.get("em.trace_cache.batch_misses", 0)
    batches = counters.get("serve.batches", 0)
    admitted = counters.get("serve.requests", 0)
    rejected = counters.get("serve.rejections", 0)
    session_hits = counters.get("serve.session_hits", 0)
    session_misses = counters.get("serve.session_misses", 0)
    spans = spans or ServeSpans()

    def p(values: list, q: float) -> float:
        if stats.supports(len(values), 50.0):
            return stats.tail(values, q)[1]
        return stats.median(values) if values else 0.0

    metrics = {
        "em.trace_calls": em_calls,
        "em.trace_ms_per_call": 1e3 * _share(sum(both.total_s[s] for s in _EM), em_calls),
        "em.cache_hit_frac": _share(hits, hits + misses),
        "core.basis.flips": _share(sum(run.calls[s] for s in _FLIP), rounds),
        "core.basis.flip_us": run.mean_us(*_FLIP),
        "core.basis.element_scan_us": run.mean_us("DeltaEvaluator.scores_for_element"),
        "core.basis.ml_flip_us": run.mean_us(*_ML_FLIP),
        "core.basis.ml_element_scan_us": run.mean_us("MultiLinkDeltaEvaluator.scores_for_element"),
        "core.basis.evaluate_us_per_row": 1e6 * _share(run.total_s["ChannelBasis.evaluate"], rows),
        "core.basis.busy_frac": _share(run.layer_s["core.basis"], busy_base_s),
        "core.search.soundings_per_round": _share(sum(soundings), len(soundings)),
        "core.search.self_ms_per_round": 1e3 * _share(run.self_s["Searcher.search_basis"], run.calls["Searcher.search_basis"]),
        "core.joint.measurements_per_round": _share(sum(measurements), len(measurements)),
        "core.joint.self_ms_per_round": 1e3 * _share(run.self_s["optimize_joint"], run.calls["optimize_joint"]),
        "serve.batch_size_mean": _share(counters.get("serve.batched_requests", 0), batches),
        "serve.session_hit_frac": _share(session_hits, session_hits + session_misses),
        "serve.queue_wait_ms_p50": p(spans.queue_ms, 50),
        "serve.queue_wait_ms_p99": p(spans.queue_ms, 99),
        "serve.loop_busy_frac": _share(run.busy_s, busy_base_s) if spans.latency_s else 0.0,
        "serve.search_compute_ms_p50": p(spans.search_compute_ms, 50),
        "serve.search_handoff_ms_p50": p(spans.search_handoff_ms, 50),
        "serve.unattributed_frac": stats.unattributed_share(spans.latency_s, spans.stages_s),
        "serve.rejected_frac": _share(rejected, admitted + rejected),
        "runner.tasks": len(ship_sizes),
        "runner.ship_bytes_per_task": _share(sum(ship_sizes), len(ship_sizes)),
        "obs.spans_per_request": _share(sum(spans.spans_per_request), len(spans.spans_per_request)),
        "bench.trace_overhead_frac": trace_overhead,
    }
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return {name: float(value) for name, value in metrics.items()}
