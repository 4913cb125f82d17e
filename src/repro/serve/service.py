"""The in-process environment service: micro-batcher, shards, backpressure.

``EnvironmentService`` fronts the repo's primitives (configuration
evaluation, actuation, sounding sweeps, large-array search, coverage
grids) as a long-running asyncio service.  Three mechanisms carry the
perf story:

1. **Micro-batching** — concurrent ``evaluate``/``actuate`` requests for
   the same scenario are coalesced, within a bounded window
   (``batch_window_s``, capped at ``max_batch``), into *one* vectorized
   basis evaluation.  Per-request work collapses from one full numpy
   dispatch each to one shared gather + SNR map.  Determinism is free:
   the basis evaluation is row-independent (see
   :meth:`~repro.serve.scenarios.ScenarioSession.snr_rows`), so batch
   composition — and therefore arrival interleaving — cannot change any
   individual response.
2. **Scenario-sharded sessions** — requests are routed by their
   :class:`~repro.serve.scenarios.ScenarioSpec` value to a per-scenario
   shard; the first request builds the scene + basis once
   (:func:`~repro.serve.scenarios.build_session`), later ones reuse it.
   Sessions live in a bounded LRU; geometry traces additionally sit in
   the process-wide :func:`~repro.em.trace_cache.global_trace_cache`, so
   even a rebuilt session skips re-tracing.  Every other request
   (sweep, search, joint, coverage) takes one path through
   :func:`compute`: inline on the service's session, or, when
   ``search_jobs`` asks for a pool, on a worker of the persistent shared
   pools of :mod:`repro.experiments.runner` that keeps its own sessions,
   so only the request crosses the pickle boundary.  Sweeps, small
   enough to cost less than the round trip, always run inline.  The
   non-coalesced members of one flush run concurrently.
3. **Backpressure** — at most ``max_pending`` requests may be queued
   (admitted but not yet flushed); beyond that :meth:`submit` raises
   :class:`ServiceOverloaded` immediately instead of letting latency
   grow without bound.  Rejections are synchronous and cheap, so a
   closed-loop client can retry on its own schedule.

Everything is single-event-loop and socket-free: tests and benchmarks
drive the service through :class:`ServiceClient` directly.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..em.geometry import Point
from ..experiments.runner import dispose_shared_pool, shared_pool, traced_call
from ..obs.export import TelemetryStreamer
from ..obs.metrics import (
    counter_handle,
    enabled,
    gauge_handle,
    histogram_handle,
    monotonic_s,
)
from ..obs.tracing import (
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
from ..sdr.testbed import sweep_basis_snr
from . import work
from .scenarios import ScenarioSession, ScenarioSpec, build_session

__all__ = [
    "ActuateRequest",
    "ActuateResult",
    "CoverageRequest",
    "CoverageResult",
    "EnvironmentService",
    "EvaluateRequest",
    "EvaluateResult",
    "JointLinkSpec",
    "JointOptimizeRequest",
    "JointOptimizeResult",
    "SearchRequest",
    "SearchResult",
    "ServiceClient",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceOverloaded",
    "SweepRequest",
    "SweepResult",
    "compute",
]

# Stale-proof handles, not raw instruments: a raw reference captured at
# import keeps recording into a dead registry after
# ``reset_observability(clear=True)`` while snapshots read fresh zeros.
# Handles re-resolve through the live registry (identity-cached, so the
# hot path pays one ``is`` check).
_REQUESTS = counter_handle("serve.requests")
_REJECTIONS = counter_handle("serve.rejections")
_ERRORS = counter_handle("serve.errors")
_BATCHES = counter_handle("serve.batches")
_BATCHED_REQUESTS = counter_handle("serve.batched_requests")
_SESSION_HITS = counter_handle("serve.session_hits")
_SESSION_MISSES = counter_handle("serve.session_misses")
_SESSION_EVICTIONS = counter_handle("serve.session_evictions")
_PENDING = gauge_handle("serve.pending")
_SESSIONS = gauge_handle("serve.sessions")

_SPAN_BATCH = "serve.batch"
_SPAN_SESSION_BUILD = "serve.session_build"
_SPAN_REQUEST = "serve.request"
_SPAN_QUEUE = "serve.queue"
_SPAN_BATCH_MEMBER = "serve.batch_member"


class ServiceOverloaded(RuntimeError):
    """Raised by :meth:`EnvironmentService.submit` when the pending queue
    is full — explicit load shedding instead of unbounded latency."""


class ServiceClosed(RuntimeError):
    """Raised when submitting to a service that has been closed."""


#: Scenario sessions kept hot by default: the service's LRU, and the
#: fixed bound of each pool worker's own session cache.
SESSION_CAPACITY = 8


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`EnvironmentService`.

    Attributes
    ----------
    batch_window_s:
        How long a shard's first queued request waits for company before
        its batch flushes.  ``0.0`` still coalesces: the flusher yields
        to the event loop once, so every request submitted in the same
        scheduling round joins the batch.
    max_batch:
        A shard flushes immediately once this many requests are queued,
        bounding both latency and the size of one vectorized evaluation.
    max_pending:
        Service-wide cap on admitted-but-unflushed requests; beyond it
        :meth:`EnvironmentService.submit` raises
        :class:`ServiceOverloaded`.
    session_capacity:
        How many scenario sessions stay hot in the service's LRU.  Pool
        workers keep at most :data:`SESSION_CAPACITY` each, whatever
        this is set to.
    search_jobs:
        Worker-pool sizing for search, joint and coverage requests, as
        in :func:`repro.experiments.runner.resolve_jobs` (``None``/``1``
        = inline in the event loop process, ``<= 0`` = all CPUs).  Pools
        are the persistent shared executors — no per-request spin-up.
        Sweeps always run inline: see :meth:`EnvironmentService._serve`.
    trace_sample:
        Deterministic request-trace sampling: every ``trace_sample``-th
        admitted request gets a full stitched span timeline (``1`` =
        every request, ``0`` = request tracing off).  The counter-based
        choice uses no entropy, the first admitted request is always
        sampled, and requests submitted under an explicitly bound
        context (``ServiceClient.bind``) are always traced regardless —
        the operator's force-trace hook.  Unsampled requests still feed
        the per-type latency histograms and counters; sampling bounds
        only the span-emission cost, keeping tracing overhead on the
        batched throughput path under its <3% budget.
    trace_capacity:
        How many distinct requests' stitched span timelines the service
        retains (oldest evicted wholesale beyond this).
    telemetry_path:
        When set, the service appends one JSONL telemetry sample
        (cumulative counters/gauges + histogram quantile digests, see
        :class:`repro.obs.export.TelemetryStreamer`) to this file every
        ``telemetry_interval_s`` while it runs — the stream ``repro top``
        tails.
    telemetry_interval_s:
        Sampling cadence of the telemetry stream.
    """

    batch_window_s: float = 0.0
    max_batch: int = 64
    max_pending: int = 256
    session_capacity: int = SESSION_CAPACITY
    search_jobs: Optional[int] = None
    trace_sample: int = 16
    trace_capacity: int = 256
    telemetry_path: Optional[str] = None
    telemetry_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if self.session_capacity <= 0:
            raise ValueError("session_capacity must be positive")
        if self.trace_sample < 0:
            raise ValueError("trace_sample must be >= 0")
        if self.trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")
        if self.telemetry_interval_s <= 0:
            raise ValueError("telemetry_interval_s must be positive")


# ---------------------------------------------------------------------------
# Request / result values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluateRequest:
    """Score a batch of configurations: mean used-subcarrier SNR each."""

    scenario: ScenarioSpec
    configurations: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EvaluateResult:
    scores_db: tuple[float, ...]


@dataclass(frozen=True)
class ActuateRequest:
    """Apply one configuration; observe the full per-subcarrier SNR."""

    scenario: ScenarioSpec
    configuration: tuple[int, ...]


@dataclass(frozen=True)
class ActuateResult:
    snr_db: tuple[float, ...]
    mean_used_snr_db: float


@dataclass(frozen=True)
class SweepRequest:
    """Exhaustive configuration sweep with optional coherence drift.

    ``seed=None`` is the drift-free deterministic sweep; an integer seed
    draws per-sounding drift from its own generator, so equal requests
    get equal answers regardless of what else the service is running.
    """

    scenario: ScenarioSpec
    repetitions: int = 1
    seed: Optional[int] = None
    drift_phase_rad: float = 0.0
    drift_amplitude: float = 0.0


@dataclass(frozen=True)
class SweepResult:
    """Per-configuration mean used-subcarrier SNR over all repetitions."""

    scores_db: tuple[float, ...]
    best_index: int


@dataclass(frozen=True)
class SearchRequest:
    """Run a named configuration searcher (greedy / rfocus / random)."""

    scenario: ScenarioSpec
    searcher: str = "greedy"
    seed: int = 0


@dataclass(frozen=True)
class SearchResult:
    best_configuration: tuple[int, ...]
    best_score_db: float
    num_evaluations: int


@dataclass(frozen=True)
class JointLinkSpec:
    """One tenant link in a joint-optimisation request.

    The link's receiver sits at an offset from the scenario's RX anchor
    (the same addressing coverage grids use), so a spec is a small pure
    value and the per-link geometry rides the process-wide trace cache.
    """

    name: str
    dx_m: float = 0.0
    dy_m: float = 0.0
    weight: float = 1.0


@dataclass(frozen=True)
class JointOptimizeRequest:
    """Optimise one scenario's array for several links at once.

    ``strategy`` picks the §2 spectrum point ("joint", "per-link" or
    "hybrid"), ``searcher`` a named configuration searcher (as in
    :class:`SearchRequest` — delta-powered on large arrays), and
    ``aggregate`` the joint scoring mode ("mean", "worst" or
    "lexicographic").  Deterministic: equal requests get bit-identical
    answers at any batch window, matching a direct
    :func:`repro.core.joint.optimize_joint` call over the same bases.
    """

    scenario: ScenarioSpec
    links: tuple[JointLinkSpec, ...]
    strategy: str = "joint"
    searcher: str = "greedy"
    seed: int = 0
    aggregate: str = "mean"
    tolerance: float = 1.0


@dataclass(frozen=True)
class JointOptimizeResult:
    """Per-link assignments and scores, aligned with the request's links."""

    strategy: str
    configurations: tuple[tuple[int, ...], ...]
    scores_db: tuple[float, ...]
    aggregate_score_db: float
    num_measurements: int
    num_distinct_configurations: int


@dataclass(frozen=True)
class CoverageRequest:
    """Mean used-SNR on a position grid centred on the RX, one config."""

    scenario: ScenarioSpec
    rows: int = 4
    cols: int = 4
    x_span_m: float = 2.0
    y_span_m: float = 2.0
    configuration: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class CoverageResult:
    """Row-major per-point scores for the requested grid."""

    scores_db: tuple[float, ...]
    rows: int
    cols: int


Request = Union[
    EvaluateRequest,
    ActuateRequest,
    SweepRequest,
    SearchRequest,
    CoverageRequest,
    JointOptimizeRequest,
]

#: Ops the micro-batcher coalesces into one vectorized basis evaluation.
_COALESCED = (EvaluateRequest, ActuateRequest)

# End-to-end (submit -> resolved reply) latency per request type, measured
# with the obs-sanctioned monotonic clock.  9 bins/decade keeps quantile
# estimates within ~13% — tight enough to judge SLO thresholds.
_BINS: Dict[str, Any] = dict(lo=1e-6, hi=1e3, bins_per_decade=9)
_LATENCY_BY_TYPE = {
    EvaluateRequest: histogram_handle("serve.evaluate.request_latency_s", **_BINS),
    ActuateRequest: histogram_handle("serve.actuate.request_latency_s", **_BINS),
    SweepRequest: histogram_handle("serve.sweep.request_latency_s", **_BINS),
    SearchRequest: histogram_handle("serve.search.request_latency_s", **_BINS),
    JointOptimizeRequest: histogram_handle("serve.joint.request_latency_s", **_BINS),
    CoverageRequest: histogram_handle("serve.coverage.request_latency_s", **_BINS),
}


@lru_cache(maxsize=SESSION_CAPACITY)
def _worker_session(spec: ScenarioSpec) -> ScenarioSession:
    """A pool worker's own session for ``spec``, built on first use and
    dropped least recently used first.

    Built bound to no request, so a cold build adds no span to the
    timeline of the request that happened to trigger it.
    """
    with bind_context(None):
        return build_session(spec)


def compute(request: Request, session: Optional[ScenarioSession] = None):
    """Serve one sweep, search, joint or coverage request.

    The service calls this inline with its own session, or ships it with
    the request alone to a pool worker, where ``session`` is ``None`` and
    the worker's session cache supplies it.  ``build_session`` is
    deterministic and everything below is a pure function of the request
    and the session, so both routes give bit-identical results.  Each
    task builds its own evaluator over the immutable session basis, so
    requests on one session never interfere.
    """
    if session is None:
        session = _worker_session(request.scenario)
    if isinstance(request, SweepRequest):
        if request.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        rng = None if request.seed is None else np.random.default_rng(request.seed)
        snr = sweep_basis_snr(
            session.basis,
            request.repetitions,
            rng,
            tx_power_dbm=session.tx_power_dbm,
            noise_figure_db=session.noise_figure_db,
            drift_phase_rad=request.drift_phase_rad,
            drift_amplitude=request.drift_amplitude,
        )
        scores = snr[:, :, session.mask].mean(axis=(0, 2))
        return SweepResult(
            scores_db=tuple(float(x) for x in scores),
            best_index=int(np.argmax(scores)),
        )
    if isinstance(request, SearchRequest):
        return SearchResult(
            *work.search_task(
                session.basis,
                request.searcher,
                request.seed,
                session.tx_power_dbm,
                session.noise_figure_db,
                session.mask,
            )
        )
    if isinstance(request, JointOptimizeRequest):
        # Per-link bases come from the batched ``bases_for_points`` path:
        # the session's testbed keeps the scene's trace frame, so each
        # request traces only its users' receiver-facing legs.
        if not request.links:
            raise ValueError("joint request carries no links")
        names = tuple(link.name for link in request.links)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate link names in joint request: {names}")
        setup = session.setup
        rx0 = setup.rx_device.position
        points = [
            Point(rx0.x + link.dx_m, rx0.y + link.dy_m) for link in request.links
        ]
        bases = setup.testbed.bases_for_points(
            setup.tx_device, points, setup.rx_device.chains[0].antenna
        )
        return JointOptimizeResult(
            *work.joint_task(
                tuple(bases),
                names,
                tuple(link.weight for link in request.links),
                request.strategy,
                request.searcher,
                request.seed,
                request.aggregate,
                request.tolerance,
                session.tx_power_dbm,
                session.noise_figure_db,
                session.mask,
            )
        )
    if isinstance(request, CoverageRequest):
        if request.rows <= 0 or request.cols <= 0:
            raise ValueError("coverage grid must have positive rows and cols")
        configuration = request.configuration
        if configuration is None:
            configuration = tuple([0] * session.basis.space.num_elements)
        session.validate_configuration(configuration)
        scores = work.coverage_task(
            session,
            request.rows,
            request.cols,
            request.x_span_m,
            request.y_span_m,
            configuration,
        )
        return CoverageResult(
            scores_db=tuple(float(x) for x in scores),
            rows=request.rows,
            cols=request.cols,
        )
    raise TypeError(f"unknown request type {type(request).__name__}")


class _RequestTrace:
    """In-flight stitching state of one traced request.

    ``context`` is the context children bind to (its ``parent_span_id``
    is the root ``serve.request`` span id, minted at admission);
    ``parent_id`` is whatever span the *caller* had open when it
    submitted (so nested traces — a client binding its own context —
    chain correctly); ``t_submit`` anchors the root span and the queue
    wait on the monotonic clock.

    A request that falls outside the trace sample carries the
    *latency-only* form (``context is None``): ``t_submit`` still feeds
    the per-type latency histogram at completion, but no spans are
    minted or emitted for it anywhere on the path.
    """

    __slots__ = ("context", "root_id", "parent_id", "t_submit")

    def __init__(
        self,
        context: Optional[RequestContext],
        root_id: str,
        parent_id: Optional[str],
        t_submit: float,
    ) -> None:
        self.context = context
        self.root_id = root_id
        self.parent_id = parent_id
        self.t_submit = t_submit


@dataclass
class _Shard:
    """Per-scenario batching state: queued requests + their flusher."""

    pending: list = field(default_factory=list)
    flusher: Optional[asyncio.Task] = None


class EnvironmentService:
    """The programmable-environment service (in-process, asyncio).

    Use as an async context manager, or call :meth:`close` explicitly so
    queued requests drain::

        async with EnvironmentService(ServiceConfig()) as service:
            client = ServiceClient(service)
            result = await client.actuate(spec, (0, 1, 2))
    """

    def __init__(self, config: ServiceConfig = ServiceConfig()) -> None:
        self.config = config
        self._sessions: "OrderedDict[ScenarioSpec, ScenarioSession]" = OrderedDict()
        self._shards: dict[ScenarioSpec, _Shard] = {}
        self._executions: set[asyncio.Task] = set()
        self._pending_total = 0
        self._closed = False
        self.session_hits = 0
        self.session_misses = 0
        self.session_evictions = 0
        self.trace_store = RequestTraceStore(capacity=config.trace_capacity)
        self._trace_counter = 0
        self.trace_store.attach()
        self._telemetry_task: Optional[asyncio.Task] = None
        self._streamer: Optional[TelemetryStreamer] = None

    # -- lifecycle ------------------------------------------------------

    async def __aenter__(self) -> "EnvironmentService":
        self._ensure_telemetry()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def close(self) -> None:
        """Stop admitting requests, flush queues, await running batches."""
        self._closed = True
        for spec in list(self._shards):
            self._flush(spec)
        while self._executions:
            await asyncio.gather(*list(self._executions), return_exceptions=True)
        self.trace_store.detach()
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except asyncio.CancelledError:
                pass
            self._telemetry_task = None
        if self._streamer is not None:
            # One final sample so the stream's last line reflects the
            # fully drained service.
            self._streamer.write_sample()
            self._streamer.close()
            self._streamer = None

    # -- telemetry ------------------------------------------------------

    def _ensure_telemetry(self) -> None:
        if (
            self.config.telemetry_path is None
            or self._telemetry_task is not None
            or self._closed
        ):
            return
        self._streamer = TelemetryStreamer(self.config.telemetry_path)
        self._telemetry_task = asyncio.get_running_loop().create_task(
            self._telemetry_loop()
        )

    async def _telemetry_loop(self) -> None:
        assert self._streamer is not None
        while True:
            self._streamer.write_sample()
            await asyncio.sleep(self.config.telemetry_interval_s)

    # -- request traces -------------------------------------------------

    def request_traces(self) -> Dict[str, List[SpanRecord]]:
        """Stitched (parent-before-child) timelines per retained request."""
        return {
            request_id: stitch_timeline(records)
            for request_id, records in self.trace_store.traces().items()
        }

    def drain_request_traces(self) -> Dict[str, Tuple[SpanRecord, ...]]:
        """Return and clear the retained timelines (run-record handoff)."""
        return self.trace_store.drain()

    # -- admission + batching -------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet flushed into a batch."""
        return self._pending_total

    async def submit(self, request: Request):
        """Admit one request; resolve with its result (or raise).

        Raises :class:`ServiceOverloaded` synchronously when
        ``max_pending`` requests are already queued, and
        :class:`ServiceClosed` after :meth:`close`.

        When observability is enabled, every request feeds the per-type
        latency histograms, and sampled requests (every
        ``trace_sample``-th, plus every request submitted under a bound
        :func:`repro.obs.tracing.current_context` such as
        ``ServiceClient.bind``) are traced end to end: a root
        ``serve.request`` span brackets admission to reply, with
        ``serve.queue``/``serve.batch_member`` children (and worker-side
        spans for pool-routed work) stitched under it.  Tracing never
        changes results — it reads clocks, not random streams.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        if self._pending_total >= self.config.max_pending:
            _REJECTIONS.inc()
            raise ServiceOverloaded(
                f"{self._pending_total} requests pending "
                f"(max_pending={self.config.max_pending})"
            )
        _REQUESTS.inc()
        self._ensure_telemetry()
        trace: Optional[_RequestTrace] = None
        if enabled():
            # Follow the live tracer: reset_observability(clear=True) may
            # have replaced the one the store was subscribed to.
            self.trace_store.attach()
            caller = current_context()
            if caller is None or caller.request_id is None:
                # Not inside a request (at most inside a plain span):
                # trace a fresh request when the sample picks this one.
                caller = (
                    RequestContext(new_request_id())
                    if self._sample_next()
                    else None
                )
            if caller is not None:
                root_id = new_span_id()
                trace = _RequestTrace(
                    context=RequestContext(caller.request_id, root_id),
                    root_id=root_id,
                    parent_id=caller.parent_span_id or None,
                    t_submit=monotonic_s(),
                )
            else:
                trace = _RequestTrace(None, "", None, monotonic_s())
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        shard = self._shards.setdefault(request.scenario, _Shard())
        shard.pending.append((request, future, trace))
        self._pending_total += 1
        _PENDING.set(self._pending_total)
        if len(shard.pending) >= self.config.max_batch:
            self._flush(request.scenario)
        elif shard.flusher is None:
            shard.flusher = loop.create_task(self._flush_later(request.scenario))
        if trace is None:
            return await future
        try:
            result = await future
        except BaseException:
            # Failed or cancelled: close the trace, drop the latency
            # sample (histograms measure completions only).
            self._finish_request(request, trace, ok=False)
            raise
        self._finish_request(request, trace, ok=True)
        return result

    def _sample_next(self) -> bool:
        """Counter-based trace sampling: no entropy, first request in."""
        n = self.config.trace_sample
        if n <= 0:
            return False
        sampled = self._trace_counter % n == 0
        self._trace_counter += 1
        return sampled

    def _finish_request(
        self, request: Request, trace: _RequestTrace, ok: bool
    ) -> None:
        """Close a traced request: root span + per-type latency sample."""
        t_end = monotonic_s()
        if trace.context is not None:
            global_tracer().emit_span(
                _SPAN_REQUEST,
                trace.t_submit,
                t_end,
                RequestContext(trace.context.request_id, trace.parent_id or ""),
                span_id=trace.root_id,
            )
        if ok:
            histogram = _LATENCY_BY_TYPE.get(type(request))
            if histogram is not None:
                histogram.observe(t_end - trace.t_submit)

    async def _flush_later(self, spec: ScenarioSpec) -> None:
        # With a zero window this still yields to the loop once, so every
        # submit() of the current scheduling round joins the batch.
        await asyncio.sleep(self.config.batch_window_s)
        shard = self._shards.get(spec)
        if shard is not None:
            shard.flusher = None
        self._flush(spec)

    def _flush(self, spec: ScenarioSpec) -> None:
        shard = self._shards.get(spec)
        if shard is None:
            return
        if shard.flusher is not None:
            shard.flusher.cancel()
            shard.flusher = None
        if not shard.pending:
            return
        batch, shard.pending = shard.pending, []
        self._pending_total -= len(batch)
        _PENDING.set(self._pending_total)
        _BATCHES.inc()
        _BATCHED_REQUESTS.inc(len(batch))
        traced = [
            trace
            for _, _, trace in batch
            if trace is not None and trace.context is not None
        ]
        if traced:
            # Queue wait spans: stamped at submit, closed here at flush —
            # the two ends live in different call frames, so the span is
            # emitted from explicit timestamps rather than bracketed.
            t_flush = monotonic_s()
            for trace in traced:
                global_tracer().emit_span(
                    _SPAN_QUEUE, trace.t_submit, t_flush, trace.context
                )
        task = asyncio.get_running_loop().create_task(
            self._execute_batch(spec, batch)
        )
        self._executions.add(task)
        task.add_done_callback(self._executions.discard)

    # -- sessions -------------------------------------------------------

    @property
    def sessions(self) -> int:
        """Scenario sessions currently hot."""
        return len(self._sessions)

    def _session(self, spec: ScenarioSpec) -> ScenarioSession:
        session = self._sessions.get(spec)
        if session is not None:
            self._sessions.move_to_end(spec)
            self.session_hits += 1
            _SESSION_HITS.inc()
            return session
        self.session_misses += 1
        _SESSION_MISSES.inc()
        with global_tracer().span(_SPAN_SESSION_BUILD):
            session = build_session(spec)
        self._sessions[spec] = session
        while len(self._sessions) > self.config.session_capacity:
            self._sessions.popitem(last=False)
            self.session_evictions += 1
            _SESSION_EVICTIONS.inc()
        _SESSIONS.set(len(self._sessions))
        return session

    # -- execution ------------------------------------------------------

    async def _execute_batch(self, spec: ScenarioSpec, batch: list) -> None:
        traced = any(
            trace is not None and trace.context is not None
            for _, _, trace in batch
        )
        batch_span_id = new_span_id() if traced else ""
        t_batch = monotonic_s() if traced else 0.0
        # The task copied the context of whichever submit created it, but
        # the flush serves every member: bound to no request, its own
        # spans (serve.batch, serve.session_build) join no request's
        # timeline.  Members get serve.batch_member records as they are
        # served, and task spans carry their request's context explicitly.
        with bind_context(None), global_tracer().span(_SPAN_BATCH):
            try:
                session = self._session(spec)
            except Exception as error:  # scene build failed: fail the batch
                for _, future, trace in batch:
                    self._reject_future(future, error)
                    self._end_member(trace, batch_span_id, t_batch)
                return
            self._run_coalesced(session, batch)
            served = []
            for request, future, trace in batch:
                if isinstance(request, _COALESCED) or future.done():
                    # Served above, or cancelled by its client before the
                    # flush.
                    self._end_member(trace, batch_span_id, t_batch)
                else:
                    served.append(
                        self._serve(
                            session, request, future, trace, batch_span_id, t_batch
                        )
                    )
            # Every other member starts at once: one slow search holds up
            # no other member of its flush.
            await asyncio.gather(*served)

    @staticmethod
    def _end_member(
        trace: Optional[_RequestTrace], batch_span_id: str, t_batch: float
    ) -> None:
        """Record a traced member's ``serve.batch_member`` span.

        One shared batch span id, one record per member request, ending
        when that member is served: each request's timeline shows the
        same physical flush, and task spans hang off it via
        ``batch_span_id``.
        """
        if trace is not None and trace.context is not None:
            global_tracer().emit_span(
                _SPAN_BATCH_MEMBER,
                t_batch,
                monotonic_s(),
                trace.context,
                span_id=batch_span_id,
            )

    @staticmethod
    def _reject_future(future: asyncio.Future, error: Exception) -> None:
        _ERRORS.inc()
        if not future.cancelled():
            future.set_exception(error)

    def _run_coalesced(self, session: ScenarioSession, batch: list) -> None:
        """One vectorized evaluation for every evaluate/actuate in the batch.

        Each request's rows are validated individually first, so a
        malformed configuration fails only its own future; the surviving
        rows share a single ``basis.evaluate`` + SNR map, then split back
        per request.  Row results are independent of batch composition
        (per-row gather, elementwise SNR), so responses are bit-identical
        to serial issue.
        """
        blocks: list[np.ndarray] = []
        spans: list[tuple[Request, asyncio.Future, int, int]] = []
        total = 0
        for request, future, _ in batch:
            if not isinstance(request, _COALESCED):
                continue
            if isinstance(request, EvaluateRequest):
                configurations = request.configurations
            else:
                configurations = (request.configuration,)
            try:
                if len(configurations) == 0:
                    raise ValueError("evaluate request carries no configurations")
                rows = session.validate_rows(configurations)
            except Exception as error:
                self._reject_future(future, error)
                continue
            spans.append((request, future, total, rows.shape[0]))
            blocks.append(rows)
            total += rows.shape[0]
        if not blocks:
            return
        snr = session.snr_rows(np.concatenate(blocks, axis=0))
        means = session.mean_used_snr(snr)
        for request, future, start, count in spans:
            if future.cancelled():
                continue
            if isinstance(request, EvaluateRequest):
                scores = tuple(float(x) for x in means[start : start + count])
                future.set_result(EvaluateResult(scores_db=scores))
            else:
                future.set_result(
                    ActuateResult(
                        snr_db=tuple(float(x) for x in snr[start]),
                        mean_used_snr_db=float(means[start]),
                    )
                )

    async def _serve(
        self,
        session: ScenarioSession,
        request: Request,
        future: asyncio.Future,
        trace: Optional[_RequestTrace],
        batch_span_id: str,
        t_batch: float,
    ) -> None:
        """Serve one non-coalesced request and settle its future.

        The one route for sweeps, searches, joints and coverage grids:
        :func:`compute` runs inline on this service's session, or, when
        ``search_jobs`` asks for a pool, on a worker that resolves the
        request's scenario through its own session cache, so only the
        request crosses the pickle boundary.  Sweeps stay inline at any
        ``search_jobs``: a sweep is one vectorized pass over a small
        enumerable space (large arrays refuse it), cheaper than the pool
        round trip it would pay.  Inline ``traced_call`` runs emit
        straight into this process's tracer, whose sink feeds the store;
        a worker's spans come back with the result and are merged here.
        A worker death fails this request and disposes the pool that
        died, so the next request gets a fresh one; a pool shut down
        under a queued request fails that request too.
        """
        context = None
        if trace is not None and trace.context is not None and enabled():
            # The task span parents onto the shared batch span, so the
            # request's work shows up where the flush that dispatched it does.
            context = RequestContext(trace.context.request_id, batch_span_id)
        jobs = self.config.search_jobs
        pool = None if isinstance(request, SweepRequest) else shared_pool(jobs)
        try:
            if pool is None:
                result, _ = traced_call(context, compute, request, session)
            else:
                pending = asyncio.get_running_loop().run_in_executor(
                    pool, traced_call, context, compute, request
                )
                # Waited on, not awaited: a pool shut down with this call
                # still queued cancels ``pending``, which must fail the
                # request rather than cancel this task.
                await asyncio.wait((pending,))
                if pending.cancelled():
                    raise BrokenProcessPool("worker pool shut down under the request")
                result, records = pending.result()
                self.trace_store.extend(
                    SpanRecord.from_dict(record) for record in records
                )
        except Exception as error:
            if isinstance(error, BrokenProcessPool):
                dispose_shared_pool(jobs, pool)
            self._reject_future(future, error)
        else:
            if not future.cancelled():
                future.set_result(result)
        finally:
            self._end_member(trace, batch_span_id, t_batch)

class ServiceClient:
    """Typed async facade over :meth:`EnvironmentService.submit`.

    Calls made inside a :meth:`bind` block share one request context, so
    their service-side spans stitch under the caller-chosen request id::

        with client.bind("warmup-7"):
            await client.actuate(spec, (0, 1, 2))

    Unbound calls are traced too — :meth:`EnvironmentService.submit`
    mints a fresh context per request.
    """

    def __init__(self, service: EnvironmentService) -> None:
        self._service = service

    @staticmethod
    def bind(request_id: str):
        """Bind a request context for client calls within the block."""
        return bind_context(RequestContext(request_id=str(request_id)))

    async def evaluate(self, scenario: ScenarioSpec, configurations) -> EvaluateResult:
        return await self._service.submit(
            EvaluateRequest(
                scenario=scenario,
                configurations=tuple(
                    tuple(int(s) for s in row) for row in configurations
                ),
            )
        )

    async def actuate(self, scenario: ScenarioSpec, configuration) -> ActuateResult:
        return await self._service.submit(
            ActuateRequest(
                scenario=scenario,
                configuration=tuple(int(s) for s in configuration),
            )
        )

    async def sweep(
        self,
        scenario: ScenarioSpec,
        repetitions: int = 1,
        seed: Optional[int] = None,
        drift_phase_rad: float = 0.0,
        drift_amplitude: float = 0.0,
    ) -> SweepResult:
        return await self._service.submit(
            SweepRequest(
                scenario=scenario,
                repetitions=repetitions,
                seed=seed,
                drift_phase_rad=drift_phase_rad,
                drift_amplitude=drift_amplitude,
            )
        )

    async def search(
        self, scenario: ScenarioSpec, searcher: str = "greedy", seed: int = 0
    ) -> SearchResult:
        return await self._service.submit(
            SearchRequest(scenario=scenario, searcher=searcher, seed=seed)
        )

    async def joint_optimize(
        self,
        scenario: ScenarioSpec,
        links,
        strategy: str = "joint",
        searcher: str = "greedy",
        seed: int = 0,
        aggregate: str = "mean",
        tolerance: float = 1.0,
    ) -> JointOptimizeResult:
        return await self._service.submit(
            JointOptimizeRequest(
                scenario=scenario,
                links=tuple(links),
                strategy=strategy,
                searcher=searcher,
                seed=seed,
                aggregate=aggregate,
                tolerance=tolerance,
            )
        )

    async def coverage(
        self,
        scenario: ScenarioSpec,
        rows: int = 4,
        cols: int = 4,
        x_span_m: float = 2.0,
        y_span_m: float = 2.0,
        configuration: Optional[tuple[int, ...]] = None,
    ) -> CoverageResult:
        return await self._service.submit(
            CoverageRequest(
                scenario=scenario,
                rows=rows,
                cols=cols,
                x_span_m=x_span_m,
                y_span_m=y_span_m,
                configuration=configuration,
            )
        )
