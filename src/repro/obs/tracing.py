"""One span model: id-linked spans, request contexts, cross-process stitching.

Spans mark the coarse phases of a run — a geometry trace, a configuration
sweep, one parallel task, one served request's queue wait — with
monotonic (``time.perf_counter``) timings, so ``repro report`` can render
a per-phase wall-clock breakdown and a request's latency splits by stage.

Every span links to its parent by id, never by name or position:

* a :class:`RequestContext` (request id or ``None``, plus the id of the
  open span) rides one :mod:`contextvars` variable;
* :meth:`SpanTracer.span` mints a process-unique span id, parents it on
  the bound context, inherits the context's request id and re-binds the
  context for the block, so children attach to it.  Asyncio tasks copy
  the variable, so spans that interleave across ``await`` points still
  parent correctly, and the frozen context pickles as it is, so a pool
  worker's spans stitch under the request that shipped them;
* :meth:`SpanTracer.emit_span` records a span from explicit timestamps
  for phases whose two ends live in different call frames (queue wait);
* :class:`RequestTraceStore` collects a request's spans as a tracer sink,
  :class:`RequestCapture` grabs them in a worker so the pool can ship them
  back, and :func:`stitch_timeline` rebuilds the tree from ``parent_id``
  chains — ids embed the minting pid, so links hold across processes even
  though ``start_s`` clocks do not compare across them.

Two properties keep tracing safe for a reproducibility-obsessed codebase:

* spans live only at *phase* boundaries, never inside seeded hot loops;
  ids come from per-process counters and no code here reads a random
  stream — results are bit-identical with tracing on or off
  (:func:`repro.obs.metrics.set_enabled` disables the clock reads
  entirely);
* completed spans land in a bounded ring buffer (old spans fall off), and
  a cumulative per-name aggregate (count, total, min, max) is maintained
  separately so summaries never lose data to the ring.

Aggregates are plain value objects (:class:`SpanSummary`): the parallel
runner ships each worker's aggregate delta back with its results, and
merging is count/total addition plus min/max reduction — exact at the run
level in any merge order.
"""

from __future__ import annotations

import math
import os
import time
from collections import OrderedDict, deque
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .metrics import enabled

__all__ = [
    "RequestCapture",
    "RequestContext",
    "RequestTraceStore",
    "SpanRecord",
    "SpanSummary",
    "SpanTracer",
    "bind_context",
    "current_context",
    "global_tracer",
    "merge_span_summaries",
    "new_request_id",
    "new_span_id",
    "reset_tracing",
    "stitch_timeline",
]

#: Completed spans kept in the ring buffer (per process).
DEFAULT_CAPACITY = 4096

#: Per-process monotonic id sequences (no entropy — RPL003).  Ids embed
#: the pid so spans minted by a pool worker can never collide with the
#: parent's — the property cross-process request stitching rests on.
_SPAN_SEQ = 0
_REQUEST_SEQ = 0


def new_span_id() -> str:
    """Mint a process-unique span id (``"<pid hex>-<seq hex>"``)."""
    global _SPAN_SEQ
    _SPAN_SEQ += 1
    return f"{os.getpid():x}-{_SPAN_SEQ:x}"


def new_request_id() -> str:
    """Mint a process-unique request id (``"r<pid hex>-<seq hex>"``)."""
    global _REQUEST_SEQ
    _REQUEST_SEQ += 1
    return f"r{os.getpid():x}-{_REQUEST_SEQ:x}"


@dataclass(frozen=True)
class RequestContext:
    """Which request the current code works for, and which span is open.

    ``request_id`` is ``None`` outside any request: spans still nest by
    id there, they just belong to no request timeline.
    ``parent_span_id`` is the id of the innermost open span — the span
    opened next attaches to it (empty for a root).  Contexts are
    immutable values: opening a span *re-binds* the context variable
    rather than mutating anything, which is what makes propagation across
    asyncio tasks and pickled worker payloads safe.
    """

    request_id: Optional[str] = None
    parent_span_id: str = ""


_CONTEXT: ContextVar[Optional[RequestContext]] = ContextVar(
    "repro_obs_request_context", default=None
)


def current_context() -> Optional[RequestContext]:
    """The bound context, or ``None`` outside any span or request."""
    return _CONTEXT.get()


@contextmanager
def bind_context(context: Optional[RequestContext]):
    """Bind ``context`` (``None`` clears it) for the block."""
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


@dataclass(slots=True)
class SpanRecord:
    """One completed span.

    ``start_s`` is monotonic time relative to the emitting tracer's epoch,
    so records from one process order correctly; they are not comparable
    across processes.  ``span_id``/``parent_id`` link the span into its
    tree, and ``request_id``/``pid`` say which request and process it
    belongs to: a request's timeline reconstructs from the ``parent_id``
    chain alone, which stays valid across process boundaries where
    ``start_s`` does not.

    Deliberately *not* frozen: records are constructed on the serving
    hot path (several per traced request), and a frozen dataclass pays
    an ``object.__setattr__`` per field on every construction.  Treat
    instances as immutable by convention.
    """

    name: str
    start_s: float
    duration_s: float
    span_id: str = ""
    parent_id: Optional[str] = None
    request_id: Optional[str] = None
    pid: int = 0

    def as_dict(self) -> dict:
        """JSON/wire form (the run-record ``request_traces`` entry)."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "request_id": self.request_id,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpanRecord":
        """Inverse of :meth:`as_dict`.

        Older records also carry name-stack ``parent``/``depth`` fields;
        they are ignored, the id fields hold the same links.
        """
        return cls(
            name=str(data["name"]),
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            span_id=str(data.get("span_id", "")),
            parent_id=(
                None
                if data.get("parent_id") is None
                else str(data["parent_id"])
            ),
            request_id=(
                None
                if data.get("request_id") is None
                else str(data["request_id"])
            ),
            pid=int(data.get("pid", 0)),
        )


@dataclass(frozen=True)
class SpanSummary:
    """Cumulative per-name aggregate of completed spans."""

    name: str
    count: int
    total_s: float
    min_s: float
    max_s: float

    @classmethod
    def empty(cls, name: str) -> "SpanSummary":
        return cls(name=name, count=0, total_s=0.0, min_s=math.inf, max_s=-math.inf)

    def merged(self, other: "SpanSummary") -> "SpanSummary":
        return SpanSummary(
            name=self.name,
            count=self.count + other.count,
            total_s=self.total_s + other.total_s,
            min_s=min(self.min_s, other.min_s),
            max_s=max(self.max_s, other.max_s),
        )

    def delta(self, earlier: "SpanSummary") -> "SpanSummary":
        """Spans completed since ``earlier`` (same-tracer summary).

        Count and total subtract exactly; ``min_s``/``max_s`` carry the
        cumulative window, which still reduces to the true run extrema
        when deltas are merged (min-of-mins, max-of-maxes).
        """
        return SpanSummary(
            name=self.name,
            count=self.count - earlier.count,
            total_s=self.total_s - earlier.total_s,
            min_s=self.min_s,
            max_s=self.max_s,
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, name: str, data: Mapping) -> "SpanSummary":
        return cls(
            name=name,
            count=int(data["count"]),
            total_s=float(data["total_s"]),
            min_s=float(data["min_s"]),
            max_s=float(data["max_s"]),
        )


def merge_span_summaries(
    summaries: Iterable[Mapping[str, SpanSummary]],
) -> Dict[str, SpanSummary]:
    """Merge per-name summary maps from several sources (workers, parent)."""
    merged: Dict[str, SpanSummary] = {}
    for source in summaries:
        for name, summary in source.items():
            prior = merged.get(name)
            merged[name] = summary if prior is None else prior.merged(summary)
    return merged


class _SpanContext:
    """The context manager :meth:`SpanTracer.span` hands out.

    Hand-rolled (not ``contextlib``) to keep per-span overhead at two
    ``perf_counter`` calls plus a context-variable set/reset.
    """

    __slots__ = ("_tracer", "_name", "_span_id", "_token", "_start")

    def __init__(self, tracer: "SpanTracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        outer = _CONTEXT.get()
        self._span_id = span_id = new_span_id()
        self._token = _CONTEXT.set(
            RequestContext(None if outer is None else outer.request_id, span_id)
        )
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        # Resetting re-binds the outer context, which is exactly the
        # parent and request the record must carry.
        _CONTEXT.reset(self._token)
        self._tracer.emit_span(self._name, self._start, end, span_id=self._span_id)
        return None


#: The no-op span handed out when tracing is disabled: zero clock reads.
_NULL_CONTEXT = nullcontext()


class SpanTracer:
    """Context-manager span tracer with a bounded ring-buffer exporter."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._epoch = time.perf_counter()
        self._buffer: Deque[SpanRecord] = deque(maxlen=capacity)
        # name -> [count, total_s, min_s, max_s]; mutated in place on the
        # hot path, materialized into SpanSummary values on demand.
        self._aggregates: Dict[str, List[float]] = {}
        self._sinks: List[Callable[[SpanRecord], None]] = []

    def span(self, name: str) -> object:
        """A context manager timing one phase under the bound context.

        The span parents on the bound context's open span, inherits its
        request id, and is the open span for the block.  When
        observability is disabled the returned context performs no clock
        reads at all.
        """
        if not enabled():
            return _NULL_CONTEXT
        return _SpanContext(self, name)

    def emit_span(
        self,
        name: str,
        start_monotonic_s: float,
        end_monotonic_s: float,
        context: Optional[RequestContext] = None,
        span_id: Optional[str] = None,
    ) -> Optional[str]:
        """Record one span from explicit ``perf_counter`` timestamps.

        For phases whose start and end happen in *different* call frames
        (queue wait: stamped at submit, closed at batch flush) where a
        context manager cannot bracket the phase.  The span parents on
        ``context`` (default: the bound one) and takes its request id.
        ``span_id`` reuses a pre-minted id, e.g. one batch span shared by
        every member request.  Returns the span id, or ``None`` when
        observability is disabled.
        """
        if not enabled():
            return None
        if context is None:
            context = _CONTEXT.get()
        if span_id is None:
            span_id = new_span_id()
        self.emit(
            SpanRecord(
                name=name,
                start_s=start_monotonic_s - self._epoch,
                duration_s=end_monotonic_s - start_monotonic_s,
                span_id=span_id,
                parent_id=(
                    None if context is None else context.parent_span_id or None
                ),
                request_id=None if context is None else context.request_id,
                pid=os.getpid(),
            )
        )
        return span_id

    def emit(self, record: SpanRecord) -> None:
        """Record one completed span: ring buffer, aggregates, sinks."""
        self._buffer.append(record)
        duration = record.duration_s
        stats = self._aggregates.get(record.name)
        if stats is None:
            self._aggregates[record.name] = [1, duration, duration, duration]
        else:
            stats[0] += 1
            stats[1] += duration
            if duration < stats[2]:
                stats[2] = duration
            if duration > stats[3]:
                stats[3] = duration
        for sink in self._sinks:
            sink(record)

    @property
    def epoch(self) -> float:
        """The monotonic instant ``start_s`` values are relative to."""
        return self._epoch

    def add_sink(self, sink: Callable[[SpanRecord], None]) -> None:
        """Subscribe ``sink`` to every completed span (see ``emit``)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[SpanRecord], None]) -> None:
        """Unsubscribe a sink added with :meth:`add_sink` (idempotent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def records(self) -> Tuple[SpanRecord, ...]:
        """The ring buffer's current contents (oldest first)."""
        return tuple(self._buffer)

    def summaries(self) -> Dict[str, SpanSummary]:
        """Cumulative per-name aggregates (immune to ring eviction)."""
        return {
            name: SpanSummary(
                name=name,
                count=int(stats[0]),
                total_s=stats[1],
                min_s=stats[2],
                max_s=stats[3],
            )
            for name, stats in self._aggregates.items()
        }

    def reset(self) -> None:
        """Drop all records and aggregates (open spans still close)."""
        self._buffer.clear()
        self._aggregates.clear()
        self._epoch = time.perf_counter()


_TRACER = SpanTracer()


def global_tracer() -> SpanTracer:
    """The process-wide tracer all subsystems emit spans into."""
    return _TRACER


def reset_tracing(clear: bool = False) -> None:
    """Clear the global tracer (benchmarks use this between phases).

    ``clear=True`` replaces the tracer object itself (dropping sinks test
    code may have attached), mirroring ``reset_metrics(clear=True)``.
    A :class:`RequestTraceStore` follows the replacement on its next
    :meth:`~RequestTraceStore.attach`.
    """
    global _TRACER
    if clear:
        _TRACER = SpanTracer()
    else:
        _TRACER.reset()


class RequestTraceStore:
    """Bounded per-request collection of stitched span records.

    The serving layer keeps one of these attached as a sink of the live
    global tracer for its lifetime: every request-scoped span emitted
    in-process lands here, and worker-captured records are merged in
    explicitly via :meth:`extend`.  At most ``capacity`` distinct
    requests are kept; when full, the *oldest* request's records are
    evicted wholesale (a live service keeps the most recent timelines,
    which is what an operator tailing the stream wants).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._traces: "OrderedDict[str, List[SpanRecord]]" = OrderedDict()
        self._tracer: Optional[SpanTracer] = None

    def __len__(self) -> int:
        return len(self._traces)

    def attach(self) -> None:
        """Subscribe :meth:`sink` to the live global tracer.

        Idempotent and one identity check when nothing changed, so the
        service calls it per request: after ``reset_tracing(clear=True)``
        replaced the tracer, the store moves its subscription to the new
        one instead of listening to the discarded tracer forever.
        """
        tracer = global_tracer()
        if tracer is not self._tracer:
            self.detach()
            tracer.add_sink(self.sink)
            self._tracer = tracer

    def detach(self) -> None:
        """Unsubscribe from the tracer :meth:`attach` last joined."""
        if self._tracer is not None:
            self._tracer.remove_sink(self.sink)
            self._tracer = None

    def sink(self, record: SpanRecord) -> None:
        """Tracer-sink entry: keep request-scoped records only."""
        if record.request_id is None:
            return
        self.add(record)

    def add(self, record: SpanRecord) -> None:
        if record.request_id is None:
            return
        records = self._traces.get(record.request_id)
        if records is None:
            records = self._traces[record.request_id] = []
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
        records.append(record)

    def extend(self, records: Iterable[SpanRecord]) -> None:
        """Merge records captured elsewhere (workers) into the store."""
        for record in records:
            self.add(record)

    def traces(self) -> Dict[str, Tuple[SpanRecord, ...]]:
        """Current request timelines, insertion-ordered."""
        return {
            request_id: tuple(records)
            for request_id, records in self._traces.items()
        }

    def drain(self) -> Dict[str, Tuple[SpanRecord, ...]]:
        """Return and clear the stored timelines."""
        traces = self.traces()
        self._traces.clear()
        return traces


class RequestCapture:
    """Capture one request's stitched spans within a ``with`` block.

    Worker processes wrap their task in one of these so the pool result
    can carry the worker-side timeline back to the event-loop process::

        with bind_context(ctx), RequestCapture(ctx.request_id) as capture:
            result = fn(*args)
        return result, [r.as_dict() for r in capture.records]
    """

    def __init__(self, request_id: Optional[str]) -> None:
        self.request_id = request_id
        self.records: List[SpanRecord] = []

    def _sink(self, record: SpanRecord) -> None:
        if record.request_id == self.request_id:
            self.records.append(record)

    def __enter__(self) -> "RequestCapture":
        global_tracer().add_sink(self._sink)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global_tracer().remove_sink(self._sink)
        return None


def stitch_timeline(
    records: Iterable[SpanRecord],
) -> List[SpanRecord]:
    """Order one request's records into a parent-before-child timeline.

    Pure structural reconstruction: roots (no ``parent_id``, or parent
    not present in the set) come first, children follow their parents
    depth-first in emission order.  It deliberately never compares
    ``start_s`` across records — records from different processes have
    different epochs, and the ``parent_id`` chain is the only
    cross-process ground truth.
    """
    pool = list(records)
    by_parent: Dict[Optional[str], List[SpanRecord]] = {}
    ids = {record.span_id for record in pool if record.span_id}
    for record in pool:
        parent = record.parent_id if record.parent_id in ids else None
        by_parent.setdefault(parent, []).append(record)
    ordered: List[SpanRecord] = []
    visited: set = set()

    def _walk(parent: Optional[str]) -> None:
        for record in by_parent.get(parent, []):
            ordered.append(record)
            if record.span_id and record.span_id not in visited:
                visited.add(record.span_id)
                _walk(record.span_id)

    _walk(None)
    # Records whose parent chain is cyclic/broken still surface at the end.
    if len(ordered) < len(pool):
        seen = {id(record) for record in ordered}
        ordered.extend(r for r in pool if id(r) not in seen)
    return ordered
