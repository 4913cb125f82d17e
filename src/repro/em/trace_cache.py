"""Process-wide geometry trace cache, keyed by scene fingerprint.

Every experiment that re-builds a testbed for the same placement seed used
to re-trace identical geometry: ``run_fig6`` and ``run_fig7`` construct a
fresh :class:`~repro.sdr.testbed.Testbed` per call, and a figure suite run
back-to-back repeats the same (scene, endpoints) traces many times over.

All the scene types are immutable value dataclasses, so a trace is fully
determined by the *values* of ``(scene, frequency, max_bounces, tx, rx,
antennas)`` — that tuple is the cache key (the "scene fingerprint").  Two
testbeds built from the same placement seed hash to the same key and share
one trace, across instances and across experiments within a process.

The cache is a bounded LRU; worker processes of the parallel experiment
runner each hold their own copy (it is per-process state, never pickled).
Hit/miss/eviction totals are mirrored into the observability registry
(``em.trace_cache.*``) so the parallel runner can merge complete run-level
cache statistics across workers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Optional

import numpy as np

from ..obs.metrics import counter_handle, gauge_handle
from .antennas import Antenna
from .geometry import Point
from .paths import PathBatch, SignalPath

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .raytracer import RayTracer, TraceFrame

__all__ = ["TraceCache", "configure", "global_trace_cache", "reset"]

#: Default bound on cached traces.  A coverage run touches a few hundred
#: endpoints per placement; 4096 comfortably holds several placements.
DEFAULT_MAXSIZE = 4096

#: Approximate resident size of one cached :class:`SignalPath`.  The exact
#: CPython figure varies by version and field values; the budget only needs
#: the right order of magnitude to keep batch entries (megabytes of packed
#: arrays) from starving scalar ones.
_SIGNAL_PATH_NBYTES = 160

_HITS = counter_handle("em.trace_cache.hits")
_MISSES = counter_handle("em.trace_cache.misses")
_EVICTIONS = counter_handle("em.trace_cache.evictions")
_BATCH_HITS = counter_handle("em.trace_cache.batch_hits")
_BATCH_MISSES = counter_handle("em.trace_cache.batch_misses")
_ENTRIES = gauge_handle("em.trace_cache.entries")
_BYTES = gauge_handle("em.trace_cache.bytes")
_HIT_RATE = gauge_handle("em.trace_cache.hit_rate")


def _entry_nbytes(value: object) -> int:
    """Approximate resident bytes of one cached value.

    PathBatch entries are dominated by their packed numpy arrays, which
    report exact ``nbytes``; scalar path tuples use a fixed per-path
    estimate (see :data:`_SIGNAL_PATH_NBYTES`).
    """
    if isinstance(value, PathBatch):
        total = 0
        for field in (value.gains, value.delays_s, value.aod_rad, value.aoa_rad, value.valid):
            if isinstance(field, np.ndarray):
                total += int(field.nbytes)
        return max(total, 1)
    if isinstance(value, tuple):
        return max(len(value), 1) * _SIGNAL_PATH_NBYTES
    return _SIGNAL_PATH_NBYTES


class TraceCache:
    """A bounded LRU cache of ambient traces keyed by geometry values.

    Keys combine the tracer's scene fingerprint (the scene value itself —
    an immutable dataclass hashing by field values) with its radio
    parameters and the endpoint positions/antennas.  Values are the packed
    ``tuple[SignalPath, ...]`` of :meth:`RayTracer.trace` — or, for the
    batched entry point, the :class:`~repro.em.paths.PathBatch` of
    :meth:`RayTracer.trace_batch` keyed by the raw coordinate bytes.

    ``hits``/``misses``/``evictions`` count per-instance; the same events
    are mirrored into the global metrics registry under
    ``em.trace_cache.*`` so run records see totals across all instances
    and worker processes.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_MAXSIZE,
        max_bytes: Optional[int] = None,
    ) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache since the last reset."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def key(
        tracer: "RayTracer",
        tx: Point,
        rx: Point,
        tx_antenna: Antenna,
        rx_antenna: Antenna,
    ) -> Hashable:
        """The scene-fingerprint cache key for one trace."""
        return (
            tracer.scene,
            tracer.frequency_hz,
            tracer.max_bounces,
            tx,
            rx,
            tx_antenna,
            rx_antenna,
        )

    @staticmethod
    def batch_key(
        tracer: "RayTracer",
        tx: Point,
        rx_points,
        tx_antenna: Antenna,
        rx_antenna: Antenna,
    ) -> Hashable:
        """The cache key for one batched trace (coordinate grid by value)."""
        from .raytracer import _points_to_arrays

        xs, ys = _points_to_arrays(rx_points)
        return (
            "batch",
            tracer.scene,
            tracer.frequency_hz,
            tracer.max_bounces,
            tx,
            xs.shape,
            xs.tobytes(),
            ys.tobytes(),
            tx_antenna,
            rx_antenna,
        )

    def _store(self, key: Hashable, value: object) -> None:
        nbytes = _entry_nbytes(value)
        self._entries[key] = value
        self._sizes[key] = nbytes
        self.current_bytes += nbytes
        while len(self._entries) > self.maxsize or (
            self.max_bytes is not None
            and self.current_bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            evicted_key, _ = self._entries.popitem(last=False)
            self.current_bytes -= self._sizes.pop(evicted_key)
            self.evictions += 1
            _EVICTIONS.inc()
        _ENTRIES.set(len(self._entries))
        _BYTES.set(self.current_bytes)

    def _record_hit(self, mirror) -> None:
        self.hits += 1
        mirror.inc()
        _HIT_RATE.set(self.hit_rate)

    def _record_miss(self, mirror) -> None:
        self.misses += 1
        mirror.inc()
        _HIT_RATE.set(self.hit_rate)

    def get_or_trace(
        self,
        tracer: "RayTracer",
        tx: Point,
        rx: Point,
        tx_antenna: Antenna,
        rx_antenna: Antenna,
    ) -> tuple[SignalPath, ...]:
        """The cached trace for these values, tracing on first request."""
        key = self.key(tracer, tx, rx, tx_antenna, rx_antenna)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self._record_hit(_HITS)
            return cached  # type: ignore[return-value]
        self._record_miss(_MISSES)
        paths = tuple(tracer.trace(tx, rx, tx_antenna, rx_antenna))
        self._store(key, paths)
        return paths

    def get_or_trace_batch(
        self,
        tracer: "RayTracer",
        tx: Point,
        rx_points,
        tx_antenna: Antenna,
        rx_antenna: Antenna,
        frame: Optional["TraceFrame"] = None,
    ) -> PathBatch:
        """The cached batched trace for a batch of receiver points.

        Keys by the raw bytes of the coordinate arrays, so re-running the
        same coverage grid (across figure calls, or across repeats within
        a worker) reuses one :class:`~repro.em.paths.PathBatch` instead of
        re-tracing.  A miss traces against ``frame`` — the caller's
        :meth:`~repro.em.raytracer.RayTracer.frame` of ``tx`` — when one
        is given.  Batch lookups are counted separately
        (``em.trace_cache.batch_hits``/``batch_misses``) from per-link
        ones, since one batch stands in for hundreds of point traces.
        """
        key = self.batch_key(tracer, tx, rx_points, tx_antenna, rx_antenna)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self._record_hit(_BATCH_HITS)
            return cached  # type: ignore[return-value]
        self._record_miss(_BATCH_MISSES)
        if frame is None:
            frame = tracer.frame(tx, tx_antenna)
        batch = frame.trace_batch(rx_points, rx_antenna)
        self._store(key, batch)
        return batch

    def reset_counters(self) -> None:
        """Zero hit/miss/eviction counters without dropping entries.

        Benchmarks call this between phases so one phase's warm-up traffic
        does not bleed into the next phase's statistics.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _HIT_RATE.set(0.0)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss/eviction counters."""
        self._entries.clear()
        self._sizes.clear()
        self.current_bytes = 0
        self.reset_counters()
        _ENTRIES.set(0)
        _BYTES.set(0)


_GLOBAL_CACHE = TraceCache()


def global_trace_cache() -> TraceCache:
    """The process-wide trace cache shared by all testbeds."""
    return _GLOBAL_CACHE


def configure(
    maxsize: int = DEFAULT_MAXSIZE, max_bytes: Optional[int] = None
) -> TraceCache:
    """Replace the process-wide cache with a freshly sized, empty one.

    The serving layer calls this at startup to pin an explicit budget, and
    test suites use it (via the autouse fixture in ``tests/conftest.py``)
    to stop cached traces and hit/miss counts leaking between tests.
    Returns the new cache, which :func:`global_trace_cache` hands out from
    now on.  Existing references to the old cache keep working but no
    longer see global traffic.
    """
    global _GLOBAL_CACHE
    _GLOBAL_CACHE.clear()
    _GLOBAL_CACHE = TraceCache(maxsize=maxsize, max_bytes=max_bytes)
    return _GLOBAL_CACHE


def reset() -> TraceCache:
    """Restore the process-wide cache to a default-sized empty one."""
    return configure()
