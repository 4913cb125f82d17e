"""Process-wide geometry trace cache, keyed by scene fingerprint.

Every experiment that re-builds a testbed for the same placement seed used
to re-trace identical geometry: ``run_fig6`` and ``run_fig7`` construct a
fresh :class:`~repro.sdr.testbed.Testbed` per call, and a figure suite run
back-to-back repeats the same (scene, endpoints) traces many times over.

All the scene types are immutable value dataclasses, so a trace is fully
determined by the *values* it reads, and those values are the cache key
(the "scene fingerprint").  Two testbeds built from the same placement
seed hash to the same key and share one trace, across instances and
across experiments within a process.  Each part of a basis is keyed by
exactly what it reads, so it is traced once per distinct geometry:

* the LoS and wall paths (:meth:`RayTracer.wall_paths`) by the walls,
  the obstacles, the radio settings, the endpoints and their antennas —
  scatterers do not change them, so placements of one room share them
  (the scatterer paths are cheap and re-traced on every lookup);
* an element state tensor ``E[n, m, k]`` by the key its builder
  (:meth:`~repro.core.basis.ChannelBasis.trace_chunked`) passes in.

The cache is a bounded LRU, by entry count and by bytes; worker processes
of the parallel experiment runner each hold their own copy (it is
per-process state, never pickled).  Hit/miss/eviction totals are mirrored
into the observability registry (``em.trace_cache.*``) so the parallel
runner can merge complete run-level cache statistics across workers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, Optional

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

#: Default bound on cached bytes: 64 N = 1024 element tensors (4 MiB
#: each), so a process that builds many distinct arrays keeps only the
#: most recent ones.
DEFAULT_MAX_BYTES = 256 << 20

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
_TENSOR_HITS = counter_handle("em.trace_cache.tensor_hits")
_TENSOR_MISSES = counter_handle("em.trace_cache.tensor_misses")
#: Per lookup kind: the instance fields and registry counters of its hits
#: and misses.  Per-link and batched ambient lookups share ``hits`` and
#: ``misses`` (and so :attr:`TraceCache.hit_rate`).
_KINDS = {
    "ambient": ("hits", "misses", _HITS, _MISSES),
    "batch": ("hits", "misses", _BATCH_HITS, _BATCH_MISSES),
    "tensor": ("tensor_hits", "tensor_misses", _TENSOR_HITS, _TENSOR_MISSES),
}
_ENTRIES = gauge_handle("em.trace_cache.entries")
_BYTES = gauge_handle("em.trace_cache.bytes")
_HIT_RATE = gauge_handle("em.trace_cache.hit_rate")


def _entry_nbytes(value: object) -> int:
    """Approximate resident bytes of one cached value.

    Element tensors and PathBatch entries are dominated by numpy arrays,
    which report exact ``nbytes``; scalar path tuples use a fixed per-path
    estimate (see :data:`_SIGNAL_PATH_NBYTES`).
    """
    if isinstance(value, np.ndarray):
        return max(int(value.nbytes), 1)
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
    """A bounded LRU cache of traces keyed by geometry values.

    Keys combine scene values (immutable dataclasses hashing by field
    values) with the tracer's radio parameters and the endpoint
    positions/antennas.  Three kinds of entry share one LRU and one budget:

    * the LoS and wall part of :meth:`RayTracer.trace`,
      :meth:`RayTracer.wall_paths`, keyed without the scatterers
      (:meth:`get_or_trace`);
    * the :class:`~repro.em.paths.PathBatch` of
      :meth:`TraceFrame.trace_batch`, keyed by the raw coordinate bytes
      (:meth:`get_or_trace_batch`);
    * read-only element state tensors (:meth:`get_or_build_tensor`).

    ``hits``/``misses`` count per-instance :meth:`get_or_trace` and
    :meth:`get_or_trace_batch` lookups, ``tensor_hits``/``tensor_misses``
    :meth:`get_or_build_tensor` lookups, and ``evictions`` entries of any
    kind; each lookup is counted once.  The same events are mirrored into
    the global metrics registry under ``em.trace_cache.*`` so run records
    see totals across all instances and worker processes.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_MAXSIZE,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
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
        self.tensor_hits = 0
        self.tensor_misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache since the last reset."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def wall_key(
        tracer: "RayTracer",
        tx: Point,
        rx: Point,
        tx_antenna: Antenna,
        rx_antenna: Antenna,
    ) -> Hashable:
        """The cache key of one trace's LoS and wall paths: no scatterers."""
        scene = tracer.scene
        return (
            "walls",
            scene.walls,
            scene.obstacles,
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
        """Insert ``value``, charging its estimated bytes."""
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

    def _lookup(self, key: Hashable, kind: str) -> object:
        """The entry under ``key``, promoted to most recent, or ``None``.

        Counts a hit or a miss of ``kind`` (see :data:`_KINDS`).
        """
        hit_field, miss_field, hit_counter, miss_counter = _KINDS[kind]
        cached = self._entries.get(key)
        if cached is None:
            setattr(self, miss_field, getattr(self, miss_field) + 1)
            miss_counter.inc()
        else:
            self._entries.move_to_end(key)
            setattr(self, hit_field, getattr(self, hit_field) + 1)
            hit_counter.inc()
        _HIT_RATE.set(self.hit_rate)
        return cached

    def get_or_trace(
        self,
        tracer: "RayTracer",
        tx: Point,
        rx: Point,
        tx_antenna: Antenna,
        rx_antenna: Antenna,
    ) -> tuple[SignalPath, ...]:
        """:meth:`RayTracer.trace` of these values, its wall part from the cache.

        The LoS and wall paths come from one entry keyed without the
        scatterers (:meth:`wall_key`), traced on its first request, so the
        placements of one room share it.  The scatterer paths, a fraction
        of the wall part's cost, are traced after them on every call: the
        same paths, in the same order, as :meth:`RayTracer.trace`.  Each
        call counts one hit or one miss.
        """
        key = self.wall_key(tracer, tx, rx, tx_antenna, rx_antenna)
        walls = self._lookup(key, "ambient")
        if walls is None:
            walls = tuple(tracer.wall_paths(tx, rx, tx_antenna, rx_antenna))
            self._store(key, walls)
        scattered = tracer.scatterer_paths(tx, rx, tx_antenna, rx_antenna)
        return walls + tuple(scattered)  # type: ignore[operator]

    def get_or_build_tensor(
        self, key: Hashable, build: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The element state tensor under ``key``, built on first request.

        The builder owns the key, which must hold every value ``build``
        reads.  The array is stored read-only, so the bases sharing it
        cannot write to one another's tensor.
        """
        cached = self._lookup(key, "tensor")
        if cached is not None:
            return cached  # type: ignore[return-value]
        tensor = build()
        tensor.setflags(write=False)
        self._store(key, tensor)
        return tensor

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
        cached = self._lookup(key, "batch")
        if cached is not None:
            return cached  # type: ignore[return-value]
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
        self.tensor_hits = 0
        self.tensor_misses = 0
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
    maxsize: int = DEFAULT_MAXSIZE, max_bytes: Optional[int] = DEFAULT_MAX_BYTES
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
