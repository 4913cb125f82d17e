"""Parallel experiment runner: fan independent tasks across processes.

The figure experiments decompose along embarrassingly parallel axes —
placements (Figure 4), scenario seeds (Figure 7), repetitions (Figure 6),
grid placements (coverage suites).  This module is the one place that owns
how those axes fan out:

* :func:`run_parallel` maps a module-level task function over a task list,
  serially for ``jobs=1`` (no pool, no pickling — bit-identical to the
  historical loops) or on a ``concurrent.futures.ProcessPoolExecutor``
  otherwise, preserving task order either way.
* :func:`derive_seeds` derives per-task random seeds deterministically with
  ``numpy.random.SeedSequence.spawn`` — the statistically sound way to give
  parallel tasks independent streams from one base seed.  Results depend
  only on ``(base_seed, task index)``, never on worker scheduling, so any
  ``jobs`` value reproduces any other.
* :func:`run_parallel` also returns each worker task's
  observability delta — the per-worker metrics/span sample the run-record
  sink merges into a complete run-level view at any ``--jobs``
  (:func:`merged_telemetry`), parent and workers alike.

Task functions must be module-level (picklable) and tasks/results must
survive a round-trip through pickle; every experiment's task payload here
is a tuple of frozen value dataclasses and ints, and every result a frozen
dataclass of arrays.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..obs.records import ObsSample, current_sample, merge_samples
from ..obs.tracing import RequestCapture, RequestContext, bind_context, global_tracer

__all__ = [
    "available_cpus",
    "resolve_jobs",
    "derive_seeds",
    "run_parallel",
    "shared_pool",
    "dispose_shared_pool",
    "warm_pool",
    "shutdown_shared_pools",
    "merged_telemetry",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")


def available_cpus() -> int:
    """CPUs available to this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request to a worker count.

    ``None`` and ``1`` mean serial; ``0`` or negative mean "all available
    CPUs"; any other positive value is taken literally.
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return available_cpus()
    return int(jobs)


def derive_seeds(base_seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent child seed sequences from one base seed.

    ``SeedSequence.spawn`` guarantees the children's streams are mutually
    independent and fully determined by ``(base_seed, index)`` — the
    per-task seeding contract that makes parallel results identical at any
    worker count.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return np.random.SeedSequence(base_seed).spawn(count)


def merged_telemetry(
    worker_samples: Sequence[ObsSample] = (),
    since: Optional[ObsSample] = None,
) -> dict:
    """Run-level trace-cache totals: parent *plus* every worker.

    Merges the parent process's registry (optionally only its delta
    ``since`` a sample taken at run start) with the per-task worker
    samples ``run_parallel`` returned.  Hit/miss totals cover per-link and batched lookups;
    ``trace_cache_entries`` sums residency over the distinct processes.
    """
    parent = current_sample()
    if since is not None:
        parent = parent.delta(since)
    merged = merge_samples([parent, *worker_samples])
    counters = merged.metrics.counters
    return {
        "trace_cache_hits": counters.get("em.trace_cache.hits", 0)
        + counters.get("em.trace_cache.batch_hits", 0),
        "trace_cache_misses": counters.get("em.trace_cache.misses", 0)
        + counters.get("em.trace_cache.batch_misses", 0),
        "trace_cache_evictions": counters.get("em.trace_cache.evictions", 0),
        "trace_cache_entries": int(
            merged.metrics.gauges.get("em.trace_cache.entries", 0)
        ),
        "processes": len({parent.pid, *(s.pid for s in worker_samples)}),
    }


#: Process pools kept alive across :func:`run_parallel` calls, keyed by
#: worker count.  Pool startup costs ~0.2 s (fork + import) — more than a
#: whole small figure run — so paying it once per session instead of once
#: per call is what makes parallel runs of short workloads actually faster
#: than serial (the fig4 regression BENCH_trace.json used to record).
#: Workers hold no experiment state the results depend on: task functions
#: are pure functions of their pickled payloads, and observability is
#: shipped as per-task deltas, so reuse is invisible to outputs.
_SHARED_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shared_pool(num_workers: int) -> ProcessPoolExecutor:
    """The persistent pool for ``num_workers``, creating it on first use."""
    pool = _SHARED_POOLS.get(num_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=num_workers)
        _SHARED_POOLS[num_workers] = pool
    return pool


def dispose_shared_pool(
    jobs: Optional[int], pool: Optional[ProcessPoolExecutor] = None
) -> None:
    """Drop and shut down the shared pool for ``jobs``, e.g. after a
    worker died (``BrokenProcessPool``); the next caller gets a fresh one.

    Given ``pool``, the one that failed, the cached pool is dropped only
    if it still is that pool: a failure reported late, after a fresh pool
    replaced the broken one, leaves the fresh pool running.
    """
    num_workers = resolve_jobs(jobs)
    cached = _SHARED_POOLS.get(num_workers)
    if cached is not None and pool in (None, cached):
        del _SHARED_POOLS[num_workers]
        cached.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Shut down every persistent worker pool (registered via atexit)."""
    for num_workers in list(_SHARED_POOLS):
        dispose_shared_pool(num_workers)


atexit.register(shutdown_shared_pools)


def shared_pool(jobs: Optional[int]) -> Optional[ProcessPoolExecutor]:
    """The persistent shared executor for a ``jobs`` request, or ``None``.

    The public seam for long-running drivers (the serving layer) that
    schedule their own work — e.g. via
    ``loop.run_in_executor(shared_pool(jobs), fn, ...)`` — instead of
    going through :func:`run_parallel`.  Serial requests (resolved worker
    count 1) return ``None`` so callers can run inline.  The pool is the
    same one :func:`run_parallel` uses: created once, reused across
    callers, replaced after :func:`dispose_shared_pool`, shut down at
    interpreter exit.
    """
    num_workers = resolve_jobs(jobs)
    if num_workers <= 1:
        return None
    return _shared_pool(num_workers)


def warm_pool(jobs: Optional[int]) -> int:
    """Pre-start the worker pool a later :func:`run_parallel` will use.

    Returns the resolved worker count.  Benchmarks call this before
    timing so they measure steady-state parallel throughput, not one-off
    pool startup; long-running drivers may call it to move startup cost
    ahead of the first measured figure.
    """
    num_workers = resolve_jobs(jobs)
    if num_workers > 1:
        _shared_pool(num_workers)
    return num_workers


class _ObservedTask:
    """Picklable task wrapper shipping a per-task observability delta.

    Runs in the worker process: snapshots the worker's registry/tracer
    before and after the task, wraps the task in a ``task.<fn name>`` span,
    and returns ``(result, delta)``.  Per-task deltas (not cumulative
    snapshots) mean a worker that handles many tasks is never
    double-counted when the parent merges all samples.  Like every span,
    the task span parents on the bound context: on the serial path that
    is the caller's open span, so the task nests under it.
    """

    __slots__ = ("fn", "span_name")

    def __init__(self, fn: Callable[[TaskT], ResultT]) -> None:
        self.fn = fn
        self.span_name = f"task.{getattr(fn, '__name__', 'task')}"

    def __call__(self, task: TaskT) -> Tuple[ResultT, ObsSample]:
        before = current_sample()
        # reprolint: disable=RPL006 -- per-task span names derive from the
        # wrapped function's __name__ at runtime; the `task.` prefix is the
        # statically known part.
        with global_tracer().span(self.span_name):
            result = self.fn(task)
        return result, current_sample().delta(before)


#: The span a pool worker wraps a traced task in.  The emitted record
#: carries the worker's pid and the parent (batch) span id from the
#: shipped context, which is what lets a cross-process timeline stitch.
_SPAN_WORKER = "task.worker"


def traced_call(context: Optional[RequestContext], fn, *args):
    """Run ``fn(*args)`` stitched into a request trace (pool-worker entry).

    ``context`` is the request's :class:`~repro.obs.tracing.RequestContext`
    (shipped to the worker as it is), or ``None`` for an untraced call.
    The call runs bound to that context inside a ``task.worker`` span, and
    every span of the request emitted meanwhile is captured and returned
    as plain dicts alongside the result — the event-loop process merges
    them into its :class:`~repro.obs.tracing.RequestTraceStore`,
    completing the cross-process timeline.  Tracing never changes ``fn``'s
    result: the wrapper adds clock reads only, and none at all when
    ``context`` is ``None`` or observability is disabled in the worker.
    """
    if context is None:
        return fn(*args), ()
    with RequestCapture(context.request_id) as capture:
        with bind_context(context):
            with global_tracer().span(_SPAN_WORKER):
                result = fn(*args)
    return result, tuple(record.as_dict() for record in capture.records)


def run_parallel(
    fn: Callable[[TaskT], ResultT],
    tasks: Sequence[TaskT],
    jobs: Optional[int] = None,
) -> Tuple[List[ResultT], List[ObsSample]]:
    """Map ``fn`` over ``tasks``, optionally across worker processes.

    Results come back in task order regardless of completion order.  With
    ``jobs`` resolving to 1 (the default) the map runs in-process — no
    executor, no pickling — so the serial path is exactly the historical
    per-item loop.

    Parameters
    ----------
    fn:
        A module-level (picklable) function of one task.
    tasks:
        The task payloads; each must be picklable when ``jobs > 1``.
    jobs:
        Worker processes: ``None``/``1`` serial, ``<= 0`` all CPUs.

    Returns
    -------
    ``(results, worker_samples)``, where ``worker_samples`` is one
    :class:`~repro.obs.records.ObsSample` delta per task executed in a
    *worker* process.  The serial path returns an empty sample list —
    everything it records is already in the parent registry, so a caller
    measuring its own parent delta (e.g.
    :class:`~repro.obs.records.RunRecorder`) sees each event exactly once
    at any ``jobs`` value.
    """
    task_list = list(tasks)
    num_workers = resolve_jobs(jobs)
    wrapped = _ObservedTask(fn)
    if num_workers <= 1 or len(task_list) <= 1:
        # Serial tasks record straight into the parent registry/tracer (the
        # per-task span included), so the caller's own parent delta already
        # covers them — returning samples too would double count.
        return [wrapped(task)[0] for task in task_list], []
    num_workers = min(num_workers, len(task_list))
    try:
        pool = _shared_pool(num_workers)
        mapped = list(pool.map(wrapped, task_list))
    except BrokenProcessPool:
        # A worker died (OOM, signal).  Replace the pool once and retry —
        # task functions are pure, so a retry is safe.
        dispose_shared_pool(num_workers, pool)
        pool = _shared_pool(num_workers)
        mapped = list(pool.map(wrapped, task_list))
    results: List[ResultT] = [result for result, _ in mapped]
    samples = [sample for _, sample in mapped]
    return results, samples
