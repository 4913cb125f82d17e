"""Runs one workload in one mode and assembles its result."""

from __future__ import annotations

import asyncio
import ctypes
import gc
import glob
import os
import platform
import time

import numpy as np
from repro.em import trace_cache
from repro.experiments.runner import available_cpus, shared_pool, shutdown_shared_pools

from . import closed, probes, stats
from .phase import Phase, describe, end_to_end
from .serve_mixed import JOBS, ServeMixed, spans_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Cold set-ups timed per untraced run; ``setup_s`` is their median.  The
#: first :data:`SETUP_BEFORE` run before the timed phase, the rest after
#: it, so the median draws on the machine's speed at both ends of the run.
SETUP_REPS = {"search-single": 8, "joint-moving": 16, "serve-mixed": 8}
SETUP_BEFORE = {name: reps // 2 for name, reps in SETUP_REPS.items()}
#: Coherence time of one measure -> search -> actuate round (paper, §2).
ROUND_BUDGET_MS = 80.0  # 0.5 mph
ACTUATE_BUDGET_MS = 6.0  # walking speed


def run(workload: str, seed: int, seconds: float, traced: bool):
    """``(result, stamp, notes)`` for one invocation."""
    stamp = environment_stamp()
    stamp.update(workload=workload, seed=seed, seconds=seconds, trace=int(traced))
    notes: list[str] = []
    if workload == "serve-mixed":
        phases, metrics = asyncio.run(_serve(seed, seconds, traced, notes))
    else:
        phases, metrics = _closed(workload, seed, seconds, traced, notes)
    attempted = sum(p.attempted for p in phases)
    ok = sum(p.ok for p in phases)
    failures = [why for p in phases for why in p.failures]
    notes.extend(f"check failed: {why}" for why in failures[:20])
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
    }
    return result, stamp, notes


# -- search workloads -------------------------------------------------------


def timed_build(workload) -> float:
    """One cold build of the workload's sessions, in seconds."""
    trace_cache.reset()
    gc.collect()
    start = time.perf_counter()
    workload.build()
    return time.perf_counter() - start


def _closed(name: str, seed: int, seconds: float, traced: bool, notes: list):
    workload = closed.WORKLOADS[name](seed)
    if not traced:
        reps = [timed_build(workload) for _ in range(SETUP_BEFORE[name])]
        workload.after_build()
        closed.warm_up(workload)
        phase, rounds = closed.run_phase(workload, seconds)
        closed.rerun_check(workload, phase, rounds)
        reps += [timed_build(workload) for _ in range(SETUP_REPS[name] - SETUP_BEFORE[name])]
        notes.append(describe(phase))
        notes.append(_budget_line(f"{name} round", phase.latency_s, ROUND_BUDGET_MS, "0.5 mph"))
        return [phase], _end_to_end(phase, reps, notes)

    half = seconds / 2
    timed_build(workload)
    workload.after_build()
    closed.warm_up(workload)
    plain, _ = closed.run_phase(workload, half, min_rounds=0)
    installed = probes.install()
    try:
        before = probes.registry_counters()
        timed_build(workload)
        counters = probes.counters_since(before)
        setup_stats, *_ = installed.take()
        with installed.tracer.suspended():
            workload.after_build()
            closed.warm_up(workload)
        before = probes.registry_counters()
        phase, rounds = closed.run_phase(
            workload, half, min_rounds=0, suspend=installed.tracer.suspended
        )
        counters = _add(counters, probes.counters_since(before))
        run_stats, rows, soundings, measurements, shipped = installed.take()
    finally:
        installed.tracer.restore()
    closed.rerun_check(workload, phase, rounds)
    metrics = probes.layer_metrics(
        setup_stats, run_stats, rows, soundings, measurements, shipped,
        rounds=phase.attempted, busy_base_s=phase.wall_s, counters=counters,
        spans=None, trace_overhead=_overhead(phase, plain),
    )
    notes.append(f"traced {phase.attempted} rounds, untraced {plain.attempted} rounds")
    return [plain, phase], _per_layer(metrics)


# -- serving workload -------------------------------------------------------


async def _serve(seed: int, seconds: float, traced: bool, notes: list):
    workload = ServeMixed(seed)
    sessions = workload.direct_sessions()
    try:
        reps = await _serve_builds(workload, 0 if traced else SETUP_BEFORE["serve-mixed"] - 1)
        service, took = await workload.build(workload.config(False), restart_pool=True)
        reps.append(took)
        await workload.warm_up(service, sessions)
        if traced:
            plain = await workload.run_phase(service, sessions, seconds / 2, min_ops=0)
        else:
            plain = await workload.run_phase(service, sessions, seconds)
        await service.close()
        if traced:
            traced_run = await _serve_traced(workload, sessions, seconds / 2)
        else:
            reps += await _serve_builds(workload, SETUP_REPS["serve-mixed"] - len(reps))
    finally:
        shared_pool(JOBS).shutdown(wait=True)
        shutdown_shared_pools()

    if not traced:
        notes.append(describe(plain))
        notes.append(_budget_line("serve-mixed evaluate", plain.evaluate_s, ACTUATE_BUDGET_MS, "walking speed"))
        return [plain], _end_to_end(plain, reps, notes)

    phase, traces, setup_stats, run_stats, observed, counters = traced_run
    rows, soundings, measurements, shipped = observed
    metrics = probes.layer_metrics(
        setup_stats, run_stats, rows, soundings, measurements, shipped,
        rounds=len(phase.search_s), busy_base_s=phase.wall_s, counters=counters,
        spans=spans_of(phase, traces), trace_overhead=_overhead(phase, plain),
    )
    metrics["core.search.soundings_per_round"] = _served_mean(phase, "num_evaluations")
    metrics["core.joint.measurements_per_round"] = _served_mean(phase, "num_measurements")
    notes.append(f"traced {len(traces)} requests, untraced {plain.attempted}")
    return [plain, phase], _per_layer(metrics)


async def _serve_builds(workload: ServeMixed, count: int) -> list:
    """Set-up times of ``count`` cold builds, each service closed after."""
    reps = []
    for _ in range(count):
        service, took = await workload.build(workload.config(False), restart_pool=True)
        await service.close()
        reps.append(took)
    return reps


async def _serve_traced(workload: ServeMixed, sessions: dict, seconds: float):
    installed = probes.install()
    try:
        before = probes.registry_counters()
        service, _ = await workload.build(workload.config(True), restart_pool=False)
        counters = probes.counters_since(before)
        setup_stats, *_ = installed.take()
        with installed.tracer.suspended():
            await workload.warm_up(service, sessions)
        service.drain_request_traces()
        before = probes.registry_counters()
        phase = await workload.run_phase(
            service, sessions, seconds, min_ops=0, traced=True, suspend=installed.tracer.suspended
        )
        counters = _add(counters, probes.counters_since(before))
        run_stats, *observed = installed.take()
        traces = service.drain_request_traces()
        await service.close()
    finally:
        installed.tracer.restore()
    return phase, traces, setup_stats, run_stats, observed, counters


def _served_mean(phase: Phase, field: str) -> float:
    """Mean of an exact count the service returned, over the responses with it."""
    values = [getattr(value, field) for _, value, _ in phase.served if hasattr(value, field)]
    return float(np.mean(values)) if values else 0.0


# -- shared ------------------------------------------------------------------


def _add(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def _overhead(traced: Phase, plain: Phase) -> float:
    return 1.0 - traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0


def _end_to_end(phase: Phase, reps: list, notes: list) -> dict:
    notes.append("setup_s reps: " + " ".join(f"{r:.4f}" for r in reps))
    try:
        return end_to_end(phase, reps)
    except (ValueError, ZeroDivisionError) as error:
        notes.append(f"metrics unavailable: {error}")
        phase.fail(str(error))
        return {}


def _per_layer(metrics: dict) -> dict:
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, (unit, _) in probes.PER_LAYER.items()
    }


def _budget_line(what: str, latencies_s: list, budget_ms: float, speed: str) -> str:
    """Informational: a latency's median and tail against a coherence time."""
    if not stats.supports(len(latencies_s), 50):
        return f"coherence: {what}: too few samples"
    used, tail_s = stats.tail(latencies_s, 99)
    p50 = 1e3 * stats.percentile(latencies_s, 50)
    return (
        f"coherence: {what} p50 {p50:.2f} ms, p{used:g} {1e3 * tail_s:.2f} ms "
        f"against {budget_ms:g} ms at {speed} (not gated)"
    )


def environment_stamp() -> dict:
    return {
        "available_cpus": available_cpus(),
        "git_rev": git_revision(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def git_revision(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Threads the bundled OpenBLAS will use (falls back to the env value)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS")
