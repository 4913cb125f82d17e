"""The offload path: every non-coalesced request, inline or on the pool.

Sweeps, searches, joints and coverage grids take one route.  With a pool
the service ships ``traced_call(context, compute, request)`` and nothing
else: the worker resolves the scenario through its own session cache.
Sweeps always run inline.  These tests pin what that route promises: the
members of one flush run concurrently, no basis crosses the pickle
boundary, a dead worker fails its request and the next one gets a fresh
pool, a late failure of a replaced pool leaves the fresh pool alone, and
neither ``close()``, a pool shut down under a queued request, nor a
cancelling client leaves a future hanging.
"""

from __future__ import annotations

import asyncio
import io
import os
import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.basis import ChannelBasis
from repro.experiments import runner
from repro.experiments.runner import resolve_jobs, shared_pool, traced_call
from repro.serve import (
    CoverageRequest,
    EnvironmentService,
    EvaluateRequest,
    JointLinkSpec,
    JointOptimizeRequest,
    ScenarioSpec,
    SearchRequest,
    ServiceClient,
    ServiceConfig,
    SweepRequest,
)
from repro.serve import service as service_module

NLOS = ScenarioSpec(kind="nlos", placement=0)
LINKS = (JointLinkSpec(name="a"), JointLinkSpec(name="b", dx_m=0.4))

#: Bound on every wait below: a hang fails the test instead of the run.
TIMEOUT_S = 30.0

#: One request of each non-coalesced kind.
NON_COALESCED = (
    SweepRequest(NLOS, repetitions=2, seed=9, drift_phase_rad=0.08),
    SearchRequest(NLOS, "rfocus", seed=3),
    SearchRequest(NLOS, "greedy", seed=1),
    JointOptimizeRequest(NLOS, LINKS, searcher="greedy"),
    CoverageRequest(NLOS, rows=2, cols=3),
)

#: The ones a service with a pool ships to it: all but the sweep.
POOLED = NON_COALESCED[1:]


class RecordingPool:
    """An executor that holds every submitted call until released.

    Calls run as a worker would run them, from their pickled form; once
    released, later calls run as soon as they are submitted.
    """

    def __init__(self) -> None:
        self.calls: list = []
        self.released = False

    def submit(self, fn, /, *args):
        future: Future = Future()
        self.calls.append((fn, args, future))
        if self.released:
            self._run(fn, args, future)
        return future

    def release(self) -> None:
        self.released = True
        for fn, args, future in self.calls:
            if not future.done():
                self._run(fn, args, future)

    @staticmethod
    def _run(fn, args, future: Future) -> None:
        shipped_fn, shipped_args = pickle.loads(pickle.dumps((fn, args)))
        future.set_result(shipped_fn(*shipped_args))


class HeldPool:
    """An executor whose calls never run: each stays queued until the
    test settles or cancels its future."""

    def __init__(self) -> None:
        self.futures: list = []

    def submit(self, fn, /, *args):
        future: Future = Future()
        self.futures.append(future)
        return future


class CountingPool:
    """A real executor behind a proxy that counts submissions."""

    def __init__(self, pool) -> None:
        self.pool = pool
        self.submitted = 0

    def submit(self, fn, /, *args):
        self.submitted += 1
        return self.pool.submit(fn, *args)


def _holds_basis(payload) -> bool:
    found = []

    class Finder(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, ChannelBasis):
                found.append(obj)
            return NotImplemented

    Finder(io.BytesIO(), protocol=5).dump(payload)
    return bool(found)


def _route_pooled_requests_to(pool, monkeypatch) -> None:
    """Stand ``pool`` in for the shared pool; inline services stay inline."""
    monkeypatch.setattr(
        service_module,
        "shared_pool",
        lambda jobs: pool if resolve_jobs(jobs) > 1 else None,
    )


@pytest.fixture
def recording_pool(monkeypatch):
    pool = RecordingPool()
    _route_pooled_requests_to(pool, monkeypatch)
    yield pool
    # The held calls ran in this process: drop the sessions they cached,
    # so pool workers forked later start cold.
    service_module._worker_session.cache_clear()


async def _until(condition) -> None:
    while not condition():
        await asyncio.sleep(0.001)


async def _serve_inline(requests):
    async with EnvironmentService() as service:
        return await asyncio.gather(*(service.submit(r) for r in requests))


def test_flush_submits_every_offloaded_member_before_any_completes(
    recording_pool,
):
    requests = (*NON_COALESCED, EvaluateRequest(NLOS, ((0, 1, 2),)))

    async def drive():
        config = ServiceConfig(search_jobs=2, batch_window_s=0.01)
        async with EnvironmentService(config) as service:
            tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
            try:
                await asyncio.wait_for(
                    _until(lambda: len(recording_pool.calls) == len(POOLED)),
                    TIMEOUT_S,
                )
                # Nothing pooled has completed, yet every member is out.
                pooled = tasks[1 : len(NON_COALESCED)]
                assert not any(task.done() for task in pooled)
            finally:
                recording_pool.release()  # on failure too: close() waits
            return await asyncio.wait_for(asyncio.gather(*tasks), TIMEOUT_S)

    served = asyncio.run(drive())
    for fn, args, _ in recording_pool.calls:
        assert fn is traced_call
        context, task_fn, request = args  # the request, and nothing else
        assert task_fn is service_module.compute
        assert request in POOLED
        assert not _holds_basis((fn, args))
    assert served == asyncio.run(_serve_inline(requests))


def test_client_cancelling_while_its_batch_runs(recording_pool):
    errors: list = []

    async def drive():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        config = ServiceConfig(search_jobs=2, batch_window_s=0.01)
        async with EnvironmentService(config) as service:
            tasks = [
                asyncio.ensure_future(service.submit(r))
                for r in (*NON_COALESCED, EvaluateRequest(NLOS, ((0, 0, 0),)))
            ]
            try:
                await asyncio.wait_for(
                    _until(lambda: len(recording_pool.calls) == len(POOLED)),
                    TIMEOUT_S,
                )
                batches = list(service._executions)
                tasks[1].cancel()
                tasks[3].cancel()
            finally:
                recording_pool.release()
            done = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), TIMEOUT_S
            )
            # The batch settled its other futures without raising.
            await asyncio.wait_for(asyncio.gather(*batches), TIMEOUT_S)
            return done

    done = asyncio.run(drive())
    assert isinstance(done[1], asyncio.CancelledError)
    assert isinstance(done[3], asyncio.CancelledError)
    expected = asyncio.run(
        _serve_inline([NON_COALESCED[0], NON_COALESCED[2], NON_COALESCED[4]])
    )
    assert [done[0], done[2], done[4]] == expected
    assert not errors


def test_close_settles_pool_work_in_flight(monkeypatch):
    requests = (*NON_COALESCED, EvaluateRequest(NLOS, ((3, 2, 1),)))
    pool = CountingPool(shared_pool(2))
    _route_pooled_requests_to(pool, monkeypatch)

    async def drive():
        service = EnvironmentService(ServiceConfig(search_jobs=2))
        tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
        await asyncio.wait_for(
            _until(lambda: pool.submitted == len(POOLED)), TIMEOUT_S
        )
        await asyncio.wait_for(service.close(), TIMEOUT_S)
        return await asyncio.wait_for(asyncio.gather(*tasks), TIMEOUT_S)

    assert asyncio.run(drive()) == asyncio.run(_serve_inline(requests))


def test_dead_worker_fails_its_request_and_the_next_gets_a_fresh_pool():
    async def drive():
        async with EnvironmentService(ServiceConfig(search_jobs=2)) as service:
            client = ServiceClient(service)

            async def search():
                return await asyncio.wait_for(
                    client.search(NLOS, "rfocus", seed=3), TIMEOUT_S
                )

            first = await search()
            doomed = shared_pool(2).submit(os._exit, 1)
            with pytest.raises(BrokenProcessPool):
                await asyncio.wait_for(asyncio.wrap_future(doomed), TIMEOUT_S)
            with pytest.raises(BrokenProcessPool):
                await search()
            return first, await search()

    first, again = asyncio.run(drive())
    assert again == first


def test_late_failure_of_a_replaced_pool_leaves_the_fresh_pool_running(
    monkeypatch,
):
    broken = HeldPool()
    serving = [broken]
    monkeypatch.setattr(service_module, "shared_pool", lambda jobs: serving[0])
    search = SearchRequest(NLOS, "rfocus", seed=3)

    async def drive():
        async with EnvironmentService(ServiceConfig(search_jobs=2)) as service:
            stale = asyncio.ensure_future(service.submit(search))
            await asyncio.wait_for(_until(lambda: broken.futures), TIMEOUT_S)
            # The broken pool was replaced while the request sat on it.
            fresh = runner.shared_pool(2)
            serving[0] = fresh
            first = await asyncio.wait_for(service.submit(search), TIMEOUT_S)
            broken.futures[0].set_exception(BrokenProcessPool("late"))
            with pytest.raises(BrokenProcessPool):
                await asyncio.wait_for(stale, TIMEOUT_S)
            assert runner.shared_pool(2) is fresh
            again = await asyncio.wait_for(service.submit(search), TIMEOUT_S)
            return first, again

    first, again = asyncio.run(drive())
    assert again == first


def test_pool_shut_down_under_a_queued_request_fails_it(monkeypatch):
    pool = HeldPool()
    _route_pooled_requests_to(pool, monkeypatch)

    async def drive():
        async with EnvironmentService(ServiceConfig(search_jobs=2)) as service:
            tasks = [asyncio.ensure_future(service.submit(r)) for r in POOLED]
            await asyncio.wait_for(
                _until(lambda: len(pool.futures) == len(POOLED)), TIMEOUT_S
            )
            # What shutdown(cancel_futures=True) does to queued calls.
            for future in pool.futures:
                future.cancel()
            return await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), TIMEOUT_S
            )

    done = asyncio.run(drive())
    assert all(isinstance(error, BrokenProcessPool) for error in done)
