"""The serving workload: a fixed number of callers issuing a seeded mix.

``serve-mixed`` drives one ``EnvironmentService`` (default configuration
except ``search_jobs=2``) with :data:`CONCURRENCY` closed-loop callers
through ``serve.loadgen.run_closed_loop``: each caller sends its next
request when its previous reply has arrived.  Requests from different
callers coalesce into the service's batches, and evaluates wait behind
whatever runs on the event loop, joint traces included.  The mix is

* evaluate and actuate requests (2:1, four rows per evaluate, as in
  ``serve.loadgen.mixed_requests``) on four N=256 scenarios, chosen with
  Zipf skew 1.5 - these go through the service's batches and the
  ``ChannelBasis.evaluate`` gather;
* ``rfocus`` search requests on a fifth N=256 scenario - routed to the
  worker pool, each shipping the scenario's 1 MiB basis;
* ``rfocus`` joint requests for two links at fresh offsets on an N=64
  scenario - their ``bases_for_points`` trace runs on the event loop.

The seed draws the request order, scenarios, configurations and link
offsets.  Search requests take their searcher seeds, in order, from a
fixed stream instead, so the first :data:`GAIN_SEARCHES` of them are the
same searches in every run and ``gain_db`` does not change with the seed.

Requests are sent in chunks of :data:`CHUNK`.  After each chunk, untimed,
every response is compared for bit-identity with the same request
computed directly through ``ScenarioSession``, ``search_task`` or
``joint_task`` on sessions the benchmark built itself.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
from contextlib import nullcontext

import numpy as np
from repro.em import trace_cache
from repro.em.geometry import Point
from repro.experiments.runner import shared_pool, shutdown_shared_pools
from repro.serve import (
    ActuateRequest,
    ActuateResult,
    EnvironmentService,
    EvaluateRequest,
    EvaluateResult,
    JointLinkSpec,
    JointOptimizeRequest,
    JointOptimizeResult,
    ScenarioSpec,
    SearchRequest,
    SearchResult,
    ServiceClient,
    ServiceConfig,
    build_session,
)
from repro.serve.loadgen import run_closed_loop
from repro.serve.work import joint_task, search_task

from .closed import actuated_snr, mean_used_score
from .phase import Phase
from .probes import ServeSpans

#: Request types per block of 300 requests: 2% searches, 2% joints, and
#: the rest evaluates and actuates at ``mixed_requests``' 2:1.  Types are
#: dealt in shuffled blocks with a fixed count of each, so the share of
#: each type is the same in every run.  About 7% of requests are then
#: slow (searches, joints and the evaluates waiting behind a joint's
#: trace): p90 falls among the other evaluates, p99 among the joints, and
#: evaluate p99 among the waiting evaluates (about 3% of them), each
#: inside a group rather than on the edge between two.
BLOCK = {"search": 6, "joint": 6, "evaluate": 192, "actuate": 96}
BLOCK_KINDS = [kind for kind, count in BLOCK.items() for _ in range(count)]
ZIPF_SKEW = 1.5
EVALUATE_ROWS = 4
#: Element states of the large-array scenarios (SP4T elements).
STATES = 4
JOINT_LINKS = 2
LINK_SPREAD_M = 1.0
JOBS = 2
#: Seed of the searcher seeds, and how many searches count towards gain.
SEARCH_SEED_STREAM = 20171130
GAIN_SEARCHES = 60
#: Request timelines the traced service keeps: more than a phase sends.
TRACE_CAPACITY = 1 << 17
#: Closed-loop callers: enough that requests coalesce into batches and
#: wait behind work on the event loop, far below the default
#: ``max_pending``, so nothing is shed.  With four, the slow share nears
#: 10% and p90 sits on its edge.
CONCURRENCY = 3
#: Requests sent per ``run_closed_loop`` call; responses are checked and
#: dropped between chunks.
CHUNK = 600
#: Fewest requests a phase sends: p99 of the evaluates needs 1000
#: samples, and ``gain_db`` needs GAIN_SEARCHES searches.
MIN_OPS = 4 * CHUNK
#: Untimed warm-up requests after set-up.
WARM_OPS = CHUNK
WARM_SEED_OFFSET = 1 << 40


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.batch_specs = tuple(
            ScenarioSpec(kind="large", placement=p, num_elements=256) for p in range(4)
        )
        self.search_spec = ScenarioSpec(kind="large", placement=4, num_elements=256)
        self.joint_spec = ScenarioSpec(kind="large", placement=0, num_elements=64)
        self.specs = self.batch_specs + (self.search_spec, self.joint_spec)

    # -- inputs ----------------------------------------------------------

    def _request(self, kind: str, rng: np.random.Generator, zipf: np.ndarray, search_seeds: np.random.Generator):
        if kind == "search":
            return SearchRequest(self.search_spec, searcher="rfocus", seed=int(search_seeds.integers(0, 2**31 - 1)))
        if kind == "joint":
            offsets = rng.uniform(-LINK_SPREAD_M, LINK_SPREAD_M, size=(JOINT_LINKS, 2))
            links = tuple(
                JointLinkSpec(f"link{k}", dx_m=float(dx), dy_m=float(dy))
                for k, (dx, dy) in enumerate(offsets)
            )
            return JointOptimizeRequest(
                self.joint_spec, links, strategy="joint", searcher="rfocus",
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        spec = self.batch_specs[int(rng.choice(len(zipf), p=zipf))]
        size = spec.num_elements
        if kind == "evaluate":
            rows = rng.integers(0, STATES, size=(EVALUATE_ROWS, size))
            return EvaluateRequest(spec, tuple(tuple(row) for row in rows.tolist()))
        return ActuateRequest(spec, tuple(rng.integers(0, STATES, size=size).tolist()))

    # -- set-up ----------------------------------------------------------

    @staticmethod
    def config(traced: bool) -> ServiceConfig:
        """Default service settings; the traced run keeps every request's spans."""
        if traced:
            return ServiceConfig(search_jobs=JOBS, trace_sample=1, trace_capacity=TRACE_CAPACITY)
        return ServiceConfig(search_jobs=JOBS)

    async def build(self, config: ServiceConfig, restart_pool: bool):
        """Cold-build the sessions (and worker pool); ``(service, seconds)``.

        Sessions are built by the service itself, on the first request
        for each scenario, with the trace cache emptied first.
        """
        trace_cache.reset()
        if restart_pool:
            shared_pool(JOBS).shutdown(wait=True)
            shutdown_shared_pools()
        gc.collect()
        start = time.perf_counter()
        if restart_pool:
            pool = shared_pool(JOBS)
            await asyncio.gather(*(asyncio.wrap_future(pool.submit(os.getpid)) for _ in range(JOBS)))
        service = EnvironmentService(config)
        await asyncio.gather(*(
            service.submit(EvaluateRequest(spec, ((0,) * spec.num_elements,))) for spec in self.specs
        ))
        return service, time.perf_counter() - start

    async def warm_up(self, service: EnvironmentService, sessions: dict) -> None:
        """An untimed run of the mix, on a seed no timed phase uses.

        The first seconds of load after set-up run measurably slower than
        the rest, so the timed phase starts after them.
        """
        warm = ServeMixed(self.seed + WARM_SEED_OFFSET)
        await warm.run_phase(service, sessions, 0.0, min_ops=WARM_OPS)

    def direct_sessions(self) -> dict:
        """The benchmark's own sessions, for computing expected responses."""
        return {spec: build_session(spec) for spec in self.specs}

    def requests(self):
        """The seeded request stream (endless)."""
        rng = np.random.default_rng(self.seed)
        search_seeds = np.random.default_rng(SEARCH_SEED_STREAM)
        zipf = 1.0 / np.arange(1, len(self.batch_specs) + 1) ** ZIPF_SKEW
        zipf /= zipf.sum()
        while True:
            for kind in rng.permutation(BLOCK_KINDS).tolist():
                yield self._request(kind, rng, zipf, search_seeds)

    # -- the timed phase -------------------------------------------------

    async def run_phase(
        self,
        service: EnvironmentService,
        sessions: dict,
        seconds: float,
        min_ops: int = MIN_OPS,
        traced: bool = False,
        suspend=nullcontext,
    ) -> Phase:
        """Send chunks of requests for ``seconds``; check each response.

        ``wall_s`` sums the chunks' send-to-last-reply times, leaving out
        the checks between chunks.  With ``traced``, every request is
        bound to its own request id (:func:`request_id`) so its spans can
        be found afterwards, and ``phase.served`` keeps ``(index,
        response, latency_s)`` per verified request.  Untraced phases keep
        no responses past their chunk, so the benchmark adds no
        long-lived objects for the collector to scan while it times.
        """
        phase = Phase()
        zero = self._zero_score(sessions)
        searches = 0
        stream = self.requests()
        gc.collect()
        deadline = time.perf_counter() + seconds
        first = 0
        while first < min_ops or time.perf_counter() < deadline:
            chunk = [next(stream) for _ in range(CHUNK)]
            submit = _bound_submit(service, chunk, first) if traced else service.submit
            start = time.perf_counter()
            load = await run_closed_loop(submit, chunk, CONCURRENCY, timer=time.perf_counter)
            phase.wall_s += time.perf_counter() - start
            phase.attempted += len(chunk)
            with suspend():
                expected = [direct(request, sessions[request.scenario]) for request in chunk]
            for offset, (request, value, want) in enumerate(zip(chunk, load.responses, expected)):
                index = first + offset
                if value != want:
                    phase.fail(f"request {index}: {value!r:.80} differs from direct computation")
                    continue
                took = float(load.latencies_s[offset])
                phase.ok += 1
                phase.latency_s.append(took)
                if isinstance(request, SearchRequest):
                    phase.search_s.append(took)
                    if searches < GAIN_SEARCHES:
                        phase.gains_db.append(value.best_score_db - zero)
                    searches += 1
                elif isinstance(request, (EvaluateRequest, ActuateRequest)):
                    phase.evaluate_s.append(took)
                if traced:
                    phase.served.append((index, value, took))
            first += len(chunk)
        return phase

    def _zero_score(self, sessions: dict) -> float:
        search = sessions[self.search_spec]
        zeros = np.zeros(search.basis.num_elements, dtype=np.int64)
        snr = actuated_snr(search.basis, zeros, search.tx_power_dbm, search.noise_figure_db)
        return mean_used_score(snr, search.mask)


def request_id(index: int) -> str:
    return f"bench-{index}"


def _bound_submit(service: EnvironmentService, chunk: list, first: int):
    """``service.submit`` with each request bound to its :func:`request_id`."""
    ids = {id(request): request_id(first + k) for k, request in enumerate(chunk)}

    async def submit(request):
        with ServiceClient.bind(ids[id(request)]):
            return await service.submit(request)

    return submit


def link_bases(session, links) -> list:
    setup = session.setup
    rx0 = setup.rx_device.position
    points = [Point(rx0.x + link.dx_m, rx0.y + link.dy_m) for link in links]
    return setup.testbed.bases_for_points(setup.tx_device, points, setup.rx_device.chains[0].antenna)


def direct(request, session):
    """The response ``request`` should get, computed without the service."""
    if isinstance(request, EvaluateRequest):
        rows = session.validate_rows(request.configurations)
        means = session.mean_used_snr(session.snr_rows(rows))
        return EvaluateResult(scores_db=tuple(float(x) for x in means))
    if isinstance(request, ActuateRequest):
        snr = session.snr_rows(session.validate_rows((request.configuration,)))
        return ActuateResult(
            snr_db=tuple(float(x) for x in snr[0]),
            mean_used_snr_db=float(session.mean_used_snr(snr)[0]),
        )
    if isinstance(request, SearchRequest):
        best, score, evaluations = search_task(
            session.basis, request.searcher, request.seed,
            session.tx_power_dbm, session.noise_figure_db, session.mask,
        )
        return SearchResult(best, score, evaluations)
    if isinstance(request, JointOptimizeRequest):
        outcome = joint_task(
            tuple(link_bases(session, request.links)),
            tuple(link.name for link in request.links),
            tuple(link.weight for link in request.links),
            request.strategy, request.searcher, request.seed, request.aggregate,
            request.tolerance, session.tx_power_dbm, session.noise_figure_db, session.mask,
        )
        return JointOptimizeResult(*outcome)
    raise TypeError(f"no direct computation for {type(request).__name__}")


def spans_of(phase: Phase, traces: dict) -> ServeSpans:
    """Stage durations of every traced request, from its span records.

    A request's stages are its queue wait (``serve.queue``) and its batch
    (``serve.batch_member``); whatever of its latency they leave
    uncovered is unattributed.
    """
    out = ServeSpans()
    for index, response, latency_s in phase.served:
        records = traces.get(request_id(index))
        if not records:
            continue
        took: dict = {}
        for record in records:
            took[record.name] = took.get(record.name, 0.0) + record.duration_s
        queue = took.get("serve.queue", 0.0)
        out.spans_per_request.append(len(records))
        out.queue_ms.append(1e3 * queue)
        out.latency_s.append(latency_s)
        out.stages_s.append((queue, took.get("serve.batch_member", 0.0)))
        if isinstance(response, SearchResult) and "task.worker" in took:
            worker = took["task.worker"]
            out.search_compute_ms.append(1e3 * worker)
            out.search_handoff_ms.append(1e3 * (took.get("serve.request", 0.0) - queue - worker))
    return out
