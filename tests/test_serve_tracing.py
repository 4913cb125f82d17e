"""Request-scoped tracing through the serving stack, end to end.

Covers the ISSUE acceptance criteria: complete cross-process request
timelines (client submit → shard enqueue → batch flush → worker
evaluate), bit-identical responses with observability on or off and at
any ``search_jobs``, per-type latency histograms, schema-v2 run records
carrying ``request_traces``, and the service-side telemetry stream.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.experiments.runner import dispose_shared_pool
from repro.obs import reset_observability
from repro.obs.tracing import stitch_timeline
from repro.obs.export import read_telemetry
from repro.obs.metrics import global_registry, set_enabled
from repro.obs.records import (
    SCHEMA_VERSION,
    RunRecorder,
    read_records,
    validate_record,
)
from repro.obs.slo import SloPolicy
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
    mixed_requests,
    run_closed_loop,
)

NLOS = ScenarioSpec(kind="nlos", placement=0)


@pytest.fixture(autouse=True)
def _clean_observability():
    reset_observability()
    previous = set_enabled(True)
    yield
    set_enabled(previous)
    reset_observability()


def _run(coroutine):
    return asyncio.run(coroutine)


async def _serve_traced(config: ServiceConfig, requests, concurrency=4):
    async with EnvironmentService(config) as service:
        load = await run_closed_loop(service.submit, requests, concurrency)
        traces = service.request_traces()
    return load, traces


def _names(records):
    return [record.name for record in stitch_timeline(records)]


# ---------------------------------------------------------------------------
# Timeline reconstruction (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_inline_request_timeline_is_complete():
    requests = mixed_requests([NLOS], num_requests=6, seed=1)
    load, traces = _run(
        _serve_traced(ServiceConfig(trace_sample=1), requests)
    )
    assert load.completed == len(requests)
    assert len(traces) == len(requests)
    for records in traces.values():
        ordered = stitch_timeline(records)
        names = [record.name for record in ordered]
        assert names[:1] == ["serve.request"]
        assert "serve.queue" in names
        assert "serve.batch_member" in names
        root = ordered[0]
        assert root.parent_id is None
        # Every non-root span hangs off the request's own tree.
        ids = {record.span_id for record in ordered}
        for record in ordered[1:]:
            assert record.parent_id in ids


def test_cross_process_search_timeline_stitches():
    async def serve():
        async with EnvironmentService(
            ServiceConfig(search_jobs=2)
        ) as service:
            client = ServiceClient(service)
            with ServiceClient.bind("req-x"):
                await client.search(NLOS, "rfocus", seed=3)
            return service.request_traces()

    traces = _run(serve())
    ordered = stitch_timeline(traces["req-x"])
    names = [record.name for record in ordered]
    assert names == [
        "serve.request",
        "serve.queue",
        "serve.batch_member",
        "task.worker",
    ]
    worker = ordered[-1]
    member = ordered[-2]
    # The worker span was minted in another process yet links by id.
    assert worker.pid != os.getpid()
    assert worker.parent_id == member.span_id
    assert worker.request_id == "req-x"


def test_batch_members_share_one_batch_span_id():
    requests = [
        EvaluateRequest(scenario=NLOS, configurations=((0, 0, 0),)),
        EvaluateRequest(scenario=NLOS, configurations=((1, 1, 1),)),
    ]
    load, traces = _run(
        _serve_traced(
            ServiceConfig(
                batch_window_s=0.005, max_batch=64, trace_sample=1
            ),
            requests,
        )
    )
    assert load.completed == 2
    member_ids = set()
    for records in traces.values():
        for record in records:
            if record.name == "serve.batch_member":
                member_ids.add(record.span_id)
    assert len(member_ids) == 1  # both rode the same flush


def test_trace_structure_identical_across_jobs():
    links = (JointLinkSpec(name="a"), JointLinkSpec(name="b", dx_m=0.4))
    requests = {
        "req-sweep": SweepRequest(NLOS, repetitions=2, seed=9, drift_phase_rad=0.08),
        "req-search": SearchRequest(NLOS, "rfocus", seed=3),
        "req-joint": JointOptimizeRequest(NLOS, links, searcher="greedy"),
        "req-coverage": CoverageRequest(NLOS, rows=2, cols=3),
    }

    async def structure(jobs):
        async with EnvironmentService(
            ServiceConfig(search_jobs=jobs)
        ) as service:

            async def one(request_id, request):
                with ServiceClient.bind(request_id):
                    return await service.submit(request)

            results = await asyncio.gather(
                *(one(request_id, r) for request_id, r in requests.items())
            )
            traces = service.request_traces()
        return results, {request_id: traces[request_id] for request_id in requests}

    inline_results, inline_traces = _run(structure(1))
    # Fresh workers hold no session: the pooled requests build them cold.
    dispose_shared_pool(2)
    pooled_results, pooled_traces = _run(structure(2))
    assert pooled_results == inline_results  # bit-identical payloads
    for request_id in requests:
        inline_names = _names(inline_traces[request_id])
        pooled_names = _names(pooled_traces[request_id])
        assert pooled_names == inline_names, request_id  # same span skeleton
        # The worker's cold session build joined no request.
        assert "testbed.basis_trace" not in pooled_names
        workers = [r for r in pooled_traces[request_id] if r.name == "task.worker"]
        assert len(workers) == 1
        # Sweeps run inline at any search_jobs; the rest on a worker.
        inline = request_id == "req-sweep"
        assert (workers[0].pid == os.getpid()) == inline, request_id


def test_member_cancelled_before_its_flush_keeps_its_batch_span():
    async def serve():
        config = ServiceConfig(batch_window_s=0.05)
        async with EnvironmentService(config) as service:

            async def one(request_id, request):
                with ServiceClient.bind(request_id):
                    return await service.submit(request)

            gone = asyncio.ensure_future(
                one("req-gone", SearchRequest(NLOS, "greedy", seed=1))
            )
            kept = asyncio.ensure_future(
                one("req-kept", SweepRequest(NLOS, repetitions=1))
            )
            await asyncio.sleep(0)  # both admitted, neither flushed
            gone.cancel()
            await kept
            return service.request_traces()

    traces = _run(serve())
    for request_id in ("req-gone", "req-kept"):
        assert _names(traces[request_id])[:3] == [
            "serve.request",
            "serve.queue",
            "serve.batch_member",
        ], request_id
    assert "task.worker" not in _names(traces["req-gone"])


def test_responses_bit_identical_with_obs_off():
    requests = mixed_requests([NLOS], num_requests=10, seed=7)

    async def serve():
        async with EnvironmentService(ServiceConfig()) as service:
            load = await run_closed_loop(service.submit, requests, 4)
        return load.responses

    on = _run(serve())
    set_enabled(False)
    off = _run(serve())
    assert on == off


def test_tracing_disabled_collects_nothing():
    set_enabled(False)
    requests = mixed_requests([NLOS], num_requests=4, seed=2)
    load, traces = _run(_serve_traced(ServiceConfig(), requests))
    assert load.completed == len(requests)
    assert traces == {}


def test_trace_capacity_evicts_oldest_requests():
    requests = mixed_requests([NLOS], num_requests=8, seed=5)
    _, traces = _run(
        _serve_traced(
            ServiceConfig(trace_capacity=3, trace_sample=1),
            requests,
            concurrency=1,
        )
    )
    assert len(traces) == 3


# ---------------------------------------------------------------------------
# Trace sampling
# ---------------------------------------------------------------------------


def test_trace_sampling_selects_every_nth_request():
    requests = mixed_requests([NLOS], num_requests=8, seed=11)
    load, traces = _run(
        _serve_traced(
            ServiceConfig(trace_sample=4), requests, concurrency=1
        )
    )
    assert load.completed == len(requests)
    assert len(traces) == 2  # requests 0 and 4 of 8
    for records in traces.values():
        assert [r.name for r in stitch_timeline(records)][:1] == [
            "serve.request"
        ]


def test_trace_sample_zero_skips_spans_but_keeps_latency():
    requests = mixed_requests([NLOS], num_requests=6, seed=12)
    load, traces = _run(
        _serve_traced(ServiceConfig(trace_sample=0), requests)
    )
    assert load.completed == len(requests)
    assert traces == {}
    snapshot = global_registry().snapshot()
    observed = sum(
        state.count
        for name, state in snapshot.histograms.items()
        if name.endswith(".request_latency_s")
    )
    assert observed == len(requests)


def test_bound_context_is_traced_even_when_sampling_off():
    async def serve():
        async with EnvironmentService(
            ServiceConfig(trace_sample=0)
        ) as service:
            client = ServiceClient(service)
            with ServiceClient.bind("req-forced"):
                await client.evaluate(NLOS, ((0, 0, 0),))
            return service.request_traces()

    traces = _run(serve())
    assert set(traces) == {"req-forced"}


def test_trace_sample_rejects_negative():
    with pytest.raises(ValueError, match="trace_sample"):
        ServiceConfig(trace_sample=-1)


# ---------------------------------------------------------------------------
# Per-type latency histograms (satellite b)
# ---------------------------------------------------------------------------


def test_per_type_latency_histograms_populated():
    requests = mixed_requests([NLOS], num_requests=12, seed=3)
    load, _ = _run(_serve_traced(ServiceConfig(), requests))
    assert load.completed == len(requests)
    kinds = {type(r).__name__ for r in requests}
    snapshot = global_registry().snapshot()
    latency = {
        name: state.count
        for name, state in snapshot.histograms.items()
        if name.endswith(".request_latency_s")
    }
    if "EvaluateRequest" in kinds:
        assert latency["serve.evaluate.request_latency_s"] > 0
    if "ActuateRequest" in kinds:
        assert latency["serve.actuate.request_latency_s"] > 0
    assert sum(latency.values()) == len(requests)
    for state in snapshot.histograms.values():
        if state.count:
            assert state.min > 0  # real durations, not placeholder zeros


# ---------------------------------------------------------------------------
# Run records: v2 traces, v1 compatibility (satellite c)
# ---------------------------------------------------------------------------


def test_run_record_v2_carries_request_traces(tmp_path):
    path = tmp_path / "records.jsonl"
    requests = mixed_requests([NLOS], num_requests=4, seed=9)
    with RunRecorder("serve_test", path=str(path), jobs=1) as recorder:
        async def serve():
            async with EnvironmentService(
                ServiceConfig(trace_sample=1)
            ) as service:
                await run_closed_loop(service.submit, requests, 2)
                return service.drain_request_traces()

        recorder.add_request_traces(_run(serve()))
    record = read_records(str(path))[0]
    assert record["schema_version"] == SCHEMA_VERSION
    assert validate_record(record) == []
    assert len(record["request_traces"]) == len(requests)
    some_trace = next(iter(record["request_traces"].values()))
    names = {span["name"] for span in some_trace}
    assert "serve.request" in names


def test_validate_record_accepts_v1_without_traces(tmp_path):
    v1 = {
        "schema_version": 1,
        "experiment": "x",
        "created_at": "2026-01-01T00:00:00",
        "wall_s": 0.5,
        "jobs": None,
        "workers": 0,
        "config": {},
        "seeds": {},
        "observability_enabled": True,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": {},
        "meta": {"python": "3.x"},
    }
    assert validate_record(v1) == []
    # v1 + request_traces is a contradiction, not a silent pass.
    errors = validate_record(dict(v1, request_traces={}))
    assert any("schema_version 2" in e for e in errors)
    # Both versions read back from one file.
    path = tmp_path / "mixed.jsonl"
    v2 = dict(v1, schema_version=2, request_traces={})
    path.write_text(json.dumps(v1) + "\n" + json.dumps(v2) + "\n")
    records = read_records(str(path))
    assert [r["schema_version"] for r in records] == [1, 2]
    assert all(validate_record(r) == [] for r in records)


def test_validate_record_rejects_malformed_stitching_fields():
    base = {
        "schema_version": 2,
        "experiment": "x",
        "created_at": "2026-01-01T00:00:00",
        "wall_s": 0.5,
        "jobs": None,
        "workers": 0,
        "config": {},
        "seeds": {},
        "observability_enabled": True,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": {},
        "meta": {"python": "3.x"},
    }
    span = {
        "name": "serve.request",
        "start_s": 0.0,
        "duration_s": 0.1,
        "span_id": "a-1",
        "parent_id": None,
        "request_id": "r1",
        "pid": 1,
    }
    good = dict(base, request_traces={"r1": [span]})
    assert validate_record(good) == []
    assert validate_record(dict(base, request_traces=[])) != []
    assert (
        validate_record(
            dict(base, request_traces={"r1": [dict(span, span_id="")]})
        )
        != []
    )
    assert (
        validate_record(
            dict(base, request_traces={"r1": [dict(span, parent_id="")]})
        )
        != []
    )
    assert (
        validate_record(
            dict(base, request_traces={"r1": [dict(span, request_id="r2")]})
        )
        != []
    )


# ---------------------------------------------------------------------------
# Telemetry stream and SLO hooks
# ---------------------------------------------------------------------------


def test_service_writes_telemetry_stream(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    requests = mixed_requests([NLOS], num_requests=6, seed=4)
    config = ServiceConfig(
        telemetry_path=str(path), telemetry_interval_s=0.01
    )
    load, _ = _run(_serve_traced(config, requests))
    assert load.completed == len(requests)
    samples = read_telemetry(str(path))
    assert samples  # at least the close-time sample landed
    final = samples[-1]
    assert final["counters"]["serve.requests"] == len(requests)
    digests = final["histograms"]
    assert "serve.evaluate.request_latency_s" in digests


def test_load_result_evaluate_slo():
    requests = mixed_requests([NLOS], num_requests=8, seed=6)

    async def serve():
        from repro.obs.metrics import monotonic_s

        async with EnvironmentService(ServiceConfig()) as service:
            return await run_closed_loop(
                service.submit, requests, 4, timer=monotonic_s
            )

    load = _run(serve())
    statuses = load.evaluate_slo(
        SloPolicy.from_specs(
            ["p95:evaluate<60.0", "rate:serve.rejections/serve.requests<0.5"]
        )
    )
    assert len(statuses) == 2
    assert all(status.ok for status in statuses)
    strict = load.evaluate_slo(SloPolicy.from_specs(["p50:evaluate<1e-9"]))
    evaluated = [s for s in strict if not s.ok]
    assert evaluated  # an impossible ceiling is reported as violated


def test_service_client_bind_groups_requests():
    async def serve():
        async with EnvironmentService(ServiceConfig()) as service:
            client = ServiceClient(service)
            with ServiceClient.bind("session-1"):
                await client.evaluate(NLOS, ((0, 0, 0),))
                await client.actuate(NLOS, (1, 1, 1))
            return service.request_traces()

    traces = _run(serve())
    assert set(traces) == {"session-1"}
    roots = [
        record
        for record in traces["session-1"]
        if record.name == "serve.request"
    ]
    assert len(roots) == 2  # both calls share the request id
