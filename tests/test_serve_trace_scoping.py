"""Which spans join a served request's timeline, and which do not.

Under the one span model a span joins the request bound in the context
it runs in.  A batch flush serves several requests at once, so it runs
bound to none: its own spans (the batch, a cold session's build) stay
out of every timeline.  A joint's geometry trace is the joint's own
work, so it joins that request's timeline under its ``task.worker``
span and no other.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import reset_observability
from repro.obs.metrics import set_enabled
from repro.obs.tracing import global_tracer
from repro.serve import (
    EnvironmentService,
    JointLinkSpec,
    ScenarioSpec,
    ServiceClient,
    ServiceConfig,
)

NLOS = ScenarioSpec(kind="nlos", placement=0)

#: Spans of the shared flush, never of one request.
_FLUSH_SPANS = {"serve.batch", "serve.session_build"}


@pytest.fixture(autouse=True)
def _clean_observability():
    reset_observability()
    previous = set_enabled(True)
    yield
    set_enabled(previous)
    reset_observability()


def test_batch_members_see_only_their_own_spans():
    links = (JointLinkSpec(name="a"), JointLinkSpec(name="b", dx_m=0.4))

    async def serve():
        config = ServiceConfig(batch_window_s=0.02, max_batch=64, trace_sample=0)
        async with EnvironmentService(config) as service:
            client = ServiceClient(service)

            async def evaluate():
                with ServiceClient.bind("req-eval"):
                    await client.evaluate(NLOS, ((0, 0, 0),))

            async def joint():
                with ServiceClient.bind("req-joint"):
                    await client.joint_optimize(NLOS, links, searcher="greedy")

            await asyncio.gather(evaluate(), joint())
            return service.request_traces()

    traces = asyncio.run(serve())
    assert set(traces) == {"req-eval", "req-joint"}
    members = set()
    for request_id, records in traces.items():
        names = [record.name for record in records]
        assert all(record.request_id == request_id for record in records)
        assert not _FLUSH_SPANS & set(names), names
        roots = [record for record in records if record.parent_id is None]
        assert [record.name for record in roots] == ["serve.request"]
        members |= {r.span_id for r in records if r.name == "serve.batch_member"}
    assert len(members) == 1  # both rode one flush
    # The flush's own spans were recorded, bound to no request.
    flush = [r for r in global_tracer().records() if r.name in _FLUSH_SPANS]
    assert {r.name for r in flush} == _FLUSH_SPANS
    assert all(r.request_id is None for r in flush)
    # The joint's geometry trace ran inside its own task.
    assert not [r for r in traces["req-eval"] if r.name.startswith("testbed.")]
    recorded = [
        r for r in global_tracer().records() if r.name == "testbed.bases_for_points"
    ]
    assert recorded and all(r.request_id == "req-joint" for r in recorded)
    joint = {r.span_id: r for r in traces["req-joint"]}
    geometry = [r for r in joint.values() if r.name == "testbed.bases_for_points"]
    assert len(geometry) == 1
    assert joint[geometry[0].parent_id].name == "task.worker"


def test_request_traces_survive_observability_reset():
    async def serve():
        async with EnvironmentService(ServiceConfig(trace_sample=0)) as service:
            client = ServiceClient(service)
            with ServiceClient.bind("before"):
                await client.evaluate(NLOS, ((0, 0, 0),))
            reset_observability(clear=True)
            with ServiceClient.bind("after"):
                await client.evaluate(NLOS, ((1, 1, 1),))
            return service.request_traces()

    traces = asyncio.run(serve())
    assert list(traces) == ["before", "after"]
    for records in traces.values():
        assert [r.name for r in records] == [
            "serve.request",
            "serve.queue",
            "serve.batch_member",
        ]
