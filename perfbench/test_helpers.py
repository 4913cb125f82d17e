"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import stats
from perfbench.layers import LayerTracer
from perfbench.phase import END_TO_END
from perfbench.probes import PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentiles -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90


def test_percentile_needs_ten_samples_beyond():
    assert stats.supports(100, 90)  # rank 90, 10 beyond
    assert not stats.supports(99, 90)  # rank 90, 9 beyond
    assert stats.supports(1000, 99)
    assert not stats.supports(999, 99)
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)  # rank 10, 9 beyond
    assert stats.percentile(list(range(20)), 50) == 9  # rank 10, 10 beyond


def test_tail_falls_back_down_the_ladder():
    few = [float(v) for v in range(150)]
    assert stats.tail(few, 99) == (90.0, stats.percentile(few, 90))
    many = [float(v) for v in range(1000)]
    assert stats.tail(many, 99) == (99.0, 989.0)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 5, 99)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 30
    assert stats.percentile(values, 90) == stats.percentile(sorted(values), 90)


# -- self time and stage sums ----------------------------------------------


class FakeTime:
    """A clock that moves only when the code under test charges time."""

    def __init__(self) -> None:
        self.now = 100.0

    def clock(self) -> float:
        return self.now


class Target:
    def __init__(self, clock: FakeTime) -> None:
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 2.0
        self.same_layer()
        return "done"

    def inner(self):
        self.clock.now += 4.0

    def same_layer(self):
        self.clock.now += 8.0


def test_tracer_self_time_subtracts_nested_calls():
    fake = FakeTime()
    target = Target(fake)
    tracer = LayerTracer(clock=fake.clock)
    seen = []
    tracer.wrap(Target, "outer", "outer", "a", seen.append)
    tracer.wrap(Target, "inner", "inner", "b")
    tracer.wrap(Target, "same_layer", "same_layer", "a")
    assert target.outer() == "done"
    stats_ = tracer.take()
    tracer.restore()
    assert seen == ["done"]
    assert stats_.total_s["outer"] == pytest.approx(15.0)
    assert stats_.self_s["outer"] == pytest.approx(3.0)
    assert stats_.self_s["inner"] == pytest.approx(4.0)
    # Layer "a" is counted once for the outer call, not again for the
    # nested call of the same layer; layer "b" gets its own time.
    assert stats_.layer_s["a"] == pytest.approx(15.0)
    assert stats_.layer_s["b"] == pytest.approx(4.0)
    assert stats_.busy_s == pytest.approx(15.0)
    assert stats_.calls == {"outer": 1, "inner": 1, "same_layer": 1}


def test_tracer_restores_and_suspends():
    fake = FakeTime()
    original = Target.__dict__["inner"]
    tracer = LayerTracer(clock=fake.clock)
    tracer.wrap(Target, "inner", "inner", "b")
    with tracer.suspended():
        Target(fake).inner()
    assert tracer.stats.calls["inner"] == 0
    tracer.restore()
    assert Target.__dict__["inner"] is original


def test_unattributed_stage_arithmetic():
    assert stats.unattributed(10.0, [2.0, 3.0]) == pytest.approx(5.0)
    assert stats.unattributed(10.0, [6.0, 7.0]) == 0.0  # over-wide stage clipped
    assert stats.unattributed(10.0, []) == 10.0
    share = stats.unattributed_share([10.0, 30.0], [[2.0, 3.0], [30.0]])
    assert share == pytest.approx(5.0 / 40.0)
    assert stats.unattributed_share([], []) == 0.0


# -- the declared metrics match what the benchmark emits ---------------------


def test_benchmark_json_matches_emitted_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["search-single", "joint-moving", "serve-mixed"]
