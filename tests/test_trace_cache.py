"""TraceCache LRU policy, byte budgets, and the configure()/reset() seam."""

from __future__ import annotations

import pytest

from repro.em import trace_cache as trace_cache_module
from repro.em.antennas import IsotropicAntenna
from repro.em.geometry import Point
from repro.em.raytracer import RayTracer
from repro.em.scene import Scatterer, shoebox_scene
from repro.em.trace_cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAXSIZE,
    TraceCache,
    configure,
    global_trace_cache,
    reset,
)
from repro.obs.metrics import global_registry


def _tracer():
    return RayTracer(shoebox_scene(width=6.0, height=5.0), max_bounces=1)


def _points(n):
    return [Point(1.0 + 0.1 * i, 1.0) for i in range(n)]


# ---------------------------------------------------------------------------
# LRU recency: hits promote, so hot entries survive pressure
# ---------------------------------------------------------------------------


def test_hit_promotes_entry_to_most_recent():
    tracer = _tracer()
    # A trace stores one entry, its wall part.
    cache = TraceCache(maxsize=2)
    antenna = IsotropicAntenna()
    tx = Point(2.0, 2.0)
    hot, cold, third = _points(3)

    cache.get_or_trace(tracer, tx, hot, antenna, antenna)
    cache.get_or_trace(tracer, tx, cold, antenna, antenna)
    # Touch `hot`: it becomes most-recent, so inserting `third` must
    # evict `cold`, not `hot`.
    cache.get_or_trace(tracer, tx, hot, antenna, antenna)
    cache.get_or_trace(tracer, tx, third, antenna, antenna)
    assert cache.evictions == 1  # cold

    cache.get_or_trace(tracer, tx, hot, antenna, antenna)
    assert cache.hits == 2  # hot survived
    cache.get_or_trace(tracer, tx, cold, antenna, antenna)
    assert cache.misses == 4  # cold was the evicted one


def test_hit_rate_property_and_gauge():
    tracer = _tracer()
    cache = TraceCache(maxsize=8)
    antenna = IsotropicAntenna()
    tx = Point(2.0, 2.0)
    point = _points(1)[0]

    assert cache.hit_rate == 0.0
    cache.get_or_trace(tracer, tx, point, antenna, antenna)
    for _ in range(3):
        cache.get_or_trace(tracer, tx, point, antenna, antenna)
    assert cache.hit_rate == pytest.approx(0.75)
    snap = global_registry().snapshot()
    assert snap.gauges["em.trace_cache.hit_rate"] == pytest.approx(0.75)

    cache.reset_counters()
    assert cache.hit_rate == 0.0


# ---------------------------------------------------------------------------
# Byte-aware budgets
# ---------------------------------------------------------------------------


def test_byte_budget_evicts_lru_until_under_budget():
    tracer = _tracer()
    antenna = IsotropicAntenna()
    tx = Point(2.0, 2.0)

    # Learn the approximate per-entry size from an unbudgeted probe.
    probe = TraceCache(maxsize=8)
    probe.get_or_trace(tracer, tx, _points(1)[0], antenna, antenna)
    per_entry = probe.current_bytes
    assert per_entry > 0

    cache = TraceCache(maxsize=100, max_bytes=2 * per_entry)
    for point in _points(4):
        cache.get_or_trace(tracer, tx, point, antenna, antenna)
    # Two wall parts fill the budget: the third evicts the first and the
    # fourth the second.
    assert len(cache) == 2
    assert cache.evictions == 2
    assert cache.current_bytes <= cache.max_bytes
    snap = global_registry().snapshot()
    assert snap.gauges["em.trace_cache.bytes"] == cache.current_bytes


def test_trace_is_one_wall_entry_plus_fresh_scatterer_paths():
    tracer = RayTracer(
        _tracer().scene.with_scatterers(Scatterer(Point(4.0, 3.0))), max_bounces=1
    )
    antenna = IsotropicAntenna()
    tx, rx = Point(2.0, 2.0), _points(1)[0]
    cache = TraceCache(maxsize=8)
    paths = cache.get_or_trace(tracer, tx, rx, antenna, antenna)
    walls = tracer.wall_paths(tx, rx, antenna, antenna)
    assert len(paths) == len(walls) + 1
    assert len(cache) == 1
    assert cache.current_bytes == trace_cache_module._entry_nbytes(tuple(walls))
    assert cache.get_or_trace(tracer, tx, rx, antenna, antenna) == paths
    assert (cache.hits, cache.misses) == (1, 1)


def test_resident_bytes_match_entries_across_placements_of_one_room():
    """Two placements of one room, traced in turn under a one-wall-part budget."""
    room = _tracer().scene
    placements = [
        RayTracer(room.with_scatterers(Scatterer(position)), max_bounces=1)
        for position in (Point(4.0, 3.0), Point(1.5, 4.0))
    ]
    antenna = IsotropicAntenna()
    tx, points = Point(2.0, 2.0), _points(2)
    probe = TraceCache(maxsize=8)
    probe.get_or_trace(placements[0], tx, points[0], antenna, antenna)
    cache = TraceCache(maxsize=100, max_bytes=2 * probe.current_bytes - 1)
    for _ in range(2):
        for rx in points:
            for tracer in placements:
                paths = cache.get_or_trace(tracer, tx, rx, antenna, antenna)
                assert paths == tuple(tracer.trace(tx, rx, antenna, antenna))
                resident = cache._entries.values()
                assert cache.current_bytes == sum(map(trace_cache_module._entry_nbytes, resident))
    # Each receiver's wall part serves the second placement, then yields
    # to the other receiver's.
    assert (cache.hits, cache.misses, cache.evictions) == (4, 4, 3)


def test_byte_budget_keeps_single_oversized_entry():
    tracer = _tracer()
    antenna = IsotropicAntenna()
    cache = TraceCache(maxsize=8, max_bytes=1)
    paths = cache.get_or_trace(
        tracer, Point(2.0, 2.0), _points(1)[0], antenna, antenna
    )
    assert len(cache) == 1  # never evicts below one resident entry
    again = cache.get_or_trace(
        tracer, Point(2.0, 2.0), _points(1)[0], antenna, antenna
    )
    assert again == paths
    assert (cache.hits, cache.misses) == (1, 1)


def test_batch_entries_account_array_bytes():
    tracer = _tracer()
    antenna = IsotropicAntenna()
    cache = TraceCache(maxsize=8)
    batch = cache.get_or_trace_batch(
        tracer, Point(2.0, 2.0), _points(5), antenna, antenna
    )
    expected = (
        batch.gains.nbytes
        + batch.delays_s.nbytes
        + batch.aod_rad.nbytes
        + batch.aoa_rad.nbytes
        + batch.valid.nbytes
    )
    assert cache.current_bytes == expected

    cache.clear()
    assert cache.current_bytes == 0
    assert len(cache) == 0


def test_invalid_budgets_rejected():
    with pytest.raises(ValueError):
        TraceCache(maxsize=0)
    with pytest.raises(ValueError):
        TraceCache(max_bytes=0)


# ---------------------------------------------------------------------------
# configure()/reset() seam for the global cache
# ---------------------------------------------------------------------------


def test_configure_rebinds_global_cache():
    original = global_trace_cache()
    sized = configure(maxsize=7, max_bytes=1 << 20)
    assert global_trace_cache() is sized
    assert sized is not original
    assert sized.maxsize == 7
    assert sized.max_bytes == 1 << 20
    assert len(sized) == 0

    restored = reset()
    assert global_trace_cache() is restored
    assert restored.maxsize == DEFAULT_MAXSIZE
    assert restored.max_bytes == DEFAULT_MAX_BYTES


def test_reset_clears_previous_global_entries():
    tracer = _tracer()
    antenna = IsotropicAntenna()
    cache = configure(maxsize=16)
    cache.get_or_trace(tracer, Point(2.0, 2.0), _points(1)[0], antenna, antenna)
    assert len(cache) == 1  # the wall part
    trace_cache_module.reset()
    # The old instance was drained, so stale references hold no arrays.
    assert len(cache) == 0
    assert len(global_trace_cache()) == 0


def test_autouse_fixture_gives_fresh_cache():
    cache = global_trace_cache()
    assert len(cache) == 0
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)


def test_counters_survive_registry_replacement():
    """Regression: cache traffic must land in the *current* registry.

    The module once captured raw Counter/Gauge objects at import, so
    after ``reset_observability(clear=True)`` every hit/miss recorded
    into a dead registry and run records showed zero cache traffic.
    """
    from repro.obs import reset_observability

    reset_observability(clear=True)
    tracer = _tracer()
    cache = TraceCache(maxsize=8)
    antenna = IsotropicAntenna()
    tx = Point(2.0, 2.0)
    point = _points(1)[0]
    cache.get_or_trace(tracer, tx, point, antenna, antenna)
    cache.get_or_trace(tracer, tx, point, antenna, antenna)
    snap = global_registry().snapshot()
    assert snap.counters["em.trace_cache.misses"] == 1
    assert snap.counters["em.trace_cache.hits"] == 1
