"""Cold builds trace each basis part once per geometry, every byte unchanged.

``ChannelBasis.trace_chunked`` takes its element tensor from the
process-wide trace cache, keyed by every value the build reads, and the
cache keeps an ambient trace's LoS and wall paths in an entry keyed
without the scatterers.  A build that hits either part must give the
bytes of a fresh build, a build that changes what a part reads must miss
it, and the cache must not keep every tensor a process builds.
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import PressArray
from repro.em import trace_cache
from repro.em.geometry import Obstacle, Point, Segment, Wall
from repro.em.scene import Scene
from repro.experiments.common import build_large_array_setup
from repro.obs.metrics import global_registry
from repro.sdr.testbed import Testbed
from repro.serve.scenarios import ScenarioSpec, build_session

from .test_basis_golden import FREQUENCIES, SCENES


def _shas(basis) -> tuple:
    fields = (basis.state_tensor, basis.ambient_gains, basis.ambient_delays)
    return tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in fields)


def _build(spec_or_setup):
    if isinstance(spec_or_setup, ScenarioSpec):
        return build_session(spec_or_setup).basis
    testbed, tx, rx = spec_or_setup
    return testbed.basis_for(tx, rx)


def _counts(cache) -> dict:
    return {
        name: getattr(cache, name)
        for name in ("hits", "misses", "tensor_hits", "tensor_misses")
    }


def test_golden_scenes_in_one_cache_and_in_fresh_caches():
    specs = [ScenarioSpec(kind="large", placement=p, num_elements=n) for p, n in SCENES]
    cache = trace_cache.reset()
    shared = [build_session(spec).basis for spec in specs]
    # Five N = 256 placements share one tensor and all seven share one
    # wall part.
    assert _counts(cache) == {"hits": 6, "misses": 1, "tensor_hits": 4, "tensor_misses": 3}
    assert all(shared[p].state_tensor is shared[0].state_tensor for p in range(5))
    for spec, basis in zip(specs, shared):
        assert _shas(basis) == SCENES[spec.placement, spec.num_elements]
        assert hashlib.sha256(basis.frequencies_hz.tobytes()).hexdigest() == FREQUENCIES
    for spec in specs:
        trace_cache.reset()
        assert _shas(build_session(spec).basis) == SCENES[spec.placement, spec.num_elements]


def test_counters_mirror_each_entry_kind():
    before = global_registry().snapshot().counters
    spec = ScenarioSpec(kind="large", placement=0, num_elements=64)
    build_session(spec)
    build_session(replace(spec, placement=1))
    after = global_registry().snapshot().counters
    delta = {
        name: after.get(f"em.trace_cache.{name}", 0) - before.get(f"em.trace_cache.{name}", 0)
        for name in ("hits", "misses", "tensor_hits", "tensor_misses")
    }
    assert delta == {"hits": 1, "misses": 1, "tensor_hits": 1, "tensor_misses": 1}
    # A tensor hit still builds a basis, and the wall part is traced once.
    assert after.get("core.basis.traces", 0) - before.get("core.basis.traces", 0) == 2
    traces = after.get("em.raytracer.traces", 0) - before.get("em.raytracer.traces", 0)
    assert traces == 1


def test_shared_tensor_is_read_only():
    setup = build_large_array_setup(0, 64)
    first = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    again = build_large_array_setup(0, 64)
    second = again.testbed.basis_for(again.tx_device, again.rx_device)
    assert second.state_tensor is first.state_tensor
    with pytest.raises(ValueError):
        second.state_tensor[0, 0, 0] = 0.0


# ---------------------------------------------------------------------------
# Misses: a change to anything a part reads
# ---------------------------------------------------------------------------


def _variant(change: str):
    """``(testbed, tx, rx)`` of the N = 64 scene with one thing changed."""
    setup = build_large_array_setup(0, 64)
    scene, array = setup.testbed.scene, setup.array
    if change == "obstacle":
        seg = scene.obstacles[0].segment
        moved = Obstacle(Segment(seg.start + Point(0.01, 0.0), seg.end + Point(0.01, 0.0)))
        scene = Scene(scene.walls, (moved,) + scene.obstacles[1:], scene.scatterers)
    elif change == "wall":
        panel = scene.walls[-1]
        moved = Wall(Segment(panel.start, panel.end + Point(0.0, 0.01)), panel.material)
        scene = Scene(scene.walls[:-1] + (moved,), scene.obstacles, scene.scatterers)
    elif change == "material":
        panel = scene.walls[-1]
        metal = Wall(panel.segment, "metal" if panel.material != "metal" else "drywall")
        scene = Scene(scene.walls[:-1] + (metal,), scene.obstacles, scene.scatterers)
    elif change == "element":
        first = array.elements[0]
        moved = replace(first, position=first.position + Point(0.001, 0.0))
        array = PressArray((moved,) + array.elements[1:])
    elif change == "scatterers":
        scene = Scene(scene.walls, scene.obstacles, scene.scatterers[1:])
    return Testbed(scene, array), setup.tx_device, setup.rx_device


#: change -> (wall-part hits, tensor hits) on a second build in one cache.
CHANGES = {
    "obstacle": (0, 0),
    "wall": (0, 0),
    "material": (0, 1),
    "element": (1, 0),
    "scatterers": (1, 1),
}


@pytest.mark.parametrize("change", list(CHANGES))
def test_a_change_misses_exactly_the_parts_that_read_it(change):
    cache = trace_cache.reset()
    _build(_variant("none"))
    basis = _build(_variant(change))
    hits, tensor_hits = CHANGES[change]
    assert _counts(cache) == {
        "hits": hits, "misses": 2 - hits, "tensor_hits": tensor_hits, "tensor_misses": 2 - tensor_hits,
    }
    trace_cache.reset()
    assert _shas(basis) == _shas(_build(_variant(change)))


@given(
    builds=st.lists(
        st.tuples(
            st.integers(0, 40),
            st.sampled_from([32, 48, 64]),
            st.lists(st.integers(0, 17), max_size=6, unique=True),
        ),
        min_size=2,
        max_size=4,
    )
)
@settings(max_examples=15, deadline=None)
def test_shared_cache_builds_equal_fresh_builds(builds):
    """Placements, sizes and scatterer subsets of one room, built in order."""
    room = build_large_array_setup(0, 32).testbed.scene

    def setup(seed, num_elements, dropped):
        made = build_large_array_setup(seed, num_elements)
        scene = made.testbed.scene
        kept = tuple(s for i, s in enumerate(scene.scatterers) if i not in dropped)
        assert (scene.walls, scene.obstacles) == (room.walls, room.obstacles)
        return Testbed(Scene(scene.walls, scene.obstacles, kept), made.array), made.tx_device, made.rx_device

    trace_cache.reset()
    shared = [_shas(_build(setup(*b))) for b in builds]
    fresh = []
    for b in builds:
        trace_cache.reset()
        fresh.append(_shas(_build(setup(*b))))
    assert shared == fresh


# ---------------------------------------------------------------------------
# Bounded retention and reset
# ---------------------------------------------------------------------------


def test_many_distinct_arrays_do_not_all_stay_cached():
    setup = build_large_array_setup(0, 64)
    tensor_bytes = setup.testbed.basis_for(setup.tx_device, setup.rx_device).state_tensor.nbytes
    cache = trace_cache.configure(max_bytes=3 * tensor_bytes)
    alive = []
    for k in range(8):
        # A distinct array: every element shifted along the wall.
        array = PressArray(tuple(
            replace(e, position=e.position + Point(0.001 * (k + 1), 0.0))
            for e in setup.array.elements
        ))
        basis = Testbed(setup.testbed.scene, array).basis_for(setup.tx_device, setup.rx_device)
        alive.append(weakref.ref(basis.state_tensor))
        del basis
    gc.collect()
    assert cache.tensor_misses == 8
    assert cache.current_bytes <= cache.max_bytes
    assert 0 < sum(ref() is not None for ref in alive) < 3
    # The default cache is bounded in bytes too.
    assert trace_cache.reset().max_bytes == trace_cache.DEFAULT_MAX_BYTES


def test_reset_empties_every_entry_kind():
    cache = trace_cache.reset()
    basis = _build(_variant("none"))
    assert len(cache) == 2  # the wall part and the tensor
    tensor = weakref.ref(basis.state_tensor)
    trace_cache.reset()
    assert len(cache) == 0 and cache.current_bytes == 0
    del basis
    gc.collect()
    assert tensor() is None
    fresh = trace_cache.global_trace_cache()
    _build(_variant("none"))
    assert (fresh.misses, fresh.tensor_misses) == (1, 1)
