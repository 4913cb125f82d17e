"""Batched tracing against a reused trace frame, on the wall-array scene.

``tests/test_trace_batch.py`` ties the batch path to the scalar tracer on
the three-element study scenes.  The workloads run on
``build_large_array_setup`` (18 scatterers, 20 ordered wall pairs, a
64-element wall), where a testbed keeps one trace frame per TX chain and
re-traces only the receiver-facing legs.  The same per-point discipline
holds there, a reused frame gives the same bits as a fresh one, and the
per-angle antenna fallback and shallower bounce depths agree too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.array import PressArray
from repro.core.basis import ChannelBasis, element_frame
from repro.core.element import omni_element, parabolic_element
from repro.em import trace_cache
from repro.em.geometry import Point
from repro.experiments.common import build_large_array_setup
from repro.sdr.testbed import Testbed

from .basis_reference import reference_basis

GAIN_TOL = 1e-12


@pytest.fixture(scope="module")
def large_setup():
    return build_large_array_setup(0, num_elements=64)


def _points(center: Point, seed: int, count: int = 6) -> list[Point]:
    offsets = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, 2))
    return [Point(center.x + dx, center.y + dy) for dx, dy in offsets]


def _assert_rows_match_scalar(tracer, tx_chain, rx_antenna, points) -> None:
    batch = tracer.frame(tx_chain.position, tx_chain.antenna).trace_batch(points, rx_antenna)
    for index, point in enumerate(points):
        scalar = tracer.trace(tx_chain.position, point, tx_chain.antenna, rx_antenna)
        paths = batch.paths(index)
        assert [(p.kind, p.hops) for p in paths] == [(p.kind, p.hops) for p in scalar]
        for got, want in zip(paths, scalar):
            assert abs(got.gain - want.gain) <= GAIN_TOL
            assert got.delay_s == pytest.approx(want.delay_s, abs=1e-15)
            assert got.aod_rad == pytest.approx(want.aod_rad, abs=1e-12)
            assert got.aoa_rad == pytest.approx(want.aoa_rad, abs=1e-12)


def _assert_bases_match_scalar(testbed, tx_device, rx_antenna, points) -> None:
    tx_chain = tx_device.chains[0]
    bases = testbed.bases_for_points(tx_device, points, rx_antenna)
    space = testbed.array.configuration_space()
    configurations = np.random.default_rng(0).integers(
        0, min(space.state_counts), size=(16, testbed.array.num_elements)
    )
    for point, batched in zip(points, bases):
        scalar = reference_basis(
            testbed.array,
            tx_chain.position,
            point,
            testbed.tracer,
            tx_antenna=tx_chain.antenna,
            rx_antenna=rx_antenna,
            num_subcarriers=testbed.num_subcarriers,
            bandwidth_hz=testbed.bandwidth_hz,
        )
        np.testing.assert_allclose(
            batched.evaluate(configurations),
            scalar.evaluate(configurations),
            atol=GAIN_TOL,
            rtol=0,
        )


def test_large_scene_rows_match_scalar_trace(large_setup):
    scene = large_setup.testbed.scene
    assert len(scene.scatterers) == 18
    assert len(scene.walls) * (len(scene.walls) - 1) == 20
    _assert_rows_match_scalar(
        large_setup.testbed.tracer,
        large_setup.tx_device.chains[0],
        large_setup.rx_device.chains[0].antenna,
        _points(large_setup.rx_device.position, seed=1),
    )


def test_large_scene_bases_match_scalar_basis(large_setup):
    _assert_bases_match_scalar(
        large_setup.testbed,
        large_setup.tx_device,
        large_setup.rx_device.chains[0].antenna,
        _points(large_setup.rx_device.position, seed=2, count=3),
    )


def test_reused_frame_is_bit_identical_to_a_fresh_testbed():
    batches = [_points(Point(6.0, 3.0), seed) for seed in (3, 4, 5)]
    reused = build_large_array_setup(0, num_elements=64)
    antenna = reused.rx_device.chains[0].antenna
    warm = [
        reused.testbed.bases_for_points(reused.tx_device, points, antenna)
        for points in batches
    ]
    for points, warm_bases in zip(batches, warm):
        # A fresh testbed and an empty trace cache: nothing is shared.
        trace_cache.reset()
        fresh = build_large_array_setup(0, num_elements=64)
        cold = fresh.testbed.bases_for_points(fresh.tx_device, points, antenna)
        for a, b in zip(warm_bases, cold):
            assert np.array_equal(a.ambient_gains, b.ambient_gains)
            assert np.array_equal(a.ambient_delays, b.ambient_delays)
            assert np.array_equal(a.state_tensor, b.state_tensor)


@pytest.mark.parametrize("max_bounces", [0, 1])
def test_shallow_bounce_depths_match_scalar(large_setup, max_bounces):
    testbed = Testbed(large_setup.testbed.scene, large_setup.array, max_bounces=max_bounces)
    antenna = large_setup.rx_device.chains[0].antenna
    points = _points(large_setup.rx_device.position, seed=6, count=3)
    _assert_rows_match_scalar(
        testbed.tracer, large_setup.tx_device.chains[0], antenna, points
    )
    _assert_bases_match_scalar(testbed, large_setup.tx_device, antenna, points)


def test_parabolic_elements_match_scalar(large_setup):
    """Dishes take the per-angle pattern fallback; omnis stay flat."""
    elements = []
    for index, element in enumerate(large_setup.array.elements[:12]):
        if index % 3 == 2:
            elements.append(omni_element(element.position, name=f"o{index}"))
            continue
        dish = parabolic_element(element.position, name=f"p{index}")
        # Two boresights, so the dishes form two antenna groups.
        boresight = -math.pi / 2 + (0.3 if index % 2 else -0.3)
        elements.append(
            type(dish)(
                position=dish.position,
                antenna=type(dish.antenna)(boresight_rad=boresight),
                states=dish.states,
                name=dish.name,
            )
        )
    testbed = Testbed(large_setup.testbed.scene, PressArray(tuple(elements)))
    _assert_bases_match_scalar(
        testbed,
        large_setup.tx_device,
        large_setup.rx_device.chains[0].antenna,
        _points(large_setup.rx_device.position, seed=7, count=3),
    )


def test_frame_for_another_tx_is_rejected(large_setup):
    testbed = large_setup.testbed
    tx_chain = large_setup.tx_device.chains[0]
    other_tx = Point(tx_chain.position.x + 0.5, tx_chain.position.y)
    frame = element_frame(testbed.array, testbed.tracer, other_tx, tx_chain.antenna)
    with pytest.raises(ValueError, match="another tracer or TX"):
        ChannelBasis.trace_batch(
            testbed.array,
            tx_chain.position,
            [large_setup.rx_device.position],
            testbed.tracer,
            tx_antenna=tx_chain.antenna,
            frame=frame,
        )
