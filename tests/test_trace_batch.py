"""Batched ray tracing must reproduce the per-point scalar trace exactly.

``TraceFrame.trace_batch`` is a pure re-vectorisation of
``RayTracer.trace`` — same candidate enumeration, same blockage rules,
same amplitude folds — so for every receiver point the compressed batch
row must match the scalar path list path-for-path: count, kind order,
complex gain, delay and angles.
The same discipline applies one layer up to ``ChannelBasis.trace_batch``
and ``Testbed.bases_for_points``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.basis import ChannelBasis
from repro.em.channel import subcarrier_frequencies
from repro.em.geometry import Point
from repro.em.paths import paths_to_cfr
from repro.experiments import StudyConfig, build_los_setup, build_nlos_setup

from .basis_reference import reference_basis

GAIN_TOL = 1e-12


def _grid_around(center: Point, rows: int = 3, cols: int = 5) -> list[Point]:
    xs = np.linspace(center.x - 0.9, center.x + 0.9, cols)
    ys = np.linspace(center.y - 0.6, center.y + 0.6, rows)
    return [Point(float(x), float(y)) for y in ys for x in xs]


def _trace_batch(tracer, tx_chain, points, rx_antenna):
    """The batch trace of a fresh frame of ``tx_chain``."""
    return tracer.frame(tx_chain.position, tx_chain.antenna).trace_batch(points, rx_antenna)


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("builder", [build_nlos_setup, build_los_setup])
def test_trace_batch_matches_scalar_trace(builder, seed):
    setup = builder(seed, StudyConfig())
    tracer = setup.testbed.tracer
    tx_chain = setup.tx_device.chains[0]
    rx_chain = setup.rx_device.chains[0]
    points = _grid_around(rx_chain.position)

    batch = _trace_batch(tracer, tx_chain, points, rx_chain.antenna)
    assert batch.num_points == len(points)
    for index, point in enumerate(points):
        scalar = tracer.trace(
            tx_chain.position, point, tx_chain.antenna, rx_chain.antenna
        )
        paths = batch.paths(index)
        assert len(paths) == len(scalar)
        for got, want in zip(paths, scalar):
            assert got.kind == want.kind
            assert got.hops == want.hops
            assert abs(got.gain - want.gain) <= GAIN_TOL
            assert got.delay_s == pytest.approx(want.delay_s, abs=1e-15)
            assert got.aod_rad == pytest.approx(want.aod_rad, abs=1e-12)
            assert got.aoa_rad == pytest.approx(want.aoa_rad, abs=1e-12)


def test_trace_batch_counts_and_point_arrays():
    setup = build_nlos_setup(2, StudyConfig())
    tracer = setup.testbed.tracer
    tx_chain = setup.tx_device.chains[0]
    rx_chain = setup.rx_device.chains[0]
    points = _grid_around(rx_chain.position)
    batch = _trace_batch(tracer, tx_chain, points, rx_chain.antenna)
    counts = batch.counts()
    for index, point in enumerate(points):
        scalar = tracer.trace(
            tx_chain.position, point, tx_chain.antenna, rx_chain.antenna
        )
        assert counts[index] == len(scalar)
        gains, delays = batch.point_arrays(index)
        np.testing.assert_allclose(
            gains, np.array([p.gain for p in scalar]), atol=GAIN_TOL, rtol=0
        )
        np.testing.assert_allclose(
            delays, np.array([p.delay_s for p in scalar]), atol=1e-15, rtol=0
        )


def test_path_batch_cfr_matches_paths_to_cfr():
    setup = build_nlos_setup(2, StudyConfig())
    tracer = setup.testbed.tracer
    tx_chain = setup.tx_device.chains[0]
    rx_chain = setup.rx_device.chains[0]
    points = _grid_around(rx_chain.position, rows=2, cols=4)
    batch = _trace_batch(tracer, tx_chain, points, rx_chain.antenna)
    freqs = subcarrier_frequencies(
        setup.testbed.num_subcarriers, setup.testbed.bandwidth_hz
    )
    cfr = batch.cfr(freqs)
    assert cfr.shape == (len(points), len(freqs))
    for index in range(len(points)):
        gains, delays = batch.point_arrays(index)
        expected = paths_to_cfr(
            [
                type(batch.paths(index)[0])(gain=g, delay_s=d)
                for g, d in zip(gains, delays)
            ],
            freqs,
        )
        np.testing.assert_allclose(cfr[index], expected, atol=1e-12, rtol=0)


def test_channel_basis_trace_batch_matches_scalar():
    setup = build_nlos_setup(2, StudyConfig())
    testbed = setup.testbed
    tx_chain = setup.tx_device.chains[0]
    rx_chain = setup.rx_device.chains[0]
    points = _grid_around(rx_chain.position, rows=2, cols=3)
    bases = ChannelBasis.trace_batch(
        testbed.array,
        tx_chain.position,
        points,
        testbed.tracer,
        tx_antenna=tx_chain.antenna,
        rx_antenna=rx_chain.antenna,
        num_subcarriers=testbed.num_subcarriers,
        bandwidth_hz=testbed.bandwidth_hz,
    )
    assert len(bases) == len(points)
    for point, batched in zip(points, bases):
        scalar = reference_basis(
            testbed.array,
            tx_chain.position,
            point,
            testbed.tracer,
            tx_antenna=tx_chain.antenna,
            rx_antenna=rx_chain.antenna,
            num_subcarriers=testbed.num_subcarriers,
            bandwidth_hz=testbed.bandwidth_hz,
        )
        np.testing.assert_allclose(
            batched.evaluate(), scalar.evaluate(), atol=1e-12, rtol=0
        )


def test_testbed_bases_for_points_matches_basis_for_probe():
    from repro.sdr.device import warp_v3

    setup = build_nlos_setup(1, StudyConfig())
    testbed = setup.testbed
    rx0 = setup.rx_device.position
    points = _grid_around(rx0, rows=2, cols=2)
    probe_antenna = warp_v3("probe", rx0).chains[0].antenna
    bases = testbed.bases_for_points(setup.tx_device, points, probe_antenna)
    for point, batched in zip(points, bases):
        probe = warp_v3("probe", point)
        scalar = testbed.basis_for(setup.tx_device, probe)
        np.testing.assert_allclose(
            batched.evaluate(), scalar.evaluate(), atol=1e-12, rtol=0
        )


def test_trace_batch_accepts_ndarray_points():
    setup = build_los_setup(2, StudyConfig())
    tracer = setup.testbed.tracer
    tx_chain = setup.tx_device.chains[0]
    rx_chain = setup.rx_device.chains[0]
    points = _grid_around(rx_chain.position, rows=2, cols=2)
    as_array = np.array([[p.x, p.y] for p in points])
    from_list = _trace_batch(tracer, tx_chain, points, rx_chain.antenna)
    from_array = _trace_batch(tracer, tx_chain, as_array, rx_chain.antenna)
    np.testing.assert_array_equal(from_list.valid, from_array.valid)
    np.testing.assert_array_equal(from_list.gains, from_array.gains)
    np.testing.assert_array_equal(from_list.delays_s, from_array.delays_s)
