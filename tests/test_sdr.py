"""Tests for repro.sdr (devices, frontend, timesync, testbed)."""

import numpy as np
import pytest

from repro.constants import WAVELENGTH_M
from repro.core.array import PressArray
from repro.core.configuration import ArrayConfiguration
from repro.core.element import omni_element
from repro.em.geometry import Point
from repro.em.scene import blocker_between, shoebox_scene
from repro.em.trace_cache import global_trace_cache
from repro.sdr.device import SdrDevice, usrp_n210, usrp_x310, warp_v3
from repro.sdr.frontend import (
    FrontendImpairments,
    apply_cfo,
    apply_iq_imbalance,
    apply_phase_noise,
)
from repro.sdr.testbed import Testbed
from repro.sdr.timesync import (
    Clock,
    SweepTiming,
    max_unsynced_interval_s,
    sync_clocks,
)


class TestDevices:
    def test_factories(self):
        warp = warp_v3("w", Point(0, 0))
        n210 = usrp_n210("n", Point(1, 0))
        x310 = usrp_x310("x", Point(2, 0))
        assert warp.model == "WARP v3"
        assert n210.num_chains == 1
        assert x310.num_chains == 2

    def test_x310_antenna_spacing(self):
        x310 = usrp_x310("x", Point(0, 0), antenna_spacing_m=WAVELENGTH_M / 2)
        spacing = x310.chains[1].position.x - x310.chains[0].position.x
        assert spacing == pytest.approx(WAVELENGTH_M / 2)

    def test_moved_to_preserves_geometry(self):
        x310 = usrp_x310("x", Point(0, 0), antenna_spacing_m=0.1)
        moved = x310.moved_to(Point(5, 5))
        assert moved.position == Point(5, 5)
        assert moved.chains[1].position.x - moved.chains[0].position.x == pytest.approx(0.1)

    def test_device_requires_chains(self):
        with pytest.raises(ValueError):
            SdrDevice(name="empty", chains=())

    def test_x310_invalid_spacing(self):
        with pytest.raises(ValueError):
            usrp_x310("x", Point(0, 0), antenna_spacing_m=0.0)


class TestFrontend:
    def test_cfo_rotates(self):
        samples = np.ones(100, dtype=complex)
        out = apply_cfo(samples, 1000.0, 20e6)
        assert np.abs(out[50]) == pytest.approx(1.0)
        assert np.angle(out[50]) == pytest.approx(2 * np.pi * 1000 * 50 / 20e6)

    def test_zero_cfo_identity(self):
        samples = np.arange(10).astype(complex)
        assert np.allclose(apply_cfo(samples, 0.0, 20e6), samples)

    def test_phase_noise_preserves_magnitude(self, rng):
        samples = np.ones(1000, dtype=complex)
        out = apply_phase_noise(samples, 100.0, 20e6, rng)
        assert np.allclose(np.abs(out), 1.0)

    def test_phase_noise_zero_linewidth(self, rng):
        samples = np.ones(10, dtype=complex)
        assert np.allclose(apply_phase_noise(samples, 0.0, 20e6, rng), samples)

    def test_iq_imbalance_identity_when_matched(self):
        samples = np.array([1 + 2j, -0.5 + 0.3j])
        assert np.allclose(apply_iq_imbalance(samples), samples)

    def test_iq_imbalance_creates_image(self):
        samples = np.exp(1j * np.linspace(0, 10, 256))
        out = apply_iq_imbalance(samples, gain_mismatch_db=1.0, phase_mismatch_rad=0.05)
        # Image component = correlation with conj(x).
        image = abs(np.vdot(np.conj(samples), out)) / samples.size
        assert image > 0.01

    def test_bundle_applies_all(self, rng):
        impairments = FrontendImpairments(
            cfo_hz=500.0, phase_noise_linewidth_hz=10.0, iq_gain_mismatch_db=0.5
        )
        samples = np.ones(256, dtype=complex)
        out = impairments.apply(samples, 20e6, rng)
        assert out.shape == samples.shape
        assert not np.allclose(out, samples)


class TestTimesync:
    def test_clock_drift(self):
        clock = Clock(offset_s=0.0, drift_ppm=10.0)
        assert clock.error_at(1.0) == pytest.approx(10e-6)

    def test_sync_collapses_offset(self):
        clock = Clock(offset_s=0.5, drift_ppm=10.0)
        synced = sync_clocks(clock, true_time_s=100.0, residual_s=1e-6)
        assert synced.error_at(100.0) == pytest.approx(1e-6, abs=1e-9)

    def test_drift_reaccumulates_after_sync(self):
        clock = sync_clocks(Clock(drift_ppm=10.0), true_time_s=0.0)
        assert clock.error_at(10.0) > clock.error_at(1.0)

    def test_max_unsynced_interval(self):
        # 10 ppm drift, 100 us tolerance -> 10 s.
        assert max_unsynced_interval_s(10.0, 100e-6) == pytest.approx(10.0)
        assert max_unsynced_interval_s(0.0, 1e-6) == np.inf

    def test_sweep_timing_matches_paper(self):
        timing = SweepTiming()  # 64 configs, 5 s total
        assert timing.sweep_duration_s == pytest.approx(5.0)
        # The prototype sweep exceeds even the stationary coherence time.
        assert timing.exceeds_coherence(0.089)

    def test_fast_sweep_within_coherence(self):
        timing = SweepTiming(num_configurations=64, per_configuration_s=1e-3)
        assert not timing.exceeds_coherence(0.089)


class TestTestbed:
    @pytest.fixture
    def testbed(self, rng):
        scene = shoebox_scene(8.0, 6.0, num_scatterers=3, rng=rng)
        scene = scene.with_obstacles(blocker_between(Point(2, 3), Point(6, 3)))
        array = PressArray.from_elements(
            [omni_element(Point(3.2, 4.4), name="e0"), omni_element(Point(4.9, 4.6), name="e1")]
        )
        return Testbed(scene=scene, array=array)

    @pytest.fixture
    def devices(self):
        return warp_v3("tx", Point(2, 3)), warp_v3("rx", Point(6, 3))

    def test_environment_cache(self, testbed, devices):
        tx, rx = devices
        first = testbed.environment_paths(tx, rx)
        second = testbed.environment_paths(tx, rx)
        assert first == second
        # The second lookup hits the wall part and re-traces only the
        # scatterer paths.
        cache = global_trace_cache()
        assert (cache.misses, cache.hits) == (1, 1)

    def test_measure_csi_shapes(self, testbed, devices, rng):
        tx, rx = devices
        obs = testbed.measure_csi(tx, rx, ArrayConfiguration((0, 0)), rng=rng)
        assert obs.snr_db.shape == (64,)

    def test_sweep_shape(self, testbed, devices, rng):
        tx, rx = devices
        sweep = testbed.sweep(tx, rx, repetitions=2, rng=rng)
        assert sweep.snr_db.shape == (2, 16, 64)
        assert sweep.num_repetitions == 2
        assert sweep.num_configurations == 16
        assert sweep.used_mask.sum() == 52

    def test_sweep_configuration_order(self, testbed, devices):
        tx, rx = devices
        sweep = testbed.sweep(tx, rx, repetitions=1)
        space = testbed.array.configuration_space()
        assert sweep.configurations == tuple(space.all_configurations())

    def test_configuration_changes_channel(self, testbed, devices):
        tx, rx = devices
        a = testbed.measure_csi(tx, rx, ArrayConfiguration((0, 0)))
        b = testbed.measure_csi(tx, rx, ArrayConfiguration((2, 2)))
        assert not np.allclose(a.snr_db, b.snr_db)

    def test_mimo_matrices_shape(self, testbed, rng):
        tx = usrp_x310("mtx", Point(2, 3))
        rx = usrp_x310("mrx", Point(6, 3))
        h = testbed.mimo_matrices(tx, rx, ArrayConfiguration((0, 0)))
        assert h.shape == (64, 2, 2)

    def test_mimo_estimation_error_requires_rng(self, testbed):
        tx = usrp_x310("mtx", Point(2, 3))
        rx = usrp_x310("mrx", Point(6, 3))
        with pytest.raises(ValueError):
            testbed.mimo_matrices(
                tx, rx, ArrayConfiguration((0, 0)), estimation_error_std=0.1
            )

    def test_drift_varies_measurements(self, rng):
        scene = shoebox_scene(8.0, 6.0)
        array = PressArray.from_elements([omni_element(Point(3.2, 4.4), name="e0")])
        drifty = Testbed(scene=scene, array=array, drift_phase_rad=0.1)
        tx, rx = warp_v3("tx", Point(2, 3)), warp_v3("rx", Point(6, 3))
        # Without estimation noise the only variation is ambient drift; two
        # channels drawn with the same configuration should differ.
        a = drifty.mimo_matrices(tx, rx, ArrayConfiguration((0,)), rng)
        b = drifty.mimo_matrices(tx, rx, ArrayConfiguration((0,)), rng)
        assert not np.allclose(a, b)

    def test_no_drift_deterministic(self, testbed, devices, rng):
        tx, rx = devices
        a = testbed.mimo_matrices(tx, rx, ArrayConfiguration((0, 0)), rng)
        b = testbed.mimo_matrices(tx, rx, ArrayConfiguration((0, 0)), rng)
        np.testing.assert_array_equal(a, b)

    def test_invalid_drift(self):
        scene = shoebox_scene(4.0, 4.0)
        array = PressArray.from_elements([omni_element(Point(2, 2), name="e")])
        with pytest.raises(ValueError):
            Testbed(scene=scene, array=array, drift_phase_rad=-0.1)
