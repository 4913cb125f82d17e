"""Tests for repro.em.raytracer."""

import math

import pytest

from repro.constants import SPEED_OF_LIGHT, WAVELENGTH_M
from repro.em.antennas import OmniAntenna, ParabolicAntenna
from repro.em.geometry import Obstacle, Point, Segment, Wall
from repro.em.raytracer import (
    MIN_HOP_DISTANCE_M,
    RayTracer,
    carrier_phase,
    free_space_amplitude,
    two_hop_gain,
)
from repro.em.scene import Scatterer, Scene, blocker_between, shoebox_scene


def _bounces(tracer, tx, rx, hops):
    """The wall reflections of ``tracer.wall_paths`` with ``hops`` bounces."""
    return [p for p in tracer.wall_paths(tx, rx) if p.hops == hops]


class TestFreeSpace:
    def test_amplitude_inverse_distance(self):
        a1 = free_space_amplitude(1.0, WAVELENGTH_M)
        a2 = free_space_amplitude(2.0, WAVELENGTH_M)
        assert a1 / a2 == pytest.approx(2.0)

    def test_friis_value(self):
        # lambda/(4 pi d) at 1 m, 2.462 GHz ~ 9.69e-3.
        assert free_space_amplitude(1.0, WAVELENGTH_M) == pytest.approx(9.69e-3, rel=1e-2)

    def test_near_field_clamp(self):
        assert free_space_amplitude(0.0, WAVELENGTH_M) == free_space_amplitude(
            MIN_HOP_DISTANCE_M, WAVELENGTH_M
        )

    def test_carrier_phase_periodic(self):
        assert carrier_phase(WAVELENGTH_M, WAVELENGTH_M) == pytest.approx(
            carrier_phase(0.0, WAVELENGTH_M)
        )

    def test_half_wavelength_flips_sign(self):
        assert carrier_phase(WAVELENGTH_M / 2, WAVELENGTH_M).real == pytest.approx(-1.0)


class TestTwoHopGain:
    def test_matches_backscatter_budget(self):
        gain = two_hop_gain(2.0, 3.0, WAVELENGTH_M)
        expected = free_space_amplitude(2.0, WAVELENGTH_M) * free_space_amplitude(
            3.0, WAVELENGTH_M
        )
        assert abs(gain) == pytest.approx(expected)

    def test_reflectivity_scales(self):
        full = two_hop_gain(1.0, 1.0, WAVELENGTH_M)
        half = two_hop_gain(1.0, 1.0, WAVELENGTH_M, reflectivity=0.5 + 0j)
        assert abs(half) == pytest.approx(abs(full) / 2)


class TestLineOfSight:
    def test_los_present_in_empty_room(self, simple_scene):
        tracer = RayTracer(simple_scene)
        path = tracer.line_of_sight_path(Point(2, 3), Point(6, 3))
        assert path is not None
        assert path.kind == "los"
        assert path.delay_s == pytest.approx(4.0 / SPEED_OF_LIGHT)

    def test_los_blocked_by_obstacle(self, simple_scene):
        scene = simple_scene.with_obstacles(blocker_between(Point(2, 3), Point(6, 3)))
        tracer = RayTracer(scene)
        assert tracer.line_of_sight_path(Point(2, 3), Point(6, 3)) is None

    def test_los_gain_matches_friis(self, simple_scene):
        tracer = RayTracer(simple_scene)
        path = tracer.line_of_sight_path(Point(2, 3), Point(6, 3))
        assert abs(path.gain) == pytest.approx(
            free_space_amplitude(4.0, tracer.wavelength_m)
        )

    def test_aod_aoa_point_at_each_other(self, simple_scene):
        tracer = RayTracer(simple_scene)
        path = tracer.line_of_sight_path(Point(2, 3), Point(6, 3))
        assert path.aod_rad == pytest.approx(0.0)
        assert abs(path.aoa_rad) == pytest.approx(math.pi)


class TestWallReflections:
    def test_single_bounce_count_in_rectangle(self, simple_scene):
        tracer = RayTracer(simple_scene, max_bounces=1)
        paths = _bounces(tracer, Point(2, 3), Point(6, 3), 1)
        # All four walls give a specular bounce for an interior link.
        assert len(paths) == 4

    def test_image_method_delay(self, simple_scene):
        # Bottom wall (y=0): path length = |(2,3) -> image (6,-3)| = sqrt(16+36).
        tracer = RayTracer(simple_scene, max_bounces=1)
        paths = _bounces(tracer, Point(2, 3), Point(6, 3), 1)
        expected = math.sqrt(4.0**2 + 6.0**2) / SPEED_OF_LIGHT
        delays = [p.delay_s for p in paths]
        assert any(d == pytest.approx(expected, rel=1e-9) for d in delays)

    def test_reflection_attenuated_by_material(self):
        metal = shoebox_scene(8.0, 6.0, material="metal")
        dry = shoebox_scene(8.0, 6.0, material="drywall")
        p_metal = _bounces(RayTracer(metal, max_bounces=1), Point(2, 3), Point(6, 3), 1)
        p_dry = _bounces(RayTracer(dry, max_bounces=1), Point(2, 3), Point(6, 3), 1)
        assert abs(p_metal[0].gain) > abs(p_dry[0].gain)

    def test_double_bounce_weaker_than_single(self, simple_scene):
        tracer = RayTracer(simple_scene, max_bounces=2)
        single = _bounces(tracer, Point(2, 3), Point(6, 3), 1)
        double = _bounces(tracer, Point(2, 3), Point(6, 3), 2)
        assert double  # exist
        assert max(p.power for p in double) < max(p.power for p in single)

    def test_double_bounce_hops_tagged(self, simple_scene):
        tx, rx = Point(2, 3), Point(6, 3)
        one = RayTracer(simple_scene, max_bounces=1).wall_paths(tx, rx)
        two = RayTracer(simple_scene, max_bounces=2).wall_paths(tx, rx)
        assert two[: len(one)] == one
        assert len(two) > len(one)
        assert all(path.hops == 2 for path in two[len(one) :])

    def test_obstacle_blocks_reflection(self, simple_scene):
        # A big obstacle just below the link blocks the floor bounce; the
        # symmetric ceiling bounce (same delay at mid-height) survives, so
        # exactly one path remains at that delay instead of two.
        obstacle = Obstacle(Segment(Point(1.0, 1.5), Point(7.0, 1.5)))
        blocked = simple_scene.with_obstacles(obstacle)
        floor_delay = math.sqrt(16 + 36) / SPEED_OF_LIGHT

        def count_at_delay(scene):
            paths = _bounces(RayTracer(scene, max_bounces=1), Point(2, 3), Point(6, 3), 1)
            return sum(
                1 for p in paths if p.delay_s == pytest.approx(floor_delay, rel=1e-6)
            )

        assert count_at_delay(simple_scene) == 2
        assert count_at_delay(blocked) == 1

    def test_interior_wall_blocks_and_reflects(self):
        walls = list(shoebox_scene(8.0, 6.0).walls)
        walls.append(Wall(Segment(Point(4.0, 2.0), Point(4.0, 4.0)), material="metal"))
        scene = Scene(walls=tuple(walls))
        tracer = RayTracer(scene)
        # Interior wall blocks the direct path.
        assert not tracer.has_line_of_sight(Point(2, 3), Point(6, 3))


class TestScattererAndRelay:
    def test_scatterer_path_created(self, simple_scene):
        scene = simple_scene.with_scatterers(Scatterer(Point(4, 4.5)))
        tracer = RayTracer(scene)
        paths = tracer.scatterer_paths(Point(2, 3), Point(6, 3))
        assert len(paths) == 1
        assert paths[0].kind == "scatterer"

    def test_scatterer_gain_dbi_applied(self, simple_scene):
        low = simple_scene.with_scatterers(Scatterer(Point(4, 4.5), gain_dbi=0.0))
        high = simple_scene.with_scatterers(Scatterer(Point(4, 4.5), gain_dbi=10.0))
        p_low = RayTracer(low).scatterer_paths(Point(2, 3), Point(6, 3))[0]
        p_high = RayTracer(high).scatterer_paths(Point(2, 3), Point(6, 3))[0]
        # 10 dBi applied on both hops -> 20 dB power difference.
        ratio_db = 10 * math.log10(p_high.power / p_low.power)
        assert ratio_db == pytest.approx(20.0, abs=0.1)

    def test_relay_path_blocked_leg_returns_none(self, simple_scene):
        scene = simple_scene.with_obstacles(
            Obstacle(Segment(Point(3.0, 3.4), Point(3.0, 4.2)))
        )
        tracer = RayTracer(scene)
        assert (
            tracer.relay_path(Point(2, 3), Point(4, 2.5), Point(6, 3)) is not None
        )  # legs pass below the obstacle
        assert (
            tracer.relay_path(Point(2, 3), Point(4, 4.5), Point(6, 3)) is None
        )  # first leg crosses it (y = 3.75 at x = 3)

    def test_relay_extra_delay_and_phase(self, simple_scene):
        tracer = RayTracer(simple_scene)
        base = tracer.relay_path(Point(2, 3), Point(4, 4.5), Point(6, 3))
        shifted = tracer.relay_path(
            Point(2, 3),
            Point(4, 4.5),
            Point(6, 3),
            extra_delay_s=10e-9,
            extra_phase_rad=math.pi / 2,
        )
        assert shifted.delay_s == pytest.approx(base.delay_s + 10e-9)
        assert shifted.gain / base.gain == pytest.approx(1j)

    def test_relay_directional_pattern(self, simple_scene):
        tracer = RayTracer(simple_scene)
        dish_toward_tx = ParabolicAntenna(
            boresight_rad=(Point(2, 3) - Point(4, 4.5)).angle()
        )
        path = tracer.relay_path(
            Point(2, 3),
            Point(4, 4.5),
            Point(6, 3),
            relay_antenna_in=dish_toward_tx,
            relay_antenna_out=dish_toward_tx,
        )
        omni = tracer.relay_path(Point(2, 3), Point(4, 4.5), Point(6, 3))
        # In-beam toward TX boosts the incident hop, off-beam toward RX
        # attenuates the departure hop far more.
        assert path.power < omni.power


class TestTrace:
    def test_trace_includes_all_kinds(self, nlos_scene):
        tracer = RayTracer(nlos_scene)
        paths = tracer.trace(Point(2, 3), Point(6, 3), OmniAntenna(), OmniAntenna())
        kinds = {p.kind for p in paths}
        assert "wall-reflection" in kinds
        assert "los" not in kinds  # blocked

    def test_trace_respects_max_bounces(self, simple_scene):
        t0 = RayTracer(simple_scene, max_bounces=0)
        t1 = RayTracer(simple_scene, max_bounces=1)
        t2 = RayTracer(simple_scene, max_bounces=2)
        n0 = len(t0.trace(Point(2, 3), Point(6, 3)))
        n1 = len(t1.trace(Point(2, 3), Point(6, 3)))
        n2 = len(t2.trace(Point(2, 3), Point(6, 3)))
        assert n0 < n1 < n2

    def test_invalid_max_bounces(self, simple_scene):
        with pytest.raises(ValueError):
            RayTracer(simple_scene, max_bounces=3)
