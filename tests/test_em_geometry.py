"""Tests for repro.em.geometry."""

import math

import numpy as np
import pytest

from repro.em.geometry import (
    Obstacle,
    Point,
    Segment,
    distance,
    leg_blocked_packed,
    mirror_point,
    pack_segments,
    points_on_grid,
    rectangle_walls,
    segment_intersection,
)


class TestPoint:
    def test_arithmetic(self):
        a, b = Point(1, 2), Point(3, 5)
        assert (a + b) == Point(4, 7)
        assert (b - a) == Point(2, 3)
        assert 2 * a == Point(2, 4)

    def test_dot_and_cross(self):
        assert Point(1, 0).dot(Point(0, 1)) == 0.0
        assert Point(1, 0).cross(Point(0, 1)) == 1.0

    def test_norm_and_normalized(self):
        assert Point(3, 4).norm() == pytest.approx(5.0)
        unit = Point(3, 4).normalized()
        assert unit.norm() == pytest.approx(1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Point(0, 0).normalized()

    def test_angle(self):
        assert Point(1, 0).angle() == pytest.approx(0.0)
        assert Point(0, 1).angle() == pytest.approx(math.pi / 2)
        assert Point(-1, 0).angle() == pytest.approx(math.pi)


class TestSegment:
    def test_length_direction_midpoint(self):
        seg = Segment(Point(0, 0), Point(4, 0))
        assert seg.length() == pytest.approx(4.0)
        assert seg.direction() == Point(1, 0)
        assert seg.midpoint() == Point(2, 0)

    def test_normal_is_perpendicular(self):
        seg = Segment(Point(0, 0), Point(1, 1))
        assert seg.normal().dot(seg.direction()) == pytest.approx(0.0, abs=1e-12)

    def test_point_at(self):
        seg = Segment(Point(0, 0), Point(2, 4))
        assert seg.point_at(0.5) == Point(1, 2)

    def test_contains_point(self):
        seg = Segment(Point(0, 0), Point(10, 0))
        assert seg.contains_point(Point(5, 0))
        assert not seg.contains_point(Point(5, 1))
        assert not seg.contains_point(Point(11, 0))


class TestMirror:
    def test_mirror_across_x_axis(self):
        seg = Segment(Point(0, 0), Point(1, 0))
        assert mirror_point(Point(2, 3), seg) == Point(2, -3)

    def test_mirror_is_involution(self):
        seg = Segment(Point(0, 1), Point(3, 4))
        p = Point(2.5, -1.2)
        twice = mirror_point(mirror_point(p, seg), seg)
        assert distance(twice, p) < 1e-9

    def test_mirror_point_on_line_is_fixed(self):
        seg = Segment(Point(0, 0), Point(1, 1))
        assert distance(mirror_point(Point(0.5, 0.5), seg), Point(0.5, 0.5)) < 1e-9

    def test_mirror_zero_segment_raises(self):
        with pytest.raises(ValueError):
            mirror_point(Point(1, 1), Segment(Point(0, 0), Point(0, 0)))


class TestIntersection:
    def test_crossing_segments(self):
        a = Segment(Point(0, 0), Point(2, 2))
        b = Segment(Point(0, 2), Point(2, 0))
        hit = segment_intersection(a, b)
        assert hit is not None
        assert distance(hit, Point(1, 1)) < 1e-9

    def test_parallel_no_intersection(self):
        a = Segment(Point(0, 0), Point(2, 0))
        b = Segment(Point(0, 1), Point(2, 1))
        assert segment_intersection(a, b) is None

    def test_collinear_overlap(self):
        a = Segment(Point(0, 0), Point(4, 0))
        b = Segment(Point(2, 0), Point(6, 0))
        assert segment_intersection(a, b) is not None

    def test_collinear_disjoint(self):
        a = Segment(Point(0, 0), Point(1, 0))
        b = Segment(Point(2, 0), Point(3, 0))
        assert segment_intersection(a, b) is None

    def test_touching_endpoints_count(self):
        a = Segment(Point(0, 0), Point(1, 0))
        b = Segment(Point(1, 0), Point(1, 5))
        assert segment_intersection(a, b) is not None

    def test_near_miss(self):
        a = Segment(Point(0, 0), Point(1, 0))
        b = Segment(Point(0.5, 0.01), Point(0.5, 1))
        assert segment_intersection(a, b) is None


def _blocked(start, end, obstacles):
    return leg_blocked_packed(start, end, pack_segments([o.segment for o in obstacles]))


class TestBlockage:
    def test_blocked_path(self):
        wall = Obstacle(Segment(Point(1, -1), Point(1, 1)))
        assert _blocked(Point(0, 0), Point(2, 0), [wall])

    def test_clear_path(self):
        wall = Obstacle(Segment(Point(1, 1), Point(1, 2)))
        assert not _blocked(Point(0, 0), Point(2, 0), [wall])

    def test_endpoint_touch_ignored(self):
        wall = Obstacle(Segment(Point(0, -1), Point(0, 1)))
        assert not _blocked(Point(0, 0), Point(2, 0), [wall])


class TestRectangleWalls:
    def test_four_walls_closed_loop(self):
        walls = rectangle_walls(4.0, 3.0)
        assert len(walls) == 4
        assert walls[0].segment.start == walls[3].segment.end

    def test_perimeter(self):
        walls = rectangle_walls(4.0, 3.0)
        assert sum(w.segment.length() for w in walls) == pytest.approx(14.0)

    def test_material_applied(self):
        walls = rectangle_walls(1.0, 1.0, material="metal")
        assert all(w.material == "metal" for w in walls)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            rectangle_walls(0.0, 3.0)


class TestPointsOnGrid:
    def test_count_and_bounds(self):
        rng = np.random.default_rng(0)
        pts = points_on_grid(5, (0.0, 4.0), (1.0, 3.0), rows=4, cols=4, rng=rng)
        assert len(pts) == 5
        for p in pts:
            assert 0.0 <= p.x <= 4.0
            assert 1.0 <= p.y <= 3.0

    def test_distinct_cells(self):
        rng = np.random.default_rng(0)
        pts = points_on_grid(16, (0.0, 4.0), (0.0, 4.0), rows=4, cols=4, rng=rng)
        assert len({p.as_tuple() for p in pts}) == 16

    def test_too_many_points_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            points_on_grid(17, (0.0, 4.0), (0.0, 4.0), rows=4, cols=4, rng=rng)
