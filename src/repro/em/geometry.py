"""Planar geometry primitives for the indoor propagation simulator.

The PRESS exploratory study (§3) takes place in a single indoor room with
the direct transmitter–receiver path deliberately blocked.  We model the
scene in 2-D (a floor-plan view): walls and obstacles are line segments,
radios and PRESS elements are points.  2-D image-method ray tracing captures
the mechanism the paper relies on — multiple specular paths with distinct
delays superposing at the receiver — while staying cheap enough to sweep the
full 64-configuration space thousands of times in the benchmarks.

All coordinates are in metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Point",
    "Segment",
    "Wall",
    "Obstacle",
    "SegmentArrays",
    "pack_segments",
    "leg_blocked_packed",
    "legs_blocked_packed",
    "distance",
    "mirror_point",
    "segment_intersection",
]

_EPS = 1e-9


@dataclass(frozen=True)
class Point:
    """A point (or free vector) in the 2-D floor plan."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        """Inner product treating both points as vectors."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the 2-D cross product."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length treating the point as a vector."""
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Point":
        """Unit vector in the same direction.

        Raises
        ------
        ValueError
            If the vector is (numerically) zero.
        """
        n = self.norm()
        if n < _EPS:
            raise ValueError("cannot normalize a zero-length vector")
        return Point(self.x / n, self.y / n)

    def angle(self) -> float:
        """Angle of the vector from the +x axis, in radians, in (-pi, pi]."""
        return math.atan2(self.y, self.x)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Segment:
    """A finite line segment between two points."""

    start: Point
    end: Point

    def length(self) -> float:
        return distance(self.start, self.end)

    def direction(self) -> Point:
        """Unit vector from start to end."""
        return (self.end - self.start).normalized()

    def normal(self) -> Point:
        """Unit normal (left-hand perpendicular of the direction)."""
        d = self.direction()
        return Point(-d.y, d.x)

    def midpoint(self) -> Point:
        return Point((self.start.x + self.end.x) / 2.0, (self.start.y + self.end.y) / 2.0)

    def point_at(self, t: float) -> Point:
        """Point at parameter ``t`` in [0, 1] along the segment."""
        return Point(
            self.start.x + t * (self.end.x - self.start.x),
            self.start.y + t * (self.end.y - self.start.y),
        )

    def contains_point(self, p: Point, tol: float = 1e-6) -> bool:
        """Whether ``p`` lies on the segment within tolerance ``tol``."""
        d = self.end - self.start
        seg_len = d.norm()
        if seg_len < _EPS:
            return distance(self.start, p) <= tol
        # Perpendicular distance from the infinite line.
        rel = p - self.start
        perp = abs(d.cross(rel)) / seg_len
        if perp > tol:
            return False
        t = rel.dot(d) / (seg_len * seg_len)
        return -tol / seg_len <= t <= 1.0 + tol / seg_len


@dataclass(frozen=True)
class Wall:
    """A reflecting wall: a segment plus a material name.

    The material name is resolved to a complex reflection coefficient by
    :mod:`repro.em.materials`.
    """

    segment: Segment
    material: str = "drywall"

    @property
    def start(self) -> Point:
        return self.segment.start

    @property
    def end(self) -> Point:
        return self.segment.end


@dataclass(frozen=True)
class Obstacle:
    """An absorbing blocker (e.g. the metal sheet used in §3.2 to block LoS).

    An obstacle blocks any ray crossing its segment; it contributes no
    specular reflection of its own (the paper's blocker is modelled as
    perfectly absorbing, which is the conservative choice for reproducing a
    non-line-of-sight link).
    """

    segment: Segment
    name: str = "blocker"


def mirror_point(p: Point, seg: Segment) -> Point:
    """Mirror point ``p`` across the infinite line through ``seg``.

    This is the core operation of image-method ray tracing: the specular
    reflection of a source off a wall behaves as if radiated by the source's
    mirror image.
    """
    d = seg.end - seg.start
    seg_len2 = d.dot(d)
    if seg_len2 < _EPS * _EPS:
        raise ValueError("cannot mirror across a zero-length segment")
    rel = p - seg.start
    t = rel.dot(d) / seg_len2
    foot = seg.start + t * d
    return Point(2.0 * foot.x - p.x, 2.0 * foot.y - p.y)


def segment_intersection(a: Segment, b: Segment) -> Optional[Point]:
    """Intersection point of two segments, or ``None`` if they do not cross.

    Endpoints touching count as an intersection.  Collinear overlapping
    segments return a representative point (the start of the overlap).
    """
    p, r = a.start, a.end - a.start
    q, s = b.start, b.end - b.start
    rxs = r.cross(s)
    q_p = q - p
    if abs(rxs) < _EPS:
        # Parallel.  Check collinearity + overlap.
        if abs(q_p.cross(r)) > _EPS:
            return None
        r_len2 = r.dot(r)
        if r_len2 < _EPS * _EPS:
            # ``a`` is a point.
            return a.start if b.contains_point(a.start) else None
        t0 = q_p.dot(r) / r_len2
        t1 = t0 + s.dot(r) / r_len2
        lo, hi = min(t0, t1), max(t0, t1)
        if hi < -_EPS or lo > 1.0 + _EPS:
            return None
        t = max(0.0, lo)
        return a.point_at(min(1.0, t))
    t = q_p.cross(s) / rxs
    u = q_p.cross(r) / rxs
    if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
        return a.point_at(min(1.0, max(0.0, t)))
    return None


@dataclass(frozen=True)
class SegmentArrays:
    """A batch of segments packed into flat coordinate arrays.

    The packed form lets one broadcast intersection test replace a Python
    loop over segments — the hot inner operation of every ray-tracing
    blockage check.  Arrays are parallel: segment ``i`` runs from
    ``(start_x[i], start_y[i])`` to ``(end_x[i], end_y[i])`` with direction
    ``(dir_x[i], dir_y[i]) = end - start``.
    """

    start_x: np.ndarray
    start_y: np.ndarray
    end_x: np.ndarray
    end_y: np.ndarray
    dir_x: np.ndarray
    dir_y: np.ndarray

    def __len__(self) -> int:
        return int(self.start_x.shape[0])

    def match_mask(self, segment: Segment) -> np.ndarray:
        """Boolean mask of packed segments with ``segment``'s endpoints.

        Endpoints compare exactly (in either order), mirroring the scalar
        ``_same_segment`` identity test used to skip a path's own
        reflecting walls.
        """
        ax, ay = segment.start.x, segment.start.y
        bx, by = segment.end.x, segment.end.y
        forward = (
            (self.start_x == ax)
            & (self.start_y == ay)
            & (self.end_x == bx)
            & (self.end_y == by)
        )
        backward = (
            (self.start_x == bx)
            & (self.start_y == by)
            & (self.end_x == ax)
            & (self.end_y == ay)
        )
        return forward | backward


def pack_segments(segments: Sequence[Segment]) -> SegmentArrays:
    """Pack a segment list into :class:`SegmentArrays` (done once per scene)."""
    start_x = np.array([s.start.x for s in segments], dtype=float)
    start_y = np.array([s.start.y for s in segments], dtype=float)
    end_x = np.array([s.end.x for s in segments], dtype=float)
    end_y = np.array([s.end.y for s in segments], dtype=float)
    return SegmentArrays(
        start_x=start_x,
        start_y=start_y,
        end_x=end_x,
        end_y=end_y,
        dir_x=end_x - start_x,
        dir_y=end_y - start_y,
    )


def leg_blocked_packed(
    start: Point,
    end: Point,
    packed: SegmentArrays,
    exclude_mask: Optional[np.ndarray] = None,
    endpoint_tol: float = 1e-6,
) -> bool:
    """Whether the leg ``start``→``end`` crosses any packed segment.

    One broadcast intersection test over all segments, reproducing the
    scalar :func:`segment_intersection` semantics exactly: endpoints
    touching count as intersections, collinear overlaps resolve to the
    start of the overlap, and hits within ``endpoint_tol`` of either leg
    endpoint are ignored (a reflection point lies on its wall by
    construction).
    """
    if len(packed) == 0:
        return False
    px, py = start.x, start.y
    rx, ry = end.x - px, end.y - py
    r_len2 = rx * rx + ry * ry
    if r_len2 < _EPS * _EPS:
        # Degenerate (point) leg: any hit coincides with the leg endpoints
        # and is therefore ignored.
        return False
    qpx = packed.start_x - px
    qpy = packed.start_y - py
    sx, sy = packed.dir_x, packed.dir_y
    rxs = rx * sy - ry * sx  # cross(r, s) per segment
    qp_x_r = qpx * ry - qpy * rx  # cross(q - p, r)
    parallel = np.abs(rxs) < _EPS
    rxs_safe = np.where(parallel, 1.0, rxs)
    # Non-parallel branch: solve p + t r = q + u s.
    t_np = (qpx * sy - qpy * sx) / rxs_safe  # cross(q - p, s) / cross(r, s)
    u_np = qp_x_r / rxs_safe
    hit_np = (
        ~parallel
        & (t_np >= -_EPS)
        & (t_np <= 1.0 + _EPS)
        & (u_np >= -_EPS)
        & (u_np <= 1.0 + _EPS)
    )
    # Parallel branch: collinear overlap resolves to the overlap start.
    collinear = parallel & (np.abs(qp_x_r) <= _EPS)
    t0 = (qpx * rx + qpy * ry) / r_len2
    t1 = t0 + (sx * rx + sy * ry) / r_len2
    lo = np.minimum(t0, t1)
    hi = np.maximum(t0, t1)
    hit_par = collinear & (hi >= -_EPS) & (lo <= 1.0 + _EPS)
    t_par = np.maximum(0.0, lo)
    hit = hit_np | hit_par
    if exclude_mask is not None:
        hit &= ~exclude_mask
    if not hit.any():
        return False
    t = np.clip(np.where(parallel, t_par, t_np), 0.0, 1.0)
    hit_x = px + t * rx
    hit_y = py + t * ry
    near_start = (hit_x - px) ** 2 + (hit_y - py) ** 2 <= endpoint_tol**2
    near_end = (hit_x - end.x) ** 2 + (hit_y - end.y) ** 2 <= endpoint_tol**2
    return bool((hit & ~near_start & ~near_end).any())


def legs_blocked_packed(
    start_x: np.ndarray,
    start_y: np.ndarray,
    end_x: np.ndarray,
    end_y: np.ndarray,
    packed: SegmentArrays,
    exclude_mask: Optional[np.ndarray] = None,
    endpoint_tol: float = 1e-6,
) -> np.ndarray:
    """Batched form of :func:`leg_blocked_packed`: P legs against S segments.

    One broadcast ``(P, S)`` intersection test replaces P scalar calls —
    the hot operation of batched ray tracing, where every candidate path
    family tests one leg per receiver position.  Semantics match the
    scalar kernel exactly (endpoint hits ignored, collinear overlaps
    resolve to the overlap start, degenerate legs never blocked).

    Parameters
    ----------
    start_x, start_y, end_x, end_y:
        Leg endpoints, shape ``(P,)`` each.
    packed:
        The scene's opaque segments.
    exclude_mask:
        Optional boolean mask of segments to skip — shape ``(S,)`` shared
        by all legs, or ``(P, S)`` per leg.
    endpoint_tol:
        Hits within this distance of a leg endpoint are ignored.

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``(P,)``: whether each leg is blocked.
    """
    px = np.asarray(start_x, dtype=float)
    py = np.asarray(start_y, dtype=float)
    ex = np.asarray(end_x, dtype=float)
    ey = np.asarray(end_y, dtype=float)
    num_legs = px.shape[0]
    blocked = np.zeros(num_legs, dtype=bool)
    if len(packed) == 0:
        return blocked
    rx = ex - px
    ry = ey - py
    # Pairs are laid out (S, P), so each numpy inner loop runs over the
    # legs rather than over the scene's few segments.
    sx = packed.dir_x[:, None]
    sy = packed.dir_y[:, None]
    qpx = packed.start_x[:, None] - px  # (S, P)
    qpy = packed.start_y[:, None] - py
    rxs = rx * sy
    rxs -= ry * sx  # cross(r, s)
    parallel = np.abs(rxs) < _EPS
    np.copyto(rxs, 1.0, where=parallel)
    # Non-parallel branch: solve p + t r = q + u s.
    t = qpx * sy
    t -= qpy * sx
    t /= rxs  # cross(q - p, s) / cross(r, s)
    u = qpx * ry
    u -= qpy * rx
    u /= rxs  # cross(q - p, r) / cross(r, s)
    hit = t >= -_EPS
    hit &= t <= 1.0 + _EPS
    hit &= u >= -_EPS
    hit &= u <= 1.0 + _EPS
    r_len2 = rx * rx + ry * ry  # (P,)
    degenerate = r_len2 < _EPS * _EPS
    if parallel.any():
        # Parallel pairs (rare) replace their hit and t: a collinear
        # overlap resolves to the overlap start.
        segs, legs = np.nonzero(parallel)
        lrx, lry = rx[legs], ry[legs]
        qx, qy = qpx[segs, legs], qpy[segs, legs]
        r_len2_safe = np.where(degenerate, 1.0, r_len2)[legs]
        t0 = (qx * lrx + qy * lry) / r_len2_safe
        t1 = t0 + (packed.dir_x[segs] * lrx + packed.dir_y[segs] * lry) / r_len2_safe
        lo = np.minimum(t0, t1)
        hi = np.maximum(t0, t1)
        collinear = np.abs(qx * lry - qy * lrx) <= _EPS
        hit[segs, legs] = collinear & (hi >= -_EPS) & (lo <= 1.0 + _EPS)
        t[segs, legs] = np.maximum(0.0, lo)
    if exclude_mask is not None:
        exclude = np.asarray(exclude_mask)
        np.copyto(hit, False, where=exclude.T if exclude.ndim == 2 else exclude[:, None])
    # Endpoint test on the hits only.
    segs, legs = np.nonzero(hit)
    if not len(legs):
        return blocked
    lpx, lpy = px[legs], py[legs]
    tt = np.clip(t[segs, legs], 0.0, 1.0)
    hit_x = lpx + tt * rx[legs]
    hit_y = lpy + tt * ry[legs]
    near_start = (hit_x - lpx) ** 2 + (hit_y - lpy) ** 2 <= endpoint_tol**2
    near_end = (hit_x - ex[legs]) ** 2 + (hit_y - ey[legs]) ** 2 <= endpoint_tol**2
    blocked[legs[~(near_start | near_end)]] = True
    return blocked & ~degenerate


def rectangle_walls(
    width: float,
    height: float,
    material: str = "drywall",
    origin: Point = Point(0.0, 0.0),
) -> list[Wall]:
    """Four walls of an axis-aligned rectangular room.

    Parameters
    ----------
    width, height:
        Interior dimensions in metres; both must be positive.
    material:
        Material name applied to all four walls.
    origin:
        Bottom-left interior corner.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"room dimensions must be positive, got {width} x {height}")
    x0, y0 = origin.x, origin.y
    corners = [
        Point(x0, y0),
        Point(x0 + width, y0),
        Point(x0 + width, y0 + height),
        Point(x0, y0 + height),
    ]
    walls = []
    for i in range(4):
        seg = Segment(corners[i], corners[(i + 1) % 4])
        walls.append(Wall(segment=seg, material=material))
    return walls


def points_on_grid(
    n: int,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    rows: int,
    cols: int,
    rng,
) -> list[Point]:
    """Pick ``n`` distinct cells of a ``rows`` x ``cols`` grid and return their centres.

    Mirrors the §3.2 setup, where PRESS antennas are placed at "randomly
    generated locations in a grid 1–2 meters from both the transmitting and
    receiving antennas".

    Parameters
    ----------
    n:
        Number of grid cells to select (without replacement).
    x_range, y_range:
        Extent of the grid.
    rows, cols:
        Grid granularity; ``rows * cols`` must be at least ``n``.
    rng:
        A ``numpy.random.Generator``.
    """
    if rows * cols < n:
        raise ValueError(f"grid has {rows * cols} cells but {n} points requested")
    chosen = rng.choice(rows * cols, size=n, replace=False)
    dx = (x_range[1] - x_range[0]) / cols
    dy = (y_range[1] - y_range[0]) / rows
    points = []
    for cell in chosen:
        row, col = divmod(int(cell), cols)
        points.append(
            Point(
                x_range[0] + (col + 0.5) * dx,
                y_range[0] + (row + 0.5) * dy,
            )
        )
    return points
