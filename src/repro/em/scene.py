"""Scene description: the indoor environment the radios and PRESS array live in.

A :class:`Scene` bundles the reflecting walls, absorbing obstacles and point
scatterers that make up an indoor propagation environment.  The §3 study was
run in "a controlled indoor setting" where "each antenna placement results in
a different scattering environment due to the movement of our experiment
equipment"; :func:`shoebox_scene` plus the seeded scatterer generator
reproduce that: one rectangular room, an absorbing blocker between TX and RX
for the NLoS experiments, and a per-trial random population of scatterers
standing in for the moved lab equipment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Obstacle, Point, Segment, Wall, rectangle_walls

__all__ = [
    "Scatterer",
    "Scene",
    "shoebox_scene",
    "blocker_between",
    "surface_grid_positions",
]


@dataclass(frozen=True)
class Scatterer:
    """A point scatterer (furniture, lab equipment, a metal cabinet...).

    Attributes
    ----------
    position:
        Location in the floor plan.
    reflectivity:
        Complex field re-radiation coefficient (plays the role of the
        product Gamma * antenna response for a PRESS element); magnitude in
        [0, 1] with 1 meaning a perfect re-radiator.
    gain_dbi:
        Equivalent isotropic re-radiation gain (applied once each for the
        incident and scattered hop, like a passive element's antenna).
    """

    position: Point
    reflectivity: complex = 0.5 + 0.0j
    gain_dbi: float = 4.0

    def __post_init__(self) -> None:
        if abs(self.reflectivity) > 1.0 + 1e-9:
            raise ValueError(
                f"|reflectivity| must be <= 1 for a passive scatterer, got {abs(self.reflectivity)}"
            )


@dataclass(frozen=True)
class Scene:
    """An indoor propagation environment.

    Attributes
    ----------
    walls:
        Specularly reflecting boundaries.  Walls are also opaque: a ray leg
        crossing a wall (other than at its own reflection points) is blocked.
    obstacles:
        Perfectly absorbing blockers (e.g. the LoS blocker of §3.2).
    scatterers:
        Point scatterers contributing single-bounce paths.
    name:
        Human-readable label used in experiment reports.
    """

    walls: tuple[Wall, ...] = ()
    obstacles: tuple[Obstacle, ...] = ()
    scatterers: tuple[Scatterer, ...] = ()
    name: str = "scene"

    def with_obstacles(self, *obstacles: Obstacle) -> "Scene":
        """A copy of the scene with extra obstacles appended."""
        return Scene(
            walls=self.walls,
            obstacles=self.obstacles + tuple(obstacles),
            scatterers=self.scatterers,
            name=self.name,
        )

    def with_scatterers(self, *scatterers: Scatterer) -> "Scene":
        """A copy of the scene with extra scatterers appended."""
        return Scene(
            walls=self.walls,
            obstacles=self.obstacles,
            scatterers=self.scatterers + tuple(scatterers),
            name=self.name,
        )

    def blocking_segments(self) -> list[Segment]:
        """All opaque segments (walls and obstacles) for blockage tests."""
        segments = [wall.segment for wall in self.walls]
        segments.extend(obstacle.segment for obstacle in self.obstacles)
        return segments


def shoebox_scene(
    width: float = 8.0,
    height: float = 6.0,
    material: str = "drywall",
    num_scatterers: int = 0,
    rng: Optional[np.random.Generator] = None,
    scatterer_margin: float = 0.5,
    reflectivity_range: tuple[float, float] = (0.3, 0.9),
    name: str = "shoebox",
) -> Scene:
    """A rectangular room, optionally populated with random scatterers.

    Parameters
    ----------
    width, height:
        Interior room dimensions in metres.
    material:
        Wall material (see :mod:`repro.em.materials`).
    num_scatterers:
        Number of random point scatterers to draw (requires ``rng``).
    rng:
        Random generator used for scatterer placement and reflectivity.
    scatterer_margin:
        Keep scatterers at least this far from the walls.
    reflectivity_range:
        Uniform range for scatterer |reflectivity|; phases are uniform.
    name:
        Scene label.
    """
    walls = tuple(rectangle_walls(width, height, material=material))
    scatterers: list[Scatterer] = []
    if num_scatterers > 0:
        if rng is None:
            raise ValueError("num_scatterers > 0 requires an rng")
        if 2 * scatterer_margin >= min(width, height):
            raise ValueError("scatterer_margin too large for the room size")
        for _ in range(num_scatterers):
            position = Point(
                float(rng.uniform(scatterer_margin, width - scatterer_margin)),
                float(rng.uniform(scatterer_margin, height - scatterer_margin)),
            )
            magnitude = float(rng.uniform(*reflectivity_range))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            scatterers.append(
                Scatterer(
                    position=position,
                    reflectivity=magnitude * complex(math.cos(phase), math.sin(phase)),
                )
            )
    return Scene(walls=walls, scatterers=tuple(scatterers), name=name)


def surface_grid_positions(
    start: Point,
    end: Point,
    count: int,
    rows: int = 1,
    standoff_m: float = 0.05,
    row_spacing_m: float = 0.06,
) -> tuple[Point, ...]:
    """Element positions tiling a wall-sized programmable surface.

    Lays ``count`` positions in ``rows`` rows parallel to the ``start`` ->
    ``end`` segment, offset into the room by ``standoff_m`` along the
    left-hand normal (so a surface on the top wall of a shoebox faces
    down into it).  Columns are evenly spaced along the segment; rows
    step a further ``row_spacing_m`` inward.  Purely deterministic — the
    RFocus-scale builder (``build_large_array_setup``) scales ``count``
    into the thousands without touching any RNG stream.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    direction = end - start
    length = direction.norm()
    if length <= 0:
        raise ValueError("start and end must be distinct points")
    unit = direction.normalized()
    columns = -(-count // rows)  # ceil: last row may be partial
    # Point arithmetic's operations, in its order, over every index at once.
    row, column = np.divmod(np.arange(count), columns)
    along = np.full(count, 0.5 * length) if columns == 1 else length * column / (columns - 1)
    inward = standoff_m + row * row_spacing_m
    xs = start.x + along * unit.x + inward * -unit.y
    ys = start.y + along * unit.y + inward * unit.x
    return tuple(map(Point, xs.tolist(), ys.tolist()))


def blocker_between(
    tx: Point,
    rx: Point,
    half_width: float = 0.5,
    offset: float = 0.0,
) -> Obstacle:
    """An absorbing obstacle perpendicular to (and centred on) the TX–RX line.

    Reproduces the §3.2 setup "that blocks the direct path between the
    transmitter and receiver".

    Parameters
    ----------
    tx, rx:
        Link endpoints.
    half_width:
        Half-length of the blocking segment in metres.
    offset:
        Fractional position along the TX->RX line of the blocker centre,
        where 0 is the midpoint, -0.5 is at the TX and +0.5 is at the RX.
    """
    direction = rx - tx
    length = direction.norm()
    if length <= 0:
        raise ValueError("tx and rx must be distinct points")
    unit = direction.normalized()
    normal = Point(-unit.y, unit.x)
    centre = tx + (0.5 + offset) * length * unit
    start = centre + half_width * normal
    end = centre + (-half_width) * normal
    return Obstacle(segment=Segment(start, end), name="los-blocker")
