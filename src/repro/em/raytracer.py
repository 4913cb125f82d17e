"""Image-method ray tracer.

Computes the discrete multipath components (:class:`~repro.em.paths.SignalPath`)
between a transmitter and receiver in a :class:`~repro.em.scene.Scene`:

* the direct (line-of-sight) path, when not blocked;
* specular wall reflections up to two bounces, found with the classical
  image method (mirror the source across each wall, then across each ordered
  wall pair);
* single-bounce scattering off point scatterers;
* arbitrary two-hop relays (used by :mod:`repro.core` to model PRESS
  elements, which are exactly "antennas that re-radiate with a programmable
  reflection coefficient").

Amplitudes follow the Friis free-space law per hop: a one-hop field gain of
``lambda / (4 pi d)`` times the endpoint antennas' field gains; reflections
multiply in the wall material's complex reflection coefficient; two-hop
relays multiply the two hop gains and the relay's re-radiation pattern
(the standard backscatter link budget).  Carrier phase ``-2 pi L / lambda``
is folded into the complex path gain, and the propagation delay ``L / c``
drives per-subcarrier phase in :func:`repro.em.paths.paths_to_cfr`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from ..constants import CARRIER_FREQUENCY_HZ, SPEED_OF_LIGHT
from ..obs.metrics import counter_handle
from .antennas import Antenna, IsotropicAntenna
from .geometry import (
    Point,
    Segment,
    SegmentArrays,
    Wall,
    distance,
    leg_blocked_packed,
    legs_blocked_packed,
    mirror_point,
    pack_segments,
    segment_intersection,
)
from .materials import get_material
from .paths import PathBatch, SignalPath
from .scene import Scene

__all__ = [
    "RayTracer",
    "TraceFrame",
    "free_space_amplitude",
    "carrier_phase",
    "two_hop_gain",
]

_EPS = 1e-9

_TRACES = counter_handle("em.raytracer.traces")
_BATCH_TRACES = counter_handle("em.raytracer.batch_traces")
_BATCH_POINTS = counter_handle("em.raytracer.batch_points")

#: Minimum hop distance [m] used in amplitude calculations, preventing the
#: near-field singularity of the Friis law when geometry degenerates.
MIN_HOP_DISTANCE_M = 0.05

_ENDPOINT_TOL = 1e-6

_BLOCKAGE_CHUNK = 1 << 14  # leg-segment pairs per blockage call (TraceFrame._blocked)


def free_space_amplitude(distance_m: float, wavelength_m: float) -> float:
    """One-hop free-space field gain ``lambda / (4 pi d)``.

    Distances below :data:`MIN_HOP_DISTANCE_M` are clamped.
    """
    if wavelength_m <= 0:
        raise ValueError(f"wavelength_m must be positive, got {wavelength_m}")
    d = max(distance_m, MIN_HOP_DISTANCE_M)
    return wavelength_m / (4.0 * math.pi * d)


def carrier_phase(total_length_m: float, wavelength_m: float) -> complex:
    """Carrier-phase rotation ``e^{-j 2 pi L / lambda}`` over path length L."""
    if wavelength_m <= 0:
        raise ValueError(f"wavelength_m must be positive, got {wavelength_m}")
    return cmath.exp(-2.0j * math.pi * total_length_m / wavelength_m)


def two_hop_gain(
    d1_m: float,
    d2_m: float,
    wavelength_m: float,
    tx_field_gain: float = 1.0,
    rx_field_gain: float = 1.0,
    relay_field_gain_in: float = 1.0,
    relay_field_gain_out: float = 1.0,
    reflectivity: complex = 1.0 + 0.0j,
) -> complex:
    """Complex field gain of a TX -> relay -> RX path.

    This is the backscatter link budget: the relay captures the incident
    field with its receive pattern, scales it by its complex reflectivity
    (for PRESS: the switched reflection coefficient), and re-radiates with
    its transmit pattern.  Carrier phase over ``d1 + d2`` is included.
    """
    amplitude = (
        free_space_amplitude(d1_m, wavelength_m)
        * free_space_amplitude(d2_m, wavelength_m)
        * tx_field_gain
        * rx_field_gain
        * relay_field_gain_in
        * relay_field_gain_out
    )
    return amplitude * reflectivity * carrier_phase(d1_m + d2_m, wavelength_m)


@dataclass(frozen=True)
class RayTracer:
    """Traces multipath components through a scene.

    Attributes
    ----------
    scene:
        The environment (walls, obstacles, scatterers).
    frequency_hz:
        Carrier frequency; sets the wavelength used for amplitudes and
        carrier phase.
    max_bounces:
        Maximum number of specular wall bounces (0, 1 or 2).
    """

    scene: Scene
    frequency_hz: float = CARRIER_FREQUENCY_HZ
    max_bounces: int = 2

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"frequency_hz must be positive, got {self.frequency_hz}")
        if not 0 <= self.max_bounces <= 2:
            raise ValueError(f"max_bounces must be 0, 1 or 2, got {self.max_bounces}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    # ------------------------------------------------------------------
    # Blockage
    # ------------------------------------------------------------------
    @cached_property
    def _packed_blockers(self) -> SegmentArrays:
        """The scene's opaque segments packed into numpy arrays (built once).

        ``Scene`` is immutable, so the packed form is computed lazily on
        first blockage test and reused for the tracer's lifetime.
        """
        return pack_segments(self.scene.blocking_segments())

    def leg_is_clear(
        self,
        start: Point,
        end: Point,
        exclude: Sequence[Segment] = (),
    ) -> bool:
        """Whether a straight leg crosses no opaque segment.

        Segments in ``exclude`` (the walls the leg reflects off) are
        skipped, as are crossings that coincide with the leg's endpoints —
        a reflection point lies exactly on its wall by construction.  One
        broadcast intersection test over the packed scene segments replaces
        the per-segment Python loop.
        """
        packed = self._packed_blockers
        exclude_mask: Optional[np.ndarray] = None
        if exclude and len(packed):
            exclude_mask = np.zeros(len(packed), dtype=bool)
            for other in exclude:
                exclude_mask |= packed.match_mask(other)
        return not leg_blocked_packed(
            start, end, packed, exclude_mask=exclude_mask, endpoint_tol=_ENDPOINT_TOL
        )

    def has_line_of_sight(self, tx: Point, rx: Point) -> bool:
        """Whether the direct TX->RX path is unobstructed."""
        return self.leg_is_clear(tx, rx)

    # ------------------------------------------------------------------
    # Path construction
    # ------------------------------------------------------------------
    def trace(
        self,
        tx: Point,
        rx: Point,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
        include_los: bool = True,
        include_scatterers: bool = True,
    ) -> list[SignalPath]:
        """All multipath components from ``tx`` to ``rx``.

        Returns LoS (if clear and requested), wall reflections up to
        ``max_bounces``, and scatterer bounces.  PRESS element paths are not
        produced here — the PRESS array layer adds them on top (they depend
        on the array configuration).
        """
        _TRACES.inc()
        paths: list[SignalPath] = []
        if include_los:
            los = self.line_of_sight_path(tx, rx, tx_antenna, rx_antenna)
            if los is not None:
                paths.append(los)
        if self.max_bounces >= 1:
            paths.extend(self.single_bounce_paths(tx, rx, tx_antenna, rx_antenna))
        if self.max_bounces >= 2:
            paths.extend(self.double_bounce_paths(tx, rx, tx_antenna, rx_antenna))
        if include_scatterers:
            paths.extend(self.scatterer_paths(tx, rx, tx_antenna, rx_antenna))
        return paths

    def line_of_sight_path(
        self,
        tx: Point,
        rx: Point,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
    ) -> Optional[SignalPath]:
        """The direct path, or ``None`` if it is blocked."""
        if not self.has_line_of_sight(tx, rx):
            return None
        d = distance(tx, rx)
        aod = (rx - tx).angle()
        aoa = (tx - rx).angle()
        amplitude = (
            free_space_amplitude(d, self.wavelength_m)
            * tx_antenna.amplitude_gain(aod)
            * rx_antenna.amplitude_gain(aoa)
        )
        gain = amplitude * carrier_phase(d, self.wavelength_m)
        return SignalPath(
            gain=gain,
            delay_s=d / SPEED_OF_LIGHT,
            aod_rad=aod,
            aoa_rad=aoa,
            kind="los",
            hops=0,
        )

    def single_bounce_paths(
        self,
        tx: Point,
        rx: Point,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
    ) -> list[SignalPath]:
        """Specular one-bounce wall reflections (image method)."""
        paths: list[SignalPath] = []
        for wall in self.scene.walls:
            path = self._wall_path(tx, rx, [wall], tx_antenna, rx_antenna)
            if path is not None:
                paths.append(path)
        return paths

    def double_bounce_paths(
        self,
        tx: Point,
        rx: Point,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
    ) -> list[SignalPath]:
        """Specular two-bounce wall reflections over ordered wall pairs."""
        paths: list[SignalPath] = []
        for first in self.scene.walls:
            for second in self.scene.walls:
                if _same_segment(first.segment, second.segment):
                    continue
                path = self._wall_path(tx, rx, [first, second], tx_antenna, rx_antenna)
                if path is not None:
                    paths.append(path)
        return paths

    def _wall_path(
        self,
        tx: Point,
        rx: Point,
        walls: Sequence[Wall],
        tx_antenna: Antenna,
        rx_antenna: Antenna,
    ) -> Optional[SignalPath]:
        """Specular path bouncing off ``walls`` in order, or ``None``.

        Uses the image method: mirror the source across each wall in
        sequence, then walk back from the receiver to recover the physical
        reflection points, validating that each lies on its wall segment and
        each leg is unobstructed.
        """
        # Forward pass: iterated images of the transmitter.
        images = [tx]
        for wall in walls:
            images.append(mirror_point(images[-1], wall.segment))
        # Backward pass: recover reflection points.
        vertices = [rx]
        target = rx
        valid = True
        for index in range(len(walls) - 1, -1, -1):
            wall = walls[index]
            ray = Segment(images[index + 1], target)
            hit = segment_intersection(ray, wall.segment)
            if hit is None or not wall.segment.contains_point(hit, tol=1e-6):
                valid = False
                break
            vertices.append(hit)
            target = hit
        if not valid:
            return None
        vertices.append(tx)
        vertices.reverse()  # tx, refl_1, ..., refl_k, rx
        # Degenerate geometry (reflection point coincides with an endpoint)
        # produces zero-length legs; treat as no path.
        legs = list(zip(vertices[:-1], vertices[1:]))
        if any(distance(a, b) <= _ENDPOINT_TOL for a, b in legs):
            return None
        # Blockage: each leg must be clear, ignoring the walls it touches.
        for leg_index, (start, end) in enumerate(legs):
            exclude: list[Segment] = []
            if leg_index > 0:
                exclude.append(walls[leg_index - 1].segment)
            if leg_index < len(walls):
                exclude.append(walls[leg_index].segment)
            if not self.leg_is_clear(start, end, exclude=exclude):
                return None
        total_length = sum(distance(a, b) for a, b in legs)
        reflection = complex(1.0, 0.0)
        for wall in walls:
            reflection *= get_material(wall.material).reflection_coefficient
        aod = (vertices[1] - tx).angle()
        aoa = (vertices[-2] - rx).angle()
        amplitude = (
            free_space_amplitude(total_length, self.wavelength_m)
            * tx_antenna.amplitude_gain(aod)
            * rx_antenna.amplitude_gain(aoa)
        )
        gain = amplitude * reflection * carrier_phase(total_length, self.wavelength_m)
        return SignalPath(
            gain=gain,
            delay_s=total_length / SPEED_OF_LIGHT,
            aod_rad=aod,
            aoa_rad=aoa,
            kind="wall-reflection",
            hops=len(walls),
        )

    def scatterer_paths(
        self,
        tx: Point,
        rx: Point,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
    ) -> list[SignalPath]:
        """Single-bounce paths via each visible point scatterer."""
        paths: list[SignalPath] = []
        for scatterer in self.scene.scatterers:
            path = self.relay_path(
                tx,
                scatterer.position,
                rx,
                tx_antenna=tx_antenna,
                rx_antenna=rx_antenna,
                relay_gain_dbi=scatterer.gain_dbi,
                reflectivity=scatterer.reflectivity,
                kind="scatterer",
            )
            if path is not None:
                paths.append(path)
        return paths

    def relay_path(
        self,
        tx: Point,
        via: Point,
        rx: Point,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
        relay_antenna_in: Optional[Antenna] = None,
        relay_antenna_out: Optional[Antenna] = None,
        relay_gain_dbi: float = 0.0,
        reflectivity: complex = 1.0 + 0.0j,
        extra_delay_s: float = 0.0,
        extra_phase_rad: float = 0.0,
        kind: str = "relay",
    ) -> Optional[SignalPath]:
        """A TX -> via -> RX two-hop path, or ``None`` if either leg is blocked.

        This is the primitive PRESS elements are built on: ``reflectivity``
        carries the element's switched reflection coefficient,
        ``extra_delay_s``/``extra_phase_rad`` the waveguide-stub delay, and
        the relay antennas the element's pattern (e.g. the 14 dBi parabolic
        dish of §3.1).

        Parameters
        ----------
        relay_antenna_in, relay_antenna_out:
            Patterns applied to the incident and re-radiated hop.  When
            ``None``, an isotropic pattern with ``relay_gain_dbi`` is used.
        relay_gain_dbi:
            Flat gain per hop, used only when the corresponding antenna is
            ``None``.
        """
        if not self.leg_is_clear(tx, via) or not self.leg_is_clear(via, rx):
            return None
        d1 = distance(tx, via)
        d2 = distance(via, rx)
        aod = (via - tx).angle()
        aoa = (via - rx).angle()
        incident_angle = (tx - via).angle()
        departure_angle = (rx - via).angle()
        if relay_antenna_in is not None:
            gain_in = relay_antenna_in.amplitude_gain(incident_angle)
        else:
            gain_in = 10.0 ** (relay_gain_dbi / 20.0)
        if relay_antenna_out is not None:
            gain_out = relay_antenna_out.amplitude_gain(departure_angle)
        else:
            gain_out = 10.0 ** (relay_gain_dbi / 20.0)
        gain = two_hop_gain(
            d1,
            d2,
            self.wavelength_m,
            tx_field_gain=tx_antenna.amplitude_gain(aod),
            rx_field_gain=rx_antenna.amplitude_gain(aoa),
            relay_field_gain_in=gain_in,
            relay_field_gain_out=gain_out,
            reflectivity=reflectivity,
        )
        gain *= cmath.exp(1j * extra_phase_rad)
        if abs(gain) == 0.0:
            return None
        return SignalPath(
            gain=gain,
            delay_s=(d1 + d2) / SPEED_OF_LIGHT + extra_delay_s,
            aod_rad=aod,
            aoa_rad=aoa,
            kind=kind,
            hops=1,
        )

    # ------------------------------------------------------------------
    # Batched path construction (geometry as the fast axis)
    # ------------------------------------------------------------------
    def frame(
        self,
        tx: Point,
        tx_antenna: Antenna = IsotropicAntenna(),
        relays: Sequence[tuple[Point, Optional[Antenna], float]] = (),
    ) -> "TraceFrame":
        """Everything about ``tx`` in this scene that no receiver changes.

        The TX images of every wall sequence, and the TX-facing half of
        every scatterer and relay.  A relay is ``(position, antenna,
        gain_dbi)``; an antenna of ``None`` means a flat ``gain_dbi`` on
        both hops, as for a scatterer.
        """
        walls = self.scene.walls
        pairs = [(a, b) for a in walls for b in walls if not _same_segment(a.segment, b.segment)]
        sequences = [[(wall,) for wall in walls], pairs][: self.max_bounces]
        scatterers = self.scene.scatterers
        return TraceFrame(
            tracer=self,
            tx=tx,
            tx_antenna=tx_antenna,
            walls=tuple(
                _wall_group(tx, group, self._packed_blockers) for group in sequences if group
            ),
            scatterers=_relay_half(
                self, tx, tx_antenna, [(s.position, None, s.gain_dbi) for s in scatterers]
            ),
            scatterer_reflectivity=np.array(
                [s.reflectivity for s in scatterers], dtype=complex
            ).reshape(-1, 1),
            relays=_relay_half(self, tx, tx_antenna, relays),
        )

    def trace_batch(
        self,
        tx: Point,
        rx_points: Union[Sequence[Point], np.ndarray],
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
        include_los: bool = True,
        include_scatterers: bool = True,
    ) -> PathBatch:
        """All multipath components from ``tx`` to every point of a batch.

        :meth:`TraceFrame.trace_batch` on a fresh :meth:`frame`.  Rows match
        the scalar reference :meth:`trace` (``tests/test_trace_batch.py``).
        """
        return self.frame(tx, tx_antenna).trace_batch(
            rx_points, rx_antenna, include_los, include_scatterers
        )


@dataclass(frozen=True, eq=False)
class _Relays:
    """The TX-facing half of R two-hop relays TX -> via -> RX.

    ``columns`` holds eight ``(R, 1)`` columns: via x and y, ``d1``, its
    hop amplitude, TX antenna gain, relay gain toward the TX, departure
    angle and flat re-radiation gain, from the scalar tracer's own
    functions so each row matches :meth:`RayTracer.relay_path` bit for
    bit.  ``patterns`` maps each relay antenna to the rows using it.
    """

    columns: np.ndarray
    tx_clear: np.ndarray
    patterns: tuple[tuple[Antenna, np.ndarray], ...]

    def __len__(self) -> int:
        return int(self.columns.shape[1])


def _relay_half(tracer: RayTracer, tx: Point, tx_antenna: Antenna, relays) -> _Relays:
    """Trace the TX-facing half of ``relays`` (see :class:`_Relays`)."""
    columns = np.zeros((8, len(relays), 1))
    by_antenna: dict[Antenna, list[int]] = {}
    for row, (via, antenna, gain_dbi) in enumerate(relays):
        d1 = distance(tx, via)
        aod = (via - tx).angle()
        flat = 10.0 ** (gain_dbi / 20.0)
        if antenna is None:
            gain_in = flat
        else:
            gain_in = antenna.amplitude_gain((tx - via).angle())
            by_antenna.setdefault(antenna, []).append(row)
        hop1 = free_space_amplitude(d1, tracer.wavelength_m)
        tx_gain = tx_antenna.amplitude_gain(aod)
        columns[:, row, 0] = (via.x, via.y, d1, hop1, tx_gain, gain_in, aod, flat)
    blocked = legs_blocked_packed(
        *np.broadcast_arrays(tx.x, tx.y, columns[0, :, 0], columns[1, :, 0]),
        tracer._packed_blockers,
        endpoint_tol=_ENDPOINT_TOL,
    )
    return _Relays(
        columns=columns,
        tx_clear=~blocked[:, None],
        patterns=tuple((antenna, np.array(rows)) for antenna, rows in by_antenna.items()),
    )


@dataclass(frozen=True, eq=False)
class _WallGroup:
    """Every wall sequence of one length, with its TX images traced.

    ``steps`` holds one backward-pass step per bounce, last wall first:
    ``(Q, 1)`` columns ``(px, py, qx, qy, sx, sy, seg_len)`` for rays from
    TX image ``(px, py)`` to a wall from ``(qx, qy)`` along ``(sx, sy)``.
    ``exclude`` holds the ``(hops + 1, Q, 1, S)`` walls each leg skips.
    """

    hops: int
    steps: tuple[tuple[np.ndarray, ...], ...]
    reflection: np.ndarray
    exclude: np.ndarray

    def __len__(self) -> int:
        return int(self.reflection.shape[0])


def _wall_group(
    tx: Point, sequences: Sequence[tuple[Wall, ...]], packed: SegmentArrays
) -> _WallGroup:
    """Trace the receiver-independent part of same-length wall sequences."""
    hops = len(sequences[0])
    rows = np.zeros((hops, 7, len(sequences)))
    reflection = np.zeros((len(sequences), 1), dtype=complex)
    exclude = np.zeros((hops + 1, len(sequences), 1, len(packed)), dtype=bool)
    for q, walls in enumerate(sequences):
        image = tx
        product = complex(1.0, 0.0)
        for index, wall in enumerate(walls):
            seg = wall.segment
            image = mirror_point(image, seg)
            sx, sy = seg.end.x - seg.start.x, seg.end.y - seg.start.y
            rows[index, :, q] = (image.x, image.y, seg.start.x, seg.start.y, sx, sy, np.hypot(sx, sy))
            product *= get_material(wall.material).reflection_coefficient
        reflection[q] = product
        for leg in range(hops + 1):
            for wall in walls[max(leg - 1, 0) : leg + 1]:
                exclude[leg, q, 0] |= packed.match_mask(wall.segment)
    steps = tuple(tuple(step[:, :, None]) for step in rows[::-1])
    return _WallGroup(hops=hops, steps=steps, reflection=reflection, exclude=exclude)


@dataclass(frozen=True, eq=False)
class TraceFrame:
    """One transmitter in one scene, with every receiver-independent part traced.

    Built once by :meth:`RayTracer.frame` and reused for any number of
    receiver batches: each call traces only the receiver-facing legs, as
    one ``(Q, P)`` broadcast per wall-sequence length, one ``(R, P)`` for
    all scatterers and one ``(N, P)`` for all relays, with one
    :func:`legs_blocked_packed` call per family.  Every row keeps the
    scalar tracer's order of operations, so results do not depend on the
    batch, the frame's reuse, or how many relays it holds.
    """

    tracer: RayTracer
    tx: Point
    tx_antenna: Antenna
    walls: tuple[_WallGroup, ...]
    scatterers: _Relays
    scatterer_reflectivity: np.ndarray
    relays: _Relays

    def trace_batch(
        self,
        rx_points: Union[Sequence[Point], np.ndarray],
        rx_antenna: Antenna = IsotropicAntenna(),
        include_los: bool = True,
        include_scatterers: bool = True,
    ) -> PathBatch:
        """Ambient multipath from the frame's TX to every point of a batch.

        Candidate columns follow the scalar :meth:`RayTracer.trace` order:
        LoS, each wall, each ordered wall pair, each scatterer.
        """
        rx_x, rx_y = _points_to_arrays(rx_points)
        num = rx_x.shape[0]
        _BATCH_TRACES.inc()
        _BATCH_POINTS.inc(num)
        # One (gain, delay, aod, aoa, valid) block of (columns, P) per family.
        blocks: list[tuple[np.ndarray, ...]] = []
        kinds: list[str] = []
        hops: list[int] = []
        if include_los:
            blocks.append(self._los_block(rx_x, rx_y, rx_antenna))
            kinds.append("los")
            hops.append(0)
        for group in self.walls:
            blocks.append(self._wall_block(group, rx_x, rx_y, rx_antenna))
            kinds.extend(["wall-reflection"] * len(group))
            hops.extend([group.hops] * len(group))
        if include_scatterers and len(self.scatterers):
            amplitude, total, aoa, clear = self.relay_geometry(
                rx_x, rx_y, rx_antenna, self.scatterers
            )
            gain = (
                amplitude
                * self.scatterer_reflectivity
                * np.exp(-2.0j * np.pi * total / self.tracer.wavelength_m)
            )
            aod = np.broadcast_to(self.scatterers.columns[6], aoa.shape)
            blocks.append(
                (gain, total / SPEED_OF_LIGHT, aod, aoa, clear & (np.abs(gain) != 0.0))
            )
            kinds.extend(["scatterer"] * len(self.scatterers))
            hops.extend([1] * len(self.scatterers))
        if not blocks:
            blocks.append(tuple(np.zeros((0, num), t) for t in (complex,) + (float,) * 3 + (bool,)))
        gains, delays, aod, aoa, valid = (
            np.ascontiguousarray(np.concatenate(field).T) for field in zip(*blocks)
        )
        return PathBatch(
            gains=np.where(valid, gains, 0.0 + 0.0j),
            delays_s=np.where(valid, delays, 0.0),
            aod_rad=aod,
            aoa_rad=aoa,
            valid=valid,
            kinds=tuple(kinds),
            hops=tuple(hops),
        )

    def relay_geometry(
        self,
        rx_x: np.ndarray,
        rx_y: np.ndarray,
        rx_antenna: Antenna,
        relays: Optional[_Relays] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Configuration-independent geometry of TX -> each relay -> each RX point.

        Returns ``(amplitude, total_length_m, aoa, clear)``, each ``(R, P)``,
        for the frame's relays (or ``relays``), with every relay-to-RX leg
        in one blockage test.  ``amplitude`` is the real field amplitude of
        :func:`two_hop_gain` *before* reflectivity and carrier phase — the
        part every relay state shares — so per-state gains fold in as
        ``amplitude * reflectivity * exp(-2j pi L / lambda)``, the scalar
        order of operations.
        """
        relays = self.relays if relays is None else relays
        via_x, via_y, d1, hop1, tx_gain, gain_in, _, gain_out = relays.columns
        shape = (len(relays), rx_x.shape[0])
        clear = relays.tx_clear & ~self._blocked(via_x, via_y, rx_x, rx_y, shape=shape)
        d2 = np.hypot(rx_x - via_x, rx_y - via_y)
        aoa = np.arctan2(via_y - rx_y, via_x - rx_x)
        if relays.patterns:
            departure = np.arctan2(rx_y - via_y, rx_x - via_x)
            gain_out = np.broadcast_to(gain_out, shape).copy()
            for antenna, rows in relays.patterns:
                gain_out[rows] = antenna.amplitude_gain_array(departure[rows])
        # The scalar relay_path's product, factor by factor in its order.
        amplitude = hop1 * _free_space_amplitude_array(d2, self.tracer.wavelength_m) * tx_gain
        amplitude = amplitude * rx_antenna.amplitude_gain_array(aoa) * gain_in * gain_out
        return amplitude, d1 + d2, aoa, clear

    def _blocked(self, *ends: np.ndarray, shape: tuple, exclude_mask=None) -> np.ndarray:
        """Blockage of legs whose four end coordinates broadcast to ``shape``.

        Legs go in chunks whose ``(legs, S)`` temporaries stay cache-sized:
        one broadcast over a 400-point grid ran ~2x slower per leg.
        """
        packed = self.tracer._packed_blockers
        ends = tuple(np.broadcast_to(a, shape).ravel() for a in ends)
        blocked = np.empty(ends[0].shape, dtype=bool)
        step = max(1, _BLOCKAGE_CHUNK // max(len(packed), 1))
        for start in range(0, blocked.shape[0], step):
            rows = slice(start, start + step)
            blocked[rows] = legs_blocked_packed(
                *(a[rows] for a in ends),
                packed,
                exclude_mask=None if exclude_mask is None else exclude_mask[rows],
                endpoint_tol=_ENDPOINT_TOL,
            )
        return blocked.reshape(shape)

    def _los_block(
        self, rx_x: np.ndarray, rx_y: np.ndarray, rx_antenna: Antenna
    ) -> tuple[np.ndarray, ...]:
        """The direct-path candidate for every receiver point, as ``(1, P)``."""
        tx = self.tx
        blocked = self._blocked(tx.x, tx.y, rx_x, rx_y, shape=rx_x.shape)
        dx = rx_x - tx.x
        dy = rx_y - tx.y
        d = np.hypot(dx, dy)
        aod = np.arctan2(dy, dx)
        aoa = np.arctan2(-dy, -dx)
        amplitude = (
            _free_space_amplitude_array(d, self.tracer.wavelength_m)
            * self.tx_antenna.amplitude_gain_array(aod)
            * rx_antenna.amplitude_gain_array(aoa)
        )
        gain = amplitude * np.exp(-2.0j * np.pi * d / self.tracer.wavelength_m)
        return tuple(a[None, :] for a in (gain, d / SPEED_OF_LIGHT, aod, aoa, ~blocked))

    def _wall_block(
        self, group: _WallGroup, rx_x: np.ndarray, rx_y: np.ndarray, rx_antenna: Antenna
    ) -> tuple[np.ndarray, ...]:
        """Every sequence of one wall group against every point, as ``(Q, P)``.

        The batched twin of :meth:`RayTracer._wall_path`: the backward pass
        is one :func:`_ray_segment_hits` broadcast per bounce, and all
        ``hops + 1`` legs share one blockage test.
        """
        tx = self.tx
        shape = (len(group), rx_x.shape[0])
        ok = np.ones(shape, dtype=bool)
        hits_x: list[np.ndarray] = []
        hits_y: list[np.ndarray] = []
        target_x, target_y = rx_x, rx_y
        for step in group.steps:
            hx, hy, hit_ok = _ray_segment_hits(step, target_x, target_y, tol=1e-6)
            ok &= hit_ok
            hits_x.append(hx)
            hits_y.append(hy)
            target_x, target_y = hx, hy
        # vertices: tx, refl_1, ..., refl_k, rx (per sequence and point)
        verts_x = [tx.x] + hits_x[::-1] + [rx_x]
        verts_y = [tx.y] + hits_y[::-1] + [rx_y]
        leg_lengths = [
            np.hypot(verts_x[i] - verts_x[i + 1], verts_y[i] - verts_y[i + 1])
            for i in range(group.hops + 1)
        ]
        degenerate = np.logical_or.reduce([length <= _ENDPOINT_TOL for length in leg_lengths])
        legs = (group.hops + 1,) + shape
        segments = group.exclude.shape[-1:]
        blocked = self._blocked(
            *(
                np.stack([np.broadcast_to(v, shape) for v in verts])
                for verts in (verts_x[:-1], verts_y[:-1], verts_x[1:], verts_y[1:])
            ),
            shape=legs,
            exclude_mask=np.broadcast_to(group.exclude, legs + segments).reshape(-1, *segments),
        ).any(axis=0)
        valid = ok & ~degenerate & ~blocked
        total = sum(leg_lengths[1:], leg_lengths[0])
        aod = np.arctan2(verts_y[1] - tx.y, verts_x[1] - tx.x)
        aoa = np.arctan2(verts_y[-2] - rx_y, verts_x[-2] - rx_x)
        wavelength = self.tracer.wavelength_m
        amplitude = (
            _free_space_amplitude_array(total, wavelength)
            * self.tx_antenna.amplitude_gain_array(aod)
            * rx_antenna.amplitude_gain_array(aoa)
        )
        gain = amplitude * group.reflection * np.exp(-2.0j * np.pi * total / wavelength)
        return gain, total / SPEED_OF_LIGHT, aod, aoa, valid


def _free_space_amplitude_array(
    distance_m: np.ndarray, wavelength_m: float
) -> np.ndarray:
    """Vectorized :func:`free_space_amplitude` (same clamp, same op order)."""
    return wavelength_m / (
        4.0 * np.pi * np.maximum(distance_m, MIN_HOP_DISTANCE_M)
    )


def _points_to_arrays(
    points: Union[Sequence[Point], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Split a point batch into ``(x, y)`` float arrays.

    Accepts a sequence of :class:`Point` or an ``(P, 2)`` array.
    """
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"point array must have shape (P, 2), got {arr.shape}")
        return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])
    xs = np.array([p.x for p in points], dtype=float)
    ys = np.array([p.y for p in points], dtype=float)
    return xs, ys


def _ray_segment_hits(
    step: tuple[np.ndarray, ...],
    target_x: np.ndarray,
    target_y: np.ndarray,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched image-method back-step: rays ``image -> target`` vs one wall each.

    Vectorizes ``segment_intersection(Segment(image, target), wall)`` plus
    the ``wall.contains_point(hit, tol)`` validity test of the scalar
    ``_wall_path``, branch for branch, over the ``(Q, 1)`` sequences of a
    :class:`_WallGroup` step and ray targets broadcasting to ``(Q, P)``.  Zero-length
    walls never get here: :func:`mirror_point` rejects them when the frame
    is built.

    Returns ``(hit_x, hit_y, ok)`` where ``ok`` means the ray crosses the
    wall segment at the returned point.
    """
    px, py, qx, qy, sx, sy, seg_len = step
    rx = target_x - px
    ry = target_y - py
    qpx = qx - px  # q - p is shared by every ray of a sequence (same origin).
    qpy = qy - py
    rxs = rx * sy - ry * sx  # cross(r, s)
    qp_x_r = qpx * ry - qpy * rx  # cross(q - p, r)
    qp_x_s = qpx * sy - qpy * sx  # cross(q - p, s), per sequence
    parallel = np.abs(rxs) < _EPS
    rxs_safe = np.where(parallel, 1.0, rxs)
    t_np = qp_x_s / rxs_safe
    u_np = qp_x_r / rxs_safe
    ok_np = (
        ~parallel
        & (t_np >= -_EPS)
        & (t_np <= 1.0 + _EPS)
        & (u_np >= -_EPS)
        & (u_np <= 1.0 + _EPS)
    )
    # Parallel rays: collinear overlap resolves to the overlap start;
    # degenerate (zero-length) rays hit at the ray origin if it lies on
    # the wall — which the contains test below settles.
    r_len2 = rx * rx + ry * ry
    degenerate = r_len2 < _EPS * _EPS
    r_len2_safe = np.where(degenerate, 1.0, r_len2)
    collinear = parallel & (np.abs(qp_x_r) <= _EPS)
    t0 = (qpx * rx + qpy * ry) / r_len2_safe
    t1 = t0 + (sx * rx + sy * ry) / r_len2_safe
    lo = np.minimum(t0, t1)
    hi = np.maximum(t0, t1)
    overlap = collinear & ~degenerate & (hi >= -_EPS) & (lo <= 1.0 + _EPS)
    ok_pre = ok_np | overlap | (collinear & degenerate)
    t_sel = np.where(parallel, np.clip(lo, 0.0, 1.0), np.clip(t_np, 0.0, 1.0))
    t_sel = np.where(degenerate, 0.0, t_sel)
    hit_x = px + t_sel * rx
    hit_y = py + t_sel * ry
    # Wall containment, replicating Segment.contains_point exactly.
    rel_x = hit_x - qx
    rel_y = hit_y - qy
    perp = np.abs(sx * rel_y - sy * rel_x) / seg_len
    tt = (rel_x * sx + rel_y * sy) / (seg_len * seg_len)
    contains = (perp <= tol) & (tt >= -tol / seg_len) & (tt <= 1.0 + tol / seg_len)
    return hit_x, hit_y, ok_pre & contains


def _same_segment(a: Segment, b: Segment) -> bool:
    """Whether two segments have identical endpoints (in either order)."""
    return (a.start == b.start and a.end == b.end) or (
        a.start == b.end and a.end == b.start
    )
