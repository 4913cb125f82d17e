"""The §3 exploratory-study setup, as a reproducible scenario generator.

The paper's study ran in "a controlled indoor setting": WARP endpoints with
2 dBi omnis, the direct path blocked, three SP4T-switched PRESS elements
placed "in eight randomly generated locations in a grid 1-2 meters from
both the transmitting and receiving antennas", and an ambient scattering
environment that changed per placement "due to the movement of our
experiment equipment".

This module rebuilds that lab in simulation.  The scene is calibrated (see
DESIGN.md and EXPERIMENTS.md) so the *statistics* of the sweeps match the
paper's reported shapes:

* walls carry a low effective specular reflectivity (|Gamma| = 0.12) —
  in a cluttered lab most wall energy is scattered diffusely, not returned
  specularly;
* one partially-reflective "shelf" panel far from the link, oriented for a
  specular TX -> panel -> RX bounce, supplies the long-delay (~58 ns)
  multipath component that real labs get from multi-bounce clutter — this
  is what puts a frequency null inside the 20 MHz band and sets the
  ~9-subcarrier null-movement quantum the paper reports;
* per-placement random scatterers play the moved lab equipment;
* PRESS elements use a modest -1.5 dBi effective bistatic gain: the prototype's
  14 dBi parabolic cannot cover the wide bistatic angle of this geometry
  (its 21-degree beam misses one endpoint), so we model the omnidirectional
  variant §3.1 also used, minus switch/mismatch losses.

Placement seeds 0..7 correspond to the paper's placements (a)..(h);
Figures 5 and 6 use placement (e) = seed 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.array import PressArray
from ..core.element import PressElement, omni_element, sp4t_states
from ..em.antennas import OmniAntenna
from ..em.geometry import Point, Segment, Wall, points_on_grid
from ..em.materials import MATERIALS, Material, register_material
from ..em.scene import (
    Scatterer,
    Scene,
    blocker_between,
    shoebox_scene,
    surface_grid_positions,
)
from ..phy.ofdm import OfdmParams
from ..sdr.device import SdrDevice, usrp_n210, usrp_x310, warp_v3
from ..sdr.testbed import Testbed

__all__ = [
    "StudyConfig",
    "StudySetup",
    "facing_panel",
    "build_study_scene",
    "build_nlos_setup",
    "build_los_setup",
    "build_harmonization_setup",
    "build_mimo_setup",
    "build_large_array_setup",
    "FIG5_PLACEMENT_SEED",
    "used_subcarrier_mask",
]

#: Figures 5 and 6 analyse "one of the PRESS element positions" — the
#: paper's placement (e), which is seed 4 in our (a)..(h) = 0..7 mapping.
FIG5_PLACEMENT_SEED = 4


def _ensure_materials() -> None:
    """Register the study's calibrated materials (idempotent)."""
    if "lab-wall" not in MATERIALS:
        register_material(Material("lab-wall", 0.12))
    if "metal-shelf" not in MATERIALS:
        register_material(Material("metal-shelf", 0.15))


@dataclass(frozen=True)
class StudyConfig:
    """Calibrated parameters of the §3 study scene.

    The defaults reproduce the paper's reported statistics; ablation
    benchmarks vary them deliberately.
    """

    room_width_m: float = 12.0
    room_height_m: float = 8.0
    wall_material: str = "lab-wall"
    panel_material: str = "metal-shelf"
    panel_length_m: float = 1.6
    num_scatterers: int = 4
    scatterer_reflectivity: tuple[float, float] = (0.3, 0.7)
    scatterer_gain_dbi: tuple[float, float] = (4.0, 9.0)
    #: Weak clutter scatterers forming the diffuse multipath floor that caps
    #: how deep a null can get (real labs bottom out ~25 dB below the
    #: dominant paths; without this floor simulated nulls are unphysically
    #: deep).
    num_clutter: int = 14
    #: Target per-path power of the clutter floor, in dB relative to the
    #: two-hop reference (includes endpoint antennas).  Roughly 20-28 dB
    #: below the dominant ~-71 dB ambient components.
    clutter_power_db: tuple[float, float] = (-95.0, -88.0)
    link_separation_m: float = 2.5
    blocker_half_width_m: float = 0.35
    num_elements: int = 3
    element_gain_dbi: float = -1.5
    element_grid_rows: int = 4
    element_grid_cols: int = 4
    tx_power_dbm: float = 15.0
    #: Ambient-channel drift between successive measurements — the §3.2
    #: sweep takes ~5 s, far beyond coherence time, so each configuration's
    #: measurement sees a slightly different ambient channel.
    drift_phase_rad: float = 0.08
    drift_amplitude: float = 0.03

    def tx_position(self) -> Point:
        return Point(1.6, self.room_height_m * 0.35)

    def rx_position(self) -> Point:
        tx = self.tx_position()
        return Point(tx.x + self.link_separation_m, tx.y + 0.25)

    def panel_position(self) -> Point:
        return Point(self.room_width_m - 1.5, self.room_height_m - 1.0)


def facing_panel(
    position: Point,
    tx: Point,
    rx: Point,
    length_m: float = 1.6,
    material: str = "metal-shelf",
) -> Wall:
    """A reflector panel oriented for a specular TX -> panel -> RX bounce.

    The panel's normal bisects the directions to TX and RX, so the image
    method finds a reflection exactly at ``position`` — a deterministic
    long-delay multipath component of controllable strength.
    """
    to_tx = (tx - position).normalized()
    to_rx = (rx - position).normalized()
    bisector = Point(to_tx.x + to_rx.x, to_tx.y + to_rx.y).normalized()
    direction = Point(-bisector.y, bisector.x)
    half = length_m / 2.0
    return Wall(
        Segment(position + (-half) * direction, position + half * direction),
        material=material,
    )


@dataclass(frozen=True)
class StudySetup:
    """Everything one experiment needs: testbed, devices, geometry."""

    testbed: Testbed
    tx_device: SdrDevice
    rx_device: SdrDevice
    array: PressArray
    config: StudyConfig
    placement_seed: int


def _clutter_scatterers(
    config: StudyConfig,
    rng: np.random.Generator,
) -> list[Scatterer]:
    """Weak scatterers forming the diffuse multipath floor.

    Each clutter scatterer's re-radiation gain is solved from its geometry
    so its TX -> scatterer -> RX path lands at a drawn target power
    (``config.clutter_power_db``), giving a floor that is a controlled
    20-28 dB below the dominant ambient components regardless of where the
    scatterer happens to sit.
    """
    from ..constants import WAVELENGTH_M
    from ..em.raytracer import free_space_amplitude

    tx = config.tx_position()
    rx = config.rx_position()
    endpoint_gain_db = 4.0  # two 2 dBi endpoint omnis
    scatterers: list[Scatterer] = []
    for _ in range(config.num_clutter):
        position = Point(
            float(rng.uniform(0.8, config.room_width_m - 0.8)),
            float(rng.uniform(0.8, config.room_height_m - 0.8)),
        )
        d1 = max(((tx - position).norm()), 0.3)
        d2 = max(((rx - position).norm()), 0.3)
        base_amp = free_space_amplitude(d1, WAVELENGTH_M) * free_space_amplitude(
            d2, WAVELENGTH_M
        )
        base_db = 20.0 * np.log10(base_amp) + endpoint_gain_db
        target_db = float(rng.uniform(*config.clutter_power_db))
        gain_dbi = (target_db - base_db) / 2.0
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        scatterers.append(
            Scatterer(
                position,
                1.0 * complex(np.cos(phase), np.sin(phase)),
                gain_dbi=float(gain_dbi),
            )
        )
    return scatterers


def _default_clutter_rng() -> np.random.Generator:
    """The documented fixed clutter-floor stream used when none is threaded.

    Module-level by design: tuning the clutter floor never perturbs the
    main placement draw, and the seed lives in exactly one place.
    """
    return np.random.default_rng(12345)


def build_study_scene(
    config: StudyConfig,
    rng: np.random.Generator,
    blocked: bool = True,
    clutter_rng: Optional[np.random.Generator] = None,
) -> Scene:
    """The lab scene: room + shelf panel + scatterers + clutter floor.

    ``clutter_rng`` draws the diffuse-floor clutter from an independent
    stream so tuning the floor never perturbs the main placement draw.
    """
    _ensure_materials()
    scene = shoebox_scene(
        config.room_width_m,
        config.room_height_m,
        material=config.wall_material,
        num_scatterers=config.num_scatterers,
        rng=rng,
        scatterer_margin=0.8,
        reflectivity_range=config.scatterer_reflectivity,
    )
    lo, hi = config.scatterer_gain_dbi
    scatterers = list(
        Scatterer(s.position, s.reflectivity, gain_dbi=float(rng.uniform(lo, hi)))
        for s in scene.scatterers
    )
    if clutter_rng is None:
        clutter_rng = _default_clutter_rng()
    scatterers.extend(_clutter_scatterers(config, clutter_rng))
    scatterers = tuple(scatterers)
    tx = config.tx_position()
    rx = config.rx_position()
    walls = tuple(scene.walls) + (
        facing_panel(
            config.panel_position(),
            tx,
            rx,
            length_m=config.panel_length_m,
            material=config.panel_material,
        ),
    )
    scene = Scene(walls=walls, scatterers=scatterers, name="press-lab")
    if blocked:
        scene = scene.with_obstacles(
            blocker_between(tx, rx, half_width=config.blocker_half_width_m)
        )
    return scene


def _element_positions(
    config: StudyConfig,
    rng: np.random.Generator,
    count: int,
) -> list[Point]:
    """Random grid cells 1-2 m from the link, as in §3.2."""
    tx = config.tx_position()
    rx = config.rx_position()
    mid = Point((tx.x + rx.x) / 2.0, (tx.y + rx.y) / 2.0)
    return points_on_grid(
        count,
        (mid.x - 1.0, mid.x + 1.0),
        (mid.y + 1.0, mid.y + 2.0),
        config.element_grid_rows,
        config.element_grid_cols,
        rng,
    )


def _build_setup(
    placement_seed: int,
    config: StudyConfig,
    *,
    blocked: bool,
    elements_fn: Callable[[StudyConfig, np.random.Generator], Sequence[PressElement]],
    device_factory: Callable[..., SdrDevice],
    device_prefix: str,
) -> StudySetup:
    """Shared scaffolding of every ``build_*_setup`` scenario.

    One place owns the rng/clutter-rng seeding, scene construction, testbed
    wiring and endpoint-device placement; the scenarios differ only in
    whether the LoS is blocked, which PRESS elements they install (drawn
    from ``rng`` *after* the scene, preserving each builder's historical
    draw order) and which SDR model stands at the endpoints.
    """
    rng = np.random.default_rng(placement_seed)
    clutter_rng = np.random.default_rng([placement_seed, 77])
    scene = build_study_scene(config, rng, blocked=blocked, clutter_rng=clutter_rng)
    array = PressArray.from_elements(list(elements_fn(config, rng)))
    testbed = Testbed(
        scene=scene,
        array=array,
        drift_phase_rad=config.drift_phase_rad,
        drift_amplitude=config.drift_amplitude,
    )
    tx_device = device_factory(
        f"{device_prefix}-tx", config.tx_position(), tx_power_dbm=config.tx_power_dbm
    )
    rx_device = device_factory(f"{device_prefix}-rx", config.rx_position())
    return StudySetup(
        testbed=testbed,
        tx_device=tx_device,
        rx_device=rx_device,
        array=array,
        config=config,
        placement_seed=placement_seed,
    )


def _study_elements(
    config: StudyConfig, rng: np.random.Generator
) -> list[PressElement]:
    """The §3.2 elements: SP4T omnis on random grid cells near the link."""
    positions = _element_positions(config, rng, config.num_elements)
    return [
        omni_element(p, name=f"e{i}", gain_dbi=config.element_gain_dbi)
        for i, p in enumerate(positions)
    ]


def build_nlos_setup(
    placement_seed: int,
    config: StudyConfig = StudyConfig(),
) -> StudySetup:
    """The Figure 4-6 setup: blocked LoS, 3 elements, WARP endpoints.

    ``placement_seed`` selects both the element placement and the ambient
    scatterer realisation, reproducing "each antenna placement results in a
    different scattering environment".
    """
    return _build_setup(
        placement_seed,
        config,
        blocked=True,
        elements_fn=_study_elements,
        device_factory=warp_v3,
        device_prefix="warp",
    )


def build_los_setup(
    placement_seed: int,
    config: StudyConfig = StudyConfig(),
) -> StudySetup:
    """The §3 line-of-sight control: identical, but the blocker removed."""
    return _build_setup(
        placement_seed,
        config,
        blocked=False,
        elements_fn=_study_elements,
        device_factory=warp_v3,
        device_prefix="warp",
    )


def build_harmonization_setup(
    placement_seed: int,
    config: StudyConfig = StudyConfig(),
) -> StudySetup:
    """The §3.2.2 setup: USRP N210 endpoints, two 4-phase elements, no load.

    "we use two USRP N210 radios with only two PRESS elements, each of
    which is attached to four different reflective cable lengths and no
    absorptive load, to decrease the reflected phase granularity."
    """

    def elements_fn(
        config: StudyConfig, rng: np.random.Generator
    ) -> list[PressElement]:
        positions = _element_positions(config, rng, 2)
        states = sp4t_states(include_load=False, num_phases=4)
        return [
            omni_element(
                p, name=f"e{i}", gain_dbi=config.element_gain_dbi, states=states
            )
            for i, p in enumerate(positions)
        ]

    return _build_setup(
        placement_seed,
        config,
        blocked=True,
        elements_fn=elements_fn,
        device_factory=usrp_n210,
        device_prefix="n210",
    )


def build_mimo_setup(
    placement_seed: int,
    config: StudyConfig = StudyConfig(),
    element_spacing_wavelengths: float = 1.0,
    element_gain_dbi: float = -9.0,
) -> StudySetup:
    """The §3.2.3 setup: 2x2 MIMO endpoints, co-linear omni elements.

    "Omnidirectional PRESS elements are deployed co-linear to the transmit
    antenna pair with lambda spacing between the PRESS antenna elements."
    """
    from ..constants import WAVELENGTH_M

    def elements_fn(
        config: StudyConfig, rng: np.random.Generator
    ) -> list[PressElement]:
        tx = config.tx_position()
        spacing = element_spacing_wavelengths * WAVELENGTH_M
        # Elements co-linear with the TX array's axis (§3.2.3), raised above
        # the link line so their view of the receiver clears the LoS blocker.
        # They sit close to the TX array, where each element is at a
        # distinctly different distance/angle from each TX antenna, so
        # switching its reflection perturbs the *spatial* structure of H
        # (conditioning), not just its overall gain.  The gain default
        # reflects that this near-array deployment couples more strongly than
        # the far-field two-hop model of a mid-room element.
        first = Point(tx.x + 0.25, tx.y + 0.75)
        return [
            omni_element(
                Point(first.x + i * spacing, first.y),
                name=f"e{i}",
                gain_dbi=element_gain_dbi,
            )
            for i in range(config.num_elements)
        ]

    return _build_setup(
        placement_seed,
        config,
        blocked=True,
        elements_fn=elements_fn,
        device_factory=usrp_x310,
        device_prefix="x310",
    )


def build_large_array_setup(
    placement_seed: int,
    num_elements: int = 1024,
    config: StudyConfig = StudyConfig(),
    states: Optional[Sequence] = None,
    rows: Optional[int] = None,
) -> StudySetup:
    """An RFocus-scale scenario: a wall-sized element grid, N into the thousands.

    Same room, clutter and blocked link as :func:`build_nlos_setup`, but
    instead of three elements near the link the far wall carries a
    programmable surface: ``num_elements`` SP4T omni elements tiled in a
    deterministic grid (``surface_grid_positions``) along the top wall.
    This is the regime RFocus (arXiv:1905.05130) targets — ~3,000 passive
    elements, where the M^N space cannot be enumerated and search must
    scale with elements touched.

    ``pick_searcher``/``search_basis`` select the delta-powered
    searchers; calling ``testbed.sweep`` (an
    exhaustive enumeration) on such a setup raises
    :class:`~repro.core.basis.SearchSpaceTooLarge` by design.

    ``rows`` defaults to the smallest row count keeping at most 256
    columns per row; ``states`` overrides the per-element state set
    (default: the prototype's 4-state SP4T).
    """
    if num_elements <= 0:
        raise ValueError(f"num_elements must be positive, got {num_elements}")
    if rows is None:
        rows = -(-num_elements // 256)
    state_set = tuple(states) if states is not None else sp4t_states()

    def elements_fn(
        config: StudyConfig, rng: np.random.Generator
    ) -> list[PressElement]:
        margin = 0.6
        y = config.room_height_m - 0.2
        # Right-to-left along the top wall so the grid's left-hand normal
        # (and its row stacking) faces down into the room.
        positions = surface_grid_positions(
            Point(config.room_width_m - margin, y),
            Point(margin, y),
            count=num_elements,
            rows=rows,
        )
        # omni_element's element, with one antenna shared by the wall.
        antenna = OmniAntenna(peak_gain_dbi=config.element_gain_dbi)
        return [
            PressElement(position=p, antenna=antenna, states=state_set, name=f"e{i}")
            for i, p in enumerate(positions)
        ]

    return _build_setup(
        placement_seed,
        config,
        blocked=True,
        elements_fn=elements_fn,
        device_factory=warp_v3,
        device_prefix="warp",
    )


def used_subcarrier_mask() -> np.ndarray:
    """Mask of the 52 used subcarriers on the 64-bin grid."""
    return OfdmParams().used_mask()
