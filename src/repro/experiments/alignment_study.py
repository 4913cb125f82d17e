"""Interference alignment via the environment (§1's harmonization list).

"aligning the interference that two networks cause at a receiver in a
third network, so that that receiver may remove the interference from both
interfering networks in a single nulling step."

Two interfering APs transmit near a two-antenna bystander receiver.  The
bystander has one spatial degree of freedom to burn on a null; if the two
interference vectors arrive aligned (collinear in antenna space), one null
removes both.  PRESS can steer that alignment from the walls: this
experiment sweeps the array, measures the per-configuration alignment and
the residual interference-to-noise ratio after the single null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import dbm_to_watts, thermal_noise_power_w
from ..core.configuration import ArrayConfiguration
from ..em.geometry import Point
from ..net.alignment import mean_alignment_cosine, post_nulling_inr_db
from ..sdr.device import SdrDevice, usrp_x310, warp_v3
from ..sdr.testbed import Testbed
from .common import StudyConfig, build_study_scene, used_subcarrier_mask
from ..em.scene import blocker_between
from ..core.array import PressArray
from ..core.element import omni_element
from ..em.geometry import points_on_grid

__all__ = [
    "AlignmentResult",
    "build_alignment_setup",
    "interference_vectors",
    "run_alignment_study",
]


@dataclass(frozen=True)
class AlignmentResult:
    """Per-configuration interference alignment at the bystander.

    Attributes
    ----------
    alignment:
        Mean alignment cosine per configuration (1 = collinear).
    residual_inr_db:
        Mean post-single-null interference-to-noise ratio per
        configuration.
    labels:
        Configuration labels in sweep order.
    """

    alignment: np.ndarray
    residual_inr_db: np.ndarray
    labels: tuple[str, ...]

    @property
    def best_configuration(self) -> int:
        """Most aligned configuration."""
        return int(np.argmax(self.alignment))

    @property
    def worst_configuration(self) -> int:
        return int(np.argmin(self.alignment))

    @property
    def alignment_spread(self) -> float:
        return float(self.alignment.max() - self.alignment.min())

    @property
    def inr_improvement_db(self) -> float:
        """Residual-INR reduction from worst-aligned to best-aligned."""
        return float(
            self.residual_inr_db[self.worst_configuration]
            - self.residual_inr_db[self.best_configuration]
        )


def interference_vectors(
    testbed: Testbed,
    ap: SdrDevice,
    receiver: SdrDevice,
    configuration: ArrayConfiguration,
) -> np.ndarray:
    """(subcarriers, receiver chains) interference channel from ``ap``'s first chain."""
    return testbed.mimo_matrices(ap, receiver, configuration)[:, :, 0]


def build_alignment_setup(
    placement_seed: int = 0,
    config: StudyConfig = StudyConfig(),
    element_gain_dbi: float = 2.0,
) -> tuple[Testbed, tuple[SdrDevice, SdrDevice], SdrDevice]:
    """The alignment scene: its testbed, the two interfering APs, the bystander.

    The two interfering APs stand at the study's TX/RX positions; the
    bystander (a 2-chain USRP X310) sits across the room with three PRESS
    elements deployed nearby (the §2 guidance to "focus the search in the
    vicinity of intended receivers").
    """
    rng = np.random.default_rng(placement_seed)
    clutter_rng = np.random.default_rng([placement_seed, 77])
    scene = build_study_scene(config, rng, blocked=False, clutter_rng=clutter_rng)
    ap1 = warp_v3("ap-1", config.tx_position())
    ap2 = warp_v3("ap-2", config.rx_position())
    bystander_pos = Point(
        config.room_width_m * 0.55, config.room_height_m * 0.72
    )
    # Block the bystander's direct view of both APs: with LoS interference
    # the endpoint geometry fixes the alignment; through multipath the
    # walls (and hence PRESS) control it.
    scene = scene.with_obstacles(
        blocker_between(ap1.position, bystander_pos, half_width=0.35),
        blocker_between(ap2.position, bystander_pos, half_width=0.35),
    )
    bystander = usrp_x310("bystander", bystander_pos)
    element_positions = points_on_grid(
        3,
        (bystander_pos.x - 1.0, bystander_pos.x + 1.0),
        (bystander_pos.y - 1.8, bystander_pos.y - 0.8),
        config.element_grid_rows,
        config.element_grid_cols,
        rng,
    )
    array = PressArray.from_elements(
        [
            omni_element(p, name=f"e{i}", gain_dbi=element_gain_dbi)
            for i, p in enumerate(element_positions)
        ]
    )
    return Testbed(scene=scene, array=array), (ap1, ap2), bystander


def run_alignment_study(
    placement_seed: int = 0,
    config: StudyConfig = StudyConfig(),
    element_gain_dbi: float = 2.0,
) -> AlignmentResult:
    """Sweep the array, measuring alignment at a 2-antenna bystander."""
    testbed, (ap1, ap2), bystander = build_alignment_setup(
        placement_seed, config, element_gain_dbi
    )
    array = testbed.array
    mask = used_subcarrier_mask()
    num_sc = testbed.num_subcarriers
    interferer_power = dbm_to_watts(config.tx_power_dbm) / num_sc
    noise_power = thermal_noise_power_w(
        testbed.bandwidth_hz / num_sc, bystander.noise_figure_db
    )

    space = array.configuration_space()
    alignments = []
    residuals = []
    labels = []
    for configuration in space.all_configurations():
        h1 = interference_vectors(testbed, ap1, bystander, configuration)[mask]
        h2 = interference_vectors(testbed, ap2, bystander, configuration)[mask]
        alignments.append(mean_alignment_cosine(h1, h2))
        inrs = [
            post_nulling_inr_db(a, b, interferer_power, noise_power)
            for a, b in zip(h1, h2)
        ]
        residuals.append(float(np.mean(inrs)))
        labels.append(array.describe(configuration))
    return AlignmentResult(
        alignment=np.array(alignments),
        residual_inr_db=np.array(residuals),
        labels=tuple(labels),
    )
