"""Coverage maps: dead zones across the whole room (§1's first question).

"How best to eliminate dead zones in the presence of the vagaries of
multipath propagation?"  A dead zone is a *place*; this experiment maps
link quality over a grid of client positions, before and after PRESS, and
reports the coverage statistics a site survey would: worst-spot quality,
the fraction of positions below a service threshold, and how much a single
(joint) configuration versus a per-position configuration recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.configuration import ArrayConfiguration
from ..em.channel import snr_db_from_cfr
from ..em.geometry import Point
from ..obs.records import RunRecorder
from ..sdr.device import warp_v3
from .common import StudyConfig, StudySetup, build_nlos_setup, used_subcarrier_mask
from .runner import run_parallel

__all__ = ["CoverageMap", "run_coverage", "run_coverage_suite"]


@dataclass(frozen=True)
class CoverageMap:
    """Link quality over a grid of client positions.

    Attributes
    ----------
    xs, ys:
        Grid coordinates (metres).
    baseline_db:
        min-SNR at each position with the all-zero-stub configuration,
        shape (len(ys), len(xs)).
    per_position_db:
        min-SNR with the best configuration *for that position*.
    joint_db:
        min-SNR with the single configuration maximising the worst grid
        position (one setting for the whole room).
    joint_configuration:
        That configuration.
    """

    xs: np.ndarray
    ys: np.ndarray
    baseline_db: np.ndarray
    per_position_db: np.ndarray
    joint_db: np.ndarray
    joint_configuration: ArrayConfiguration

    def fraction_below(self, threshold_db: float, which: str = "baseline") -> float:
        """Fraction of grid positions below a service threshold."""
        grid = {
            "baseline": self.baseline_db,
            "per-position": self.per_position_db,
            "joint": self.joint_db,
        }[which]
        return float(np.mean(grid < threshold_db))

    def worst_db(self, which: str = "baseline") -> float:
        grid = {
            "baseline": self.baseline_db,
            "per-position": self.per_position_db,
            "joint": self.joint_db,
        }[which]
        return float(grid.min())


def run_coverage(
    placement_seed: int = 2,
    config: StudyConfig = StudyConfig(),
    grid_shape: tuple[int, int] = (5, 7),
    x_span_m: float = 1.8,
    y_span_m: float = 1.2,
    setup: Optional[StudySetup] = None,
) -> CoverageMap:
    """Map min-SNR over client positions around the nominal receiver.

    The grid covers the NLoS region behind the blocker (a full-room sweep
    is possible but slow for a benchmark; dead zones concentrate where
    multipath dominates).
    """
    rows, cols = grid_shape
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid_shape must be positive, got {grid_shape}")
    setup = setup or build_nlos_setup(placement_seed, config)
    mask = used_subcarrier_mask()
    space = setup.array.configuration_space()
    configurations = list(space.all_configurations())
    rx0 = setup.rx_device.position
    xs = np.linspace(rx0.x - x_span_m / 2, rx0.x + x_span_m / 2, cols)
    ys = np.linspace(rx0.y - y_span_m / 2, rx0.y + y_span_m / 2, rows)

    # min-SNR for every (position, configuration) pair.  The whole position
    # axis goes through the batched geometry trace — one trace_batch call
    # for all grid cells instead of one scalar trace per cell — and the
    # configuration axis is a vectorized CFR evaluation per point.
    testbed = setup.testbed
    probe = warp_v3("probe", rx0)
    points = [
        Point(float(x), float(y)) for y in ys for x in xs
    ]  # row-major, matching the original (row, col) loop order
    bases = testbed.bases_for_points(
        setup.tx_device, points, probe.chains[0].antenna
    )
    quality = np.empty((rows, cols, len(configurations)))
    for index, basis in enumerate(bases):
        row, col = divmod(index, cols)
        snr = snr_db_from_cfr(
            basis.evaluate(),
            testbed.num_subcarriers,
            testbed.bandwidth_hz,
            tx_power_dbm=setup.tx_device.tx_power_dbm,
            noise_figure_db=probe.noise_figure_db,
        )
        quality[row, col] = snr[:, mask].min(axis=1)

    baseline_index = space.index_of(
        ArrayConfiguration(tuple([0] * setup.array.num_elements))
    )
    baseline = quality[:, :, baseline_index]
    per_position = quality.max(axis=2)
    # Joint: one configuration maximising the worst grid position.
    worst_per_config = quality.reshape(-1, len(configurations)).min(axis=0)
    joint_index = int(np.argmax(worst_per_config))
    joint = quality[:, :, joint_index]
    return CoverageMap(
        xs=xs,
        ys=ys,
        baseline_db=baseline,
        per_position_db=per_position,
        joint_db=joint,
        joint_configuration=configurations[joint_index],
    )


def _coverage_task(
    task: tuple[int, StudyConfig, tuple[int, int], float, float],
) -> CoverageMap:
    """One placement's coverage map (module-level for process pools)."""
    placement_seed, config, grid_shape, x_span_m, y_span_m = task
    return run_coverage(
        placement_seed=placement_seed,
        config=config,
        grid_shape=grid_shape,
        x_span_m=x_span_m,
        y_span_m=y_span_m,
    )


def run_coverage_suite(
    placement_seeds: tuple[int, ...] = (0, 1, 2, 3),
    config: StudyConfig = StudyConfig(),
    grid_shape: tuple[int, int] = (5, 7),
    x_span_m: float = 1.8,
    y_span_m: float = 1.2,
    jobs: Optional[int] = None,
    record_to: Optional[str] = None,
) -> list[CoverageMap]:
    """Coverage maps for several placements, fanned across processes.

    Each placement's map is deterministic in its seed (coverage draws no
    measurement noise), so results are identical at any ``jobs`` value;
    within each placement the position axis runs through the batched
    geometry trace.  ``record_to`` appends a schema-validated run record
    (config, merged metrics across all workers, span summaries) to the
    given JSONL file.
    """
    tasks = [
        (int(seed), config, grid_shape, x_span_m, y_span_m)
        for seed in placement_seeds
    ]
    with RunRecorder(
        "coverage_suite",
        config={
            "placement_seeds": [int(seed) for seed in placement_seeds],
            "grid_shape": list(grid_shape),
            "x_span_m": x_span_m,
            "y_span_m": y_span_m,
            "study": config,
        },
        path=record_to,
        jobs=jobs,
        seeds={"placement_seeds": [int(seed) for seed in placement_seeds]},
    ) as recorder:
        maps, samples = run_parallel(_coverage_task, tasks, jobs=jobs)
        recorder.add_worker_samples(samples)
    return maps
