"""Figure 7: two configurations with opposite frequency selectivity.

"Figure 7 shows that two of the PRESS element configurations exhibit clear
and opposite frequency selectivity; each one favors its own half of the
band." (§3.2.2)

The paper's procedure is manual: "the elements and the surrounding
environment were manipulated until a frequency-selective channel was
found".  We reproduce that deterministically by scanning placement seeds
and keeping the first whose best configuration pair exceeds a contrast
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..net.harmonization import subband_contrast_db
from ..obs.records import RunRecorder
from .common import StudyConfig, build_harmonization_setup, used_subcarrier_mask
from .runner import run_parallel

__all__ = ["Fig7Result", "run_fig7"]


@dataclass(frozen=True)
class Fig7Result:
    """The selected opposite-selectivity configuration pair.

    Attributes
    ----------
    placement_seed:
        The accepted scenario seed.
    label_a, label_b:
        Configuration labels (paper style, e.g. "(:, 1.5:)").
    snr_a, snr_b:
        Per-used-subcarrier SNR of the two configurations.
    contrast_a_db, contrast_b_db:
        Each configuration's upper-minus-lower half-band contrast; opposite
        selectivity means the signs differ.
    """

    placement_seed: int
    label_a: str
    label_b: str
    snr_a: np.ndarray
    snr_b: np.ndarray
    contrast_a_db: float
    contrast_b_db: float

    @property
    def is_opposite(self) -> bool:
        """Whether the two configurations favour different half-bands."""
        return self.contrast_a_db * self.contrast_b_db < 0

    @property
    def total_contrast_db(self) -> float:
        """|contrast_a| + |contrast_b| — the strength of the Figure 7 effect."""
        return abs(self.contrast_a_db) + abs(self.contrast_b_db)


def _fig7_seed_task(task: tuple[int, StudyConfig, int]) -> Fig7Result:
    """Evaluate one scenario seed: best opposite-selectivity pair.

    Each seed's rng derives from ``noise_seed + placement_seed`` alone, so
    candidates are independent of evaluation order and worker count.
    """
    placement_seed, config, noise_seed = task
    mask = used_subcarrier_mask()
    setup = build_harmonization_setup(placement_seed, config)
    rng = np.random.default_rng(noise_seed + placement_seed)
    space = setup.array.configuration_space()
    configurations = list(space.all_configurations())
    snrs = []
    for configuration in configurations:
        observation = setup.testbed.measure_csi(
            setup.tx_device, setup.rx_device, configuration, rng=rng
        )
        snrs.append(observation.snr_db[mask])
    contrasts = np.array([subband_contrast_db(snr) for snr in snrs])
    index_a = int(np.argmin(contrasts))  # favours lower half
    index_b = int(np.argmax(contrasts))  # favours upper half
    return Fig7Result(
        placement_seed=placement_seed,
        label_a=setup.array.describe(configurations[index_a]),
        label_b=setup.array.describe(configurations[index_b]),
        snr_a=snrs[index_a],
        snr_b=snrs[index_b],
        contrast_a_db=float(contrasts[index_a]),
        contrast_b_db=float(contrasts[index_b]),
    )


def run_fig7(
    config: StudyConfig = StudyConfig(),
    max_seeds: int = 24,
    min_total_contrast_db: float = 6.0,
    noise_seed: int = 4000,
    jobs: Optional[int] = None,
    record_to: Optional[str] = None,
) -> Fig7Result:
    """Scan scenario seeds for a clear opposite-selectivity pair.

    Returns the first scenario whose best configuration pair favours
    opposite half-bands with total contrast >= ``min_total_contrast_db``;
    falls back to the best pair seen if none meets the bar.

    ``jobs`` fans the seed scan across processes.  Serially the scan stops
    at the first acceptable seed; in parallel all ``max_seeds`` candidates
    are evaluated concurrently and the same selection rule is applied in
    seed order — per-seed rngs are order-independent, so the returned
    result is identical (parallelism trades some extra work for latency).
    """
    if max_seeds <= 0:
        raise ValueError(f"max_seeds must be positive, got {max_seeds}")

    def select(candidates: "list[Fig7Result]") -> Optional[Fig7Result]:
        """First candidate meeting the bar, applied in seed order."""
        for candidate in candidates:
            if (
                candidate.is_opposite
                and candidate.total_contrast_db >= min_total_contrast_db
            ):
                return candidate
        return None

    from .runner import resolve_jobs

    with RunRecorder(
        "fig7",
        config={
            "max_seeds": max_seeds,
            "min_total_contrast_db": min_total_contrast_db,
            "study": config,
        },
        path=record_to,
        jobs=jobs,
        seeds={"noise_seed": noise_seed},
    ) as recorder:
        best: Optional[Fig7Result] = None
        chosen: Optional[Fig7Result] = None
        if resolve_jobs(jobs) <= 1:
            # Serial: preserve the historical early exit.
            for placement_seed in range(max_seeds):
                candidate = _fig7_seed_task((placement_seed, config, noise_seed))
                if (
                    best is None
                    or candidate.total_contrast_db > best.total_contrast_db
                ):
                    best = candidate
                accepted = select([candidate])
                if accepted is not None:
                    chosen = accepted
                    break
            if chosen is None:
                assert best is not None
                chosen = best
        else:
            tasks = [
                (placement_seed, config, noise_seed)
                for placement_seed in range(max_seeds)
            ]
            candidates, samples = run_parallel(_fig7_seed_task, tasks, jobs=jobs)
            recorder.add_worker_samples(samples)
            accepted = select(candidates)
            chosen = accepted or max(
                candidates, key=lambda c: c.total_contrast_db
            )
    return chosen
