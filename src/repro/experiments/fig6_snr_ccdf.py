"""Figure 6: distributions of minimum-subcarrier SNR and its changes.

Left panel: "the complementary CDF of the difference in dB of the minimum
SNR across subcarriers for pairs of PRESS element configurations".  Right
panel: "the complementary CDF of those minimum SNRs for the 64 different
configurations", one trace per trial.

Claims checked: "Around 38% of the configuration changes cause a 10 dB SNR
change on at least one subcarrier, and less than 9% of the configurations
show a worst subcarrier channel gain below 20 dB." (§3.2.1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.metrics import (
    fraction_of_pairs_with_change,
    min_snr_changes,
    min_snrs,
)
from ..analysis.stats import EmpiricalDistribution
from ..obs.records import RunRecorder
from .common import (
    FIG5_PLACEMENT_SEED,
    StudyConfig,
    build_nlos_setup,
    used_subcarrier_mask,
)
from .runner import derive_seeds, run_parallel

__all__ = ["Fig6Result", "run_fig6"]


@dataclass(frozen=True)
class Fig6Result:
    """Both Figure 6 panels plus the §3.2.1 claims.

    Attributes
    ----------
    min_snr_change_pairs:
        |Delta min-SNR| over configuration pairs, pooled across repetitions
        (left panel).
    min_snr_per_trial:
        Per-trial arrays of each configuration's minimum subcarrier SNR
        (right panel: one CCDF trace per trial).
    fraction_pairs_10db_change:
        Fraction of configuration changes causing a >= 10 dB change on at
        least one subcarrier (paper: ~38%).
    fraction_configs_below_20db:
        Fraction of (configuration, trial) samples whose worst subcarrier
        is below 20 dB (paper: < 9%).
    """

    min_snr_change_pairs: np.ndarray
    min_snr_per_trial: tuple[np.ndarray, ...]
    fraction_pairs_10db_change: float
    fraction_configs_below_20db: float

    def left_ccdf(self) -> tuple[np.ndarray, np.ndarray]:
        """The left panel's pooled CCDF curve."""
        return EmpiricalDistribution.from_samples(self.min_snr_change_pairs).ccdf_curve()

    def right_ccdf_curves(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """One CCDF trace per trial (the right panel)."""
        return [
            EmpiricalDistribution.from_samples(trial).ccdf_curve()
            for trial in self.min_snr_per_trial
        ]


def _fig6_rep_task(
    task: tuple[int, StudyConfig, np.random.SeedSequence],
) -> np.ndarray:
    """One Figure 6 repetition: a single 64-configuration sweep.

    Each repetition draws from its own spawned :class:`SeedSequence`
    child, so the result depends only on ``(noise_seed, rep index)`` — any
    worker count reproduces any other.
    """
    placement_seed, config, seed_seq = task
    setup = build_nlos_setup(placement_seed, config)
    rng = np.random.default_rng(seed_seq)
    sweep = setup.testbed.sweep(
        setup.tx_device, setup.rx_device, repetitions=1, rng=rng
    )
    return sweep.snr_db[0]


def run_fig6(
    repetitions: int = 10,
    placement_seed: int = FIG5_PLACEMENT_SEED,
    config: StudyConfig = StudyConfig(),
    noise_seed: int = 3000,
    jobs: Optional[int] = None,
    record_to: Optional[str] = None,
) -> Fig6Result:
    """Run the Figure 6 experiment at the Figure 5 placement.

    Each repetition draws from its own ``SeedSequence.spawn`` child of
    ``noise_seed``, so repetitions fan across ``jobs`` processes and the
    result is bit-identical at every ``jobs`` value, ``None`` included.
    ``record_to`` appends a schema-validated run record to the given JSONL
    file.
    """
    mask = used_subcarrier_mask()
    tasks = [
        (placement_seed, config, seed_seq)
        for seed_seq in derive_seeds(noise_seed, repetitions)
    ]
    with RunRecorder(
        "fig6",
        config={
            "repetitions": repetitions,
            "study": config,
        },
        path=record_to,
        jobs=jobs,
        seeds={"noise_seed": noise_seed, "placement_seed": placement_seed},
    ) as recorder:
        snr_reps, samples = run_parallel(_fig6_rep_task, tasks, jobs=jobs)
        recorder.add_worker_samples(samples)
    per_rep = [snr[:, mask] for snr in snr_reps]
    change_pairs = np.concatenate([min_snr_changes(snr) for snr in per_rep])
    minima_per_trial = tuple(min_snrs(snr) for snr in per_rep)
    frac_10db = float(
        np.mean([fraction_of_pairs_with_change(snr, 10.0) for snr in per_rep])
    )
    all_minima = np.concatenate(minima_per_trial)
    frac_below_20 = float(np.mean(all_minima < 20.0))
    return Fig6Result(
        min_snr_change_pairs=change_pairs,
        min_snr_per_trial=minima_per_trial,
        fraction_pairs_10db_change=frac_10db,
        fraction_configs_below_20db=frac_below_20,
    )
