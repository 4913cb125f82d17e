"""Tracking a time-varying channel: re-optimisation policies under motion.

§2 frames PRESS's hardest constraint as the channel coherence time set by
people moving through the space.  This experiment makes the constraint
operational: a person walks through the §3 lab while a PRESS-enhanced link
runs, and different controller policies compete on time-averaged worst-
subcarrier SNR:

* **static** — optimise once at t=0, never again;
* **periodic** — re-run the search every ``reoptimize_interval_s``;
* **bandit** — an epsilon-greedy learner re-selects every step, paying one
  measurement per step instead of periodic sweeps;
* **model-based** — re-identifies the linear channel model (N+1
  measurements, :mod:`repro.core.prediction`) every interval and picks the
  predicted-best configuration: exhaustive-quality decisions at a fraction
  of the sounding cost.

The walker is re-traced each step, so the ambient channel genuinely
decorrelates; whatever a policy knew goes stale at the §2 rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.array import PressArray
from ..core.configuration import ArrayConfiguration
from ..core.learning import EpsilonGreedyBandit
from ..core.search import ExhaustiveSearch, Searcher
from ..em.mobility import TimeVaryingScene, walking_person
from ..em.geometry import Point
from ..sdr.testbed import Testbed
from .common import StudyConfig, build_nlos_setup, used_subcarrier_mask

__all__ = ["TrackingResult", "run_tracking"]


@dataclass(frozen=True)
class TrackingResult:
    """Time series of worst-subcarrier SNR for each policy.

    Attributes
    ----------
    times_s:
        Sample instants.
    min_snr_db:
        Policy name -> per-instant worst-subcarrier SNR.
    measurements:
        Policy name -> total over-the-air measurements spent.
    """

    times_s: np.ndarray
    min_snr_db: dict[str, np.ndarray]
    measurements: dict[str, int]

    def mean_min_snr_db(self, policy: str) -> float:
        return float(np.mean(self.min_snr_db[policy]))


def run_tracking(
    duration_s: float = 20.0,
    step_s: float = 0.5,
    walker_speed_mph: float = 2.0,
    reoptimize_interval_s: float = 5.0,
    placement_seed: int = 2,
    config: StudyConfig = StudyConfig(),
    searcher: Optional[Searcher] = None,
    seed: int = 0,
) -> TrackingResult:
    """Race the three policies over one walking-person realisation."""
    if duration_s <= 0 or step_s <= 0:
        raise ValueError("duration_s and step_s must be positive")
    if reoptimize_interval_s <= 0:
        raise ValueError("reoptimize_interval_s must be positive")
    base_setup = build_nlos_setup(placement_seed, config)
    mask = used_subcarrier_mask()
    scene = TimeVaryingScene(
        base=base_setup.testbed.scene,
        movers=(
            walking_person(
                Point(config.room_width_m * 0.6, config.room_height_m * 0.4),
                direction_rad=2.3,
                bounds=(config.room_width_m, config.room_height_m),
                speed_mph=walker_speed_mph,
            ),
        ),
    )
    array: PressArray = base_setup.array
    space = array.configuration_space()
    searcher = searcher or ExhaustiveSearch()
    times = np.arange(0.0, duration_s, step_s)

    def testbed_at(time_s: float) -> Testbed:
        return Testbed(scene=scene.scene_at(time_s), array=array)

    def min_snr(testbed: Testbed, configuration: ArrayConfiguration) -> float:
        observation = testbed.measure_csi(
            base_setup.tx_device, base_setup.rx_device, configuration
        )
        return float(observation.snr_db[mask].min())

    results: dict[str, np.ndarray] = {}
    measurements: dict[str, int] = {}

    # Static: one search at t=0.
    testbed0 = testbed_at(0.0)
    static_search = searcher.search(space, lambda c: min_snr(testbed0, c))
    static_config = static_search.best
    series = np.array([min_snr(testbed_at(t), static_config) for t in times])
    results["static"] = series
    measurements["static"] = static_search.num_evaluations

    # Periodic: re-search every interval, hold in between.
    periodic_config = static_config
    spent = static_search.num_evaluations
    next_reopt = reoptimize_interval_s
    periodic_series = []
    for t in times:
        testbed = testbed_at(float(t))
        if t >= next_reopt:
            search = searcher.search(space, lambda c: min_snr(testbed, c))
            periodic_config = search.best
            spent += search.num_evaluations
            next_reopt += reoptimize_interval_s
        periodic_series.append(min_snr(testbed, periodic_config))
    results["periodic"] = np.array(periodic_series)
    measurements["periodic"] = spent

    # Model-based: re-identify the linear model every interval (N+1
    # soundings), then pick the predicted-best configuration for free.
    from ..core.objectives import MinSnrObjective
    from ..core.prediction import (
        fit_channel_model,
        identification_configurations,
        predict_and_pick,
    )

    schedule = identification_configurations(array)
    model_config = static_config
    model_spent = 0
    next_ident = 0.0
    model_series = []
    for t in times:
        testbed = testbed_at(float(t))
        if t >= next_ident:
            basis = testbed.basis_for(base_setup.tx_device, base_setup.rx_device)
            cfrs = [basis.cfr(c)[mask] for c in schedule]
            model = fit_channel_model(
                array, schedule, cfrs, testbed.frequency_hz
            )
            model_config, _ = predict_and_pick(array, model, MinSnrObjective())
            model_spent += len(schedule)
            next_ident += reoptimize_interval_s
        model_series.append(min_snr(testbed, model_config))
    results["model-based"] = np.array(model_series)
    measurements["model-based"] = model_spent

    # Bandit: one exploratory or exploiting measurement per step; the link
    # then runs on the bandit's current best estimate.
    bandit = EpsilonGreedyBandit(space, epsilon=0.2, forgetting=0.6, seed=seed)
    bandit_series = []
    for t in times:
        testbed = testbed_at(float(t))
        bandit.step(lambda c: min_snr(testbed, c))
        best = bandit.best_known()
        assert best is not None
        bandit_series.append(min_snr(testbed, best))
    results["bandit"] = np.array(bandit_series)
    measurements["bandit"] = bandit.total_pulls

    return TrackingResult(
        times_s=times, min_snr_db=results, measurements=measurements
    )
