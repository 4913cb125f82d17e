"""Control-loop robustness sweep: link type x loss probability x mobility.

§2 frames PRESS's binding constraint as finishing measure -> search ->
actuate inside the channel coherence window over a control plane that is
itself lossy and latency-bound.  This experiment makes that constraint
measurable: for each (control medium, per-message loss probability,
mobility speed) cell, a :class:`~repro.core.controller.PressController`
runs several closed optimisation rounds through a real
:class:`~repro.control.protocol.ControlPlane` over the §3 lab scene, and
the cell records what the control plane did to the loop — retries, lost
messages, failed/degraded actuations, stale rounds, the objective the
link actually achieved.

All loss sampling draws from ``SeedSequence``-derived per-cell streams,
so the sweep is bit-identical at any ``--jobs`` worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..control.links import (
    ControlLink,
    sub_ghz_ism_link,
    ultrasound_link,
    wifi_inband_link,
    wired_bus_link,
)
from ..control.protocol import ControlPlane
from ..core.controller import PressController
from ..core.objectives import MinSnrObjective
from ..obs.records import RunRecorder, current_sample
from .common import StudyConfig, build_nlos_setup, used_subcarrier_mask
from .runner import derive_seeds, merged_telemetry, run_parallel

__all__ = [
    "ControlRobustnessCell",
    "ControlRobustnessResult",
    "control_link_by_name",
    "run_control_robustness",
]

#: Media swept by default, in the §4.2 candidate order.
DEFAULT_LINKS = ("wired", "sub-ghz", "wifi", "ultrasound")


def control_link_by_name(name: str, loss_probability: float) -> ControlLink:
    """One of the §4.2 candidate media, at a given per-message loss rate.

    The wired bus is lossless by construction; the sweep overrides its
    loss so every medium sees the same fault axis (a noisy shared bus is
    a real deployment failure mode too).
    """
    if name == "wired":
        return replace(wired_bus_link(), loss_probability=loss_probability)
    if name == "sub-ghz":
        return sub_ghz_ism_link(loss_probability=loss_probability)
    if name == "wifi":
        return wifi_inband_link(loss_probability=loss_probability)
    if name == "ultrasound":
        return ultrasound_link(loss_probability=loss_probability)
    raise ValueError(
        f"unknown control link {name!r}; expected one of {DEFAULT_LINKS}"
    )


@dataclass(frozen=True)
class ControlRobustnessCell:
    """Closed-loop statistics of one (link, loss, speed) sweep cell.

    Attributes
    ----------
    link_name, loss_probability, speed_mph:
        The cell's coordinates.
    rounds:
        Optimisation rounds run.
    final_score:
        Objective (worst-subcarrier SNR, dB) of the configuration the
        array physically holds after the last round — partial actuations
        and rollbacks included, which is the point.
    best_round_score:
        Best per-round winning score seen across the sweep.
    total_measurements:
        Over-the-air soundings spent by the searches.
    total_retries:
        Command retransmissions across all rounds.
    total_lost_messages:
        Control messages (commands + acks) lost across all rounds.
    failed_actuations:
        Actuations that exhausted their retry/deadline budget.
    degraded_rounds:
        Rounds that ended in any degradation mode (zero-budget hold,
        rollback, partial state).
    stale_rounds:
        Rounds that overran the coherence window.
    mean_round_elapsed_s:
        Mean wall-clock per round (search + adoption, protocol time).
    coherence_s:
        The coherence window the rounds were budgeted against.
    """

    link_name: str
    loss_probability: float
    speed_mph: float
    rounds: int
    final_score: float
    best_round_score: float
    total_measurements: int
    total_retries: int
    total_lost_messages: int
    failed_actuations: int
    degraded_rounds: int
    stale_rounds: int
    mean_round_elapsed_s: float
    coherence_s: float


@dataclass(frozen=True)
class ControlRobustnessResult:
    """The full sweep plus run-level counters.

    ``cells`` is the deterministic payload (bit-identical at any worker
    count); ``telemetry`` carries the run's merged trace-cache counters —
    parent *and* worker processes, via the runner's observability samples
    (:func:`repro.experiments.runner.merged_telemetry`) — and is
    observability data only.
    """

    cells: tuple[ControlRobustnessCell, ...]
    telemetry: dict

    def cell(
        self, link_name: str, loss_probability: float, speed_mph: float
    ) -> ControlRobustnessCell:
        """Look one cell up by its coordinates."""
        for cell in self.cells:
            if (
                cell.link_name == link_name
                and cell.loss_probability == loss_probability
                and cell.speed_mph == speed_mph
            ):
                return cell
        raise KeyError((link_name, loss_probability, speed_mph))


def _robustness_task(
    task: tuple[str, float, float, int, int, StudyConfig, int, np.random.SeedSequence],
) -> ControlRobustnessCell:
    """One sweep cell: a fresh closed loop over one seeded loss stream.

    Everything the cell computes depends only on the task payload — the
    scene comes from ``placement_seed``, the searches are internally
    seeded, and all control-plane losses draw from the cell's own
    ``SeedSequence`` child — so execution order and worker count cannot
    change the result.
    """
    (
        link_name,
        loss,
        speed,
        rounds,
        placement_seed,
        config,
        maintenance_interval,
        seed_seq,
    ) = task
    setup = build_nlos_setup(placement_seed, config)
    mask = used_subcarrier_mask()
    measure = setup.testbed.snr_function(setup.tx_device, setup.rx_device, mask)
    measure_cfr = setup.testbed.basis_for(setup.tx_device, setup.rx_device).cfr
    plane = ControlPlane(
        link=control_link_by_name(link_name, loss),
        num_elements=setup.array.num_elements,
        max_retries=6,
    )
    controller = PressController(
        setup.array,
        measure,
        MinSnrObjective(),
        control_plane=plane,
        rng=np.random.default_rng(seed_seq),
        maintenance_interval=maintenance_interval,
        measure_cfr=measure_cfr if maintenance_interval > 0 else None,
    )
    decisions = [controller.optimize(speed_mph=speed) for _ in range(rounds)]
    records = [d.telemetry for d in decisions]
    final_score = float(
        MinSnrObjective()(measure(controller.current_configuration))
    )
    return ControlRobustnessCell(
        link_name=link_name,
        loss_probability=loss,
        speed_mph=speed,
        rounds=rounds,
        final_score=final_score,
        best_round_score=max(t.best_score for t in records),
        total_measurements=sum(t.num_evaluations for t in records),
        total_retries=sum(t.retries for t in records),
        total_lost_messages=sum(t.lost_messages for t in records),
        failed_actuations=sum(t.failed_actuations for t in records),
        degraded_rounds=sum(1 for t in records if t.degraded),
        stale_rounds=sum(1 for t in records if t.stale),
        mean_round_elapsed_s=float(
            np.mean([d.elapsed_s for d in decisions])
        ),
        coherence_s=decisions[-1].coherence_s,
    )


def run_control_robustness(
    links: Sequence[str] = DEFAULT_LINKS,
    loss_probabilities: Sequence[float] = (0.0, 0.05, 0.2),
    speeds_mph: Sequence[float] = (0.5, 6.0),
    rounds: int = 3,
    placement_seed: int = 2,
    config: StudyConfig = StudyConfig(),
    maintenance_interval: int = 2,
    base_seed: int = 0,
    jobs: Optional[int] = None,
    record_to: Optional[str] = None,
) -> ControlRobustnessResult:
    """Sweep link type x loss probability x mobility speed.

    Each cell runs ``rounds`` closed measure -> search -> actuate rounds
    over its own ``SeedSequence``-derived loss stream.  ``jobs`` fans the
    cell axis across processes (``None``/``1`` serial, ``<= 0`` all
    CPUs); ``cells`` are bit-identical at any value.  ``record_to``
    appends a schema-validated run record (config, seeds, merged metrics,
    span summaries) to the given JSONL file.
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if not links:
        raise ValueError("need at least one link")
    if not loss_probabilities or not speeds_mph:
        raise ValueError("need at least one loss probability and one speed")
    for name in links:
        control_link_by_name(name, 0.0)  # validate names before fanning out
    coordinates = [
        (link_name, float(loss), float(speed))
        for link_name in links
        for loss in loss_probabilities
        for speed in speeds_mph
    ]
    seeds = derive_seeds(base_seed, len(coordinates))
    tasks = [
        (
            link_name,
            loss,
            speed,
            rounds,
            placement_seed,
            config,
            maintenance_interval,
            seed_seq,
        )
        for (link_name, loss, speed), seed_seq in zip(coordinates, seeds)
    ]
    with RunRecorder(
        "control_robustness",
        config={
            "links": list(links),
            "loss_probabilities": [float(p) for p in loss_probabilities],
            "speeds_mph": [float(s) for s in speeds_mph],
            "rounds": rounds,
            "maintenance_interval": maintenance_interval,
            "study": config,
        },
        path=record_to,
        jobs=jobs,
        seeds={"base_seed": base_seed, "placement_seed": placement_seed},
    ) as recorder:
        since = current_sample()
        cells, samples = run_parallel(_robustness_task, tasks, jobs=jobs)
        recorder.add_worker_samples(samples)
        telemetry = merged_telemetry(samples, since=since)
    return ControlRobustnessResult(cells=tuple(cells), telemetry=telemetry)
