"""Multi-user joint optimisation: strategy quality and admission at scale.

The §2 agility-vs-optimisation trade-off, measured: many concurrent user
pairs share one wall-sized programmable surface, and each strategy point
(per-link / joint / hybrid) is scored as user count climbs.  Grounded in
Liaskos et al. (arXiv:1812.11429) — the multi-user multi-objective
configuration problem — at the RFocus array scale, which is exactly what
the delta scorer over stacked per-link bases
(:class:`~repro.core.basis.DeltaEvaluator`) makes tractable.

Two sweeps share one scene:

* **strategy cells** — links × strategy: aggregate and worst-link score,
  sounding cost, distinct configurations, and the switching load the
  resulting packet-timescale schedule implies;
* **admission curve** — links arrive one at a time at a
  :class:`~repro.core.tenancy.MultiTenantController` whose per-link SNR
  floors are each user's solo optimum minus a headroom; the admission
  rate versus user count is the controller's graceful-degradation curve.

Both phases fan across processes via :func:`~repro.experiments.runner`
and are bit-identical at any ``--jobs`` (geometry is deterministic in the
placement seed; searchers and user placements are seeded explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.joint import BasisLink, JointResult
from ..core.objectives import MeanSnrObjective, joint_aggregate
from ..core.tenancy import MultiTenantController
from ..em.geometry import Point
from ..obs.records import RunRecorder
from .common import StudyConfig, StudySetup, build_large_array_setup, used_subcarrier_mask
from .large_array import make_searcher
from .runner import run_parallel

__all__ = [
    "DEFAULT_LINK_COUNTS",
    "DEFAULT_STRATEGIES",
    "AdmissionPoint",
    "MultiUserCell",
    "MultiUserResult",
    "build_user_links",
    "run_multi_user",
]

#: User counts swept by default.
DEFAULT_LINK_COUNTS = (2, 4, 8)

#: The §2 strategy spectrum, agile to static.
DEFAULT_STRATEGIES = ("per-link", "hybrid", "joint")

#: Users are placed uniformly inside a square of this side length centred
#: on the scenario's RX anchor (the same addressing coverage grids use).
USER_SPAN_M = 3.0


@dataclass(frozen=True)
class MultiUserCell:
    """One (user count, strategy) cell of the sweep."""

    num_links: int
    strategy: str
    searcher: str
    searcher_seed: int
    aggregate_db: float
    worst_link_db: float
    num_measurements: int
    num_distinct_configurations: int
    num_switches: int


@dataclass(frozen=True)
class AdmissionPoint:
    """Controller outcome after offering one population of users."""

    num_links: int
    admitted: int
    rejected: int
    reclusters: int
    admission_rate: float
    floor_headroom_db: float
    num_measurements: int


@dataclass(frozen=True)
class MultiUserResult:
    """The full links × strategy sweep plus the admission curve."""

    cells: tuple[MultiUserCell, ...]
    admission: tuple[AdmissionPoint, ...]

    def cell(self, num_links: int, strategy: str) -> MultiUserCell:
        for candidate in self.cells:
            if candidate.num_links == num_links and candidate.strategy == strategy:
                return candidate
        raise KeyError(f"no cell for L={num_links}, strategy={strategy!r}")

    @property
    def link_counts(self) -> tuple[int, ...]:
        seen: list[int] = []
        for cell in self.cells:
            if cell.num_links not in seen:
                seen.append(cell.num_links)
        return tuple(seen)


def build_user_links(
    setup: StudySetup,
    num_links: int,
    placement_seed: int,
    weights: Optional[Sequence[float]] = None,
) -> list[BasisLink]:
    """Basis-backed links for ``num_links`` users sharing the scene's array.

    User receivers are placed by a generator seeded from
    ``(placement_seed, num_links)``, so a population is a deterministic
    value; their bases ride the batched trace path (and the process-wide
    trace cache), one per user, all sharing the array's configuration
    space.
    """
    if num_links <= 0:
        raise ValueError(f"num_links must be positive, got {num_links}")
    rng = np.random.default_rng([placement_seed, num_links, 0x9E77])
    rx0 = setup.rx_device.position
    offsets = rng.uniform(-USER_SPAN_M / 2, USER_SPAN_M / 2, size=(num_links, 2))
    points = [
        Point(rx0.x + float(dx), rx0.y + float(dy)) for dx, dy in offsets
    ]
    bases = setup.testbed.bases_for_points(
        setup.tx_device, points, setup.rx_device.chains[0].antenna
    )
    mask = used_subcarrier_mask()
    if weights is None:
        weights = [1.0] * num_links
    return [
        BasisLink(
            name=f"user{index}",
            evaluator=basis.evaluator(
                MeanSnrObjective(),
                tx_power_dbm=setup.tx_device.tx_power_dbm,
                noise_figure_db=setup.rx_device.noise_figure_db,
                mask=mask,
            ),
            weight=float(weight),
        )
        for index, (basis, weight) in enumerate(zip(bases, weights))
    ]


@dataclass(frozen=True)
class _StrategyTask:
    """One strategy cell's worker payload (picklable value types only)."""

    num_links: int
    strategy: str
    searcher: str
    searcher_seed: int
    placement_seed: int
    num_elements: int
    aggregate: str
    tolerance: float
    config: StudyConfig


@dataclass(frozen=True)
class _AdmissionTask:
    """One admission-curve row's worker payload."""

    num_links: int
    searcher: str
    searcher_seed: int
    placement_seed: int
    num_elements: int
    aggregate: str
    tolerance: float
    floor_headroom_db: float
    config: StudyConfig


def _strategy_task(task: _StrategyTask) -> MultiUserCell:
    from ..core.joint import optimize_hybrid, optimize_joint, optimize_per_link

    setup = build_large_array_setup(
        task.placement_seed, num_elements=task.num_elements, config=task.config
    )
    links = build_user_links(setup, task.num_links, task.placement_seed)
    searcher = make_searcher(task.searcher, task.searcher_seed)
    aggregate = joint_aggregate(task.aggregate)
    result: JointResult
    if task.strategy == "per-link":
        result = optimize_per_link(links, searcher=searcher)
    elif task.strategy == "joint":
        result = optimize_joint(links, searcher=searcher, aggregate=aggregate)
    elif task.strategy == "hybrid":
        result = optimize_hybrid(links, searcher=searcher, tolerance=task.tolerance)
    else:
        raise ValueError(
            f"unknown strategy {task.strategy!r}; expected one of "
            f"{DEFAULT_STRATEGIES}"
        )
    schedule = result.schedule()
    return MultiUserCell(
        num_links=task.num_links,
        strategy=task.strategy,
        searcher=task.searcher,
        searcher_seed=task.searcher_seed,
        aggregate_db=float(result.aggregate_score(links, aggregate=aggregate)),
        worst_link_db=float(result.worst_link_score()),
        num_measurements=int(result.num_measurements),
        num_distinct_configurations=int(result.num_distinct_configurations),
        num_switches=int(schedule.num_switches),
    )


def _admission_task(task: _AdmissionTask) -> AdmissionPoint:
    setup = build_large_array_setup(
        task.placement_seed, num_elements=task.num_elements, config=task.config
    )
    links = build_user_links(setup, task.num_links, task.placement_seed)
    controller = MultiTenantController(
        searcher=make_searcher(task.searcher, task.searcher_seed),
        tolerance=task.tolerance,
        aggregate=joint_aggregate(task.aggregate),
    )
    admitted = rejected = reclusters = 0
    for index, link in enumerate(links):
        # Floor: what this user could get with the array to itself, minus
        # the headroom it is willing to concede to share it.
        solo_searcher = make_searcher(task.searcher, task.searcher_seed + index + 1)
        evaluator = link.evaluator
        solo = solo_searcher.search_basis(
            evaluator.basis,
            evaluator.objective,
            tx_power_dbm=evaluator.tx_power_dbm,
            noise_figure_db=evaluator.noise_figure_db,
            mask=evaluator.mask,
        )
        controller.total_measurements += solo.num_evaluations
        decision = controller.admit(
            link, snr_floor_db=solo.best_score - task.floor_headroom_db
        )
        if decision.admitted:
            admitted += 1
            reclusters += int(decision.reclustered)
        else:
            rejected += 1
    return AdmissionPoint(
        num_links=task.num_links,
        admitted=admitted,
        rejected=rejected,
        reclusters=reclusters,
        admission_rate=admitted / task.num_links,
        floor_headroom_db=task.floor_headroom_db,
        num_measurements=controller.total_measurements,
    )


def run_multi_user(
    link_counts: Sequence[int] = DEFAULT_LINK_COUNTS,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    num_elements: int = 256,
    placement_seed: int = 0,
    searcher: str = "greedy",
    aggregate: str = "mean",
    tolerance: float = 1.0,
    floor_headroom_db: float = 3.0,
    config: StudyConfig = StudyConfig(),
    base_seed: int = 0,
    jobs: Optional[int] = None,
    record_to: Optional[str] = None,
) -> MultiUserResult:
    """Sweep user count × strategy and trace the admission-rate curve.

    ``jobs`` fans both phases' cell axes across processes (``None``/``1``
    serial, ``<= 0`` all CPUs); every cell's searcher seed is derived from
    ``base_seed`` plus its index and user placements from the placement
    seed, so results are bit-identical at any worker count.  ``record_to``
    appends a schema-validated run record to the given JSONL file.
    """
    counts = tuple(int(count) for count in link_counts)
    names = tuple(strategies)
    if not counts or any(count <= 0 for count in counts):
        raise ValueError(f"link_counts must be positive, got {link_counts}")
    make_searcher(searcher, 0)  # validate early, before any tracing
    joint_aggregate(aggregate)
    for name in names:
        if name not in ("per-link", "joint", "hybrid"):
            raise ValueError(
                f"unknown strategy {name!r}; expected per-link, joint or hybrid"
            )
    strategy_tasks = [
        _StrategyTask(
            num_links=count,
            strategy=name,
            searcher=searcher,
            searcher_seed=base_seed + index,
            placement_seed=placement_seed,
            num_elements=num_elements,
            aggregate=aggregate,
            tolerance=tolerance,
            config=config,
        )
        for index, (count, name) in enumerate(
            (count, name) for count in counts for name in names
        )
    ]
    admission_tasks = [
        _AdmissionTask(
            num_links=count,
            searcher=searcher,
            searcher_seed=base_seed + len(strategy_tasks) + 101 * index,
            placement_seed=placement_seed,
            num_elements=num_elements,
            aggregate=aggregate,
            tolerance=tolerance,
            floor_headroom_db=floor_headroom_db,
            config=config,
        )
        for index, count in enumerate(counts)
    ]
    with RunRecorder(
        "multi_user",
        config={
            "link_counts": list(counts),
            "strategies": list(names),
            "num_elements": num_elements,
            "searcher": searcher,
            "aggregate": aggregate,
            "tolerance": tolerance,
            "floor_headroom_db": floor_headroom_db,
            "study": config,
        },
        path=record_to,
        jobs=jobs,
        seeds={"base_seed": base_seed, "placement_seed": placement_seed},
    ) as recorder:
        cells, samples = run_parallel(
            _strategy_task, strategy_tasks, jobs=jobs, collect_obs=True
        )
        recorder.add_worker_samples(samples)
        admission, samples = run_parallel(
            _admission_task, admission_tasks, jobs=jobs, collect_obs=True
        )
        recorder.add_worker_samples(samples)
    return MultiUserResult(cells=tuple(cells), admission=tuple(admission))
