"""RFocus-scale search: SNR gain versus soundings on wall-sized arrays.

The §4.2 space-navigation challenge at the scale the paper gestures at:
"walls coated with elements" put thousands of switched elements in the
space, so the M^N configuration table can never be enumerated (or even
held in memory).  This experiment sweeps element count x searcher over a
wall-sized grid (:func:`~repro.experiments.common.build_large_array_setup`)
and records each scalable searcher's SNR-gain-versus-soundings curve —
the figure of merit for a measurement-budgeted controller — through the
same run-record observability layer as the figure experiments.

All scoring runs on the precomputed channel basis via
:meth:`~repro.core.search.Searcher.search_basis`, so delta-capable
searchers (greedy coordinate descent, RFocus majority voting) pay O(K)
per flip regardless of N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.configuration import ArrayConfiguration
from ..core.objectives import MeanSnrObjective
from ..core.search import (
    GreedyCoordinateDescent,
    RandomSearch,
    RFocusMajoritySearch,
    Searcher,
)
from ..obs.records import RunRecorder
from .common import StudyConfig, build_large_array_setup, used_subcarrier_mask
from .runner import run_parallel

__all__ = [
    "DEFAULT_ELEMENT_COUNTS",
    "DEFAULT_SEARCHERS",
    "LargeArrayCell",
    "LargeArrayResult",
    "make_searcher",
    "run_large_array",
]

#: Element counts swept by default: prototype scale up to an RFocus-scale
#: wall (the RFocus prototype has 3200 elements; 1024 keeps the default
#: run interactive while exercising the same non-enumerable regime).
DEFAULT_ELEMENT_COUNTS = (64, 256, 1024)

#: The scalable searchers compared by default.  ``random`` is accepted too
#: as a budget-matched baseline.
DEFAULT_SEARCHERS = ("greedy", "rfocus")

#: Maximum points kept per gain-versus-soundings curve (downsampled
#: evenly; the final point is always the full-budget result).
TRAJECTORY_POINTS = 128


def make_searcher(name: str, seed: int) -> Searcher:
    """A named searcher for the large-array sweep.

    ``greedy``
        Delta-powered coordinate descent — N*(M-1) soundings per sweep.
    ``rfocus``
        Randomized-perturbation majority voting — soundings independent
        of N (rounds * (perturbations + 1) probes).
    ``random``
        Uniform sampling, budget-matched to the rfocus defaults, as the
        no-structure baseline.
    """
    if name == "greedy":
        return GreedyCoordinateDescent(max_sweeps=4, restarts=1, seed=seed)
    if name == "rfocus":
        return RFocusMajoritySearch(seed=seed)
    if name == "random":
        defaults = RFocusMajoritySearch()
        return RandomSearch(
            budget=defaults.rounds * (defaults.perturbations + 1), seed=seed
        )
    raise ValueError(
        f"unknown searcher {name!r}; expected one of 'greedy', 'rfocus', 'random'"
    )


@dataclass(frozen=True)
class LargeArrayCell:
    """One (element count, searcher) cell of the sweep.

    Attributes
    ----------
    num_elements:
        Array size N for this cell.
    searcher:
        Searcher name (``greedy`` / ``rfocus`` / ``random``).
    searcher_seed:
        The seed the searcher ran with (base seed + cell index).
    baseline_db:
        Mean used-subcarrier SNR of the all-zeros configuration.
    best_db:
        Mean used-subcarrier SNR of the best configuration found.
    soundings:
        Objective evaluations the search spent (its measurement budget).
    trajectory_soundings, trajectory_gain_db:
        The SNR-gain-versus-soundings curve: best-so-far gain over the
        baseline after each recorded sounding, downsampled to at most
        :data:`TRAJECTORY_POINTS` points.
    """

    num_elements: int
    searcher: str
    searcher_seed: int
    baseline_db: float
    best_db: float
    soundings: int
    trajectory_soundings: tuple[int, ...]
    trajectory_gain_db: tuple[float, ...]

    @property
    def gain_db(self) -> float:
        """SNR gain of the found configuration over the all-zeros baseline."""
        return self.best_db - self.baseline_db


@dataclass(frozen=True)
class LargeArrayResult:
    """The full element-count x searcher sweep."""

    cells: tuple[LargeArrayCell, ...]

    def cell(self, num_elements: int, searcher: str) -> LargeArrayCell:
        """The cell for one (N, searcher) pair."""
        for candidate in self.cells:
            if candidate.num_elements == num_elements and candidate.searcher == searcher:
                return candidate
        raise KeyError(f"no cell for N={num_elements}, searcher={searcher!r}")

    @property
    def element_counts(self) -> tuple[int, ...]:
        """The distinct element counts, in sweep order."""
        seen: list[int] = []
        for cell in self.cells:
            if cell.num_elements not in seen:
                seen.append(cell.num_elements)
        return tuple(seen)


@dataclass(frozen=True)
class _LargeArrayTask:
    """One cell's worker payload (picklable value types only)."""

    num_elements: int
    searcher: str
    searcher_seed: int
    placement_seed: int
    config: StudyConfig


def _downsample_trajectory(
    trajectory: Sequence[float], baseline_db: float
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Evenly thin a best-so-far trajectory to TRAJECTORY_POINTS points."""
    total = len(trajectory)
    if total == 0:
        return (), ()
    count = min(TRAJECTORY_POINTS, total)
    indices = np.unique(
        np.round(np.linspace(0, total - 1, count)).astype(int)
    )
    values = np.asarray(trajectory, dtype=float)
    soundings = tuple(int(index) + 1 for index in indices)
    gains = tuple(float(value - baseline_db) for value in values[indices])
    return soundings, gains


def _large_array_task(task: _LargeArrayTask) -> LargeArrayCell:
    """One cell: build the wall array, trace its basis, run the search.

    Deterministic in the task payload alone (geometry is deterministic
    given the placement seed; searchers are seeded explicitly), so
    parallel runs are bit-identical to serial at any worker count.
    """
    setup = build_large_array_setup(
        task.placement_seed, num_elements=task.num_elements, config=task.config
    )
    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    mask = used_subcarrier_mask()
    objective = MeanSnrObjective()
    evaluator = basis.evaluator(
        objective,
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        mask=mask,
    )
    baseline_db = evaluator(
        ArrayConfiguration(tuple([0] * task.num_elements))
    )
    searcher = make_searcher(task.searcher, task.searcher_seed)
    result = searcher.search_basis(
        basis,
        objective,
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        mask=mask,
    )
    soundings, gains = _downsample_trajectory(result.trajectory, baseline_db)
    return LargeArrayCell(
        num_elements=task.num_elements,
        searcher=task.searcher,
        searcher_seed=task.searcher_seed,
        baseline_db=float(baseline_db),
        best_db=float(result.best_score),
        soundings=result.num_evaluations,
        trajectory_soundings=soundings,
        trajectory_gain_db=gains,
    )


def run_large_array(
    element_counts: Sequence[int] = DEFAULT_ELEMENT_COUNTS,
    searchers: Sequence[str] = DEFAULT_SEARCHERS,
    placement_seed: int = 0,
    config: StudyConfig = StudyConfig(),
    base_seed: int = 0,
    jobs: Optional[int] = None,
    record_to: Optional[str] = None,
) -> LargeArrayResult:
    """Sweep element count x searcher on the wall-sized array.

    ``jobs`` fans the (N, searcher) cell axis across processes
    (``None``/``1`` serial, ``<= 0`` all CPUs); each cell's searcher seed
    is ``base_seed + cell index``, so results are bit-identical at any
    worker count.  ``record_to`` appends a schema-validated run record to
    the given JSONL file.
    """
    counts = tuple(int(count) for count in element_counts)
    names = tuple(searchers)
    if not counts or any(count <= 0 for count in counts):
        raise ValueError(f"element_counts must be positive, got {element_counts}")
    for name in names:
        make_searcher(name, 0)  # validate early, before any tracing
    tasks = [
        _LargeArrayTask(
            num_elements=count,
            searcher=name,
            searcher_seed=base_seed + index,
            placement_seed=placement_seed,
            config=config,
        )
        for index, (count, name) in enumerate(
            (count, name) for count in counts for name in names
        )
    ]
    with RunRecorder(
        "large_array",
        config={
            "element_counts": list(counts),
            "searchers": list(names),
            "study": config,
        },
        path=record_to,
        jobs=jobs,
        seeds={"base_seed": base_seed, "placement_seed": placement_seed},
    ) as recorder:
        cells, samples = run_parallel(_large_array_task, tasks, jobs=jobs)
        recorder.add_worker_samples(samples)
    return LargeArrayResult(cells=tuple(cells))
