"""Timing: coherence-time budgets and packet-timescale switching (§2).

"In order for ongoing communication to reap the benefits of the PRESS
array, the latter must perform the above all during the channel coherence
time" — ~80 ms while almost stationary down to ~6 ms at running speed.
"PRESS will very likely reap additional performance benefits from switching
strategies on packet-level timescales of one to two milliseconds."

This module turns those constraints into numbers: how many over-the-air
configuration measurements fit in a coherence window given the control
plane's actuation latency, which search strategy fits the budget, and
whether per-link switching can keep up with a packet schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..constants import ISM_BAND_2G4_HZ
from ..em.channel import coherence_time_s
from .configuration import ArrayConfiguration, ConfigurationSpace
from .basis import MAX_ENUMERABLE_CONFIGS
from .search import (
    ExhaustiveSearch,
    GreedyCoordinateDescent,
    RandomSearch,
    RFocusMajoritySearch,
    Searcher,
    SingleProbeSearch,
)

__all__ = [
    "TimingModel",
    "measurement_budget",
    "pick_searcher",
    "LinkSlot",
    "SwitchingSchedule",
    "packet_timescale_schedule",
]


@dataclass(frozen=True)
class TimingModel:
    """Per-measurement latency budget of the measure->actuate loop.

    Attributes
    ----------
    actuation_latency_s:
        Control-plane time to command the array into a new configuration
        (message transfer + switch settling).  The §3 prototype took ~78 ms
        per configuration (5 s / 64); a wired control plane gets to tens of
        microseconds.
    measurement_time_s:
        Time to sound the channel: one frame (~a few hundred microseconds
        of OFDM symbols) plus CSI extraction.
    decision_overhead_s:
        Controller compute time per iteration.
    """

    actuation_latency_s: float = 100e-6
    measurement_time_s: float = 500e-6
    decision_overhead_s: float = 10e-6

    def __post_init__(self) -> None:
        for name in ("actuation_latency_s", "measurement_time_s", "decision_overhead_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def per_measurement_s(self) -> float:
        """Wall-clock cost of one configuration trial."""
        return (
            self.actuation_latency_s
            + self.measurement_time_s
            + self.decision_overhead_s
        )


def measurement_budget(
    coherence_s: float,
    timing: TimingModel,
    safety_fraction: float = 0.5,
) -> int:
    """Configurations measurable within one coherence window.

    ``safety_fraction`` reserves part of the window so the *chosen*
    configuration still has time to carry useful traffic before the channel
    decorrelates.
    """
    if coherence_s <= 0:
        raise ValueError(f"coherence_s must be positive, got {coherence_s}")
    if not 0.0 < safety_fraction <= 1.0:
        raise ValueError(f"safety_fraction must be in (0, 1], got {safety_fraction}")
    usable = coherence_s * safety_fraction
    if timing.per_measurement_s <= 0:
        return 10**9
    return int(usable / timing.per_measurement_s)


def pick_searcher(
    space: ConfigurationSpace,
    budget: int,
    seed: int = 0,
    current: Optional[ArrayConfiguration] = None,
) -> Searcher:
    """Choose a search strategy that fits a measurement budget.

    * budget >= |space|  -> exhaustive sweep (optimal; what §3.2 does);
    * budget >= one coordinate-descent sweep -> greedy coordinate descent;
    * budget >= 1 -> random sampling of whatever budget remains — except
      on RFocus-scale spaces (> :data:`~repro.core.basis.MAX_ENUMERABLE_CONFIGS`
      configurations) with a budget of at least one round (4 soundings:
      the start, two perturbations and the voted candidate), where
      :class:`RFocusMajoritySearch` sized to the budget replaces blind
      random sampling: its per-element vote extracts N per-element
      decisions from each whole-array sounding, the only strategy that
      makes progress when even one coordinate-descent sweep exceeds the
      budget;
    * budget <= 0 -> keep-current single probe (:class:`SingleProbeSearch`).

    The degenerate last case is not an error: ``measurement_budget``
    legitimately returns 0 whenever the coherence window is smaller than
    one measurement (e.g. sub-GHz ISM actuation at running-speed ~6 ms
    coherence), and the documented composition
    ``pick_searcher(space, measurement_budget(...))`` must degrade
    gracefully in exactly that regime instead of raising.  ``current``
    names the configuration to hold; ``None`` holds the all-zeros one.
    """
    if budget <= 0:
        return SingleProbeSearch(
            indices=None if current is None else tuple(current.indices)
        )
    if budget >= space.size:
        return ExhaustiveSearch()
    sweep_cost = sum(count - 1 for count in space.state_counts) + 1
    if budget >= sweep_cost:
        max_sweeps = max(1, budget // max(sweep_cost, 1))
        return GreedyCoordinateDescent(max_sweeps=min(max_sweeps, 4), seed=seed)
    if space.size > MAX_ENUMERABLE_CONFIGS and budget >= 4:
        # Budget below one greedy sweep on a space too large to enumerate:
        # spend it on majority-voted whole-array perturbations.  The start
        # configuration costs one sounding and each round perturbations + 1
        # (the +1 scores the voted candidate), so the smallest round of two
        # perturbations needs a budget of 4; below that, random sampling
        # is what fits.
        perturbations = min(budget - 2, 24)
        rounds = (budget - 1) // (perturbations + 1)
        return RFocusMajoritySearch(
            rounds=rounds, perturbations=perturbations, seed=seed
        )
    return RandomSearch(budget=budget, seed=seed)


@dataclass(frozen=True)
class LinkSlot:
    """One link's turn in a packet-timescale switching schedule."""

    link_name: str
    start_s: float
    duration_s: float
    configuration_rank: int


@dataclass(frozen=True)
class SwitchingSchedule:
    """A periodic per-link PRESS switching plan.

    Attributes
    ----------
    slots:
        The slots of one period, in time order.
    period_s:
        Schedule period.
    feasible:
        Whether the actuation latency fits inside every inter-slot gap.
    num_switches:
        Array reconfigurations per period: slot boundaries (cyclic, so the
        wrap from the last slot back to the first counts) whose
        configuration ranks differ.  Adjacent slots holding the same
        configuration cost nothing — a joint result switches zero times.
    switching_time_per_period_s:
        Actuation time spent per period (``num_switches`` × actuation
        latency) — the switching load a strategy imposes on the array.
    """

    slots: tuple[LinkSlot, ...]
    period_s: float
    feasible: bool
    num_switches: int = 0
    switching_time_per_period_s: float = 0.0


def packet_timescale_schedule(
    link_names: Sequence[str],
    configuration_ranks: Sequence[int],
    slot_duration_s: float = 1.5e-3,
    timing: TimingModel = TimingModel(),
    guard_fraction: float = 0.1,
) -> SwitchingSchedule:
    """Build a round-robin per-link switching schedule (§2's agile extreme).

    Each link gets a slot of 1-2 ms (the packet-level timescale the paper
    cites) during which the array holds that link's preferred configuration;
    a guard interval at the head of each slot absorbs the actuation latency.
    The schedule is infeasible if actuation cannot complete within the
    guard.

    Parameters
    ----------
    link_names:
        One entry per link sharing the array.
    configuration_ranks:
        The array configuration (as a rank in the configuration space) each
        link wants; must align with ``link_names``.
    slot_duration_s:
        Length of each link's slot.
    timing:
        Control-plane timing model.
    guard_fraction:
        Fraction of the slot reserved for reconfiguration.
    """
    if len(link_names) != len(configuration_ranks):
        raise ValueError(
            f"{len(link_names)} links but {len(configuration_ranks)} configurations"
        )
    if len(link_names) == 0:
        raise ValueError("need at least one link")
    if slot_duration_s <= 0:
        raise ValueError(f"slot_duration_s must be positive, got {slot_duration_s}")
    if not 0.0 < guard_fraction < 1.0:
        raise ValueError(f"guard_fraction must be in (0, 1), got {guard_fraction}")
    guard = slot_duration_s * guard_fraction
    feasible = timing.actuation_latency_s <= guard
    slots = []
    for index, (name, rank) in enumerate(zip(link_names, configuration_ranks)):
        slots.append(
            LinkSlot(
                link_name=name,
                start_s=index * slot_duration_s,
                duration_s=slot_duration_s,
                configuration_rank=int(rank),
            )
        )
    ranks = [int(rank) for rank in configuration_ranks]
    if len(ranks) > 1:
        num_switches = sum(
            1
            for index, rank in enumerate(ranks)
            if rank != ranks[(index + 1) % len(ranks)]
        )
    else:
        num_switches = 0
    return SwitchingSchedule(
        slots=tuple(slots),
        period_s=slot_duration_s * len(link_names),
        feasible=feasible,
        num_switches=num_switches,
        switching_time_per_period_s=num_switches * timing.actuation_latency_s,
    )


def coherence_budget_table(
    timing: TimingModel,
    speeds_mph: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 6.0),
    carrier_hz: float = ISM_BAND_2G4_HZ,
) -> list[dict]:
    """Measurement budgets across the §2 mobility range (for reports)."""
    rows = []
    for speed in speeds_mph:
        coherence = coherence_time_s(speed, carrier_hz)
        rows.append(
            {
                "speed_mph": speed,
                "coherence_ms": coherence * 1e3,
                "budget": measurement_budget(coherence, timing),
            }
        )
    return rows
