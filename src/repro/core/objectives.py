"""Objective functions the PRESS controller optimises.

Each of §1's three applications maps to an objective over the measured
channel:

* link enhancement -> raise the worst subcarrier / remove nulls
  (:class:`MinSnrObjective`, :class:`FlatnessObjective`,
  :class:`ThroughputObjective`);
* network harmonization / spatial partitioning -> shape per-sub-band gains
  (:class:`SubbandContrastObjective`, :class:`InterferenceRatioObjective`);
* large-MIMO conditioning -> lower the channel-matrix condition number
  (:class:`ConditionNumberObjective`, :class:`CapacityObjective`).

All objectives are "higher is better" callables so every search algorithm
in :mod:`repro.core.search` can maximise them interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..mimo.channel_matrix import condition_numbers_db
from ..phy.rates import expected_throughput_mbps
from ..phy.snr import effective_snr_db

__all__ = [
    "MinSnrObjective",
    "MeanSnrObjective",
    "FlatnessObjective",
    "EffectiveSnrObjective",
    "ThroughputObjective",
    "SubbandContrastObjective",
    "InterferenceRatioObjective",
    "ConditionNumberObjective",
    "CapacityObjective",
    "WeightedObjective",
    "TargetCfrObjective",
    "LinkAggregate",
    "WeightedMeanAggregate",
    "WorstLinkAggregate",
    "LexicographicAggregate",
    "joint_aggregate",
    "JOINT_AGGREGATE_NAMES",
]


@dataclass(frozen=True)
class MinSnrObjective:
    """Maximise the minimum per-subcarrier SNR (dB) — kill the deepest null."""

    def __call__(self, snr_db: np.ndarray) -> float:
        return float(np.min(np.asarray(snr_db, dtype=float)))


@dataclass(frozen=True)
class MeanSnrObjective:
    """Maximise the mean per-subcarrier SNR (dB)."""

    def __call__(self, snr_db: np.ndarray) -> float:
        return float(np.mean(np.asarray(snr_db, dtype=float)))


@dataclass(frozen=True)
class FlatnessObjective:
    """Maximise spectral flatness: negative standard deviation of SNR (dB).

    A "flatter" channel is the §1 goal — OFDM "could offer a greater bit
    rate" over it.
    """

    def __call__(self, snr_db: np.ndarray) -> float:
        return float(-np.std(np.asarray(snr_db, dtype=float)))


@dataclass(frozen=True)
class EffectiveSnrObjective:
    """Maximise the capacity-equivalent effective SNR (dB)."""

    def __call__(self, snr_db: np.ndarray) -> float:
        return effective_snr_db(np.asarray(snr_db, dtype=float))


@dataclass(frozen=True)
class ThroughputObjective:
    """Maximise predicted goodput (Mbps) through the MCS ladder."""

    frame_bits: int = 8000

    def __call__(self, snr_db: np.ndarray) -> float:
        return expected_throughput_mbps(
            np.asarray(snr_db, dtype=float), frame_bits=self.frame_bits
        )


@dataclass(frozen=True)
class SubbandContrastObjective:
    """Favour one half of the band over the other (Figure 7 harmonization).

    Score = mean SNR over the favoured half minus mean SNR over the other
    half, so maximising it produces exactly the "clear and opposite
    frequency selectivity" of §3.2.2.

    Attributes
    ----------
    favor_upper:
        Whether the upper half-band is the one to enhance.
    """

    favor_upper: bool = False

    def __call__(self, snr_db: np.ndarray) -> float:
        snr = np.asarray(snr_db, dtype=float)
        half = snr.size // 2
        lower, upper = snr[:half], snr[half:]
        contrast = float(np.mean(upper) - np.mean(lower))
        return contrast if self.favor_upper else -contrast


@dataclass(frozen=True)
class InterferenceRatioObjective:
    """Maximise signal-to-interference contrast across two channels.

    For the §1 "network harmonization" picture: strengthen the
    communication channel while weakening the interference channel.  The
    two channels' per-subcarrier SNRs are concatenated by the caller into a
    tuple; the score is mean(signal) - weight * mean(interference).
    """

    interference_weight: float = 1.0

    def __call__(self, snrs: tuple[np.ndarray, np.ndarray]) -> float:
        signal, interference = snrs
        return float(
            np.mean(np.asarray(signal, dtype=float))
            - self.interference_weight * np.mean(np.asarray(interference, dtype=float))
        )


@dataclass(frozen=True)
class ConditionNumberObjective:
    """Minimise the mean per-subcarrier MIMO condition number (dB).

    Called with a stack of per-subcarrier channel matrices
    (subcarriers, rx, tx); returns the negated mean condition number so
    higher is better.
    """

    def __call__(self, matrices: np.ndarray) -> float:
        return float(-np.mean(condition_numbers_db(np.asarray(matrices, dtype=complex))))


@dataclass(frozen=True)
class CapacityObjective:
    """Maximise mean equal-power MIMO capacity at a reference SNR."""

    snr_db: float = 20.0

    def __call__(self, matrices: np.ndarray) -> float:
        from ..mimo.capacity import ofdm_capacity_bits

        matrices = np.asarray(matrices, dtype=complex)
        # Normalise so conditioning, not raw gain, drives the score.
        scale = np.sqrt(np.mean(np.abs(matrices) ** 2))
        if scale == 0:
            return 0.0
        return ofdm_capacity_bits(matrices / scale, 10.0 ** (self.snr_db / 10.0))


@dataclass(frozen=True)
class TargetCfrObjective:
    """Minimise distance to a desired channel frequency response.

    The forward form of §2's inverse problem: score a configuration by how
    closely its complex CFR matches the target (negative mean squared
    error, optionally magnitude-only).
    """

    target_cfr: tuple[complex, ...]
    magnitude_only: bool = False

    def __call__(self, cfr: np.ndarray) -> float:
        cfr = np.asarray(cfr, dtype=complex)
        target = np.asarray(self.target_cfr, dtype=complex)
        if cfr.shape != target.shape:
            raise ValueError(f"CFR shape {cfr.shape} != target {target.shape}")
        if self.magnitude_only:
            error = np.abs(cfr) - np.abs(target)
            return float(-np.mean(error**2))
        return float(-np.mean(np.abs(cfr - target) ** 2))


#: Protocol of the joint multi-link scoring modes: an aggregate maps the
#: per-link score vector (shape ``(L,)``) and the per-link weights (shape
#: ``(L,)``, all positive) to one scalar, higher is better.  Used by
#: :class:`repro.core.basis.DeltaEvaluator` and
#: :func:`repro.core.joint.optimize_joint`.
LinkAggregate = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class WeightedMeanAggregate:
    """Weighted mean of per-link scores (the utilitarian default).

    Matches :meth:`repro.core.joint.JointResult.aggregate_score`, so joint
    optimisation under this aggregate maximises exactly the quantity the
    strategy comparison reports.
    """

    def __call__(self, scores: np.ndarray, weights: np.ndarray) -> float:
        scores = np.asarray(scores, dtype=float)
        weights = np.asarray(weights, dtype=float)
        total = float(np.sum(weights))
        if total <= 0.0:
            raise ValueError(
                f"aggregate weights must sum to a positive total, got {total}"
            )
        return float(np.dot(weights, scores) / total)


@dataclass(frozen=True)
class WorstLinkAggregate:
    """Max-min fairness: the worst link's score drives the joint objective.

    Weights are ignored — a floor is a floor regardless of how much a
    tenant pays for it.  Maximising this aggregate lifts the weakest link,
    the Pareto corner of the §2 joint-optimisation trade-off.
    """

    def __call__(self, scores: np.ndarray, weights: np.ndarray) -> float:
        return float(np.min(np.asarray(scores, dtype=float)))


@dataclass(frozen=True)
class LexicographicAggregate:
    """Leximin scalarisation: worst link first, then second-worst, ...

    Per-link scores are sorted ascending and folded with geometrically
    decaying coefficients ``epsilon**i``, so the worst link dominates and
    each successive rank only breaks ties among configurations whose
    worse-ranked links are (nearly) equal.  ``epsilon`` must be small
    relative to the score differences that matter; the default trades a
    strict lexicographic order for a smooth, searchable scalar.
    """

    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    def __call__(self, scores: np.ndarray, weights: np.ndarray) -> float:
        ordered = np.sort(np.asarray(scores, dtype=float))
        coefficients = self.epsilon ** np.arange(ordered.size)
        return float(np.dot(coefficients, ordered))


#: Names accepted by :func:`joint_aggregate` (the serve/CLI spelling of the
#: scoring modes).
JOINT_AGGREGATE_NAMES = ("mean", "worst", "lexicographic")


def joint_aggregate(name: str) -> LinkAggregate:
    """Look up a joint scoring mode by its serve/CLI name."""
    if name == "mean":
        return WeightedMeanAggregate()
    if name == "worst":
        return WorstLinkAggregate()
    if name == "lexicographic":
        return LexicographicAggregate()
    raise ValueError(
        f"unknown joint aggregate {name!r}; expected one of {JOINT_AGGREGATE_NAMES}"
    )


@dataclass(frozen=True)
class WeightedObjective:
    """A weighted sum of objectives evaluated on the same measurement."""

    objectives: tuple[Callable, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.objectives) != len(self.weights):
            raise ValueError(
                f"{len(self.objectives)} objectives but {len(self.weights)} weights"
            )
        if len(self.objectives) == 0:
            raise ValueError("need at least one objective")

    def __call__(self, measurement) -> float:
        return float(
            sum(
                weight * objective(measurement)
                for objective, weight in zip(self.objectives, self.weights)
            )
        )
