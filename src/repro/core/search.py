"""Search strategies over the PRESS configuration space.

§4.2 ("Navigating the search space"): "With N PRESS elements, each having M
possible reflection coefficients, enumerating the M^N possibilities in the
search space for the optimal configuration becomes impractical."  The
prototype's 64-configuration space is exhaustively enumerable; deployments
are not.  This module implements the exhaustive baseline and the pruning
heuristics the paper gestures at, all against a common interface: a
``score(configuration) -> float`` callable (higher is better), with every
call counted — because over-the-air channel measurements are the scarce
resource under the coherence-time budget (§2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, Sequence

import numpy as np

from ..obs.metrics import counter_handle
from .configuration import ArrayConfiguration, ConfigurationSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .basis import ChannelBasis

__all__ = [
    "SearchResult",
    "Scorer",
    "CountingScore",
    "Searcher",
    "ExhaustiveSearch",
    "SingleProbeSearch",
    "RandomSearch",
    "GreedyCoordinateDescent",
    "RFocusMajoritySearch",
    "SimulatedAnnealing",
    "GeneticSearch",
]

ScoreFunction = Callable[[ArrayConfiguration], float]

_FLIPS = counter_handle("search.flips")
_ROUNDS = counter_handle("search.rounds")


@dataclass
class SearchResult:
    """Outcome of a configuration search.

    Attributes
    ----------
    best:
        Best configuration found.
    best_score:
        Its objective value.
    num_evaluations:
        Number of ``score`` calls — i.e. over-the-air measurements used.
    trajectory:
        Best-so-far score after each evaluation (for convergence plots).
    """

    best: ArrayConfiguration
    best_score: float
    num_evaluations: int
    trajectory: list[float] = field(default_factory=list)


class Scorer(Protocol):
    """The flip/revert/commit protocol greedy descent and RFocus run on.

    Two implementations: :class:`~repro.core.basis.DeltaEvaluator` scores
    by O(K·L) delta updates over a channel basis, and
    :class:`CountingScore` scores whole configurations through a
    callback, so measurement-backed controllers run the same search
    bodies.  ``num_scores`` counts soundings and ``trajectory`` holds the
    best-so-far score after each one.
    """

    num_scores: int
    trajectory: list[float]

    @property
    def space(self) -> ConfigurationSpace: ...

    @property
    def configuration(self) -> ArrayConfiguration: ...

    def set_configuration(self, configuration: ArrayConfiguration) -> float: ...

    def flip_many(self, elements: Sequence[int], states: Sequence[int]) -> float: ...

    def scores_for_element(self, element: int) -> np.ndarray: ...

    def adopt(self, element: int, state: int) -> float: ...

    def revert(self) -> float: ...

    def commit(self) -> float: ...


class CountingScore:
    """Wraps a score function, counting and memoising evaluations.

    Memoisation reflects reality: a controller that has already measured a
    configuration within the coherence time need not measure it again.

    Called with a configuration it is a plain score function.  It also
    implements the :class:`Scorer` protocol over a working configuration
    that starts all-zeros, scoring each configuration the protocol visits
    as a whole — so greedy descent and RFocus run one body against a
    channel basis and against live measurements.
    """

    def __init__(self, score: ScoreFunction, space: ConfigurationSpace) -> None:
        self._score = score
        self._cache: dict[tuple[int, ...], float] = {}
        self.num_scores = 0
        self.trajectory: list[float] = []
        self._best = -math.inf
        self.space = space
        self._indices = np.zeros(space.num_elements, dtype=np.intp)
        self._committed = self._indices.copy()

    def __call__(self, configuration: ArrayConfiguration) -> float:
        key = configuration.indices
        if key in self._cache:
            return self._cache[key]
        value = float(self._score(configuration))
        self._cache[key] = value
        self.num_scores += 1
        self._best = max(self._best, value)
        self.trajectory.append(self._best)
        return value

    @property
    def configuration(self) -> ArrayConfiguration:
        return ArrayConfiguration(tuple(int(i) for i in self._indices))

    @property
    def score(self) -> float:
        """Score of the working configuration (measured once, then memoised)."""
        return self(self.configuration)

    def set_configuration(self, configuration: ArrayConfiguration) -> float:
        self.space.validate(configuration)
        self._indices = np.array(configuration.indices, dtype=np.intp)
        return self.score

    def flip_many(self, elements: Sequence[int], states: Sequence[int]) -> float:
        self._indices[np.asarray(elements, dtype=np.intp)] = states
        return self.score

    def scores_for_element(self, element: int) -> np.ndarray:
        held = self._indices[element]
        scores = []
        for state in range(self.space.state_counts[element]):
            self._indices[element] = state
            scores.append(self.score)
        self._indices[element] = held
        return np.array(scores)

    def adopt(self, element: int, state: int) -> float:
        self._indices[element] = state
        return self.commit()

    def revert(self) -> float:
        self._indices = self._committed.copy()
        return self.score

    def commit(self) -> float:
        self._committed = self._indices.copy()
        return self.score


@dataclass(frozen=True)
class Searcher:
    """Base class: concrete searchers implement :meth:`run`."""

    def search(self, space: ConfigurationSpace, score: ScoreFunction) -> SearchResult:
        """Run the search with evaluation counting and memoisation."""
        return self.search_scorer(CountingScore(score, space))

    def search_basis(
        self,
        basis: "ChannelBasis",
        objective: Callable[[np.ndarray], float],
        tx_power_dbm: float = 15.0,
        noise_figure_db: float = 7.0,
        mask: Optional[np.ndarray] = None,
    ) -> SearchResult:
        """Run the search against a precomputed channel basis.

        Every objective evaluation becomes an O(K) numpy gather + sum over
        the basis state tensor (zero re-tracing), so all searchers —
        exhaustive, greedy, annealing, genetic, ... — run at numpy speed.
        Works with any objective over per-subcarrier SNR (dB), exactly as
        the measurement-backed score functions do.

        Searchers written against the :class:`Scorer` protocol
        (``uses_delta``: greedy descent, RFocus) run here on a
        :class:`~repro.core.basis.DeltaEvaluator`, scoring configurations
        by O(K) per-element delta updates — per-flip cost independent of
        N — instead of re-summing all N element contributions per
        candidate.  Through :meth:`search` the same bodies run on
        :class:`CountingScore`, so controllers driving real measurements
        share them.

        **Reentrancy.** Every call builds its own evaluator (and delta
        scorer) over the immutable basis arrays; no state is shared
        between calls beyond the searcher's constructor parameters.
        Seeded searchers draw from the RNG created at construction, so
        one *instance* is not safely shareable across concurrent calls —
        callers that serve searches concurrently (the serving layer, the
        parallel runner) construct a fresh searcher per request via
        :func:`make_searcher` and get deterministic, isolated runs.
        """
        evaluator = basis.evaluator(
            objective,
            tx_power_dbm=tx_power_dbm,
            noise_figure_db=noise_figure_db,
            mask=mask,
        )
        if self.uses_delta:
            return self.search_scorer(evaluator.delta())
        return self.search(basis.space, evaluator)

    def search_scorer(self, scorer: Any) -> SearchResult:
        """Run the search on a ready scorer and report its soundings.

        ``scorer`` is a :class:`CountingScore`, or for ``uses_delta``
        searchers any :class:`Scorer` — such as the multi-link
        :class:`~repro.core.basis.DeltaEvaluator` of
        :func:`~repro.core.joint.optimize_joint`.
        """
        best, best_score = self.run(scorer.space, scorer)
        return SearchResult(
            best=best,
            best_score=best_score,
            num_evaluations=scorer.num_scores,
            trajectory=scorer.trajectory,
        )

    #: Searchers whose :meth:`run` only uses the :class:`Scorer` protocol
    #: set this true; :meth:`search_basis` then scores with a
    #: :class:`~repro.core.basis.DeltaEvaluator`.
    uses_delta = False

    def run(
        self, space: ConfigurationSpace, score: Any
    ) -> tuple[ArrayConfiguration, float]:
        """Search ``space``; ``score`` is the scorer of :meth:`search_scorer`."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExhaustiveSearch(Searcher):
    """Measure every configuration (the §3.2 sweep; optimal but O(M^N))."""

    def run(
        self, space: ConfigurationSpace, score: ScoreFunction
    ) -> tuple[ArrayConfiguration, float]:
        best: Optional[ArrayConfiguration] = None
        best_score = -math.inf
        for configuration in space.all_configurations():
            value = score(configuration)
            if value > best_score:
                best, best_score = configuration, value
        assert best is not None  # space is never empty
        return best, best_score


@dataclass(frozen=True)
class SingleProbeSearch(Searcher):
    """The degenerate budget strategy: keep (and measure) one configuration.

    When the coherence window is smaller than a single measurement —
    §2's running-speed regime over a slow control plane — there is no
    budget to explore.  The only sound move is to keep the current
    configuration and spend the one affordable sounding confirming its
    score, so the controller still tracks the objective trajectory without
    ever raising.  ``indices=None`` probes the all-zeros configuration.
    """

    indices: Optional[tuple[int, ...]] = None

    def run(
        self, space: ConfigurationSpace, score: ScoreFunction
    ) -> tuple[ArrayConfiguration, float]:
        if self.indices is None:
            probe = ArrayConfiguration(tuple([0] * space.num_elements))
        else:
            probe = ArrayConfiguration(tuple(self.indices))
        space.validate(probe)
        return probe, score(probe)


@dataclass(frozen=True)
class RandomSearch(Searcher):
    """Uniformly sample a measurement budget's worth of configurations."""

    budget: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")

    def run(
        self, space: ConfigurationSpace, score: ScoreFunction
    ) -> tuple[ArrayConfiguration, float]:
        rng = np.random.default_rng(self.seed)
        best: Optional[ArrayConfiguration] = None
        best_score = -math.inf
        for _ in range(self.budget):
            configuration = space.random_configuration(rng)
            value = score(configuration)
            if value > best_score:
                best, best_score = configuration, value
        assert best is not None
        return best, best_score


@dataclass(frozen=True)
class GreedyCoordinateDescent(Searcher):
    """Optimise one element at a time, sweeping until a fixed point.

    Uses N*(M-1) measurements per sweep instead of M^N — the natural
    "focus the search" heuristic for a switch-per-element architecture.
    Random restarts escape poor local optima.

    The body is written once, against the :class:`Scorer` protocol.
    Against a channel basis (:meth:`Searcher.search_basis`) it runs on a
    :class:`~repro.core.basis.DeltaEvaluator`: each element's M candidate
    states are scored in one vectorized batch from the running element
    sum, so a full sweep costs O(N*M*K) total instead of O(N^2*M*K) —
    per-candidate cost independent of array size.  Through
    :meth:`Searcher.search` it runs on measured whole configurations.
    """

    max_sweeps: int = 4
    restarts: int = 1
    seed: int = 0

    uses_delta = True

    def __post_init__(self) -> None:
        if self.max_sweeps <= 0:
            raise ValueError(f"max_sweeps must be positive, got {self.max_sweeps}")
        if self.restarts <= 0:
            raise ValueError(f"restarts must be positive, got {self.restarts}")

    def run(
        self, space: ConfigurationSpace, score: Scorer
    ) -> tuple[ArrayConfiguration, float]:
        """Coordinate descent over the scorer protocol.

        Each element's M candidate states are scored in one
        :meth:`~Scorer.scores_for_element` scan; the element moves to the
        best strictly-improving state (first index wins ties), adopted
        without a second sounding.  The first restart starts from the
        scorer's working configuration (all-zeros as built by
        :meth:`Searcher.search` and :meth:`Searcher.search_basis`), later
        ones from random configurations.  One sweep costs N*(M-1)
        soundings.
        """
        rng = np.random.default_rng(self.seed)
        best: Optional[ArrayConfiguration] = None
        best_score = -math.inf
        for restart in range(self.restarts):
            if restart > 0:
                score.set_configuration(space.random_configuration(rng))
            current_score = score.commit()
            held = list(score.configuration.indices)
            for _ in range(self.max_sweeps):
                _ROUNDS.inc()
                improved = False
                for element in range(space.num_elements):
                    scores = score.scores_for_element(element)
                    candidate = int(np.argmax(scores))
                    if candidate != held[element] and scores[candidate] > current_score:
                        current_score = score.adopt(element, candidate)
                        held[element] = candidate
                        _FLIPS.inc()
                        improved = True
                if not improved:
                    break
            if current_score > best_score:
                best, best_score = score.configuration, current_score
        assert best is not None
        return best, best_score


@dataclass(frozen=True)
class RFocusMajoritySearch(Searcher):
    """Randomized perturbation + per-element majority voting (RFocus).

    The search RFocus (arXiv:1905.05130) runs on ~3,000-element surfaces:
    each round draws random multi-element perturbations of the current
    configuration, scores each whole perturbation with a single sounding,
    and then each element "votes" — it moves to the state whose probes
    averaged the highest score.  No per-element measurement is ever taken,
    so a round costs ``perturbations`` soundings regardless of N, and the
    per-element statistics converge because every element's states are
    (randomly) exercised across the batch.

    The body is written once, against the :class:`Scorer` protocol, so it
    runs on a channel basis (delta-scored, via :meth:`Searcher.search_basis`)
    and on measured whole configurations (via :meth:`Searcher.search`)
    alike.  The candidate configuration produced by a vote is adopted only
    if it actually improves the committed score, otherwise the round is
    rolled back and ``patience`` counts down to early exit; a vote that
    changes no element costs no sounding and also counts down.

    Parameters
    ----------
    rounds:
        Maximum voting rounds.
    perturbations:
        Random probes scored per round (1 sounding each).
    flip_fraction:
        Expected fraction of elements randomized per probe.
    patience:
        Consecutive non-improving rounds tolerated before stopping.
    """

    rounds: int = 12
    perturbations: int = 24
    flip_fraction: float = 0.5
    patience: int = 2
    seed: int = 0

    uses_delta = True

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        if self.perturbations <= 0:
            raise ValueError(
                f"perturbations must be positive, got {self.perturbations}"
            )
        if not 0.0 < self.flip_fraction <= 1.0:
            raise ValueError(
                f"flip_fraction must be in (0, 1], got {self.flip_fraction}"
            )
        if self.patience <= 0:
            raise ValueError(f"patience must be positive, got {self.patience}")

    def run(
        self, space: ConfigurationSpace, score: Scorer
    ) -> tuple[ArrayConfiguration, float]:
        """Perturb-and-vote rounds over the scorer protocol.

        Starts from the scorer's working configuration (all-zeros as built
        by :meth:`Searcher.search` and :meth:`Searcher.search_basis`).  A
        round costs ``perturbations`` soundings, plus one for the voted
        configuration unless the vote changes no element.
        """
        rng = np.random.default_rng(self.seed)
        num_elements = space.num_elements
        state_counts = np.array(space.state_counts, dtype=np.intp)
        max_states = int(state_counts.max())
        current_score = score.commit()
        current = np.array(score.configuration.indices, dtype=np.intp)
        stale = 0
        rows = np.arange(num_elements)
        for _ in range(self.rounds):
            _ROUNDS.inc()
            score_sums = np.zeros((num_elements, max_states))
            probe_counts = np.zeros((num_elements, max_states))
            for _ in range(self.perturbations):
                mask = rng.random(num_elements) < self.flip_fraction
                random_states = rng.integers(0, state_counts)
                probe = np.where(mask, random_states, current)
                value = score.flip_many(rows[mask], random_states[mask])
                score_sums[rows, probe] += value
                probe_counts[rows, probe] += 1.0
                score.revert()
            # Majority vote: each element independently adopts the state
            # whose probes scored best on average (unsampled states and
            # index padding past an element's state count never win).
            sampled = probe_counts > 0
            means = np.full((num_elements, max_states), -math.inf)
            means[sampled] = score_sums[sampled] / probe_counts[sampled]
            voted = np.argmax(means, axis=1)
            changed = voted != current
            if np.any(changed):
                value = score.flip_many(rows[changed], voted[changed])
                if value > current_score:
                    score.commit()
                    _FLIPS.inc(int(changed.sum()))
                    current = voted
                    current_score = value
                    stale = 0
                    continue
                score.revert()
            stale += 1
            if stale >= self.patience:
                break
        return ArrayConfiguration(tuple(int(s) for s in current)), current_score


@dataclass(frozen=True)
class SimulatedAnnealing(Searcher):
    """Metropolis search over single-element moves with a geometric schedule."""

    budget: int = 128
    initial_temperature: float = 3.0
    cooling: float = 0.97
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.initial_temperature <= 0:
            raise ValueError(
                f"initial_temperature must be positive, got {self.initial_temperature}"
            )
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {self.cooling}")

    def run(
        self, space: ConfigurationSpace, score: ScoreFunction
    ) -> tuple[ArrayConfiguration, float]:
        rng = np.random.default_rng(self.seed)
        current = space.random_configuration(rng)
        current_score = score(current)
        best, best_score = current, current_score
        temperature = self.initial_temperature
        for _ in range(self.budget - 1):
            element = int(rng.integers(0, space.num_elements))
            state = int(rng.integers(0, space.state_counts[element]))
            candidate = current.with_element_state(element, state)
            value = score(candidate)
            accept = value >= current_score or rng.random() < math.exp(
                (value - current_score) / temperature
            )
            if accept:
                current, current_score = candidate, value
            if value > best_score:
                best, best_score = candidate, value
            temperature *= self.cooling
        return best, best_score


@dataclass(frozen=True)
class GeneticSearch(Searcher):
    """A small genetic algorithm: tournament selection, uniform crossover,
    per-element mutation.

    Suits very large arrays where coordinate descent's N*(M-1) sweep already
    exceeds the measurement budget.
    """

    population: int = 12
    generations: int = 8
    mutation_rate: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if self.generations <= 0:
            raise ValueError(f"generations must be positive, got {self.generations}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")

    def run(
        self, space: ConfigurationSpace, score: ScoreFunction
    ) -> tuple[ArrayConfiguration, float]:
        rng = np.random.default_rng(self.seed)
        population = [space.random_configuration(rng) for _ in range(self.population)]
        scores = [score(individual) for individual in population]
        best_index = int(np.argmax(scores))
        best, best_score = population[best_index], scores[best_index]
        for _ in range(self.generations):
            next_population = [best]  # elitism
            while len(next_population) < self.population:
                parent_a = self._tournament(population, scores, rng)
                parent_b = self._tournament(population, scores, rng)
                child_indices = [
                    a if rng.random() < 0.5 else b
                    for a, b in zip(parent_a.indices, parent_b.indices)
                ]
                for element in range(space.num_elements):
                    if rng.random() < self.mutation_rate:
                        child_indices[element] = int(
                            rng.integers(0, space.state_counts[element])
                        )
                next_population.append(ArrayConfiguration(tuple(child_indices)))
            population = next_population
            scores = [score(individual) for individual in population]
            generation_best = int(np.argmax(scores))
            if scores[generation_best] > best_score:
                best, best_score = population[generation_best], scores[generation_best]
        return best, best_score

    @staticmethod
    def _tournament(
        population: list[ArrayConfiguration],
        scores: list[float],
        rng: np.random.Generator,
        size: int = 3,
    ) -> ArrayConfiguration:
        picks = rng.integers(0, len(population), size=min(size, len(population)))
        winner = max(picks, key=lambda index: scores[int(index)])
        return population[int(winner)]
