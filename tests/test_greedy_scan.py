"""Greedy descent's chunked scan against the per-element loop it replaced.

``DeltaEvaluator.first_improvement`` scores several elements per kernel
call and charges soundings only through the element it accepts.  The
reference below is the per-element greedy loop over
``scores_for_element``; on random scenes with mixed 2- and 4-state
elements (padding rows filled with values a scorer must never read), at
1, 2 and 8 links under every aggregate, the batched scan must return the
same winner, best score, sounding count, trajectory and
``search.delta_evals`` increment, compared with ``==``.

Both scorers also validate moves the same way: a bad element, state or
repeated element raises before anything is measured.
"""

import math
from functools import partial

import numpy as np
import pytest

from repro.core import (
    ArrayConfiguration,
    ConfigurationSpace,
    DeltaEvaluator,
    EffectiveSnrObjective,
    GreedyCoordinateDescent,
    MeanSnrObjective,
    MinSnrObjective,
    joint_aggregate,
)
from repro.core.basis import _SCAN_CHUNK, ChannelBasis
from repro.core.search import CountingScore
from repro.obs.metrics import global_registry

SUBCARRIERS = 16
BANDWIDTH_HZ = 5e6
SCALE = 1e-5  # |H| of a few 1e-5 puts SNR in the tens of dB


def _basis(state_counts, tensor, ambient_gain=SCALE) -> ChannelBasis:
    return ChannelBasis(
        space=ConfigurationSpace(tuple(state_counts)),
        frequencies_hz=np.linspace(-BANDWIDTH_HZ / 2, BANDWIDTH_HZ / 2, SUBCARRIERS),
        ambient_gains=np.array([ambient_gain], dtype=complex),
        ambient_delays=np.array([0.0]),
        state_tensor=tensor,
        num_subcarriers=SUBCARRIERS,
        bandwidth_hz=BANDWIDTH_HZ,
    )


def _random_bases(state_counts, num_links, seed):
    """Bases over one mixed space; padding rows hold large garbage."""
    rng = np.random.default_rng(seed)
    counts = np.asarray(state_counts)
    shape = (len(counts), int(counts.max()), SUBCARRIERS)
    padding = np.arange(shape[1])[None, :] >= counts[:, None]
    bases = []
    for _ in range(num_links):
        tensor = 0.4 * SCALE * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        tensor[padding] = 100 * SCALE
        bases.append(_basis(state_counts, tensor))
    return bases


def _scorer(bases, objective=None, aggregate=None):
    evaluators = [b.evaluator(objective or MeanSnrObjective()) for b in bases]
    weights = [1.0 + 0.25 * link for link in range(len(bases))]
    return DeltaEvaluator(evaluators, weights=weights, aggregate=aggregate)


def _delta_evals() -> int:
    return global_registry().snapshot().counters.get("search.delta_evals", 0)


def reference_greedy(searcher, space, score):
    """The per-element greedy loop: one ``scores_for_element`` per element."""
    rng = np.random.default_rng(searcher.seed)
    best, best_score = None, -math.inf
    for restart in range(searcher.restarts):
        if restart > 0:
            score.set_configuration(space.random_configuration(rng))
        current_score = score.commit()
        held = list(score.configuration.indices)
        for _ in range(searcher.max_sweeps):
            improved = False
            for element in range(space.num_elements):
                scores = score.scores_for_element(element)
                candidate = int(np.argmax(scores))
                if candidate != held[element] and scores[candidate] > current_score:
                    current_score = score.adopt(element, candidate)
                    held[element] = candidate
                    improved = True
            if not improved:
                break
        if current_score > best_score:
            best, best_score = score.configuration, current_score
    return best, best_score


def _outcome(run, scorer):
    """``(best, best score, soundings, trajectory)`` and the delta_evals spent."""
    before = _delta_evals()
    best, best_score = run(scorer.space, scorer)
    outcome = (best, best_score, scorer.num_scores, list(scorer.trajectory))
    return outcome, _delta_evals() - before


def _run_both(searcher, make_scorer):
    """The batched search's outcome, then the reference's, on fresh scorers."""
    return (
        _outcome(searcher.run, make_scorer()),
        _outcome(partial(reference_greedy, searcher), make_scorer()),
    )


def _mixed_counts(num_elements, seed):
    return tuple(int(c) for c in np.random.default_rng(seed).choice([2, 4], num_elements))


@pytest.mark.parametrize("max_sweeps", [1, 4])
@pytest.mark.parametrize("aggregate", [None, "mean", "worst", "lexicographic"])
@pytest.mark.parametrize("num_links", [1, 2, 8])
def test_batched_scan_matches_per_element_greedy(num_links, aggregate, max_sweeps):
    counts = _mixed_counts(3 * _SCAN_CHUNK + 5, seed=num_links)
    bases = _random_bases(counts, num_links, seed=10 * num_links + max_sweeps)
    searcher = GreedyCoordinateDescent(max_sweeps=max_sweeps, restarts=2, seed=4)
    agg = None if aggregate is None else joint_aggregate(aggregate)
    (batched, batched_evals), (reference, reference_evals) = _run_both(
        searcher, lambda: _scorer(bases, aggregate=agg)
    )
    assert batched == reference
    assert batched_evals == reference_evals
    assert batched[2] > 1 + len(counts)  # accepted moves forced rescans


@pytest.mark.parametrize(
    "objective",
    [MeanSnrObjective(), MinSnrObjective(), EffectiveSnrObjective()],
    ids=["mean-rows", "min-rows", "effective-snr-mapped"],
)
def test_batched_scan_matches_for_objectives_with_and_without_rows(objective):
    counts = _mixed_counts(2 * _SCAN_CHUNK + 3, seed=7)
    bases = _random_bases(counts, 1, seed=8)
    searcher = GreedyCoordinateDescent(max_sweeps=4, restarts=2, seed=1)
    (batched, _), (reference, _) = _run_both(searcher, lambda: _scorer(bases, objective))
    assert batched == reference


def test_callback_route_matches_per_element_greedy():
    counts = _mixed_counts(_SCAN_CHUNK + 3, seed=2)
    evaluator = _random_bases(counts, 1, seed=3)[0].evaluator(MeanSnrObjective())
    space = ConfigurationSpace(counts)
    searcher = GreedyCoordinateDescent(max_sweeps=4, restarts=2, seed=5)
    (batched, _), (reference, _) = _run_both(
        searcher, lambda: CountingScore(evaluator, space)
    )
    assert batched == reference


def test_accepts_at_a_chunks_last_element_and_at_the_last_element():
    """Only elements C-1 and N-1 can improve; the 2-state last element's
    padding rows would win if the scan read them."""
    num_elements = 2 * _SCAN_CHUNK + 3
    counts = [4] * num_elements
    counts[-1] = 2
    tensor = np.zeros((num_elements, 4, SUBCARRIERS), dtype=complex)
    tensor[_SCAN_CHUNK - 1, 1] = 0.5 * SCALE
    tensor[-1, 1] = 0.5 * SCALE
    tensor[-1, 2:] = 100 * SCALE
    basis = _basis(counts, tensor)
    searcher = GreedyCoordinateDescent(max_sweeps=4, seed=0)

    scorer = basis.evaluator(MeanSnrObjective()).delta()
    scans, adopted = [], []
    scan, adopt = scorer.first_improvement, scorer.adopt

    def spy_scan(start, threshold):
        found = scan(start, threshold)
        scans.append((start, found))
        return found

    def spy_adopt(element, state):
        adopted.append((element, state))
        return adopt(element, state)

    scorer.first_improvement, scorer.adopt = spy_scan, spy_adopt
    result = searcher.search_scorer(scorer)
    last = num_elements - 1
    assert adopted == [(_SCAN_CHUNK - 1, 1), (last, 1)]
    assert scans == [
        (0, (_SCAN_CHUNK - 1, 1)), (_SCAN_CHUNK, (last, 1)), (num_elements, None),
        (0, None),
    ]
    assert result.best.indices[_SCAN_CHUNK - 1] == 1 and result.best.indices[last] == 1
    (batched, batched_evals), (reference, reference_evals) = _run_both(
        searcher, lambda: basis.evaluator(MeanSnrObjective()).delta()
    )
    assert batched == reference and batched_evals == reference_evals
    # two full sweeps, each sounding every non-current state once
    assert batched[2] == 1 + 2 * sum(c - 1 for c in counts)


def test_first_improvement_charges_only_through_the_returned_element():
    counts = (4,) * (2 * _SCAN_CHUNK)
    scorer = _scorer(_random_bases(counts, 1, seed=0))
    twin = _scorer(_random_bases(counts, 1, seed=0))
    found = scorer.first_improvement(0, scorer.score)
    assert found is not None
    for element in range(found[0] + 1):
        twin.scores_for_element(element)
    assert scorer.num_scores == twin.num_scores
    assert scorer.trajectory == twin.trajectory
    assert scorer.first_improvement(len(counts), -math.inf) is None


BAD_MOVES = [
    ([-1], [1], IndexError),  # would wrap to the last element
    ([3], [0], IndexError),
    ([0, 0], [1, 0], ValueError),  # repeat: the last write would win
    ([0], [3], ValueError),  # element 0 has two states
    ([0], [-1], ValueError),
]
BAD_IDS = ["negative-element", "element-past-end", "repeated-element",
           "state-past-count", "negative-state"]


def _counting_route():
    measured = []

    def score(configuration: ArrayConfiguration) -> float:
        measured.append(configuration.indices)
        return float(sum(configuration.indices))

    return CountingScore(score, ConfigurationSpace((2, 2, 4))), measured


@pytest.mark.parametrize("elements,states,error", BAD_MOVES, ids=BAD_IDS)
def test_callback_route_validates_moves(elements, states, error):
    scorer, measured = _counting_route()
    with pytest.raises(error):
        scorer.flip_many(elements, states)
    if len(elements) == 1:
        with pytest.raises(error):
            scorer.adopt(elements[0], states[0])
    assert measured == []  # nothing invalid reached the callback
    assert scorer.configuration.indices == (0, 0, 0)
    assert scorer.num_scores == 0


@pytest.mark.parametrize("elements,states,error", BAD_MOVES, ids=BAD_IDS)
def test_delta_route_validates_moves(elements, states, error):
    scorer = _scorer(_random_bases((2, 2, 4), 1, seed=0))
    before = (scorer.configuration, scorer.score, scorer.num_scores)
    with pytest.raises(error):
        scorer.flip_many(elements, states)
    assert (scorer.configuration, scorer.score, scorer.num_scores) == before


@pytest.mark.parametrize("element", [-1, 3])
def test_both_routes_reject_scans_of_missing_elements(element):
    scorer, measured = _counting_route()
    with pytest.raises(IndexError):
        scorer.scores_for_element(element)
    assert measured == []
    with pytest.raises(IndexError):
        _scorer(_random_bases((2, 2, 4), 1, seed=0)).scores_for_element(element)
