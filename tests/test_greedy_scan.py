"""Greedy descent's windowed scan against the per-element loop it replaced.

``DeltaEvaluator.first_improvement`` scores a growing window of elements
per kernel call and charges soundings only through the element it
accepts; ``adopt`` leaves the accepted configuration's score to the next
scan, which scores it as one more row of its first kernel call.  The
reference below is the per-element greedy loop over
``scores_for_element``, reading each accepted score at once; on random
scenes with mixed 2- and 4-state elements (padding rows filled with
values a scorer must never read), at 1, 2 and 8 links under every
aggregate, the windowed scan must return the same winner, best score,
sounding count, trajectory and ``search.delta_evals`` increment,
compared with ``==``.  Every reader of a deferred score must see the
bits an eager re-score gives.

Both scorers also validate moves and scan starts the same way: a bad
element, state, repeated element or scan start raises before anything is
measured.
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
from repro.core.basis import _SCAN_ROWS, ChannelBasis
from repro.core.search import CountingScore
from repro.obs.metrics import global_registry

SUBCARRIERS = 16
BANDWIDTH_HZ = 5e6
SCALE = 1e-5  # |H| of a few 1e-5 puts SNR in the tens of dB
MAX_STATES = 4


def _window_cap(num_links: int) -> int:
    """Widest scan window, in elements, over ``num_links`` 4-state links."""
    return _SCAN_ROWS // (MAX_STATES * num_links)


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


def _padding(state_counts):
    counts = np.asarray(state_counts)
    return np.arange(int(counts.max()))[None, :] >= counts[:, None]


def _random_bases(state_counts, num_links, seed):
    """Bases over one mixed space; padding rows hold large garbage."""
    rng = np.random.default_rng(seed)
    shape = (len(state_counts), max(state_counts), SUBCARRIERS)
    bases = []
    for _ in range(num_links):
        tensor = 0.4 * SCALE * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        tensor[_padding(state_counts)] = 100 * SCALE
        bases.append(_basis(state_counts, tensor))
    return bases


def _scorer(bases, objective=None, aggregate=None, resync_interval=4096):
    evaluators = [b.evaluator(objective or MeanSnrObjective()) for b in bases]
    weights = [1.0 + 0.25 * link for link in range(len(bases))]
    return DeltaEvaluator(
        evaluators, weights=weights, aggregate=aggregate, resync_interval=resync_interval
    )


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
                    score.adopt(element, candidate)
                    current_score = score.score  # re-scored at once
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
    """The windowed search's outcome, then the reference's, on fresh scorers."""
    return (
        _outcome(searcher.run, make_scorer()),
        _outcome(partial(reference_greedy, searcher), make_scorer()),
    )


def _mixed_counts(num_elements, seed):
    return tuple(int(c) for c in np.random.default_rng(seed).choice([2, 4], num_elements))


def _spy_windows(scorer):
    """Record each kernel call's ``(lo, hi)`` on ``scorer``."""
    windows = []
    scan = scorer._scan_window

    def spy(lo, hi):
        windows.append((lo, hi))
        return scan(lo, hi)

    scorer._scan_window = spy
    return windows


@pytest.mark.parametrize("max_sweeps", [1, 4])
@pytest.mark.parametrize("aggregate", [None, "mean", "worst", "lexicographic"])
@pytest.mark.parametrize("num_links", [1, 2, 8])
def test_batched_scan_matches_per_element_greedy(num_links, aggregate, max_sweeps):
    counts = _mixed_counts(2 * _window_cap(num_links) + 5, seed=num_links)
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
    counts = _mixed_counts(_window_cap(1) + 19, seed=7)
    bases = _random_bases(counts, 1, seed=8)
    searcher = GreedyCoordinateDescent(max_sweeps=4, restarts=2, seed=1)
    (batched, _), (reference, _) = _run_both(searcher, lambda: _scorer(bases, objective))
    assert batched == reference


def test_callback_route_matches_per_element_greedy():
    counts = _mixed_counts(11, seed=2)
    evaluator = _random_bases(counts, 1, seed=3)[0].evaluator(MeanSnrObjective())
    space = ConfigurationSpace(counts)
    searcher = GreedyCoordinateDescent(max_sweeps=4, restarts=2, seed=5)
    (batched, _), (reference, _) = _run_both(
        searcher, lambda: CountingScore(evaluator, space)
    )
    assert batched == reference


def _local_optimum(state_counts, num_links, improving=()):
    """Bases where all-zeros beats every single move except ``improving``.

    Each element's state 0 adds in phase with the ambient term and its
    other states add nothing, so leaving state 0 only loses; an element in
    ``improving`` gains in state 1.  Padding rows hold large garbage.
    """
    tensor = np.zeros((len(state_counts), max(state_counts), SUBCARRIERS), dtype=complex)
    tensor[:, 0] = 0.01 * SCALE
    tensor[list(improving), 1] = 0.5 * SCALE
    tensor[_padding(state_counts)] = 100 * SCALE
    return [_basis(state_counts, tensor) for _ in range(num_links)]


def test_accepts_at_a_chunks_last_element_and_at_the_last_element():
    """Only element 5, the last of the second window (2 + 4 elements), and
    element N-1 can improve; the 2-state last element's padding rows would
    win if the scan read them."""
    num_elements = 2 * _window_cap(1) + 3
    counts = [4] * num_elements
    counts[-1] = 2
    last = num_elements - 1
    bases = _local_optimum(counts, 1, improving=(5, last))
    searcher = GreedyCoordinateDescent(max_sweeps=4, seed=0)

    scorer = _scorer(bases)
    scans, adopted = [], []
    scan, adopt = scorer.first_improvement, scorer.adopt

    def spy_scan(start):
        found = scan(start)
        scans.append((start, found))
        return found

    def spy_adopt(element, state):
        adopted.append((element, state))
        return adopt(element, state)

    scorer.first_improvement, scorer.adopt = spy_scan, spy_adopt
    result = searcher.search_scorer(scorer)
    assert adopted == [(5, 1), (last, 1)]
    assert scans == [(0, (5, 1)), (6, (last, 1)), (num_elements, None), (0, None)]
    assert result.best.indices[5] == 1 and result.best.indices[last] == 1
    (batched, batched_evals), (reference, reference_evals) = _run_both(
        searcher, lambda: _scorer(bases)
    )
    assert batched == reference and batched_evals == reference_evals
    # two full sweeps, each sounding every non-current state once
    assert batched[2] == 1 + 2 * sum(c - 1 for c in counts)


#: Where the only improving element sits, per case: the first element of
#: the third window (two elements, then four, then eight from element 0),
#: the last element once the window has grown to its cap, or nowhere.
WINDOW_CASES = ["doubled-window-start", "last-after-growth", "no-accept"]


@pytest.mark.parametrize("num_links", [1, 2, 8])
@pytest.mark.parametrize("case", WINDOW_CASES)
def test_window_edges_match_per_element_greedy(case, num_links):
    cap = _window_cap(num_links)
    num_elements = 2 * 2 + 4 + 8 + 2 * cap + 3
    counts = list(_mixed_counts(num_elements, seed=num_links))
    counts[-1] = 2
    improving = {"doubled-window-start": (6,), "last-after-growth": (num_elements - 1,),
                 "no-accept": ()}[case]
    bases = _local_optimum(counts, num_links, improving)
    agg = joint_aggregate("mean")
    searcher = GreedyCoordinateDescent(max_sweeps=4, restarts=2, seed=3)
    (batched, batched_evals), (reference, reference_evals) = _run_both(
        searcher, lambda: _scorer(bases, aggregate=agg)
    )
    assert batched == reference and batched_evals == reference_evals

    scorer = _scorer(bases, aggregate=agg)
    windows = _spy_windows(scorer)
    found = scorer.first_improvement(0)
    assert found == (improving[0], 1) if improving else found is None
    widths = [hi - lo for lo, hi in windows]
    assert [lo for lo, _ in windows] == [sum(widths[:i]) for i in range(len(widths))]
    grown = [min(2 ** (i + 1), cap) for i in range(len(widths))]
    assert widths[:-1] == grown[:-1] and widths[-1] <= grown[-1]
    if case == "doubled-window-start":
        assert windows == [(0, 2), (2, 6), (6, 14)]
    else:
        assert windows[-1][1] == num_elements and max(widths) == cap


def test_one_kernel_call_per_accepted_move():
    """Every element improves in turn: each accept costs one scan call,
    which scores the adopted configuration too, and no other re-score."""
    counts = _mixed_counts(40, seed=11)
    bases = _local_optimum(counts, 1, improving=range(len(counts)))
    scorer = _scorer(bases)
    windows = _spy_windows(scorer)
    rescored = []
    link_scores = scorer._link_scores
    scorer._link_scores = lambda sums: rescored.append(sums) or link_scores(sums)
    GreedyCoordinateDescent(max_sweeps=1).search_scorer(scorer)
    assert rescored == []
    assert windows == [(0, 2)] + [(e, e + 2) for e in range(1, 39)] + [(39, 40), (40, 40)]


READERS = [
    "score", "per_link_scores", "commit", "revert", "flip", "flip_many",
    "set_configuration", "first_improvement",
]


def _read(scorer, reader):
    """What ``reader`` reports on ``scorer``, then the committed score."""
    if reader == "score":
        value = scorer.score
    elif reader == "per_link_scores":
        value = scorer.per_link_scores().tobytes()
    elif reader == "commit":
        value = scorer.commit()
    elif reader == "revert":
        scorer.flip(0, 1)
        value = scorer.revert()
    elif reader == "flip":
        value = scorer.flip(1, 1)
    elif reader == "flip_many":
        value = scorer.flip_many([0, 3], [1, 1])
    elif reader == "set_configuration":
        value = scorer.set_configuration(ArrayConfiguration((1,) * len(scorer.space.state_counts)))
    else:
        value = scorer.first_improvement(0)
    return value, scorer.revert()


@pytest.mark.parametrize("num_links", [1, 2, 8])
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_sees_an_eager_rescore_after_adopt(reader, num_links):
    """Three adopts with ``resync_interval=3``: the last crosses a resync."""
    counts = _mixed_counts(12, seed=5)
    bases = _random_bases(counts, num_links, seed=6)
    agg = joint_aggregate("mean")
    deferred = _scorer(bases, aggregate=agg, resync_interval=3)
    eager = _scorer(bases, aggregate=agg, resync_interval=3)
    for element, state in [(2, 1), (5, 1), (7, 1)]:
        deferred.adopt(element, state)
        eager.flip(element, state)  # the arithmetic adopt re-scored with
        eager.commit()
    assert deferred._flips_since_resync == 0  # the last adopt resynced
    assert _read(deferred, reader) == _read(eager, reader)


def test_first_improvement_charges_only_through_the_returned_element():
    counts = (4,) * 16
    scorer = _scorer(_random_bases(counts, 1, seed=0))
    twin = _scorer(_random_bases(counts, 1, seed=0))
    found = scorer.first_improvement(0)
    assert found is not None
    for element in range(found[0] + 1):
        twin.scores_for_element(element)
    assert scorer.num_scores == twin.num_scores
    assert scorer.trajectory == twin.trajectory
    assert scorer.first_improvement(len(counts)) is None


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
    if len(elements) == 1:
        with pytest.raises(error):
            scorer.adopt(elements[0], states[0])
    assert (scorer.configuration, scorer.score, scorer.num_scores) == before


@pytest.mark.parametrize("element", [-1, 3])
def test_both_routes_reject_scans_of_missing_elements(element):
    scorer, measured = _counting_route()
    with pytest.raises(IndexError):
        scorer.scores_for_element(element)
    assert measured == []
    with pytest.raises(IndexError):
        _scorer(_random_bases((2, 2, 4), 1, seed=0)).scores_for_element(element)


@pytest.mark.parametrize("start", [-12, -1, 4, 21])
def test_both_routes_reject_scan_starts_outside_the_array(start):
    """A start outside ``[0, N]`` raises before anything is charged."""
    scorer, measured = _counting_route()
    with pytest.raises(IndexError):
        scorer.first_improvement(start)
    assert measured == [] and scorer.num_scores == 0
    delta = _scorer(_random_bases((2, 2, 4), 1, seed=0))
    before = (delta.num_scores, list(delta.trajectory))
    with pytest.raises(IndexError):
        delta.first_improvement(start)
    assert (delta.num_scores, list(delta.trajectory)) == before
