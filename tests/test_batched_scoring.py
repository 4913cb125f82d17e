"""Batched scoring must give the bits of the one-at-a-time route.

``ChannelBasis.element_sums`` evaluates a batch with one gather and one
in-order sum per chunk of rows, and ``Scorer.score_perturbations`` scores
an RFocus round's probes in one call.  Both replaced per-item loops, so
these tests keep the loops as references and compare with ``==``: the
gather against the element-by-element ``+=``, and the batched probes
against a ``flip_many`` + ``revert`` per probe, on both scorers.  The
delta scorer aggregates its links' scores through the aggregate's
``rows`` form, so whole searches are compared against the same aggregate
mapped row by row.  Each probe's step comes from a per-round difference
table, checked against the two gathers it replaced, and RFocus draws
uniform state counts through numpy's scalar path, checked against the
per-element array draw.
"""

import numpy as np
import pytest

from repro.core import (
    ArrayConfiguration,
    DeltaEvaluator,
    EffectiveSnrObjective,
    GreedyCoordinateDescent,
    MeanSnrObjective,
    RFocusMajoritySearch,
    WeightedMeanAggregate,
    joint_aggregate,
)
from repro.core import basis as basis_module
from repro.core.basis import ChannelBasis
from repro.core.configuration import ConfigurationSpace
from repro.core.search import CountingScore
from repro.em.channel import subcarrier_frequencies

NUM_SUBCARRIERS = 16
#: Mixed 2- and 4-state elements, so the state tensor is zero-padded.
RAGGED = (4, 2, 4, 4, 2, 2, 4, 2, 4, 4, 2, 4, 4, 2, 4, 4, 2, 4, 2, 4, 4, 4, 2, 4)


def _basis(state_counts, seed: int) -> ChannelBasis:
    rng = np.random.default_rng(seed)
    num_elements = len(state_counts)
    shape = (num_elements, max(state_counts), NUM_SUBCARRIERS)
    tensor = 1e-4 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    for n, count in enumerate(state_counts):
        tensor[n, count:] = 0.0
    return ChannelBasis(
        space=ConfigurationSpace(state_counts=tuple(state_counts)),
        frequencies_hz=subcarrier_frequencies(NUM_SUBCARRIERS, 20e6),
        ambient_gains=1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3)),
        ambient_delays=rng.uniform(0.0, 2e-7, size=3),
        state_tensor=tensor,
        num_subcarriers=NUM_SUBCARRIERS,
        bandwidth_hz=20e6,
    )


def _random_rows(space, count: int, rng) -> np.ndarray:
    return np.stack([rng.integers(0, space.state_counts) for _ in range(count)])


def _reference_sums(basis, indices) -> np.ndarray:
    """The element-by-element loop ``element_sums`` replaced."""
    total = np.zeros((indices.shape[0], basis.state_tensor.shape[2]), dtype=complex)
    for n in range(basis.num_elements):
        total += basis.state_tensor[n, indices[:, n], :]
    return total


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


# -- element_sums -------------------------------------------------------------


@pytest.mark.parametrize("gather_bytes", [basis_module._GATHER_BYTES, 3000])
def test_element_sums_match_the_loop(monkeypatch, gather_bytes):
    """Bit for bit, ragged state counts, in one chunk and across many."""
    monkeypatch.setattr(basis_module, "_GATHER_BYTES", gather_bytes)
    basis = _basis(RAGGED, seed=1)
    rng = np.random.default_rng(2)
    for count in (1, 2, 5, 37):
        indices = _random_rows(basis.space, count, rng)
        assert np.array_equal(
            _bits(basis.element_sums(indices)), _bits(_reference_sums(basis, indices))
        )


def test_a_row_alone_equals_the_row_in_a_batch(monkeypatch):
    monkeypatch.setattr(basis_module, "_GATHER_BYTES", 3000)
    basis = _basis(RAGGED, seed=3)
    indices = _random_rows(basis.space, 23, np.random.default_rng(4))
    batch = basis.element_sums(indices)
    cfrs = basis.evaluate(indices)
    evaluator = basis.evaluator(MeanSnrObjective())
    for row, configuration in enumerate(indices):
        alone = basis.element_sums(configuration[None])[0]
        assert np.array_equal(_bits(alone), _bits(batch[row]))
        config = ArrayConfiguration(tuple(int(i) for i in configuration))
        assert np.array_equal(_bits(basis.element_sum(config)), _bits(batch[row]))
        assert np.array_equal(_bits(basis.cfr(config)), _bits(cfrs[row]))
        assert evaluator(config) == MeanSnrObjective()(evaluator._snr_db(cfrs[row]))


def test_all_element_sums_match_the_loop():
    basis = _basis((4, 2, 4, 3, 2), seed=5)
    everything = basis.all_configuration_indices
    assert np.array_equal(
        _bits(basis.all_element_sums), _bits(_reference_sums(basis, everything))
    )


# -- score_perturbations --------------------------------------------------------


def _perturbations(space, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """RFocus-style probes, plus one that moves nothing and one that holds."""
    masks = rng.random((count, space.num_elements)) < 0.5
    states = _random_rows(space, count, rng)
    masks[1] = False  # moves no element
    states[2] = 0
    return masks, states


def _loop_scores(scorer, masks, states) -> list:
    """The per-probe route ``score_perturbations`` replaced."""
    rows = np.arange(masks.shape[1])
    values = []
    for mask, probe_states in zip(masks, states):
        values.append(scorer.flip_many(rows[mask], probe_states[mask]))
        scorer.revert()
    return values


def _delta_pair(num_links: int, aggregate, resync_interval: int, objective):
    def build():
        evaluators = [
            _basis(RAGGED, seed=10 + link).evaluator(
                objective, mask=np.arange(NUM_SUBCARRIERS) % 5 != 0
            )
            for link in range(num_links)
        ]
        return DeltaEvaluator(
            evaluators,
            aggregate=aggregate,
            resync_interval=resync_interval,
            initial=evaluators[0].basis.space.random_configuration(np.random.default_rng(6)),
        )

    return build(), build()


CASES = [
    (1, None),
    (2, "mean"),
    (2, "worst"),
    (2, "lexicographic"),
    (8, "mean"),
    (8, "worst"),
    (8, "lexicographic"),
]


@pytest.mark.parametrize("num_links,aggregate", CASES)
@pytest.mark.parametrize("resync_interval", [4096, 23, 7])
@pytest.mark.parametrize("objective", [MeanSnrObjective(), EffectiveSnrObjective()])
def test_score_perturbations_match_flip_and_revert(num_links, aggregate, resync_interval, objective):
    """Scores, soundings, trajectory and the flip counter match the loop."""
    aggregate = None if aggregate is None else joint_aggregate(aggregate)
    batched, looped = _delta_pair(num_links, aggregate, resync_interval, objective)
    rng = np.random.default_rng(7)
    for _ in range(3):
        masks, states = _perturbations(batched.space, 9, rng)
        before = batched.configuration, batched.score
        assert batched.score_perturbations(masks, states) == _loop_scores(looped, masks, states)
        assert (batched.configuration, batched.score) == before
        assert batched.num_scores == looped.num_scores
        assert batched.trajectory == looped.trajectory
        # The flip counter advanced alike, so later flips resync alike.
        element = int(rng.integers(0, batched.space.num_elements))
        assert batched.flip(element, 1) == looped.flip(element, 1)
        batched.commit()
        looped.commit()


@pytest.mark.parametrize("scorer_kind", ["delta", "counting"])
def test_out_of_range_states_raise_before_anything_is_charged(scorer_kind):
    basis = _basis(RAGGED, seed=8)
    evaluator = basis.evaluator(MeanSnrObjective())
    if scorer_kind == "delta":
        scorer = evaluator.delta(resync_interval=7)
    else:
        scorer = CountingScore(evaluator, basis.space)
        scorer.commit()
    masks, states = _perturbations(basis.space, 4, np.random.default_rng(9))
    two_state = RAGGED.index(2)
    masks[3, two_state] = True
    charged = scorer.num_scores, list(scorer.trajectory), getattr(scorer, "_flips_since_resync", 0)
    for bad in (2, -1):
        states[3, two_state] = bad
        with pytest.raises(ValueError, match="out of range"):
            scorer.score_perturbations(masks, states)
        assert (scorer.num_scores, scorer.trajectory, getattr(scorer, "_flips_since_resync", 0)) == charged
    # An unmasked state is never read, so it is never checked.
    masks[3, two_state] = False
    scorer.score_perturbations(masks, states)
    with pytest.raises(ValueError, match="shape"):
        scorer.score_perturbations(masks[:, :-1], states[:, :-1])


def test_counting_score_memo_matches_flip_and_revert():
    """The callback scorer measures each distinct probe once, as the loop does."""
    basis = _basis(RAGGED, seed=11)
    evaluator = basis.evaluator(MeanSnrObjective())
    batched = CountingScore(evaluator, basis.space)
    looped = CountingScore(evaluator, basis.space)
    batched.commit()
    looped.commit()
    rng = np.random.default_rng(12)
    masks, states = _perturbations(basis.space, 12, rng)
    masks[5], states[5] = masks[4], states[4]  # a repeat is a memo hit
    for _ in range(2):
        assert batched.score_perturbations(masks, states) == _loop_scores(looped, masks, states)
        assert batched.num_scores == looped.num_scores
        assert batched.trajectory == looped.trajectory
        assert batched.configuration == looped.configuration


# -- aggregate row forms ------------------------------------------------------


def _joint_pair(num_links: int, aggregate):
    """Two joint scorers over one scene: one with ``aggregate`` (``None`` or a
    name), one with the same aggregate behind a callable that has no
    ``rows`` form, so it is mapped row by row, one element per scan."""
    named = None if aggregate is None else joint_aggregate(aggregate)
    reference = named or WeightedMeanAggregate()
    weights = np.random.default_rng(num_links).uniform(0.5, 2.0, num_links)
    evaluators = [
        _basis(RAGGED, seed=30 + link).evaluator(
            MeanSnrObjective(), mask=np.arange(NUM_SUBCARRIERS) % 5 != 0
        )
        for link in range(num_links)
    ]
    return (
        DeltaEvaluator(evaluators, weights=weights, aggregate=named),
        DeltaEvaluator(evaluators, weights=weights, aggregate=lambda s, w: reference(s, w)),
    )


@pytest.mark.parametrize("aggregate", [None, "mean", "worst", "lexicographic"])
@pytest.mark.parametrize("num_links", [3, 8])
@pytest.mark.parametrize(
    "searcher",
    [GreedyCoordinateDescent(restarts=2, seed=5), RFocusMajoritySearch(seed=5)],
    ids=["greedy", "rfocus"],
)
def test_row_forms_match_the_mapped_aggregate(aggregate, num_links, searcher):
    """Winner, score bits, soundings and trajectory match the per-row route."""
    rows, mapped = _joint_pair(num_links, aggregate)
    assert rows._scan_cap > 1 and mapped._scan_cap == 1
    batched, looped = searcher.search_scorer(rows), searcher.search_scorer(mapped)
    assert batched.best == looped.best
    assert float(batched.best_score).hex() == float(looped.best_score).hex()
    assert batched.num_evaluations == looped.num_evaluations
    assert batched.trajectory == looped.trajectory
    for element in (0, RAGGED.index(2), len(RAGGED) - 1):
        assert _bits(rows.scores_for_element(element)).tolist() == (
            _bits(mapped.scores_for_element(element)).tolist()
        )


# -- the difference table and the probe draw -----------------------------------


def _two_gather_sums(scorer, masks, states) -> np.ndarray:
    """Each probe's running sum with two gathers and a subtract per probe, the
    route the difference table replaced; reads the scorer without changing it."""
    tensor, current, running = scorer._tensor, scorer._indices, scorer._sum
    flips = scorer._flips_since_resync
    sums = np.empty((masks.shape[0],) + running.shape, dtype=complex)
    for probe, moving in enumerate(masks & (states != current)):
        moved = np.flatnonzero(moving)
        if not moved.size:
            sums[probe] = running
            continue
        flips += moved.size
        if flips >= scorer._resync_interval:
            flips = 0
            indices = np.where(moving, states[probe], current)
            sums[probe] = tensor[np.arange(current.size), indices].sum(axis=0)
            continue
        step = (tensor[moved, states[probe, moved]] - tensor[moved, current[moved]]).sum(axis=0)
        sums[probe] = running + step
    return sums


def _move_working_configuration(scorer, how: str, rng) -> None:
    """Move the working configuration one way a search between rounds does."""
    space = scorer.space
    if how in ("commit", "revert"):
        elements = rng.choice(space.num_elements, size=5, replace=False)
        targets = [int(rng.integers(0, space.state_counts[e])) for e in elements]
        scorer.flip_many(elements, targets)
        if how == "commit":
            scorer.commit()
        else:
            scorer.revert()
    elif how == "set_configuration":
        scorer.set_configuration(space.random_configuration(rng))
    else:
        element = int(rng.integers(0, space.num_elements))
        state = (scorer.configuration[element] + 1) % space.state_counts[element]
        scorer.adopt(element, state)


@pytest.mark.parametrize("num_links", [1, 2, 8])
@pytest.mark.parametrize("resync_interval", [4096, 23, 7])
def test_difference_table_matches_two_gathers(monkeypatch, num_links, resync_interval):
    """Sums and scores match the two-gather loop bit for bit, round after
    round, whichever way the working configuration moved in between: a
    table left from an earlier round would fail."""
    scorer = _delta_pair(num_links, None, resync_interval, MeanSnrObjective())[0]
    link_scores = scorer._link_scores
    seen = []

    def capture(sums):
        seen.append(sums)
        return link_scores(sums)

    monkeypatch.setattr(scorer, "_link_scores", capture)
    rng = np.random.default_rng(13)
    for how in ["commit", "revert", "set_configuration", "adopt"] * 3:
        _move_working_configuration(scorer, how, rng)
        # adopt leaves its score for the round to settle; the sums are final.
        assert scorer._pending == (how == "adopt")
        masks, states = _perturbations(scorer.space, 9, rng)
        expected = _two_gather_sums(scorer, masks, states)
        values = scorer.score_perturbations(masks, states)
        assert _bits(seen[-1]).tolist() == _bits(expected).tolist()
        assert values == scorer._joint_scores(link_scores(expected))


@pytest.mark.parametrize("num_states", [2, 3, 4, 5])
def test_uniform_draw_matches_the_array_draw(num_states):
    """RFocus passes the scalar state count when every element shares it;
    numpy's scalar path must draw the stream the per-element array draws,
    also where Lemire's method rejects (3 and 5 states)."""
    num_elements = 257
    counts = np.full(num_elements, num_states, dtype=np.intp)
    scalar, array = np.random.default_rng(14), np.random.default_rng(14)
    for _ in range(60):
        assert np.array_equal(scalar.random(num_elements), array.random(num_elements))
        drawn = scalar.integers(0, num_states, size=num_elements)
        reference = array.integers(0, counts)
        assert drawn.dtype == reference.dtype
        assert np.array_equal(drawn, reference)
