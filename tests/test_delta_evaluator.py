"""DeltaEvaluator: incremental scoring must be bit-compatible with the full path.

The delta kernel exploits basis linearity — flipping element n moves the
running element sum by ``E[n, new] - E[n, old]`` — so its only source of
disagreement with the full gather is floating-point accumulation.  These
tests pin the contract: within 1e-9 of the full-path score over long
random flip sequences (with the periodic resync bounding drift), bit-exact
rollback after ``revert()``, and probe bookkeeping that matches the
over-the-air measurement model (reverts are free, probes are counted).
"""

import numpy as np
import pytest

from repro.core import ArrayConfiguration, MeanSnrObjective, MinSnrObjective
from repro.experiments import (
    build_large_array_setup,
    build_nlos_setup,
    used_subcarrier_mask,
)

ATOL = 1e-9


def _evaluator(setup, objective=None, mask=None):
    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    return basis.evaluator(
        objective if objective is not None else MeanSnrObjective(),
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        mask=mask,
    )


def _random_config(space, rng):
    return ArrayConfiguration(
        tuple(int(rng.integers(0, count)) for count in space.state_counts)
    )


@pytest.mark.parametrize(
    "builder,kwargs",
    [
        (build_nlos_setup, {}),
        (build_large_array_setup, {"num_elements": 48}),
    ],
)
def test_delta_matches_full_over_random_flips(builder, kwargs):
    """200 random single flips: delta score == full re-evaluation (<= 1e-9)."""
    setup = builder(0, **kwargs)
    evaluator = _evaluator(setup, mask=used_subcarrier_mask())
    delta = evaluator.delta()
    space = delta.space
    rng = np.random.default_rng(42)
    assert delta.score == pytest.approx(
        evaluator(delta.configuration), abs=ATOL
    )
    for _ in range(200):
        element = int(rng.integers(0, space.num_elements))
        state = int(rng.integers(0, space.state_counts[element]))
        value = delta.flip(element, state)
        assert value == pytest.approx(evaluator(delta.configuration), abs=ATOL)


def test_delta_matches_full_with_min_snr_objective():
    """The contract holds for any objective, not just the mean."""
    setup = build_nlos_setup(2)
    evaluator = _evaluator(setup, objective=MinSnrObjective())
    delta = evaluator.delta()
    rng = np.random.default_rng(3)
    for _ in range(64):
        element = int(rng.integers(0, delta.space.num_elements))
        state = int(rng.integers(0, delta.space.state_counts[element]))
        value = delta.flip(element, state)
        assert value == pytest.approx(evaluator(delta.configuration), abs=ATOL)


def test_flip_many_matches_full_path():
    """Batched perturbations (the RFocus primitive) track the full path."""
    setup = build_large_array_setup(1, num_elements=40)
    evaluator = _evaluator(setup, mask=used_subcarrier_mask())
    delta = evaluator.delta()
    space = delta.space
    rng = np.random.default_rng(11)
    counts = np.array(space.state_counts)
    for _ in range(32):
        flip_mask = rng.random(space.num_elements) < 0.5
        elements = np.flatnonzero(flip_mask)
        states = rng.integers(0, counts[elements])
        value = delta.flip_many(elements, states)
        assert value == pytest.approx(evaluator(delta.configuration), abs=ATOL)
        delta.revert()


def test_resync_bounds_drift_over_long_sequences():
    """A tiny resync interval forces many recomputes; scores stay exact."""
    setup = build_nlos_setup(0)
    evaluator = _evaluator(setup)
    delta = evaluator.delta(resync_interval=7)
    space = delta.space
    rng = np.random.default_rng(5)
    for _ in range(300):
        element = int(rng.integers(0, space.num_elements))
        state = int(rng.integers(0, space.state_counts[element]))
        value = delta.flip(element, state)
        assert value == pytest.approx(evaluator(delta.configuration), abs=ATOL)


def test_revert_is_bit_exact():
    """revert() restores configuration, sum and score exactly (not approx)."""
    setup = build_large_array_setup(0, num_elements=36)
    evaluator = _evaluator(setup, mask=used_subcarrier_mask())
    rng = np.random.default_rng(9)
    start = _random_config(evaluator.basis.space, rng)
    delta = evaluator.delta(initial=start)
    committed_score = delta.commit()
    committed_sum = delta._sum.copy()
    for _ in range(25):
        element = int(rng.integers(0, delta.space.num_elements))
        state = int(rng.integers(0, delta.space.state_counts[element]))
        delta.flip(element, state)
    restored = delta.revert()
    assert delta.configuration == start
    assert restored == committed_score  # bit-exact, no tolerance
    np.testing.assert_array_equal(delta._sum, committed_sum)


def test_commit_moves_the_revert_point():
    setup = build_nlos_setup(1)
    evaluator = _evaluator(setup)
    delta = evaluator.delta()
    delta.flip(0, 1)
    delta.commit()
    delta.flip(1, 2)
    delta.revert()
    assert delta.configuration.indices[0] == 1
    assert delta.configuration.indices[1] == 0


def test_probe_accounting_matches_measurement_model():
    """Initial score + each flip costs one probe; reverts are free."""
    setup = build_nlos_setup(0)
    delta = _evaluator(setup).delta()
    assert delta.num_scores == 1
    delta.flip(0, 1)
    delta.flip(0, 1)  # no-op state change still re-scores (one sounding)
    delta.revert()
    delta.revert()
    assert delta.num_scores == 3
    assert len(delta.trajectory) == 3
    # trajectory is best-so-far, hence monotone non-decreasing
    assert all(b >= a for a, b in zip(delta.trajectory, delta.trajectory[1:]))


def test_scores_for_element_matches_singleton_flips():
    """The greedy kernel's batched column equals M explicit evaluations."""
    setup = build_large_array_setup(2, num_elements=34)
    evaluator = _evaluator(setup, mask=used_subcarrier_mask())
    delta = evaluator.delta()
    element = 17
    scores = delta.scores_for_element(element)
    base = delta.configuration
    for state, value in enumerate(scores):
        probe = ArrayConfiguration(
            base.indices[:element] + (state,) + base.indices[element + 1 :]
        )
        assert value == pytest.approx(evaluator(probe), abs=ATOL)
    # probing must not move the working configuration
    assert delta.configuration == base


def test_set_configuration_jumps_exactly():
    setup = build_nlos_setup(3)
    evaluator = _evaluator(setup)
    delta = evaluator.delta()
    rng = np.random.default_rng(21)
    target = _random_config(delta.space, rng)
    value = delta.set_configuration(target)
    assert delta.configuration == target
    assert value == pytest.approx(evaluator(target), abs=ATOL)


def test_flip_validates_ranges():
    setup = build_nlos_setup(0)
    delta = _evaluator(setup).delta()
    with pytest.raises(IndexError):
        delta.flip(delta.space.num_elements, 0)
    with pytest.raises(ValueError):
        delta.flip(0, 99)


@pytest.mark.parametrize(
    "elements,states,error",
    [
        ([-1], [1], IndexError),  # would wrap to the last element
        ([0, 99], [1, 1], IndexError),
        ([0, 1], [1, 4], ValueError),  # 4-state elements: reads padding
        ([0, 1], [-1, 1], ValueError),
        ([2, 2], [1, 3], ValueError),  # repeat: both deltas, one state
    ],
    ids=["negative-element", "element-past-end", "state-past-count",
         "negative-state", "repeated-element"],
)
def test_flip_many_validates_like_flip(elements, states, error):
    setup = build_nlos_setup(0)
    evaluator = _evaluator(setup)
    delta = evaluator.delta()
    before = (delta.configuration, delta.score, delta.num_scores)
    with pytest.raises(error):
        delta.flip_many(elements, states)
    # a rejected batch leaves the scorer untouched and uncharged
    assert (delta.configuration, delta.score, delta.num_scores) == before
    assert delta.flip_many([0, 1], [1, 2]) == pytest.approx(
        evaluator(delta.configuration), abs=ATOL
    )


def test_adopt_commits_a_scanned_state_without_a_probe():
    """Greedy's accept step: flip arithmetic, no sounding, new revert point."""
    setup = build_large_array_setup(2, num_elements=34)
    evaluator = _evaluator(setup, mask=used_subcarrier_mask())
    delta = evaluator.delta()
    twin = evaluator.delta()
    delta.scores_for_element(5)
    charged = delta.num_scores
    value = delta.adopt(5, 2)
    assert delta.num_scores == charged
    assert value == twin.flip(5, 2)  # bit-exact: the same arithmetic
    delta.flip(6, 1)
    delta.revert()
    assert delta.configuration == delta.committed_configuration
    assert delta.configuration.indices[5] == 2
