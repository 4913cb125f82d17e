"""Scalable searchers and the wall-sized array path.

Pins the behaviours that let search scale past exhaustive enumeration:
chunked basis tracing agrees with the scalar path, the enumeration guard
raises (with a pointer to the scalable searchers) instead of OOMing,
scheduler selection routes huge spaces to RFocus-style search, searchers
are deterministic at a fixed seed, and the large-array experiment is
bit-identical at any worker count.
"""

import numpy as np
import pytest

from repro.core import (
    GreedyCoordinateDescent,
    MeanSnrObjective,
    RFocusMajoritySearch,
    SearchSpaceTooLarge,
    exhaustive_argmax,
    pick_searcher,
)
from repro.core.basis import MAX_ENUMERABLE_CONFIGS, ChannelBasis
from repro.core.configuration import ConfigurationSpace
from repro.experiments import (
    build_large_array_setup,
    build_nlos_setup,
    run_large_array,
    used_subcarrier_mask,
)
from repro.sdr.testbed import LARGE_ARRAY_THRESHOLD

N_SMALL = 40  # >= LARGE_ARRAY_THRESHOLD so the chunked trace path runs


def _basis(setup):
    return setup.testbed.basis_for(setup.tx_device, setup.rx_device)


def _search_kwargs(setup):
    return {
        "tx_power_dbm": setup.tx_device.tx_power_dbm,
        "noise_figure_db": setup.rx_device.noise_figure_db,
        "mask": used_subcarrier_mask(),
    }


def test_chunked_trace_matches_scalar_trace():
    """trace_chunked is the same basis as trace, to machine precision."""
    setup = build_large_array_setup(0, num_elements=N_SMALL)
    assert N_SMALL >= LARGE_ARRAY_THRESHOLD
    testbed = setup.testbed
    chunked = _basis(setup)  # routed through trace_chunked by element count
    tx = setup.tx_device.chains[0]
    rx = setup.rx_device.chains[0]
    scalar = ChannelBasis.trace(
        setup.array,
        tx.position,
        rx.position,
        testbed.tracer,
        tx_antenna=tx.antenna,
        rx_antenna=rx.antenna,
        num_subcarriers=testbed.num_subcarriers,
        bandwidth_hz=testbed.bandwidth_hz,
        environment_paths=testbed.environment_paths(
            setup.tx_device, setup.rx_device
        ),
    )
    np.testing.assert_allclose(
        chunked.state_tensor, scalar.state_tensor, rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        chunked.ambient_cfr(), scalar.ambient_cfr(), rtol=0.0, atol=1e-12
    )


def test_enumeration_guard_names_the_scalable_searchers():
    """Huge spaces raise a diagnosis, not an OOM, on every enumeration route."""
    setup = build_large_array_setup(0, num_elements=64)
    basis = _basis(setup)
    assert basis.space.size > MAX_ENUMERABLE_CONFIGS
    with pytest.raises(SearchSpaceTooLarge) as err:
        basis.evaluator(MeanSnrObjective()).argmax()
    message = str(err.value)
    assert "64 elements" in message
    assert "GreedyCoordinateDescent" in message
    assert "RFocusMajoritySearch" in message
    with pytest.raises(SearchSpaceTooLarge):
        setup.testbed.sweep(setup.tx_device, setup.rx_device, repetitions=1)


def test_pick_searcher_routes_large_spaces_to_rfocus():
    space = ConfigurationSpace(state_counts=(4,) * 1000)
    searcher = pick_searcher(space, budget=100, seed=3)
    assert isinstance(searcher, RFocusMajoritySearch)
    assert searcher.seed == 3
    # spent budget stays within what was granted
    assert searcher.rounds * (searcher.perturbations + 1) <= 100


@pytest.mark.parametrize(
    "searcher_factory",
    [
        lambda seed: GreedyCoordinateDescent(seed=seed),
        lambda seed: RFocusMajoritySearch(seed=seed),
    ],
)
def test_searchers_deterministic_at_fixed_seed(searcher_factory):
    setup = build_large_array_setup(1, num_elements=N_SMALL)
    basis = _basis(setup)
    kwargs = _search_kwargs(setup)
    first = searcher_factory(7).search_basis(basis, MeanSnrObjective(), **kwargs)
    second = searcher_factory(7).search_basis(basis, MeanSnrObjective(), **kwargs)
    assert first.best == second.best
    assert first.best_score == second.best_score
    assert first.num_evaluations == second.num_evaluations
    assert first.trajectory == second.trajectory


@pytest.mark.parametrize(
    "searcher",
    [GreedyCoordinateDescent(seed=0), RFocusMajoritySearch(seed=0)],
)
def test_scalable_searchers_near_exhaustive_on_small_array(searcher):
    """At N=3 both scalable searchers land within 1 dB of the true optimum."""
    setup = build_nlos_setup(0)
    basis = _basis(setup)
    kwargs = _search_kwargs(setup)
    best, best_score = exhaustive_argmax(basis, MeanSnrObjective(), **kwargs)
    result = searcher.search_basis(basis, MeanSnrObjective(), **kwargs)
    assert result.best_score <= best_score + 1e-9
    assert result.best_score >= best_score - 1.0


def test_delta_routed_search_improves_on_baseline():
    """On a wall-sized array the searchers find real gain over all-zeros."""
    setup = build_large_array_setup(0, num_elements=64)
    basis = _basis(setup)
    kwargs = _search_kwargs(setup)
    evaluator = basis.evaluator(MeanSnrObjective(), **kwargs)
    baseline = evaluator.delta().score
    result = GreedyCoordinateDescent(seed=0).search_basis(
        basis, MeanSnrObjective(), **kwargs
    )
    assert result.best_score > baseline
    assert result.best_score == pytest.approx(
        evaluator(result.best), abs=1e-9
    )  # reported score is reproducible from the returned configuration


def _both_routes(searcher, basis, objective, kwargs):
    """The same search on the delta scorer and on the counting callback."""
    delta = searcher.search_basis(basis, objective, **kwargs)
    evaluator = basis.evaluator(objective, **kwargs)
    callback = searcher.search(basis.space, evaluator)
    return delta, callback


@pytest.mark.parametrize("num_elements", [16, 64])
def test_greedy_charges_each_sounding_once_on_both_routes(num_elements):
    """One sweep costs the start plus N*(M-1) scans, on either route: an
    accepted move is not re-sounded and the start is sounded once."""
    setup = build_large_array_setup(0, num_elements=num_elements)
    basis = _basis(setup)
    delta, callback = _both_routes(
        GreedyCoordinateDescent(max_sweeps=1, seed=0),
        basis,
        MeanSnrObjective(),
        _search_kwargs(setup),
    )
    moves = sum(count - 1 for count in basis.space.state_counts)
    assert delta.num_evaluations == callback.num_evaluations == 1 + moves
    assert delta.best == callback.best
    assert delta.best_score == callback.best_score


def test_rfocus_no_op_vote_costs_no_sounding_on_either_route():
    """Under a flat objective every vote keeps the current configuration:
    each round costs its perturbations only, until patience runs out."""
    setup = build_large_array_setup(0, num_elements=16)
    basis = _basis(setup)
    searcher = RFocusMajoritySearch(perturbations=6, patience=2, seed=0)
    delta, callback = _both_routes(
        searcher, basis, lambda snr: 0.0, _search_kwargs(setup)
    )
    expected = 1 + searcher.patience * searcher.perturbations
    assert delta.num_evaluations == callback.num_evaluations == expected
    assert delta.best == callback.best


def test_run_large_array_parallel_matches_serial():
    """jobs=1 and jobs=4 produce bit-identical cells."""
    serial = run_large_array(
        element_counts=(N_SMALL,), searchers=("greedy", "rfocus"), jobs=1
    )
    parallel = run_large_array(
        element_counts=(N_SMALL,), searchers=("greedy", "rfocus"), jobs=4
    )
    assert serial == parallel
    for cell in serial.cells:
        assert cell.soundings >= 1
        assert len(cell.trajectory_soundings) == len(cell.trajectory_gain_db)
        assert cell.trajectory_soundings[-1] == cell.soundings
        # best-so-far curve is monotone non-decreasing
        gains = cell.trajectory_gain_db
        assert all(b >= a for a, b in zip(gains, gains[1:]))
