"""A basis builds its masked state tensor once per mask.

``ChannelBasis.masked_tensor`` keeps the subcarrier-masked copy of the
state tensor that every one-link ``DeltaEvaluator`` scores from, so a
session's searches stop re-taking it.  The copy must be shared read-only,
give the bits of a fresh build, stay out of ``warm()`` and out of what a
pickled basis ships.
"""

import pickle

import numpy as np
import pytest

from repro.core import GreedyCoordinateDescent, MeanSnrObjective, RFocusMajoritySearch
from repro.core.basis import ChannelBasis
from repro.core.configuration import ConfigurationSpace
from repro.em.channel import subcarrier_frequencies
from repro.serve.scenarios import ScenarioSpec, build_session

NUM_SUBCARRIERS = 16
MASK = np.arange(NUM_SUBCARRIERS) % 5 != 0


def _basis(seed: int = 0) -> ChannelBasis:
    rng = np.random.default_rng(seed)
    state_counts = (4, 2, 4, 3) * 6
    shape = (len(state_counts), 4, NUM_SUBCARRIERS)
    tensor = 1e-4 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return ChannelBasis(
        space=ConfigurationSpace(state_counts=state_counts),
        frequencies_hz=subcarrier_frequencies(NUM_SUBCARRIERS, 20e6),
        ambient_gains=1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3)),
        ambient_delays=rng.uniform(0.0, 2e-7, size=3),
        state_tensor=tensor,
        num_subcarriers=NUM_SUBCARRIERS,
        bandwidth_hz=20e6,
    )


def _scorer(basis, mask):
    return basis.evaluator(MeanSnrObjective(), mask=mask).delta()


def test_scorers_over_one_mask_share_one_read_only_tensor():
    basis = _basis()
    first, second = _scorer(basis, MASK), _scorer(basis, MASK.copy())
    assert first._tensor.base is second._tensor.base is basis.masked_tensor(MASK)
    shared = basis.masked_tensor(MASK)
    assert shared.flags.c_contiguous and not shared.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        shared[0, 0, 0] = 1.0


def test_each_mask_gets_its_own_tensor():
    basis = _basis()
    other = MASK.copy()
    other[1] = not other[1]
    masked, unmasked = basis.masked_tensor(MASK), basis.masked_tensor(None)
    assert basis.masked_tensor(other) is not masked
    assert unmasked is not masked and unmasked.shape[-1] == NUM_SUBCARRIERS
    assert np.array_equal(masked, basis.state_tensor[..., MASK])
    assert np.array_equal(basis.masked_tensor(other), basis.state_tensor[..., other])
    assert np.array_equal(unmasked, basis.state_tensor)


@pytest.mark.parametrize(
    "searcher",
    [GreedyCoordinateDescent(restarts=2, seed=3), RFocusMajoritySearch(seed=3)],
    ids=["greedy", "rfocus"],
)
def test_cached_tensor_scores_match_a_fresh_build(searcher):
    """A search that reuses the cached tensor has the bits of one on a basis
    whose cache is empty."""
    cached = _basis()
    searcher.search_basis(cached, MeanSnrObjective(), mask=MASK)  # fills the cache
    assert "_masked_tensors" in cached.__dict__
    fresh = _basis()
    reused = searcher.search_basis(cached, MeanSnrObjective(), mask=MASK)
    built = searcher.search_basis(fresh, MeanSnrObjective(), mask=MASK)
    assert reused.best == built.best
    assert float(reused.best_score).hex() == float(built.best_score).hex()
    assert reused.num_evaluations == built.num_evaluations
    assert reused.trajectory == built.trajectory


def test_pickling_drops_the_cache():
    basis = _basis().warm()
    before = len(pickle.dumps(basis))
    RFocusMajoritySearch(seed=4).search_basis(basis, MeanSnrObjective(), mask=MASK)
    assert basis.__dict__["_masked_tensors"]
    assert len(pickle.dumps(basis)) == before
    assert "_masked_tensors" not in pickle.loads(pickle.dumps(basis)).__dict__


def test_build_session_leaves_the_cache_empty():
    session = build_session(ScenarioSpec(kind="large", placement=0, num_elements=16))
    assert "_masked_tensors" not in session.basis.__dict__
