"""Golden greedy outcomes on the benchmark's own scenes, compared with ``==``.

``search-single`` runs greedy descent on two N = 256 wall arrays and
``joint-moving`` runs it jointly over eight moving users of an N = 64
array under the ``mean`` aggregate.  The benchmark's greedy makes one
start from all-zeros, so its searcher seed changes nothing; the
single-link cases therefore also start from random configurations that
a seed draws.  For each case this pins the winning configuration, the best score's ``float.hex``, the
sounding count and a sha256 of the trajectory's float64 bytes.  The
values were recorded before greedy's scan deferred the accept step's
re-score and grew its scan window; any change to the scan, accept or
bookkeeping arithmetic shows up here as a different bit.
"""

import hashlib

import numpy as np
import pytest

from repro.core import DeltaEvaluator, MeanSnrObjective, joint_aggregate
from repro.em.geometry import Point
from repro.experiments.large_array import make_searcher
from repro.serve.scenarios import ScenarioSpec, build_session

NUM_USERS = 8

#: (placement, start seed) -> (winner digits sha256, score hex,
#: soundings, trajectory sha256); seed -1 starts from all-zeros.
SINGLE_GOLDEN = {
    (0, -1): (
        '3c5abe558810bb41c9cab1aea15ed523e121753a7c891f7f3031ac7f39e89c93',
        '0x1.5d3abe058dcfcp+5',
        3073,
        '836b568a849b8b17c6465f60ac4876285dec7ac729bea5c206347ebfabd8194d',
    ),
    (1, -1): (
        '115da36c676ab4f51e06c0d7fd0777c5b3258ab4f7844f6ccd491d1be4628e7e',
        '0x1.669203bc7e78cp+5',
        2305,
        'cf71574aca462acd5d00a0c2d141505ef5f1d989520022ecf5a73141231ddea8',
    ),
    (0, 3): (
        '2c87deae8431e958bd9e0c092796a008f0e034f1c41dda9e3ed13f08b7477c02',
        '0x1.572fabab6cde5p+5',
        3073,
        'e3cfd357b1f165d8af4d978f10acdbb1642171c70cf06a72edb5820fb29c9e96',
    ),
    (1, 3): (
        '06469fe90745b35e470e6d6bfbd5f4de556377aa906b368dbc77057deb75e27b',
        '0x1.669203bc7e78cp+5',
        3073,
        'f3384ec7c17187a5025d4c63c72407f381564d4bf44dfada42c2f8e90977fb27',
    ),
    (0, 11): (
        'e2a2dc673ca785ed803e6aeb88dd5adf4043359a4a38801f43b8971658322c3e',
        '0x1.5d30660cfa4d0p+5',
        3073,
        'fdd987f92fd94ba0a52e4ac05df64713a686361284afe256c89166110b9a2eef',
    ),
    (1, 12): (
        'b6205d0adb9a9efc979a32bcf787c2dba79921477c03d4265e30d28acf7e55b1',
        '0x1.669203bc7e78cp+5',
        3073,
        '83d97795411b0a0e557436ffa2bf6fe518bddb70fef58d3b89922e165081f78b',
    ),
}

#: round seed -> (winner digits sha256, aggregate score hex, soundings,
#: trajectory sha256).
JOINT_GOLDEN = {
    1: (
        '6f087de67b636198f6eb529337668951e623ba7b926fd90c3c5d9ad7b081863e',
        '0x1.8457e661fdf80p+5',
        577,
        'f8ddc091f54ca1e4b3b17a0bf4d5c43430a60d17eb79e3098b8ec6460b4986a3',
    ),
    2: (
        '90bad5f6c79531c418b1072a5a82bb484f421153c479e42960c8c8d90851cd8c',
        '0x1.6f7d926ca298fp+5',
        577,
        '7040111b7c100eeca1031fc51295fcde359e2fed7bfe85b74ae62ef61505b55b',
    ),
    3: (
        '1e00e12c0f80cb21b0bb1650a48d36df76ffbddc05f6b0cd476076a905375f1c',
        '0x1.8e470ac8c133fp+5',
        577,
        '124dacb2300a235795fb3b356b3e756bdbf8c4142f4314088b8cd861230b44cc',
    ),
    4: (
        '6a7956fd62f56cba5402121a7aa1cca9b78ebfd7ecb6c1c237f2b6cbeeb471bb',
        '0x1.54d8710dfd544p+5',
        577,
        '56a82221205d8fea9b52c6aa7caa3aaa3bb18f7090bb3f0a17e25667a4ab6046',
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcome(result) -> tuple:
    digits = "".join(str(i) for i in result.best.indices).encode()
    trajectory = np.asarray(result.trajectory, dtype=np.float64).tobytes()
    return (_sha(digits), float(result.best_score).hex(), result.num_evaluations, _sha(trajectory))


def single_outcome(placement: int, seed: int) -> tuple:
    """``search-single``'s greedy round on one N = 256 scene."""
    session = build_session(ScenarioSpec(kind="large", placement=placement, num_elements=256))
    evaluator = session.basis.evaluator(
        MeanSnrObjective(),
        tx_power_dbm=session.tx_power_dbm,
        noise_figure_db=session.noise_figure_db,
        mask=session.mask,
    )
    initial = None
    if seed >= 0:
        initial = session.basis.space.random_configuration(np.random.default_rng(seed))
    return _outcome(make_searcher("greedy", 0).search_scorer(evaluator.delta(initial)))


def joint_outcome(round_seed: int) -> tuple:
    """A ``joint-moving`` round: eight users within 1 m of the RX anchor."""
    session = build_session(ScenarioSpec(kind="large", placement=0, num_elements=64))
    setup = session.setup
    rx0 = setup.rx_device.position
    offsets = np.random.default_rng(round_seed).uniform(-1.0, 1.0, size=(NUM_USERS, 2))
    points = [Point(rx0.x + dx, rx0.y + dy) for dx, dy in offsets]
    bases = setup.testbed.bases_for_points(
        setup.tx_device, points, setup.rx_device.chains[0].antenna
    )
    evaluators = [
        basis.evaluator(
            MeanSnrObjective(),
            tx_power_dbm=session.tx_power_dbm,
            noise_figure_db=session.noise_figure_db,
            mask=session.mask,
        )
        for basis in bases
    ]
    scorer = DeltaEvaluator(evaluators, aggregate=joint_aggregate("mean"))
    return _outcome(make_searcher("greedy", round_seed).search_scorer(scorer))


@pytest.mark.parametrize("placement,seed", sorted(SINGLE_GOLDEN))
def test_search_single_greedy_golden(placement, seed):
    assert single_outcome(placement, seed) == SINGLE_GOLDEN[placement, seed]


@pytest.mark.parametrize("round_seed", sorted(JOINT_GOLDEN))
def test_joint_moving_greedy_golden(round_seed):
    assert joint_outcome(round_seed) == JOINT_GOLDEN[round_seed]
