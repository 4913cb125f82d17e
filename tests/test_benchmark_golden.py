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

The ``lexicographic`` and ``worst`` joint goldens pin the same rounds
under those aggregates.  They were recorded before the weighted-mean and
lexicographic aggregates gained their ``rows`` forms, while greedy still
aggregated those two one row at a time.

The RFocus goldens pin the same four values for the searches the
benchmark routes to RFocus: ``search-single``'s N = 1024 scene,
``serve-mixed``'s N = 256 search scene, and ``serve-mixed``'s two-link
joint on the N = 64 scene under the ``mean`` aggregate.  They were
recorded while RFocus still scored its perturbations one probe at a
time, so batching a round's probes must leave every bit in place.
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

#: The same rounds under the ``lexicographic`` aggregate.
LEXICOGRAPHIC_JOINT_GOLDEN = {
    1: (
        '53c5c0bd6e9d0c8280d4516db67714a7067cd9376d4e2ceb7ff780b7b4a85361',
        '0x1.0cb211f81761dp+5',
        769,
        '93d7bd323a77e413d16e60eb683c42034b886f010ea03e178436d7ad4a7a817a',
    ),
    2: (
        '74233d90eca360f4833f09175413ed63468e26b7de0750697d2bb4bca2021361',
        '0x1.24a65db940187p+5',
        577,
        '6e3b9ce863bd6ea2ad9dd94700fcf35ea2e87fa3683112583bfaec052f68c40a',
    ),
    3: (
        '11dbe44b60cada757dd0ec133f394757623c10f0bfcd42dcbf87d1ad9fb8570b',
        '0x1.3cb8a43d0951fp+5',
        577,
        'bdcc8bf567d573fe537067cc998f9e67212be9d497df28fa420f65210bfda401',
    ),
    4: (
        '1adddc1a8251d51f42e363163515080f0cfaea057d1481189ccacd6e9fc6bc76',
        '0x1.3ec1e527a7a1cp+5',
        769,
        '88bcdac850f4aee53ac53bfef51463411cb07e9f29264ba896b52a8911394947',
    ),
}

#: The same rounds under the ``worst`` aggregate.
WORST_JOINT_GOLDEN = {
    1: (
        '53c5c0bd6e9d0c8280d4516db67714a7067cd9376d4e2ceb7ff780b7b4a85361',
        '0x1.0c6d45f56fcb9p+5',
        769,
        '3bc356535833d8fdfc8f023fa853289fbdd054f9d71b66b0a85188fb4ca06740',
    ),
    2: (
        '74233d90eca360f4833f09175413ed63468e26b7de0750697d2bb4bca2021361',
        '0x1.245b3e8a58dd6p+5',
        577,
        '419af2503c9959e39df29b848fa0f78dcc5e869ee41712993daa04bd237dc923',
    ),
    3: (
        '11dbe44b60cada757dd0ec133f394757623c10f0bfcd42dcbf87d1ad9fb8570b',
        '0x1.3c678d1478cb2p+5',
        577,
        'dfb069689e5541ba8a2dc7c9c914e47f9c74b246fbc921916639f2c580f9a521',
    ),
    4: (
        '1adddc1a8251d51f42e363163515080f0cfaea057d1481189ccacd6e9fc6bc76',
        '0x1.3e6f6aa11085bp+5',
        769,
        '63ff9be94d01be706ef1e88ccb866a40a81a09e9980f4cbe05eb5b907a3c157b',
    ),
}


#: (placement, N, searcher seed) -> (winner digits sha256, score hex,
#: soundings, trajectory sha256) of an RFocus search from all-zeros.
RFOCUS_SINGLE_GOLDEN = {
    (0, 1024, 1): (
        '35ae5091b37e8f0f306833ef57a635f9dc06738d7f4e563a610eec2adb26fe28',
        '0x1.18ad132d39ddap+5',
        51,
        '0890b0e9bd24980f34d36b12234ca7e07f3d50aaa3d007a51be5d81f40ff84d8',
    ),
    (0, 1024, 2): (
        '9ed9bf032254178ab6415af571c9fbebaa24b03cafdee48520ceb6c8d3c2a588',
        '0x1.1bd30c3ac9cccp+5',
        76,
        'b5c790eeef40f02a7e0f3621e1e6ee645f6963be7689438675f4a26132c86106',
    ),
    (0, 1024, 3): (
        '5dee846eaa6acdbd385f9eda43df73989b89cd039fd088a4afbf90b4ce1718da',
        '0x1.218266a64f8bfp+5',
        101,
        'fb8c13ccadfb264ba5f7c3721359baec257e01a53d702815ec0c2cbe2f206bbb',
    ),
    (0, 1024, 4): (
        '35ae5091b37e8f0f306833ef57a635f9dc06738d7f4e563a610eec2adb26fe28',
        '0x1.18ad132d39ddap+5',
        51,
        'b36cc8273e99d0947064cd662e5c7f05a96dd9387361d7da6e8ae7dddf565083',
    ),
    (4, 256, 1): (
        '7759fa1bdd8143e0e5d68cc542d652c7b315494bdc677cbd5bc4d9c6515cd965',
        '0x1.1627f21ddf288p+5',
        76,
        '8e66428618152d94565a91c2ae9e6f6e46cafdd97d56ecc702d4bde2b3d7fc9e',
    ),
    (4, 256, 2): (
        '70e929ccf9ab713cd4a10575cd21f25003e0466e53fba3d5a8432a2ff845e325',
        '0x1.1dc708104894ap+5',
        101,
        '418075ccfa76c0ec5f7563cdb4bd591f5e47c85656b540b9492f164d36ea45ec',
    ),
    (4, 256, 3): (
        '3ea2f7709371febc9a78c10d485255d0b966c1ed99033cd549ea157197f3967d',
        '0x1.1aa94d6368587p+5',
        76,
        '9cce9160097b59364bd7dad5b289b62303d0887bde5b8ccf69f196c0dae50eb3',
    ),
    (4, 256, 4): (
        'e647dd8f966e0107faabc18798debdc2e0f7d148a617bbdc4151286bc134f05f',
        '0x1.191cf448535d9p+5',
        101,
        'ba974225681448f19aa45193fa2ba037672aad07720abd0ff782abe9641a19aa',
    ),
}

#: seed (of the link offsets and the searcher) -> (winner digits sha256,
#: aggregate score hex, soundings, trajectory sha256) of a two-link RFocus joint.
RFOCUS_JOINT_GOLDEN = {
    1: (
        '1bee5cfee3de307b76d3530b14ccf8bdb0bda95e38d34bf093082504676173b6',
        '0x1.03dc8caac5d69p+6',
        101,
        '42bd130a8f00ffdb11864087fe2c97eaa5a3ef5bed1cd955d4e63e9df6ca641b',
    ),
    2: (
        '55e66244fc6b0e25aa1681cffcfe97edacba2d4548691556e69d5efaeb25116a',
        '0x1.956f22acb7c58p+5',
        101,
        'd6fc4ea5cb98090c940c88cb2eb5599ae0b6ff1e199d330a30cc8a26d3edc973',
    ),
    3: (
        '34531f0492bc419a33ee8452a5152697d75be8045d1366f6df5cf1e16feb8623',
        '0x1.55c29689761d0p+5',
        101,
        '7d42f43758fee57dc0a353dccc0cc4459a11e8f2868086951e6064a7a5c55d78',
    ),
    4: (
        'b772de101372bafe0c68854fb525f257bc27ed1ed50487f4e2eaefbdda103fbc',
        '0x1.503435390761cp+5',
        76,
        '17663d8a24aa9bf30387a390b7a9743c3f9d85bac3d9b31d24556596a92966b2',
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


def joint_outcome(round_seed: int, aggregate: str = "mean") -> tuple:
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
    scorer = DeltaEvaluator(evaluators, aggregate=joint_aggregate(aggregate))
    return _outcome(make_searcher("greedy", round_seed).search_scorer(scorer))


@pytest.mark.parametrize("placement,seed", sorted(SINGLE_GOLDEN))
def test_search_single_greedy_golden(placement, seed):
    assert single_outcome(placement, seed) == SINGLE_GOLDEN[placement, seed]


@pytest.mark.parametrize("round_seed", sorted(JOINT_GOLDEN))
def test_joint_moving_greedy_golden(round_seed):
    assert joint_outcome(round_seed) == JOINT_GOLDEN[round_seed]


@pytest.mark.parametrize(
    "aggregate,golden",
    [("lexicographic", LEXICOGRAPHIC_JOINT_GOLDEN), ("worst", WORST_JOINT_GOLDEN)],
)
@pytest.mark.parametrize("round_seed", [1, 2, 3, 4])
def test_joint_moving_greedy_golden_other_aggregates(round_seed, aggregate, golden):
    assert joint_outcome(round_seed, aggregate) == golden[round_seed]


def rfocus_single_outcome(placement: int, num_elements: int, seed: int) -> tuple:
    """An RFocus search as ``search_task`` runs it, on one wall scene."""
    session = build_session(
        ScenarioSpec(kind="large", placement=placement, num_elements=num_elements)
    )
    evaluator = session.basis.evaluator(
        MeanSnrObjective(),
        tx_power_dbm=session.tx_power_dbm,
        noise_figure_db=session.noise_figure_db,
        mask=session.mask,
    )
    return _outcome(make_searcher("rfocus", seed).search_scorer(evaluator.delta()))


def rfocus_joint_outcome(seed: int) -> tuple:
    """``serve-mixed``'s joint: two links within 1 m of the RX anchor, RFocus."""
    session = build_session(ScenarioSpec(kind="large", placement=0, num_elements=64))
    setup = session.setup
    rx0 = setup.rx_device.position
    offsets = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, 2))
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
    scorer = DeltaEvaluator(evaluators, weights=(1.0, 1.0), aggregate=joint_aggregate("mean"))
    return _outcome(make_searcher("rfocus", seed).search_scorer(scorer))


@pytest.mark.parametrize("placement,num_elements,seed", sorted(RFOCUS_SINGLE_GOLDEN))
def test_rfocus_search_golden(placement, num_elements, seed):
    outcome = rfocus_single_outcome(placement, num_elements, seed)
    assert outcome == RFOCUS_SINGLE_GOLDEN[placement, num_elements, seed]


@pytest.mark.parametrize("seed", sorted(RFOCUS_JOINT_GOLDEN))
def test_rfocus_joint_golden(seed):
    assert rfocus_joint_outcome(seed) == RFOCUS_JOINT_GOLDEN[seed]
