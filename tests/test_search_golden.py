"""Golden winners for the scalable searchers and joint optimisation.

Exact winning configurations and best scores on a 64-element wall array,
for greedy descent and RFocus on both scoring routes (delta scorer via
``search_basis``, whole-configuration callback via ``search``), and for
``optimize_joint`` over eight links.  The values were recorded before the
single- and multi-link scorers were merged into one stacked evaluator; any
change to the flip/scan arithmetic or to a searcher's decisions shows up
here as a different winner or a different score.
"""

import pytest

from repro.core import (
    BasisLink,
    GreedyCoordinateDescent,
    MeanSnrObjective,
    RFocusMajoritySearch,
    joint_aggregate,
    optimize_joint,
)
from repro.em.geometry import Point
from repro.experiments import build_large_array_setup, used_subcarrier_mask

REL = 1e-12

GREEDY_BEST = "0000000012012200111222211002102020122200221020122000210202001110"
GREEDY_SCORE = 35.12423204952369
RFOCUS_BEST = "3311213331013331303123200310301333132203222010320330330203232221"
RFOCUS_SCORE = 32.06390067415728

JOINT_GREEDY_MEAN_BEST = (
    "0000000012001111111102102010101022102001021110102210200111000021"
)
JOINT_GREEDY_MEAN_SCORES = [
    31.82078342894577, 42.46169193875351, 37.225137517703445,
    38.817395730627446, 43.09453449535277, 44.566723338608156,
    44.24637206359257, 41.17669032085546,
]
JOINT_GREEDY_MEAN_AGGREGATE = 41.26547148009658
JOINT_RFOCUS_WORST_BEST = RFOCUS_BEST
JOINT_RFOCUS_WORST_SCORES = [
    32.06390067415728, 42.56478434657988, 35.85319567462098,
    37.39640301076788, 42.75970173379007, 43.79212096936416,
    43.76761996763553, 39.64292761127942,
]


@pytest.fixture(scope="module")
def evaluators():
    """One masked mean-SNR evaluator per receiver, eight receivers."""
    setup = build_large_array_setup(0, num_elements=64)
    rx0 = setup.rx_device.position
    points = [Point(rx0.x + 0.3 * i, rx0.y + 0.2 * i) for i in range(8)]
    bases = setup.testbed.bases_for_points(
        setup.tx_device, points, setup.rx_device.chains[0].antenna
    )
    return [
        basis.evaluator(
            MeanSnrObjective(),
            tx_power_dbm=setup.tx_device.tx_power_dbm,
            noise_figure_db=setup.rx_device.noise_figure_db,
            mask=used_subcarrier_mask(),
        )
        for basis in bases
    ]


def _digits(configuration):
    return "".join(str(index) for index in configuration.indices)


@pytest.mark.parametrize(
    "searcher,best,score",
    [
        (GreedyCoordinateDescent(max_sweeps=4, seed=0), GREEDY_BEST, GREEDY_SCORE),
        (RFocusMajoritySearch(seed=0), RFOCUS_BEST, RFOCUS_SCORE),
    ],
    ids=["greedy", "rfocus"],
)
@pytest.mark.parametrize("route", ["delta", "callback"])
def test_single_link_winner(evaluators, searcher, best, score, route):
    evaluator = evaluators[0]
    if route == "delta":
        result = searcher.search_basis(
            evaluator.basis,
            evaluator.objective,
            tx_power_dbm=evaluator.tx_power_dbm,
            noise_figure_db=evaluator.noise_figure_db,
            mask=evaluator.mask,
        )
    else:
        result = searcher.search(evaluator.basis.space, evaluator)
    assert _digits(result.best) == best
    assert result.best_score == pytest.approx(score, rel=REL)


@pytest.mark.parametrize(
    "searcher,aggregate,best,scores",
    [
        (
            GreedyCoordinateDescent(max_sweeps=4, seed=0),
            "mean",
            JOINT_GREEDY_MEAN_BEST,
            JOINT_GREEDY_MEAN_SCORES,
        ),
        (
            RFocusMajoritySearch(seed=0),
            "worst",
            JOINT_RFOCUS_WORST_BEST,
            JOINT_RFOCUS_WORST_SCORES,
        ),
    ],
    ids=["greedy-mean", "rfocus-worst"],
)
def test_joint_winner_at_eight_links(evaluators, searcher, aggregate, best, scores):
    links = [
        BasisLink(name=f"L{i}", evaluator=evaluator, weight=1.0 + 0.25 * i)
        for i, evaluator in enumerate(evaluators)
    ]
    result = optimize_joint(
        links, searcher=searcher, aggregate=joint_aggregate(aggregate)
    )
    assert result.num_distinct_configurations == 1
    assert _digits(result.assignments["L0"]) == best
    assert [result.per_link_scores[link.name] for link in links] == pytest.approx(
        scores, rel=REL
    )
    if aggregate == "mean":
        assert result.aggregate_score(
            links, joint_aggregate(aggregate)
        ) == pytest.approx(JOINT_GREEDY_MEAN_AGGREGATE, rel=REL)
