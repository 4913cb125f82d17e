"""Multi-link delta scoring, joint aggregates, and multi-tenant admission.

The multi-link scorer's contract is the single-link DeltaEvaluator's,
lifted: its aggregate must match naively re-evaluating every link's full
path within 1e-9 — exhaustively verified over the whole 3-element space —
and its probe accounting must follow the joint measurement model (one
joint probe sounds every link once).  On top sit the strategy invariants
(agile >= static in quality, static <= agile in switching load) and the
admission controller's escalation ladder (joint -> re-cluster -> reject).
"""

import numpy as np
import pytest

from repro.core import (
    ConfigurationSpace,
    BasisLink,
    DeltaEvaluator,
    ExhaustiveSearch,
    GreedyCoordinateDescent,
    LexicographicAggregate,
    LinkObjective,
    MeanSnrObjective,
    MinSnrObjective,
    MultiLinkDeltaEvaluator,
    MultiTenantController,
    RFocusMajoritySearch,
    WeightedMeanAggregate,
    WorstLinkAggregate,
    compare_strategies,
    joint_aggregate,
    optimize_hybrid,
    optimize_joint,
)
from repro.core.basis import ChannelBasis
from repro.em.channel import subcarrier_frequencies
from repro.em.geometry import Point
from repro.experiments import build_large_array_setup, build_nlos_setup, used_subcarrier_mask
from repro.obs.metrics import global_registry

ATOL = 1e-9


def _basis_links(setup, num_links=2, weights=None, objective=None):
    """BasisLinks for receivers spread around the scenario's RX."""
    rx0 = setup.rx_device.position
    points = [
        Point(rx0.x + 0.3 * index, rx0.y + 0.2 * index)
        for index in range(num_links)
    ]
    bases = setup.testbed.bases_for_points(
        setup.tx_device, points, setup.rx_device.chains[0].antenna
    )
    if weights is None:
        weights = [1.0] * num_links
    return [
        BasisLink(
            name=f"L{index}",
            evaluator=basis.evaluator(
                objective if objective is not None else MeanSnrObjective(),
                tx_power_dbm=setup.tx_device.tx_power_dbm,
                noise_figure_db=setup.rx_device.noise_figure_db,
                mask=used_subcarrier_mask(),
            ),
            weight=weight,
        )
        for index, (basis, weight) in enumerate(zip(bases, weights))
    ]


class TestMultiLinkDeltaEvaluator:
    def test_parity_exhaustive_over_whole_space(self):
        """Aggregate == naive weighted mean of full-path per-link scores,
        for every configuration of the 3-element space."""
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=2, weights=[1.0, 2.0])
        weights = np.array([1.0, 2.0])
        evaluator = MultiLinkDeltaEvaluator(
            [link.evaluator for link in links], weights=weights
        )
        for config in evaluator.space.all_configurations():
            value = evaluator.set_configuration(config)
            naive = np.array([link.evaluator(config) for link in links])
            expected = float(np.dot(weights, naive) / weights.sum())
            assert value == pytest.approx(expected, abs=ATOL)
            np.testing.assert_allclose(
                evaluator.per_link_scores(), naive, atol=ATOL
            )

    def test_parity_with_worst_link_aggregate(self):
        setup = build_nlos_setup(1)
        links = _basis_links(setup, num_links=3)
        evaluator = MultiLinkDeltaEvaluator(
            [link.evaluator for link in links], aggregate=WorstLinkAggregate()
        )
        rng = np.random.default_rng(7)
        space = evaluator.space
        for _ in range(50):
            element = int(rng.integers(0, space.num_elements))
            state = int(rng.integers(0, space.state_counts[element]))
            value = evaluator.flip(element, state)
            naive = min(
                link.evaluator(evaluator.configuration) for link in links
            )
            assert value == pytest.approx(naive, abs=ATOL)

    def test_scores_for_element_matches_explicit_probes(self):
        setup = build_nlos_setup(2)
        links = _basis_links(setup, num_links=2, weights=[3.0, 1.0])
        weights = np.array([3.0, 1.0])
        evaluator = MultiLinkDeltaEvaluator(
            [link.evaluator for link in links], weights=weights
        )
        base = evaluator.configuration
        scores = evaluator.scores_for_element(1)
        for state, value in enumerate(scores):
            probe = base.with_element_state(1, state)
            naive = np.array([link.evaluator(probe) for link in links])
            expected = float(np.dot(weights, naive) / weights.sum())
            assert value == pytest.approx(expected, abs=ATOL)
        assert evaluator.configuration == base

    def test_joint_probe_accounting(self):
        """One joint probe per flip/jump; reverts free; column probes M-1."""
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=2)
        evaluator = MultiLinkDeltaEvaluator([link.evaluator for link in links])
        assert evaluator.num_scores == 1  # initial configuration
        evaluator.flip(0, 1)
        evaluator.revert()
        assert evaluator.num_scores == 2
        states = evaluator.space.state_counts[0]
        evaluator.scores_for_element(0)
        assert evaluator.num_scores == 2 + (states - 1)
        # trajectory is best-so-far, hence monotone non-decreasing
        assert all(
            b >= a
            for a, b in zip(evaluator.trajectory, evaluator.trajectory[1:])
        )

    def test_revert_and_commit_track_all_links(self):
        setup = build_nlos_setup(3)
        links = _basis_links(setup, num_links=2)
        evaluator = MultiLinkDeltaEvaluator([link.evaluator for link in links])
        committed = evaluator.commit()
        evaluator.flip(0, 2)
        evaluator.flip(1, 3)
        restored = evaluator.revert()
        assert restored == committed
        naive = np.array(
            [link.evaluator(evaluator.configuration) for link in links]
        )
        np.testing.assert_allclose(
            evaluator.per_link_scores(), naive, atol=ATOL
        )

    def test_validation(self):
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=2)
        evaluators = [link.evaluator for link in links]
        with pytest.raises(ValueError):
            MultiLinkDeltaEvaluator([])
        with pytest.raises(ValueError):
            MultiLinkDeltaEvaluator(evaluators, weights=np.array([1.0]))
        with pytest.raises(ValueError):
            MultiLinkDeltaEvaluator(evaluators, weights=np.array([1.0, -1.0]))

    def test_delta_evals_counts_each_joint_probe_once(self):
        """One probe sounds all L links but is one scored probe."""
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=3)
        evaluator = DeltaEvaluator([link.evaluator for link in links])
        before = global_registry().snapshot()
        evaluator.flip(0, 1)
        counters = global_registry().snapshot().delta(before).counters
        assert counters["search.delta_evals"] == 1
        assert "search.multilink_probes" not in counters

    def test_links_must_share_scoring(self):
        """Stacked links share one objective, power, noise figure and mask."""
        setup = build_nlos_setup(0)
        link = _basis_links(setup, num_links=1)[0].evaluator
        basis = link.basis
        for other in (
            basis.evaluator(MinSnrObjective(), link.tx_power_dbm,
                            link.noise_figure_db, link.mask),
            basis.evaluator(link.objective, link.tx_power_dbm + 1.0,
                            link.noise_figure_db, link.mask),
            basis.evaluator(link.objective, link.tx_power_dbm,
                            link.noise_figure_db + 1.0, link.mask),
            basis.evaluator(link.objective, link.tx_power_dbm,
                            link.noise_figure_db, None),
            basis.evaluator(link.objective, link.tx_power_dbm,
                            link.noise_figure_db, ~link.mask),
        ):
            with pytest.raises(ValueError):
                DeltaEvaluator([link, other])


class TestAggregates:
    def test_weighted_mean(self):
        scores = np.array([10.0, 20.0])
        weights = np.array([1.0, 3.0])
        assert WeightedMeanAggregate()(scores, weights) == pytest.approx(17.5)

    def test_weighted_mean_rejects_zero_total(self):
        with pytest.raises(ValueError):
            WeightedMeanAggregate()(np.array([1.0]), np.array([0.0]))

    def test_worst_link_ignores_weights(self):
        scores = np.array([10.0, 3.0, 20.0])
        weights = np.array([0.1, 100.0, 0.1])
        assert WorstLinkAggregate()(scores, weights) == pytest.approx(3.0)

    def test_lexicographic_prefers_better_worst_link(self):
        agg = LexicographicAggregate()
        weights = np.ones(2)
        fair = agg(np.array([10.0, 11.0]), weights)
        starved = agg(np.array([5.0, 100.0]), weights)
        assert fair > starved

    def test_lexicographic_breaks_ties_on_next_worst(self):
        agg = LexicographicAggregate()
        weights = np.ones(2)
        assert agg(np.array([10.0, 12.0]), weights) > agg(
            np.array([10.0, 11.0]), weights
        )

    def test_lexicographic_epsilon_validated(self):
        with pytest.raises(ValueError):
            LexicographicAggregate(epsilon=0.0)
        with pytest.raises(ValueError):
            LexicographicAggregate(epsilon=1.0)

    def test_factory_names(self):
        assert isinstance(joint_aggregate("mean"), WeightedMeanAggregate)
        assert isinstance(joint_aggregate("worst"), WorstLinkAggregate)
        assert isinstance(
            joint_aggregate("lexicographic"), LexicographicAggregate
        )
        with pytest.raises(ValueError):
            joint_aggregate("fairest")


class TestBasisLinkStrategies:
    def test_invariants_on_exhaustive_search(self):
        """Agile beats static in quality; static beats agile in switching."""
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=3)
        results = compare_strategies(links, searcher=ExhaustiveSearch())
        per_link, joint = results["per-link"], results["joint"]
        hybrid = results["hybrid"]
        assert (
            per_link.aggregate_score(links)
            >= joint.aggregate_score(links) - ATOL
        )
        assert joint.aggregate_score(links) >= joint.worst_link_score() - ATOL
        assert (
            joint.num_distinct_configurations
            <= hybrid.num_distinct_configurations
            <= per_link.num_distinct_configurations
        )

    def test_joint_exhaustive_matches_brute_force(self):
        setup = build_nlos_setup(1)
        links = _basis_links(setup, num_links=2, weights=[1.0, 2.0])
        joint = optimize_joint(links, searcher=ExhaustiveSearch())
        weights = np.array([1.0, 2.0])
        space = links[0].evaluator.basis.space
        best = max(
            float(
                np.dot(weights, [link.evaluator(c) for link in links])
                / weights.sum()
            )
            for c in space.all_configurations()
        )
        assert joint.aggregate_score(links) == pytest.approx(best, abs=ATOL)

    @pytest.mark.parametrize(
        "searcher",
        [
            GreedyCoordinateDescent(max_sweeps=2, seed=0),
            RFocusMajoritySearch(seed=0),
        ],
    )
    def test_delta_path_runs_on_unenumerable_array(self, searcher):
        """Joint optimisation on 2^64 configurations — impossible to
        enumerate, routine for the delta path."""
        setup = build_large_array_setup(0, num_elements=64)
        links = _basis_links(setup, num_links=2)
        joint = optimize_joint(links, searcher=searcher)
        assert joint.num_distinct_configurations == 1
        assert joint.num_measurements > 0
        # joint probes sound every link: the count is a multiple of L
        assert joint.num_measurements % len(links) == 0
        hybrid = optimize_hybrid(links, searcher=searcher)
        assert hybrid.num_distinct_configurations <= len(links)

    def test_delta_and_exhaustive_joint_agree_on_small_space(self):
        """On an enumerable space the delta-powered greedy search must
        report scores consistent with full-path re-evaluation."""
        setup = build_nlos_setup(2)
        links = _basis_links(setup, num_links=2)
        joint = optimize_joint(
            links, searcher=GreedyCoordinateDescent(max_sweeps=4, seed=0)
        )
        config = joint.assignments[links[0].name]
        for link in links:
            assert joint.per_link_scores[link.name] == pytest.approx(
                link.evaluator(config), abs=ATOL
            )

    def test_mismatched_spaces_rejected(self):
        setup_small = build_nlos_setup(0)
        setup_large = build_large_array_setup(0, num_elements=16)
        links = [
            _basis_links(setup_small, num_links=1)[0],
            BasisLink(
                name="other",
                evaluator=_basis_links(setup_large, num_links=1)[0].evaluator,
            ),
        ]
        with pytest.raises(ValueError):
            optimize_joint(links, searcher=ExhaustiveSearch())


def _table_links(space, seeds=(0, 1), spread=1.0):
    links = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        table = spread * rng.standard_normal((space.size, 8)) + 20.0

        def measure(config, table=table):
            return table[space.index_of(config)]

        links.append(
            LinkObjective(
                name=f"T{seed}", measure=measure, objective=MinSnrObjective()
            )
        )
    return links


class TestMultiTenantController:
    @pytest.fixture
    def space(self):
        return ConfigurationSpace((4, 4, 4))

    def test_admits_compatible_links_jointly(self, space):
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0, 1))
        for link in links:
            decision = controller.admit(link, snr_floor_db=0.0)
            assert decision.admitted
            assert decision.strategy == "joint"
            assert not decision.reclustered
            assert decision.violations == ()
        assert controller.num_links == 2
        assert controller.snapshot().strategy == "joint"

    def test_conflict_escalates_to_recluster(self, space):
        """When the shared optimum starves a floor, the hybrid fallback
        (distinct configurations) is what admits the newcomer."""
        controller = MultiTenantController(space=space, tolerance=0.0)
        links = _table_links(space, seeds=(0, 1), spread=8.0)
        solo = [
            ExhaustiveSearch().search(space, link.score).best_score
            for link in links
        ]
        first = controller.admit(links[0], snr_floor_db=solo[0] - 0.01)
        assert first.admitted and not first.reclustered
        second = controller.admit(links[1], snr_floor_db=solo[1] - 0.01)
        assert second.admitted
        assert second.reclustered
        assert second.strategy == "hybrid"
        assert second.result.num_distinct_configurations == 2

    def test_impossible_floor_rejected_and_incumbents_untouched(self, space):
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0, 1))
        controller.admit(links[0], snr_floor_db=0.0)
        plan_before = controller.result
        measurements_before = controller.total_measurements
        decision = controller.admit(links[1], snr_floor_db=1e6)
        assert not decision.admitted
        assert links[1].name in decision.violations
        assert controller.num_links == 1
        assert controller.result is plan_before
        # the failed attempt's soundings still happened and are charged
        assert controller.total_measurements > measurements_before

    def test_duplicate_name_rejected(self, space):
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0,))
        controller.admit(links[0], snr_floor_db=0.0)
        with pytest.raises(ValueError):
            controller.admit(links[0], snr_floor_db=0.0)

    def test_release_reoptimises_remaining(self, space):
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0, 1))
        for link in links:
            controller.admit(link, snr_floor_db=0.0)
        plan = controller.release(links[0].name)
        assert controller.num_links == 1
        assert plan is not None
        assert set(plan.per_link_scores) == {links[1].name}
        assert controller.release(links[1].name) is None
        assert controller.num_links == 0
        with pytest.raises(KeyError):
            controller.release("nobody")

    def test_obs_counters_follow_decisions(self, space):
        before = global_registry().snapshot()
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0, 1, 2))
        controller.admit(links[0], snr_floor_db=0.0)
        controller.admit(links[1], snr_floor_db=1e6)  # rejected
        controller.admit(links[2], snr_floor_db=0.0)
        controller.release(links[0].name)
        delta = global_registry().snapshot().delta(before)
        assert delta.counters["joint.admissions"] == 2
        assert delta.counters["joint.rejections"] == 1
        assert delta.counters["joint.releases"] == 1
        assert delta.counters["joint.optimizations"] >= 4
        assert global_registry().gauge("joint.active_links").value == 1

    def test_works_with_basis_links_and_delta_searcher(self):
        """Admission control at wall scale: the whole ladder runs on the
        multi-link delta path."""
        setup = build_large_array_setup(0, num_elements=48)
        links = _basis_links(setup, num_links=2)
        controller = MultiTenantController(
            searcher=GreedyCoordinateDescent(max_sweeps=2, seed=0)
        )
        for link in links:
            decision = controller.admit(link, snr_floor_db=-1e3)
            assert decision.admitted
        snapshot = controller.snapshot()
        assert snapshot.num_distinct_configurations == 1
        assert snapshot.total_measurements > 0


class TestMultiUserExperiment:
    def test_bit_identical_across_jobs(self):
        from repro.experiments import run_multi_user

        serial = run_multi_user(
            link_counts=(2,), num_elements=32, jobs=1
        )
        fanned = run_multi_user(
            link_counts=(2,), num_elements=32, jobs=2
        )
        assert serial == fanned
        assert serial.cell(2, "joint").num_distinct_configurations == 1
        assert serial.admission[0].num_links == 2

    def test_validation(self):
        from repro.experiments import run_multi_user

        with pytest.raises(ValueError):
            run_multi_user(link_counts=())
        with pytest.raises(ValueError):
            run_multi_user(link_counts=(2,), strategies=("static",))
        with pytest.raises(ValueError):
            run_multi_user(link_counts=(2,), searcher="oracle")


def _ragged_links(num_links, mask):
    """BasisLinks over random bases of one ragged 24-element space, K = 64."""
    state_counts = (4, 2, 4, 3) * 6
    rng = np.random.default_rng(num_links)
    links = []
    for index in range(num_links):
        shape = (len(state_counts), 4, 64)
        basis = ChannelBasis(
            space=ConfigurationSpace(state_counts=state_counts),
            frequencies_hz=subcarrier_frequencies(64, 20e6),
            ambient_gains=1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3)),
            ambient_delays=rng.uniform(0.0, 2e-7, size=3),
            state_tensor=1e-4 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)),
            num_subcarriers=64,
            bandwidth_hz=20e6,
        )
        evaluator = basis.evaluator(MeanSnrObjective(), mask=mask)
        links.append(BasisLink(name=f"L{index}", evaluator=evaluator))
    return links


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "used-mask"])
@pytest.mark.parametrize("num_links", [1, 2, 8])
def test_joint_winner_scores_have_the_full_path_bits(num_links, masked):
    """The delta route reads the winner's per-link scores off its own scorer;
    each has the hex of a full-path BasisEvaluator call."""
    links = _ragged_links(num_links, used_subcarrier_mask() if masked else None)
    for searcher in (GreedyCoordinateDescent(max_sweeps=2, seed=1), RFocusMajoritySearch(seed=1)):
        result = optimize_joint(links, searcher=searcher)
        winner = result.assignments["L0"]
        assert any(winner.indices)
        assert [result.per_link_scores[link.name].hex() for link in links] == [
            float(link.evaluator(winner)).hex() for link in links
        ]
