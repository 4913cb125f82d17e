"""Integration tests: full stacks wired together end to end."""

import pytest

from repro.control.links import wired_bus_link
from repro.control.protocol import ControlPlane
from repro.core import (
    ExhaustiveSearch,
    GreedyCoordinateDescent,
    MinSnrObjective,
    PressController,
    ThroughputObjective,
)
from repro.core.configuration import ArrayConfiguration
from repro.em.channel import Channel
from repro.experiments import (
    StudyConfig,
    build_nlos_setup,
    used_subcarrier_mask,
)
from repro.phy import FrameFormat, QAM16, get_code, select_mcs, simulate_link

from .basis_reference import reference_paths


class TestControllerOverTestbed:
    """The §2 measure -> search -> actuate loop over the simulated lab."""

    @pytest.fixture
    def setup(self):
        return build_nlos_setup(0)

    def _controller(self, setup, objective):
        mask = used_subcarrier_mask()

        def measure(configuration):
            obs = setup.testbed.measure_csi(
                setup.tx_device, setup.rx_device, configuration
            )
            return obs.snr_db[mask]

        return PressController(setup.array, measure, objective)

    def test_optimizer_beats_default_configuration(self, setup):
        controller = self._controller(setup, MinSnrObjective())
        baseline = controller.score(ArrayConfiguration((0, 0, 0)))
        decision = controller.optimize(searcher=ExhaustiveSearch())
        assert decision.search.best_score >= baseline

    def test_greedy_approaches_exhaustive(self, setup):
        controller = self._controller(setup, MinSnrObjective())
        exhaustive = controller.optimize(searcher=ExhaustiveSearch())
        greedy = controller.optimize(searcher=GreedyCoordinateDescent(restarts=2))
        assert greedy.search.num_evaluations < exhaustive.search.num_evaluations
        assert greedy.search.best_score >= exhaustive.search.best_score - 3.0

    def test_throughput_objective_improves_rate(self, setup):
        controller = self._controller(setup, ThroughputObjective())
        mask = used_subcarrier_mask()
        worst_rate = min(
            ThroughputObjective()(
                setup.testbed.measure_csi(
                    setup.tx_device, setup.rx_device, config
                ).snr_db[mask]
            )
            for config in setup.array.configuration_space().all_configurations()
        )
        decision = controller.optimize(searcher=ExhaustiveSearch())
        assert decision.search.best_score >= worst_rate


class TestPhyOverScenario:
    """Frames decoded through the ray-traced channel, before and after PRESS."""

    def test_press_configuration_changes_selected_mcs(self):
        # Lower TX power so the link straddles MCS switching points; at the
        # default 15 dBm every configuration saturates the 54 Mbps ladder.
        setup = build_nlos_setup(0, StudyConfig(tx_power_dbm=-5.0))
        mask = used_subcarrier_mask()
        rates = []
        for config in setup.array.configuration_space().all_configurations():
            obs = setup.testbed.measure_csi(setup.tx_device, setup.rx_device, config)
            rates.append(select_mcs(obs.snr_db[mask]).data_rate_mbps)
        # The configuration space must span more than one MCS choice —
        # otherwise PRESS could not change throughput.
        assert len(set(rates)) > 1

    def test_frame_decodes_over_composed_channel(self, rng):
        setup = build_nlos_setup(1)
        testbed = setup.testbed
        channel = Channel(
            reference_paths(
                testbed, setup.tx_device, setup.rx_device, ArrayConfiguration((0, 0, 0))
            ),
            num_subcarriers=testbed.num_subcarriers,
            bandwidth_hz=testbed.bandwidth_hz,
        )
        result = simulate_link(
            channel,
            FrameFormat(QAM16, get_code("1/2")),
            num_info_bits=400,
            rng=rng,
        )
        assert result.bit_errors == 0


class TestControlPlaneIntegration:
    def test_actuate_then_measure(self):
        setup = build_nlos_setup(0)
        plane = ControlPlane(link=wired_bus_link(), num_elements=3)
        target = ArrayConfiguration((1, 2, 3))
        result = plane.actuate(target)
        assert result.success
        applied = ArrayConfiguration(plane.current_states)
        assert applied == target
        obs = setup.testbed.measure_csi(setup.tx_device, setup.rx_device, applied)
        assert obs.snr_db.shape == (64,)

    def test_full_loop_with_latency_accounting(self):
        from repro.core.scheduler import TimingModel

        setup = build_nlos_setup(2)
        plane = ControlPlane(link=wired_bus_link(), num_elements=3)
        actuation = plane.actuate(ArrayConfiguration((0, 0, 0))).elapsed_s
        mask = used_subcarrier_mask()

        def measure(configuration):
            plane.actuate(configuration)
            obs = setup.testbed.measure_csi(
                setup.tx_device, setup.rx_device, configuration
            )
            return obs.snr_db[mask]

        controller = PressController(
            setup.array,
            measure,
            MinSnrObjective(),
            timing=TimingModel(actuation_latency_s=actuation),
        )
        decision = controller.optimize(speed_mph=0.5)
        # The wired control plane is fast enough to finish a round within
        # the stationary coherence window.
        assert decision.within_coherence
        # Apply the winner (the search memoises, so the last configuration
        # actuated during the sweep need not be the best one).
        plane.actuate(decision.configuration)
        assert ArrayConfiguration(plane.current_states) == decision.configuration
