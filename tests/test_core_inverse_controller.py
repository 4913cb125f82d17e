"""Tests for repro.core.inverse and repro.core.controller."""

import numpy as np
import pytest

from repro.core.array import PressArray
from repro.core.configuration import ArrayConfiguration
from repro.core.controller import PressController
from repro.core.element import omni_element, phase_shifter_states
from repro.core.inverse import (
    element_basis,
    matching_pursuit_paths,
    quantize_to_states,
    solve_element_coefficients,
    synthesize_configuration,
)
from repro.core.objectives import MinSnrObjective
from repro.core.scheduler import TimingModel
from repro.core.search import ExhaustiveSearch, GreedyCoordinateDescent
from repro.em.channel import subcarrier_frequencies
from repro.em.geometry import Point
from repro.em.paths import SignalPath, paths_to_cfr
from repro.em.raytracer import RayTracer

from .basis_reference import element_relay_path


@pytest.fixture
def tracer(simple_scene):
    return RayTracer(simple_scene)


@pytest.fixture
def freqs():
    return subcarrier_frequencies(64, 20e6)


@pytest.fixture
def asym_array():
    """Two elements with distinct geometry (independent basis columns)."""
    return PressArray.from_elements(
        [
            omni_element(Point(3.1, 4.3), name="e0"),
            omni_element(Point(5.2, 5.1), name="e1"),
        ]
    )


class TestElementBasis:
    def test_shape(self, small_array, tracer, freqs):
        basis = element_basis(small_array, Point(2, 3), Point(6, 3), tracer, freqs)
        assert basis.shape == (64, 2)

    def test_matches_forward_model(self, small_array, tracer, freqs):
        basis = element_basis(small_array, Point(2, 3), Point(6, 3), tracer, freqs)
        # The basis column scaled by a state's Gamma should equal the
        # forward element path's CFR for a zero-stub state... only for
        # states without stub delay; use column directly with coefficient 1.
        path = tracer.relay_path(Point(2, 3), small_array.elements[0].position, Point(6, 3),
                                 relay_antenna_in=small_array.elements[0].antenna,
                                 relay_antenna_out=small_array.elements[0].antenna)
        assert np.allclose(basis[:, 0], paths_to_cfr([path], freqs))

    def test_blocked_element_gives_zero_column(self, nlos_scene, freqs):
        # Element positioned so the blocker cuts its view of the RX.
        tracer = RayTracer(nlos_scene)
        blocked = PressArray.from_elements(
            [omni_element(Point(3.0, 3.0), name="b")]  # on the link line, behind blocker
        )
        basis = element_basis(blocked, Point(2, 3), Point(6, 3), tracer, freqs)
        assert np.allclose(basis, 0.0)


class TestSolveCoefficients:
    def test_exact_solution_when_achievable(self, asym_array, tracer, freqs):
        basis = element_basis(asym_array, Point(2, 3), Point(6, 3), tracer, freqs)
        env = np.zeros(64, dtype=complex)
        wanted = np.array([0.5 + 0.2j, -0.3 + 0.1j])
        target = basis @ wanted
        solved = solve_element_coefficients(target, env, basis, max_magnitude=None)
        assert np.allclose(solved, wanted, atol=1e-6)

    def test_passivity_projection(self, asym_array, tracer, freqs):
        basis = element_basis(asym_array, Point(2, 3), Point(6, 3), tracer, freqs)
        env = np.zeros(64, dtype=complex)
        # Ask for far more than passive elements can deliver.
        target = basis @ np.array([50.0 + 0j, 50.0 + 0j])
        solved = solve_element_coefficients(target, env, basis, max_magnitude=1.0)
        assert np.all(np.abs(solved) <= 1.0 + 1e-9)

    def test_regularization_shrinks(self, asym_array, tracer, freqs):
        basis = element_basis(asym_array, Point(2, 3), Point(6, 3), tracer, freqs)
        env = np.zeros(64, dtype=complex)
        target = basis @ np.array([0.9 + 0j, 0.9 + 0j])
        plain = solve_element_coefficients(target, env, basis, max_magnitude=None)
        ridge = solve_element_coefficients(
            target, env, basis, max_magnitude=None, regularization=1e-3
        )
        assert np.linalg.norm(ridge) < np.linalg.norm(plain) + 1e-12

    def test_shape_mismatch(self, asym_array, tracer, freqs):
        basis = element_basis(asym_array, Point(2, 3), Point(6, 3), tracer, freqs)
        with pytest.raises(ValueError):
            solve_element_coefficients(np.zeros(10), np.zeros(10), basis)


class TestQuantize:
    def test_snaps_to_nearest_state(self, tracer):
        array = PressArray.from_elements(
            [omni_element(Point(3, 4), name="p", states=phase_shifter_states(4, include_off=True))]
        )
        # Ask for exactly state P1's Gamma (phase pi/2).
        wanted = np.array([1j])
        config = quantize_to_states(wanted, array, tracer.frequency_hz)
        assert array.elements[0].state(config[0]).label == "P1"

    def test_off_state_for_zero(self, tracer):
        array = PressArray.from_elements(
            [omni_element(Point(3, 4), name="p", states=phase_shifter_states(4, include_off=True))]
        )
        config = quantize_to_states(np.array([0.0 + 0j]), array, tracer.frequency_hz)
        assert array.elements[0].state(config[0]).is_terminated

    def test_count_mismatch(self, small_array, tracer):
        with pytest.raises(ValueError):
            quantize_to_states(np.array([1.0]), small_array, tracer.frequency_hz)


class TestMatchingPursuit:
    def test_recovers_single_path(self, freqs):
        true = SignalPath(gain=0.7 - 0.2j, delay_s=80e-9)
        cfr = paths_to_cfr([true], freqs)
        recovered = matching_pursuit_paths(cfr, freqs, num_paths=1)
        assert len(recovered) == 1
        assert recovered[0].delay_s == pytest.approx(80e-9, abs=2e-9)
        assert recovered[0].gain == pytest.approx(true.gain, abs=0.05)

    def test_recovers_two_separated_paths(self, freqs):
        paths = [
            SignalPath(gain=1.0 + 0j, delay_s=40e-9),
            SignalPath(gain=0.5j, delay_s=260e-9),
        ]
        cfr = paths_to_cfr(paths, freqs)
        recovered = matching_pursuit_paths(cfr, freqs, num_paths=4)
        delays = sorted(p.delay_s for p in recovered[:2])
        assert delays[0] == pytest.approx(40e-9, abs=4e-9)
        assert delays[1] == pytest.approx(260e-9, abs=4e-9)

    def test_residual_shrinks(self, freqs):
        paths = [SignalPath(gain=1.0, delay_s=50e-9), SignalPath(gain=0.4, delay_s=150e-9)]
        cfr = paths_to_cfr(paths, freqs)
        recovered = matching_pursuit_paths(cfr, freqs, num_paths=6)
        residual = cfr - paths_to_cfr(recovered, freqs)
        assert np.linalg.norm(residual) < 0.05 * np.linalg.norm(cfr)

    def test_zero_cfr(self, freqs):
        assert matching_pursuit_paths(np.zeros(64, dtype=complex), freqs) == []

    def test_invalid_args(self, freqs):
        with pytest.raises(ValueError):
            matching_pursuit_paths(np.zeros(64), freqs, max_delay_s=0.0)
        with pytest.raises(ValueError):
            matching_pursuit_paths(np.zeros(10), freqs)


class TestSynthesize:
    def test_end_to_end_reduces_error(self, tracer, freqs):
        # Fine phase states so quantisation error is small.
        array = PressArray.from_elements(
            [
                omni_element(Point(3.1, 4.3), name="p0", states=phase_shifter_states(8)),
                omni_element(Point(5.2, 5.1), name="p1", states=phase_shifter_states(8)),
            ]
        )
        env = tracer.trace(Point(2, 3), Point(6, 3))
        env_cfr = paths_to_cfr(env, freqs)
        # Target: environment plus a fully-reflective first element.
        basis = element_basis(array, Point(2, 3), Point(6, 3), tracer, freqs)
        target = env_cfr + basis @ np.array([0.9 * np.exp(0.3j), 0.0])
        solution = synthesize_configuration(
            array, target, env, Point(2, 3), Point(6, 3), tracer, freqs
        )
        baseline_error = float(np.sqrt(np.mean(np.abs(env_cfr - target) ** 2)))
        assert solution.residual_rms < baseline_error
        assert np.all(np.abs(solution.coefficients) <= 1.0 + 1e-9)

    def test_achieved_cfr_matches_per_path_forward_model(self, asym_array, tracer):
        """The achieved CFR is the chosen states' relay paths, stub dispersion included."""
        freqs = subcarrier_frequencies(256, 80e6)  # any grid, not only the OFDM one
        tx, rx = Point(2, 3), Point(6, 3)
        env = tracer.trace(tx, rx)
        env_cfr = paths_to_cfr(env, freqs)
        basis = element_basis(asym_array, tx, rx, tracer, freqs)
        # A lambda/4 stub on the first element, the absorptive load on the second.
        target = env_cfr + basis @ np.array([-0.95j, 0.0])
        solution = synthesize_configuration(asym_array, target, env, tx, rx, tracer, freqs)
        assert solution.configuration == ArrayConfiguration((1, 3))
        relays = [
            element_relay_path(tracer, tx, rx, element, element.state(index))
            for element, index in zip(asym_array.elements, solution.configuration.indices)
        ]
        want = paths_to_cfr(list(env) + [path for path in relays if path is not None], freqs)
        np.testing.assert_allclose(
            solution.achieved_cfr, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want))
        )


class TestController:
    def _controller(self, small_array, objective=None, table_seed=0):
        space = small_array.configuration_space()
        rng = np.random.default_rng(table_seed)
        table = rng.standard_normal((space.size, 8)) + 20.0

        def measure(config):
            return table[space.index_of(config)]

        return PressController(
            small_array, measure, objective or MinSnrObjective()
        ), table

    def test_exhaustive_optimum(self, small_array):
        controller, table = self._controller(small_array)
        decision = controller.optimize(searcher=ExhaustiveSearch())
        assert decision.search.best_score == pytest.approx(table.min(axis=1).max())
        assert controller.current_configuration == decision.configuration

    def test_auto_budgeting_at_low_speed(self, small_array):
        controller, _ = self._controller(small_array)
        decision = controller.optimize(speed_mph=0.5)
        assert decision.within_coherence

    def test_auto_budgeting_at_running_speed_uses_fewer_measurements(self, small_array):
        controller, _ = self._controller(small_array)
        slow = controller.optimize(speed_mph=0.5)
        fast = controller.optimize(speed_mph=6.0)
        assert fast.search.num_evaluations <= slow.search.num_evaluations

    def test_slow_control_plane_misses_coherence(self, small_array):
        space = small_array.configuration_space()

        def measure(config):
            return np.full(8, 20.0)

        # The §3 prototype's ~78 ms per configuration.
        controller = PressController(
            small_array,
            measure,
            MinSnrObjective(),
            timing=TimingModel(actuation_latency_s=78e-3),
        )
        decision = controller.optimize(searcher=ExhaustiveSearch(), speed_mph=0.5)
        assert not decision.within_coherence

    def test_reoptimize_only_when_degraded(self, small_array):
        controller, _ = self._controller(small_array)
        controller.optimize(searcher=ExhaustiveSearch())
        good = controller.reoptimize_if_degraded(threshold=-100.0)
        assert good is None
        forced = controller.reoptimize_if_degraded(
            threshold=1e9, searcher=GreedyCoordinateDescent()
        )
        assert forced is not None

    def test_history_recorded(self, small_array):
        controller, _ = self._controller(small_array)
        controller.optimize(searcher=ExhaustiveSearch())
        controller.optimize(searcher=GreedyCoordinateDescent())
        assert len(controller.history) == 2
