"""Tests for repro.core.faults and repro.experiments.coverage."""

import numpy as np
import pytest

from repro.core import (
    ArrayConfiguration,
    ExhaustiveSearch,
    detect_unresponsive_elements,
    with_faults,
)
from repro.experiments import (
    build_nlos_setup,
    run_coverage,
    used_subcarrier_mask,
)
from repro.sdr.testbed import Testbed


@pytest.fixture(scope="module")
def setup():
    return build_nlos_setup(2)


def _cfr_measure(setup, array):
    testbed = Testbed(scene=setup.testbed.scene, array=array)
    mask = used_subcarrier_mask()

    basis = testbed.basis_for(setup.tx_device, setup.rx_device)

    def measure(configuration):
        return basis.cfr(configuration)[mask]

    return testbed, measure


class TestFaultInjection:
    def test_stuck_element_ignores_switching(self, setup):
        faulty = with_faults(setup.array, stuck={0: 2})
        _, measure = _cfr_measure(setup, faulty)
        a = measure(ArrayConfiguration((0, 0, 0)))
        b = measure(ArrayConfiguration((3, 0, 0)))
        assert np.allclose(a, b)

    def test_stuck_element_still_reflects(self, setup):
        faulty = with_faults(setup.array, stuck={0: 0})
        _, measure = _cfr_measure(setup, faulty)
        healthy_tb, healthy_measure = _cfr_measure(setup, setup.array)
        assert np.allclose(
            measure(ArrayConfiguration((0, 1, 2))),
            healthy_measure(ArrayConfiguration((0, 1, 2))),
        )

    def test_dead_element_never_reflects(self, setup):
        faulty = with_faults(setup.array, dead=[1])
        _, measure = _cfr_measure(setup, faulty)
        a = measure(ArrayConfiguration((0, 0, 0)))
        b = measure(ArrayConfiguration((0, 2, 0)))
        assert np.allclose(a, b)

    def test_space_size_preserved(self, setup):
        faulty = with_faults(setup.array, stuck={0: 1}, dead=[2])
        assert (
            faulty.configuration_space().size
            == setup.array.configuration_space().size
        )

    def test_validation(self, setup):
        with pytest.raises(ValueError):
            with_faults(setup.array, stuck={9: 0})
        with pytest.raises(ValueError):
            with_faults(setup.array, stuck={0: 0}, dead=[0])

    def test_search_degrades_gracefully(self, setup):
        mask = used_subcarrier_mask()

        def best_score(array):
            testbed = Testbed(scene=setup.testbed.scene, array=array)

            def score(configuration):
                return float(
                    testbed.measure_csi(
                        setup.tx_device, setup.rx_device, configuration
                    ).snr_db[mask].min()
                )

            return ExhaustiveSearch().search(
                array.configuration_space(), score
            ).best_score

        healthy = best_score(setup.array)
        one_dead = best_score(with_faults(setup.array, dead=[0]))
        # Losing an element can only reduce the achievable optimum, but the
        # search must still find a working configuration (not collapse).
        assert one_dead <= healthy + 1e-9
        assert one_dead > healthy - 15.0


class TestFaultDetection:
    def test_detects_stuck_and_dead(self, setup):
        faulty = with_faults(setup.array, stuck={0: 2}, dead=[1])
        _, measure = _cfr_measure(setup, faulty)
        assert detect_unresponsive_elements(faulty, measure) == [0, 1]

    def test_healthy_array_clean(self, setup):
        _, measure = _cfr_measure(setup, setup.array)
        assert detect_unresponsive_elements(setup.array, measure) == []

    def test_threshold_validation(self, setup):
        _, measure = _cfr_measure(setup, setup.array)
        with pytest.raises(ValueError):
            detect_unresponsive_elements(setup.array, measure, threshold=0.0)


class TestCoverage:
    @pytest.fixture(scope="class")
    def coverage(self):
        return run_coverage(grid_shape=(3, 4))

    def test_shapes(self, coverage):
        assert coverage.baseline_db.shape == (3, 4)
        assert coverage.per_position_db.shape == (3, 4)
        assert coverage.joint_db.shape == (3, 4)

    def test_ordering_invariant(self, coverage):
        # Per-position optimum >= joint >= ... and both >= can't be below
        # baseline at the baseline's own configuration.
        assert np.all(coverage.per_position_db >= coverage.joint_db - 1e-9)
        assert coverage.worst_db("joint") >= coverage.worst_db("baseline") - 1e-9

    def test_press_improves_worst_spot(self, coverage):
        assert coverage.worst_db("joint") > coverage.worst_db("baseline")

    def test_fraction_below_monotone_in_threshold(self, coverage):
        low = coverage.fraction_below(5.0)
        high = coverage.fraction_below(40.0)
        assert low <= high

    def test_validation(self):
        with pytest.raises(ValueError):
            run_coverage(grid_shape=(0, 3))
