"""Tests for repro.core.prediction and repro.core.relaxation."""

import numpy as np
import pytest

from repro.core import (
    ArrayConfiguration,
    ExhaustiveSearch,
    MinSnrObjective,
    PressArray,
    omni_element,
)
from repro.core.prediction import (
    coefficient_vector,
    fit_channel_model,
    identification_configurations,
    predict_and_pick,
)
from repro.core.relaxation import optimize_phases, softmin_power_db
from repro.core.element import phase_shifter_states
from repro.em.geometry import Point
from repro.experiments import build_nlos_setup, used_subcarrier_mask


@pytest.fixture(scope="module")
def identified():
    """A study setup plus its identified linear channel model."""
    setup = build_nlos_setup(2)
    mask = used_subcarrier_mask()
    schedule = identification_configurations(setup.array)
    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    cfrs = [basis.cfr(c)[mask] for c in schedule]
    model = fit_channel_model(
        setup.array, schedule, cfrs, setup.testbed.frequency_hz
    )
    return setup, model, mask, schedule


class TestCoefficientVector:
    def test_shape_and_values(self):
        array = PressArray.from_elements(
            [omni_element(Point(1, 1), name="a"), omni_element(Point(2, 2), name="b")]
        )
        gammas = coefficient_vector(array, ArrayConfiguration((0, 3)), 2.462e9)
        assert gammas.shape == (2,)
        assert abs(gammas[0]) > 0.8  # open stub
        assert abs(gammas[1]) < 0.05  # terminated


class TestIdentificationSchedule:
    def test_schedule_with_off_state(self):
        array = PressArray.from_elements(
            [omni_element(Point(1, 1), name="a"), omni_element(Point(2, 2), name="b")]
        )
        schedule = identification_configurations(array)
        assert len(schedule) == 3  # all-off + one per element
        # First entry: everything terminated.
        base = schedule[0]
        for element, index in zip(array.elements, base.indices):
            assert element.state(index).is_terminated

    def test_schedule_without_off_state(self):
        states = phase_shifter_states(4, include_off=False)
        array = PressArray.from_elements(
            [omni_element(Point(1, 1), name="a", states=states)]
        )
        schedule = identification_configurations(array)
        assert len(schedule) >= 2  # N + 1 random probes

    def test_extra_configurations(self):
        array = PressArray.from_elements([omni_element(Point(1, 1), name="a")])
        schedule = identification_configurations(array, extra=3)
        assert len(schedule) == 2 + 3

    def test_negative_extra_rejected(self):
        array = PressArray.from_elements([omni_element(Point(1, 1), name="a")])
        with pytest.raises(ValueError):
            identification_configurations(array, extra=-1)


class TestFitAndPredict:
    def test_prediction_accuracy(self, identified):
        setup, model, mask, _ = identified
        for rank in (7, 23, 41, 60):
            config = setup.array.configuration_space().configuration_at(rank)
            predicted = model.predict_cfr(setup.array, config)
            actual = setup.testbed.basis_for(
                setup.tx_device, setup.rx_device
            ).cfr(config)[mask]
            error = np.linalg.norm(predicted - actual) / np.linalg.norm(actual)
            assert error < 0.05  # stub dispersion only

    def test_predicted_optimum_matches_true(self, identified):
        setup, model, mask, schedule = identified
        best_pred, _ = predict_and_pick(setup.array, model, MinSnrObjective())

        def true_min(config):
            return float(
                setup.testbed.measure_csi(
                    setup.tx_device, setup.rx_device, config
                ).snr_db[mask].min()
            )

        truth = ExhaustiveSearch().search(
            setup.array.configuration_space(), true_min
        )
        # The predicted best must be within a small margin of the true
        # optimum when measured for real.
        assert true_min(best_pred) >= truth.best_score - 0.5

    def test_measurement_savings(self, identified):
        setup, _, _, schedule = identified
        assert len(schedule) < setup.array.configuration_space().size // 8

    def test_fit_requires_enough_measurements(self, identified):
        setup, _, mask, schedule = identified
        cfrs = [np.zeros(52, dtype=complex)] * 2
        with pytest.raises(ValueError):
            fit_channel_model(
                setup.array, schedule[:2], cfrs, setup.testbed.frequency_hz
            )

    def test_fit_count_mismatch(self, identified):
        setup, _, _, schedule = identified
        with pytest.raises(ValueError):
            fit_channel_model(
                setup.array,
                schedule,
                [np.zeros(52, dtype=complex)],
                setup.testbed.frequency_hz,
            )

    def test_fit_with_noise_and_regularization(self, identified, rng):
        setup, clean_model, mask, schedule = identified
        noisy_cfrs = []
        for config in schedule:
            cfr = setup.testbed.basis_for(
                setup.tx_device, setup.rx_device
            ).cfr(config)[mask]
            scale = 0.02 * np.abs(cfr).mean()
            noisy_cfrs.append(
                cfr
                + scale * (rng.standard_normal(52) + 1j * rng.standard_normal(52))
            )
        model = fit_channel_model(
            setup.array,
            schedule,
            noisy_cfrs,
            setup.testbed.frequency_hz,
            regularization=1e-12,
        )
        config = setup.array.configuration_space().configuration_at(30)
        clean = clean_model.predict_cfr(setup.array, config)
        noisy = model.predict_cfr(setup.array, config)
        assert np.linalg.norm(noisy - clean) / np.linalg.norm(clean) < 0.3


class TestRelaxation:
    def test_softmin_below_mean_above_min(self):
        cfr = np.array([1.0, 1.0, 0.1, 1.0], dtype=complex)
        power_db = 10 * np.log10(np.abs(cfr) ** 2)
        value = softmin_power_db(cfr, sharpness=2.0)
        assert power_db.min() <= value < power_db.mean()

    def test_softmin_sharpness_converges_to_min(self):
        cfr = np.array([1.0, 0.2, 0.7], dtype=complex)
        power_db = 10 * np.log10(np.abs(cfr) ** 2)
        assert softmin_power_db(cfr, sharpness=50.0) == pytest.approx(
            power_db.min(), abs=0.05
        )

    def test_invalid_sharpness(self):
        with pytest.raises(ValueError):
            softmin_power_db(np.ones(4, dtype=complex), sharpness=0.0)

    def test_continuous_beats_discrete(self, identified):
        setup, model, _, _ = identified
        solution = optimize_phases(setup.array, model, restarts=6)
        _, discrete_score = predict_and_pick(
            setup.array, model, MinSnrObjective()
        )
        # predict_and_pick scores are min |H|^2 dB; comparable directly.
        assert solution.continuous_min_db >= discrete_score - 0.5

    def test_quantization_loss_nonnegative_ish(self, identified):
        setup, model, _, _ = identified
        solution = optimize_phases(setup.array, model, restarts=4)
        # Rounding cannot beat the continuous optimum by more than noise.
        assert solution.quantized_min_db <= solution.continuous_min_db + 0.5

    def test_validation(self, identified):
        setup, model, _, _ = identified
        with pytest.raises(ValueError):
            optimize_phases(setup.array, model, iterations=0)
        with pytest.raises(ValueError):
            optimize_phases(setup.array, model, magnitude=1.5)
        with pytest.raises(ValueError):
            optimize_phases(
                setup.array, model, initial_phases=np.zeros(99)
            )
