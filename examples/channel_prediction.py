#!/usr/bin/env python3
"""Channel prediction: measure 6 configurations, know all 64.

The PRESS channel is linear in the element reflection coefficients, so a
controller that measures the all-terminated configuration plus one
configuration per element can solve for the environment response and each
element's contribution — then *predict* every other configuration's channel
without touching the air.  This example identifies the model, validates its
predictions, picks the predicted-best switch setting, and compares the
whole exercise against the 64-measurement exhaustive sweep of §3.2.

Run:  python examples/channel_prediction.py
"""

import numpy as np

from repro.core import (
    ExhaustiveSearch,
    MinSnrObjective,
    fit_channel_model,
    identification_configurations,
    optimize_phases,
    predict_and_pick,
)
from repro.experiments import build_nlos_setup, used_subcarrier_mask


def main():
    setup = build_nlos_setup(placement_seed=2)
    array = setup.array
    mask = used_subcarrier_mask()

    schedule = identification_configurations(array)
    print(f"Identification schedule: {len(schedule)} configurations")
    for config in schedule:
        print(f"  measure {array.describe(config)}")

    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    cfrs = [basis.cfr(c)[mask] for c in schedule]
    model = fit_channel_model(array, schedule, cfrs, setup.testbed.frequency_hz)

    # Validate on configurations the model never saw.
    errors = []
    for rank in range(0, 64, 5):
        config = array.configuration_space().configuration_at(rank)
        predicted = model.predict_cfr(array, config)
        actual = basis.cfr(config)[mask]
        errors.append(np.linalg.norm(predicted - actual) / np.linalg.norm(actual))
    print(f"\nPrediction error on unseen configurations: "
          f"median {100 * np.median(errors):.2f}%, worst {100 * max(errors):.2f}%")

    # Pick the best configuration from predictions alone.
    predicted_best, _ = predict_and_pick(array, model, MinSnrObjective())

    def true_min(config):
        return float(
            setup.testbed.measure_csi(setup.tx_device, setup.rx_device, config)
            .snr_db[mask]
            .min()
        )

    truth = ExhaustiveSearch().search(array.configuration_space(), true_min)
    print(f"\npredicted best {array.describe(predicted_best)}: "
          f"{true_min(predicted_best):.2f} dB min-SNR "
          f"({len(schedule)} soundings)")
    print(f"exhaustive best {array.describe(truth.best)}: "
          f"{truth.best_score:.2f} dB min-SNR "
          f"({truth.num_evaluations} soundings)")
    print(f"-> {truth.num_evaluations / len(schedule):.0f}x fewer measurements, "
          f"{truth.best_score - true_min(predicted_best):.2f} dB quality gap")

    # What would continuous phase shifters buy (§4.1)?
    relaxed = optimize_phases(array, model)
    print(f"\ncontinuous-phase upper bound: {relaxed.continuous_min_db:.2f} dB "
          f"min channel gain\nrounded to SP4T states:      "
          f"{relaxed.quantized_min_db:.2f} dB "
          f"(quantisation loss {relaxed.quantization_loss_db:.2f} dB)")


if __name__ == "__main__":
    main()
