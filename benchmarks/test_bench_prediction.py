"""Model-based channel prediction vs exhaustive sweeping (§2 extensions).

§2's actuation tasks — gather channel information and navigate the search
space — both collapse when the controller exploits the linearity of the
PRESS channel in the element reflection coefficients.  This benchmark
measures how many over-the-air soundings that saves and how little quality
it costs, against the §3.2-style exhaustive sweep.
"""

import numpy as np

from repro.analysis.reporting import ReportTable, format_table
from repro.core import (
    ExhaustiveSearch,
    MinSnrObjective,
    fit_channel_model,
    identification_configurations,
    optimize_phases,
    predict_and_pick,
)
from repro.experiments import build_nlos_setup, used_subcarrier_mask


def test_bench_model_based_prediction(once):
    def run():
        rows = []
        for seed in (0, 2, 4, 6):
            setup = build_nlos_setup(seed)
            mask = used_subcarrier_mask()
            schedule = identification_configurations(setup.array)
            basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
            cfrs = [basis.cfr(c)[mask] for c in schedule]
            model = fit_channel_model(
                setup.array, schedule, cfrs, setup.testbed.frequency_hz
            )
            # Prediction error over unmeasured configurations.
            errors = []
            for rank in range(0, 64, 7):
                config = setup.array.configuration_space().configuration_at(rank)
                predicted = model.predict_cfr(setup.array, config)
                actual = basis.cfr(config)[mask]
                errors.append(
                    float(np.linalg.norm(predicted - actual) / np.linalg.norm(actual))
                )

            def true_min(config):
                return float(
                    setup.testbed.measure_csi(
                        setup.tx_device, setup.rx_device, config
                    ).snr_db[mask].min()
                )

            predicted_best, _ = predict_and_pick(
                setup.array, model, MinSnrObjective()
            )
            truth = ExhaustiveSearch().search(
                setup.array.configuration_space(), true_min
            )
            relax = optimize_phases(setup.array, model, restarts=6)
            rows.append(
                {
                    "seed": seed,
                    "measurements": len(schedule),
                    "exhaustive": truth.num_evaluations,
                    "pred_error": float(np.median(errors)),
                    "gap_db": truth.best_score - true_min(predicted_best),
                    "continuous_bonus_db": relax.continuous_min_db
                    - (truth.best_score - true_min(predicted_best)),
                }
            )
        return rows

    rows = once(run)

    printable = [("placement", "soundings", "vs exhaustive", "median pred err", "optimality gap")]
    for row in rows:
        printable.append(
            (
                str(row["seed"]),
                str(row["measurements"]),
                str(row["exhaustive"]),
                f"{100 * row['pred_error']:.1f}%",
                f"{row['gap_db']:.2f} dB",
            )
        )
    print()
    print("Model-based prediction — identify with N+1 soundings, predict all 64")
    print(format_table(printable, header_rule=True))

    table = ReportTable(title="Prediction vs exhaustive sweep")
    worst_gap = max(row["gap_db"] for row in rows)
    worst_err = max(row["pred_error"] for row in rows)
    savings = rows[0]["exhaustive"] / rows[0]["measurements"]
    table.add(
        "measurement savings",
        "O(N) identification vs O(M^N) sweep",
        f"{savings:.0f}x fewer soundings",
        savings >= 8,
    )
    table.add(
        "prediction accuracy",
        "linear model exact up to stub dispersion",
        f"median error <= {100 * worst_err:.1f}%",
        worst_err < 0.05,
    )
    table.add(
        "optimality of predicted best",
        "near-exhaustive quality",
        f"worst gap {worst_gap:.2f} dB",
        worst_gap <= 1.0,
    )
    print(table.render())
    assert table.all_hold()
