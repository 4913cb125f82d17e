#!/usr/bin/env python3
"""Capstone: a whole smart space, end to end.

One PRESS array serves three clients behind a blocker while traffic comes
and goes and a person walks through the room.  The run exercises the full
stack the way a deployment would:

1. render the floor plan;
2. identify the linear channel model per client (N+1 soundings each);
3. pick per-link configurations from predictions, cluster them into a
   hybrid plan, and build the packet-timescale switching schedule;
4. check the schedule against the control plane's actuation latency and
   each element's energy budget;
5. generate an on/off traffic trace and compare dynamic strategies.

Run:  python examples/smart_space.py
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.viz import render_scene
from repro.control import analyze_link, wired_bus_link
from repro.control.energy import (
    ElementPowerModel,
    EnergyBudget,
    indoor_light_harvester,
)
from repro.core import (
    LinkObjective,
    MinSnrObjective,
    TimingModel,
    fit_channel_model,
    identification_configurations,
    optimize_hybrid,
    predict_and_pick,
)
from repro.em.geometry import Point
from repro.experiments import (
    build_nlos_setup,
    evaluate_dynamic_strategies,
    generate_traffic,
    used_subcarrier_mask,
)
from repro.sdr.device import warp_v3


def main():
    setup = build_nlos_setup(placement_seed=2)
    mask = used_subcarrier_mask()
    array = setup.array
    space = array.configuration_space()

    clients = {
        f"client-{index}": warp_v3(
            f"client-{index}",
            Point(
                setup.rx_device.position.x + dx,
                setup.rx_device.position.y + dy,
            ),
        )
        for index, (dx, dy) in enumerate([(0.0, 0.0), (0.5, 0.4), (-0.3, 0.6)])
    }

    markers = {"T": setup.tx_device.position}
    for index, client in enumerate(clients.values()):
        markers[str(index)] = client.position
    print("Floor plan (T = AP, digits = clients, o = scatterers, X = blocker):")
    print(render_scene(setup.testbed.scene, markers=markers, width=56, height=18))

    # --- model-based per-link optimisation -----------------------------
    print("\nIdentifying the channel model per client "
          f"({len(identification_configurations(array))} soundings each):")
    links = []
    chosen = {}
    for name, client in clients.items():
        schedule = identification_configurations(array)
        basis = setup.testbed.basis_for(setup.tx_device, client)
        cfrs = [basis.cfr(c)[mask] for c in schedule]
        model = fit_channel_model(array, schedule, cfrs, setup.testbed.frequency_hz)
        best, _ = predict_and_pick(array, model, MinSnrObjective())
        chosen[name] = best

        def measure(config, client=client):
            return setup.testbed.measure_csi(
                setup.tx_device, client, config
            ).snr_db[mask]

        links.append(LinkObjective(name=name, measure=measure, objective=MinSnrObjective()))
        print(f"  {name}: predicted best {array.describe(best)} "
              f"-> measured min-SNR {measure(best).min():.1f} dB")

    # --- hybrid clustering + switching schedule ------------------------
    plan = optimize_hybrid(links, space, tolerance=2.0)
    print(f"\nHybrid plan: {plan.num_distinct_configurations} distinct "
          f"configuration(s) for {len(links)} links "
          f"(per-link scores: "
          + ", ".join(f"{k} {v:.1f} dB" for k, v in plan.per_link_scores.items())
          + ")")

    wired = analyze_link(wired_bus_link(), num_elements=array.num_elements)
    schedule = plan.schedule(
        slot_duration_s=1.5e-3,
        timing=TimingModel(actuation_latency_s=wired.actuation_s),
        space=space,
    )
    print(f"packet-timescale schedule: period {schedule.period_s * 1e3:.1f} ms, "
          f"feasible over the wired bus: {schedule.feasible}")

    # --- energy sustainability ------------------------------------------
    switches_per_second = len(schedule.slots) / schedule.period_s
    budget = EnergyBudget(
        element=ElementPowerModel(),
        harvester=indoor_light_harvester(area_cm2=25.0),
    )
    sustainable = budget.is_sustainable(switches_per_second)
    print(f"per-element switching rate {switches_per_second:.0f}/s -> "
          f"sustainable on a 25 cm^2 light harvester: {sustainable} "
          f"(max sustainable {budget.max_sustainable_switch_rate():.0f}/s)")
    if not sustainable:
        # Packet-timescale switching is power hungry; size the harvester for
        # it (or switch element groups less often — the §4.1 tiering).
        draw = budget.element.average_power_w(switches_per_second)
        area = draw / 10e-6  # 10 uW/cm^2 office light
        print(f"  -> would need a ~{area:.0f} cm^2 cell, or per-group "
              f"switching to cut the rate")

    # --- dynamic traffic --------------------------------------------------
    rng = np.random.default_rng(7)
    epochs = generate_traffic(list(clients), 120.0, rng)
    results = evaluate_dynamic_strategies(links, space, epochs)
    rows = [("strategy", "score [dB]", "searches", "soundings")]
    for name in ("static-joint", "reactive-joint", "cached"):
        result = results[name]
        rows.append(
            (
                name,
                f"{result.time_weighted_score:.2f}",
                str(result.num_searches),
                str(result.num_measurements),
            )
        )
    print(f"\nDynamic traffic over 120 s "
          f"({len({e.active_links for e in epochs})} recurring active sets):")
    print(format_table(rows, header_rule=True))


if __name__ == "__main__":
    main()
