"""Sweep fast-path micro-benchmark: per-path sounding loop vs channel-basis wall time.

The Fig. 4 workload — 3 elements, 64 configurations, 10 repetitions — is
the inner loop of every experiment.  The baseline ("legacy" in the
ledger) composes each of the 640 soundings path by path, the way the
simulator did before it read the channel basis: the cached ambient paths,
drifted one path object at a time, plus one re-traced
``RayTracer.relay_path`` per element, through ``paths_to_cfr`` and
``observe_cfr``.  ``Testbed.sweep`` traces geometry once and evaluates the
whole sweep as vectorized numpy.  This benchmark records both wall times
(and the drifted/noisy variant) to ``BENCH_sweep.json`` and asserts the
>= 10x speedup plus numerical agreement with the loop.
"""

import cmath
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import ReportTable
from repro.em.channel import observe_cfr, subcarrier_frequencies
from repro.em.paths import paths_to_cfr
from repro.experiments import build_nlos_setup
from repro.sdr.testbed import drift_factors

REPETITIONS = 10


def _timed_sweep(testbed, tx, rx, seed=None):
    rng = None if seed is None else np.random.default_rng(seed)
    start = time.perf_counter()
    result = testbed.sweep(tx, rx, repetitions=REPETITIONS, rng=rng)
    return time.perf_counter() - start, result.snr_db


def _per_path_snr(testbed, tx, rx, ambient, configuration, rng):
    """One sounding composed path by path, every element's relay re-traced."""
    tracer = testbed.tracer
    tx_chain, rx_chain = tx.chains[0], rx.chains[0]
    paths = list(ambient)
    factors = drift_factors(
        len(paths), rng, testbed.drift_phase_rad, testbed.drift_amplitude
    )
    if factors is not None:
        paths = [path.scaled(complex(f)) for path, f in zip(paths, factors)]
    for element, index in zip(testbed.array.elements, configuration.indices):
        state = element.state(index)
        if state.is_terminated:
            continue
        path = tracer.relay_path(
            tx_chain.position,
            element.position,
            rx_chain.position,
            tx_antenna=tx_chain.antenna,
            rx_antenna=rx_chain.antenna,
            relay_antenna_in=element.antenna,
            relay_antenna_out=element.antenna,
            reflectivity=state.magnitude * cmath.exp(1j * state.fixed_phase_rad),
            extra_delay_s=state.extra_delay_s,
            extra_phase_rad=-2.0 * math.pi * tracer.frequency_hz * state.extra_delay_s,
        )
        if path is not None:
            paths.append(path)
    freqs = subcarrier_frequencies(testbed.num_subcarriers, testbed.bandwidth_hz)
    return observe_cfr(
        paths_to_cfr(paths, freqs),
        testbed.num_subcarriers,
        testbed.bandwidth_hz,
        tx_power_dbm=tx.tx_power_dbm,
        noise_figure_db=rx.noise_figure_db,
        rng=rng,
    ).snr_db


def _timed_measure_loop(testbed, tx, rx, seed=None):
    """The sweep as one per-path sounding per configuration and repetition."""
    rng = None if seed is None else np.random.default_rng(seed)
    configurations = testbed.configurations
    ambient = testbed.environment_paths(tx, rx)
    start = time.perf_counter()
    snr = np.empty((REPETITIONS, len(configurations), testbed.num_subcarriers))
    for rep in range(REPETITIONS):
        for index, configuration in enumerate(configurations):
            snr[rep, index] = _per_path_snr(testbed, tx, rx, ambient, configuration, rng)
    return time.perf_counter() - start, snr


def test_bench_sweep_speed(once):
    setup = build_nlos_setup(2)
    testbed = setup.testbed
    tx, rx = setup.tx_device, setup.rx_device
    # Warm the trace caches so both routes time steady-state sweep work.
    testbed.basis_for(tx, rx)

    legacy_s, legacy = _timed_measure_loop(testbed, tx, rx)
    basis_s, fast = once(_timed_sweep, testbed, tx, rx)
    deviation = float(np.max(np.abs(fast - legacy)))
    speedup = legacy_s / basis_s

    noisy_legacy_s, noisy_legacy = _timed_measure_loop(testbed, tx, rx, seed=7)
    noisy_basis_s, noisy_fast = _timed_sweep(testbed, tx, rx, seed=7)
    noisy_deviation = float(np.max(np.abs(noisy_fast - noisy_legacy)))
    noisy_speedup = noisy_legacy_s / noisy_basis_s

    num_configs = legacy.shape[1]
    table = ReportTable(
        title=(
            f"Sweep fast path — {testbed.array.num_elements} elements, "
            f"{num_configs} configs, {REPETITIONS} reps"
        )
    )
    table.add(
        "exact sweep speedup (basis vs per-sounding loop)",
        ">= 10x",
        f"{speedup:.0f}x ({1e3 * legacy_s:.0f} -> {1e3 * basis_s:.1f} ms)",
        speedup >= 10.0,
    )
    table.add(
        "exact sweep max |dSNR|",
        "<= 1e-9 dB",
        f"{deviation:.2e} dB",
        deviation <= 1e-9,
    )
    table.add(
        "drift+noise sweep speedup",
        "> 1x",
        f"{noisy_speedup:.1f}x ({1e3 * noisy_legacy_s:.0f} -> {1e3 * noisy_basis_s:.0f} ms)",
        noisy_speedup > 1.0,
    )
    table.add(
        "drift+noise sweep max |dSNR|",
        "<= 1e-9 dB",
        f"{noisy_deviation:.2e} dB",
        noisy_deviation <= 1e-9,
    )
    print()
    print(table.render())

    payload = {
        "workload": {
            "elements": testbed.array.num_elements,
            "configurations": num_configs,
            "repetitions": REPETITIONS,
            "subcarriers": testbed.num_subcarriers,
        },
        "exact": {
            "legacy_s": legacy_s,
            "basis_s": basis_s,
            "speedup": speedup,
            "max_abs_snr_deviation_db": deviation,
        },
        "drift_noise": {
            "legacy_s": noisy_legacy_s,
            "basis_s": noisy_basis_s,
            "speedup": noisy_speedup,
            "max_abs_snr_deviation_db": noisy_deviation,
        },
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    assert table.all_hold()
