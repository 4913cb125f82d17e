"""Per-path references for the channel basis and the soundings read off it.

One :meth:`RayTracer.relay_path` per (element, state), each state's Γ
split into the path's parameters: magnitude and fixed phase into the
reflectivity, the stub's carrier phase into the extra phase, its
dispersion into the delay.  ``ChannelBasis.trace_chunked`` and
``ChannelBasis.trace_batch`` fold the same physics as array operations;
the tests hold them to :func:`reference_basis`.  :func:`reference_cfr`
and :func:`reference_observation` compose one configured channel the
same way — ambient paths, drifted one path object at a time, plus one
relay path per element, through ``paths_to_cfr`` — so the soundings,
sweeps and MIMO matrices of ``Testbed`` are checked against a route that
never touches the basis.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.constants import BANDWIDTH_HZ, NUM_SUBCARRIERS, SPEED_OF_LIGHT
from repro.core.array import PressArray
from repro.core.basis import ChannelBasis
from repro.core.configuration import ArrayConfiguration
from repro.core.element import PressElement, ElementState
from repro.em.antennas import Antenna, IsotropicAntenna
from repro.em.channel import ChannelObservation, observe_cfr, subcarrier_frequencies
from repro.em.geometry import Point
from repro.em.paths import SignalPath, path_arrays, paths_to_cfr
from repro.em.raytracer import RayTracer
from repro.sdr.device import SdrDevice
from repro.sdr.testbed import Testbed, drift_factors


def element_relay_path(
    tracer: RayTracer,
    tx: Point,
    rx: Point,
    element: PressElement,
    state: ElementState,
    tx_antenna: Antenna = IsotropicAntenna(),
    rx_antenna: Antenna = IsotropicAntenna(),
) -> Optional[SignalPath]:
    """The TX -> element -> RX path of one state (``None``: terminated or blocked)."""
    if state.is_terminated:
        return None
    stub_carrier_phase = (
        -2.0 * math.pi * tracer.frequency_hz * state.extra_path_m / SPEED_OF_LIGHT
    )
    reflectivity = state.magnitude * complex(
        math.cos(state.fixed_phase_rad), math.sin(state.fixed_phase_rad)
    )
    return tracer.relay_path(
        tx,
        element.position,
        rx,
        tx_antenna=tx_antenna,
        rx_antenna=rx_antenna,
        relay_antenna_in=element.antenna,
        relay_antenna_out=element.antenna,
        reflectivity=reflectivity,
        extra_delay_s=state.extra_delay_s,
        extra_phase_rad=stub_carrier_phase,
        kind="press-element",
    )


def reference_basis(
    array: PressArray,
    tx: Point,
    rx: Point,
    tracer: RayTracer,
    tx_antenna: Antenna = IsotropicAntenna(),
    rx_antenna: Antenna = IsotropicAntenna(),
    num_subcarriers: int = NUM_SUBCARRIERS,
    bandwidth_hz: float = BANDWIDTH_HZ,
    environment_paths: Optional[Sequence[SignalPath]] = None,
) -> ChannelBasis:
    """The basis of one TX/RX pair, traced one relay path at a time."""
    freqs = subcarrier_frequencies(num_subcarriers, bandwidth_hz)
    if environment_paths is None:
        environment_paths = tracer.trace(tx, rx, tx_antenna, rx_antenna)
    gains, delays, _ = path_arrays(environment_paths)
    space = array.configuration_space()
    tensor = np.zeros(
        (array.num_elements, max(space.state_counts), num_subcarriers), dtype=complex
    )
    for n, element in enumerate(array.elements):
        for m, state in enumerate(element.states):
            path = element_relay_path(
                tracer, tx, rx, element, state, tx_antenna, rx_antenna
            )
            if path is not None:
                tensor[n, m] = path.gain * np.exp(-2.0j * np.pi * freqs * path.delay_s)
    return ChannelBasis(
        space=space,
        frequencies_hz=freqs,
        ambient_gains=gains,
        ambient_delays=delays,
        state_tensor=tensor,
        num_subcarriers=num_subcarriers,
        bandwidth_hz=bandwidth_hz,
    )


def reference_paths(
    testbed: Testbed,
    tx_device: SdrDevice,
    rx_device: SdrDevice,
    configuration: ArrayConfiguration,
    tx_chain: int = 0,
    rx_chain: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> tuple[SignalPath, ...]:
    """One configured channel's paths: ambient, then one relay per element.

    With an ``rng`` and non-zero drift, every ambient path is scaled by one
    :func:`drift_factors` draw, as a sounding draws it.
    """
    tx = tx_device.chains[tx_chain]
    rx = rx_device.chains[rx_chain]
    ambient = testbed.environment_paths(tx_device, rx_device, tx_chain, rx_chain)
    factors = drift_factors(
        len(ambient), rng, testbed.drift_phase_rad, testbed.drift_amplitude
    )
    if factors is not None:
        ambient = tuple(path.scaled(complex(f)) for path, f in zip(ambient, factors))
    testbed.array.configuration_space().validate(configuration)
    relays = [
        element_relay_path(
            testbed.tracer,
            tx.position,
            rx.position,
            element,
            element.state(index),
            tx.antenna,
            rx.antenna,
        )
        for element, index in zip(testbed.array.elements, configuration.indices)
    ]
    return tuple(ambient) + tuple(path for path in relays if path is not None)


def reference_cfr(
    testbed: Testbed,
    tx_device: SdrDevice,
    rx_device: SdrDevice,
    configuration: ArrayConfiguration,
    tx_chain: int = 0,
    rx_chain: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One configured CFR: :func:`reference_paths` through ``paths_to_cfr``."""
    paths = reference_paths(
        testbed, tx_device, rx_device, configuration, tx_chain, rx_chain, rng
    )
    freqs = subcarrier_frequencies(testbed.num_subcarriers, testbed.bandwidth_hz)
    return paths_to_cfr(paths, freqs)


def reference_observation(
    testbed: Testbed,
    tx_device: SdrDevice,
    rx_device: SdrDevice,
    configuration: ArrayConfiguration,
    rng: Optional[np.random.Generator] = None,
) -> ChannelObservation:
    """One sounding composed path by path: drift, relays, then ``observe_cfr``."""
    return observe_cfr(
        reference_cfr(testbed, tx_device, rx_device, configuration, rng=rng),
        testbed.num_subcarriers,
        testbed.bandwidth_hz,
        tx_power_dbm=tx_device.tx_power_dbm,
        noise_figure_db=rx_device.noise_figure_db,
        rng=rng,
    )
