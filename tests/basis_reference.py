"""The per-element reference builder of a channel basis.

One :meth:`RayTracer.relay_path` per (element, state), each state's Γ split
exactly as :meth:`PressArray.element_paths` splits it: magnitude and fixed
phase into the reflectivity, the stub's carrier phase into the extra
phase, its dispersion into the delay.  ``ChannelBasis.trace_chunked`` and
``ChannelBasis.trace_batch`` fold the same physics as array operations;
the tests hold them to this loop.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.constants import BANDWIDTH_HZ, NUM_SUBCARRIERS, SPEED_OF_LIGHT
from repro.core.array import PressArray
from repro.core.basis import ChannelBasis
from repro.em.antennas import Antenna, IsotropicAntenna
from repro.em.channel import subcarrier_frequencies
from repro.em.geometry import Point
from repro.em.paths import SignalPath, path_arrays
from repro.em.raytracer import RayTracer


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
            if state.is_terminated:
                continue
            stub_carrier_phase = (
                -2.0 * math.pi * tracer.frequency_hz * state.extra_path_m / SPEED_OF_LIGHT
            )
            reflectivity = state.magnitude * complex(
                math.cos(state.fixed_phase_rad), math.sin(state.fixed_phase_rad)
            )
            path = tracer.relay_path(
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
