"""The cold basis build against the per-element loops it replaced, bit for bit.

``RayTracer.frame`` traces the TX-facing half of every relay as array
operations, ``ChannelBasis.trace_chunked`` folds each state set's states
in one broadcast per chunk, both bases take ``exp`` on half the
subcarrier grid and conjugate the mirror bins, and the wall-array
builder computes its grid from floats.  The loops those replaced are
kept here as references.  Every result must have their bytes, signed
zeros included, on arrays built to reach each branch: ragged state sets,
equal state tuples held as distinct objects, directional antennas at
both ends, a hop shorter than ``MIN_HOP_DISTANCE_M``, blocked and
zero-gain elements, chunks that split a state-set group, and odd and even
subcarrier counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.core import basis as basis_module
from repro.core.array import PressArray
from repro.core.basis import ChannelBasis, element_frame
from repro.core.element import (
    PressElement,
    omni_element,
    parabolic_element,
    phase_shifter_states,
    sp4t_states,
)
from repro.em.antennas import Antenna, LogPeriodicAntenna, OmniAntenna
from repro.em.channel import subcarrier_frequencies
from repro.em.geometry import Point, distance, legs_blocked_packed
from repro.em.raytracer import (
    _ENDPOINT_TOL,
    TraceFrame,
    _Relays,
    free_space_amplitude,
)
from repro.em.scene import surface_grid_positions
from repro.experiments import StudyConfig, build_large_array_setup, build_nlos_setup

BANDWIDTH_HZ = 20e6


@dataclass(frozen=True)
class _DeadAntenna(Antenna):
    """An antenna with no gain anywhere: its element's amplitude is zero."""

    def pattern_dbi(self, offset_rad: float) -> float:
        return -math.inf


def _reference_relay_half(tracer, tx, tx_antenna, relays) -> _Relays:
    """The per-relay loop the array form of ``_relay_half`` replaced."""
    columns = np.zeros((8, len(relays), 1))
    by_antenna: dict = {}
    for row, (via, antenna, gain_dbi) in enumerate(relays):
        d1 = distance(tx, via)
        aod = (via - tx).angle()
        flat = 10.0 ** (gain_dbi / 20.0)
        if antenna is None:
            gain_in = flat
        else:
            gain_in = antenna.amplitude_gain((tx - via).angle())
            by_antenna.setdefault(antenna, []).append(row)
        hop1 = free_space_amplitude(d1, tracer.wavelength_m)
        tx_gain = tx_antenna.amplitude_gain(aod)
        columns[:, row, 0] = (via.x, via.y, d1, hop1, tx_gain, gain_in, aod, flat)
    blocked = legs_blocked_packed(
        *np.broadcast_arrays(tx.x, tx.y, columns[0, :, 0], columns[1, :, 0]),
        tracer._packed_blockers,
        endpoint_tol=_ENDPOINT_TOL,
    )
    return _Relays(
        columns=columns,
        tx_clear=~blocked[:, None],
        patterns=tuple((antenna, np.array(rows)) for antenna, rows in by_antenna.items()),
    )


def _reference_frame(array, tracer, tx, tx_antenna) -> TraceFrame:
    relays = [(e.position, e.antenna, 0.0) for e in array.elements]
    return TraceFrame(
        tracer=tracer, tx=tx, tx_antenna=tx_antenna,
        relays=_reference_relay_half(tracer, tx, tx_antenna, relays),
    )


def _reference_chunked_tensor(
    array, tx, rx, tracer, tx_antenna, rx_antenna, num_subcarriers, element_chunk
) -> np.ndarray:
    """The per-element state fold ``ChannelBasis.trace_chunked`` replaced."""
    max_states = max(array.configuration_space().state_counts)
    tensor = np.zeros((array.num_elements, max_states, num_subcarriers), dtype=complex)
    freqs = subcarrier_frequencies(num_subcarriers, BANDWIDTH_HZ)
    carrier = tracer.frequency_hz
    freq_factor = -2.0j * np.pi * freqs
    frame = _reference_frame(array, tracer, tx, tx_antenna)
    geometry = frame.relay_geometry(np.array([rx.x]), np.array([rx.y]), rx_antenna)
    amplitudes, all_totals, _, clears = (column[:, 0] for column in geometry)
    folds = {}
    for states in dict.fromkeys(element.states for element in array.elements):
        gamma = np.zeros(len(states), dtype=complex)
        extra_phasor = np.zeros((len(states), num_subcarriers), dtype=complex)
        for m, state in enumerate(states):
            if state.is_terminated:
                continue
            stub_carrier_phase = -2.0 * math.pi * carrier * state.extra_path_m / SPEED_OF_LIGHT
            gamma[m] = state.magnitude * complex(
                math.cos(state.fixed_phase_rad), math.sin(state.fixed_phase_rad)
            ) * complex(math.cos(stub_carrier_phase), math.sin(stub_carrier_phase))
            extra_phasor[m] = np.exp(freq_factor * state.extra_delay_s)
        folds[states] = (gamma, extra_phasor)
    for start in range(0, array.num_elements, element_chunk):
        stop = min(start + element_chunk, array.num_elements)
        totals = all_totals[start:stop]
        base_phasors = np.exp(freq_factor[None, :] * (totals / SPEED_OF_LIGHT)[:, None])
        carrier_phasors = np.exp(-2.0j * np.pi * totals / tracer.wavelength_m)
        for offset, n in enumerate(range(start, stop)):
            if not clears[n] or amplitudes[n] == 0.0:
                continue
            element = array.elements[n]
            gamma, extra_phasor = folds[element.states]
            per_state_gain = amplitudes[n] * carrier_phasors[offset] * gamma
            tensor[n, : len(element.states)] = (
                per_state_gain[:, None] * base_phasors[offset][None, :] * extra_phasor
            )
    return tensor


def _reference_batch_tensors(
    array, tracer, frame, points, rx_antenna, num_subcarriers
) -> np.ndarray:
    """``ChannelBasis.trace_batch``'s fold with a full-grid ``exp``, shape (P, N, M, K)."""
    freqs = subcarrier_frequencies(num_subcarriers, BANDWIDTH_HZ)
    tensors = np.zeros(
        (len(points), array.num_elements, max(array.configuration_space().state_counts),
         num_subcarriers),
        dtype=complex,
    )
    by_element = tensors.transpose(1, 2, 0, 3)
    freq_factor = -2.0j * np.pi * freqs
    rx_x = np.array([p.x for p in points])
    rx_y = np.array([p.y for p in points])
    amplitude, total, _, clear = frame.relay_geometry(rx_x, rx_y, rx_antenna)
    carrier_phasor = np.exp(-2.0j * np.pi * total / tracer.wavelength_m)
    base_delay = total / SPEED_OF_LIGHT
    by_states: dict = {}
    for n, element in enumerate(array.elements):
        by_states.setdefault(element.states, []).append(n)
    for states, rows in by_states.items():
        for m, state in enumerate(states):
            if state.is_terminated:
                continue
            stub = -2.0 * math.pi * tracer.frequency_hz * state.extra_path_m / SPEED_OF_LIGHT
            reflectivity = state.magnitude * complex(
                math.cos(state.fixed_phase_rad), math.sin(state.fixed_phase_rad)
            )
            gain = amplitude[rows] * reflectivity * carrier_phasor[rows]
            gain = gain * complex(math.cos(stub), math.sin(stub))
            valid = clear[rows] & (np.abs(gain) != 0.0)
            delay = base_delay[rows] + state.extra_delay_s
            contribution = gain[..., None] * np.exp(freq_factor * delay[..., None])
            contribution[~valid] = 0.0
            by_element[rows, m] = contribution
    return tensors


def _mixed_array(tx: Point, rx: Point) -> PressArray:
    """Every branch of the cold build in one array.

    Omni elements on a grid over the room (some behind the blocker), with
    two ragged state sets in runs of five, and each set held as two equal
    but distinct tuples.  Among them sit parabolic elements, an omni
    element 2 cm from the TX, a parabolic one 3 cm from the RX, and a
    zero-gain element.
    """
    sp4t, sp4t_copy = sp4t_states(), sp4t_states()
    shifter, shifter_copy = phase_shifter_states(3), phase_shifter_states(3)
    assert sp4t == sp4t_copy and sp4t is not sp4t_copy
    state_sets = (sp4t, shifter, sp4t_copy, shifter_copy)
    elements = []
    for index, (x, y) in enumerate((x, y) for y in (1.0, 3.5, 6.0) for x in np.linspace(1.0, 11.0, 12)):
        states = state_sets[(index // 5) % len(state_sets)]
        if index % 7 == 3:
            element = parabolic_element(Point(float(x), float(y)), states=states).pointed_at(rx)
        else:
            element = omni_element(Point(float(x), float(y)), states=states)
        elements.append(element)
    elements.insert(9, omni_element(Point(tx.x + 0.02, tx.y)))
    elements.insert(20, parabolic_element(Point(rx.x, rx.y - 0.03), states=shifter).pointed_at(tx))
    elements.insert(27, PressElement(Point(5.0, 5.0), antenna=_DeadAntenna(), states=sp4t))
    return PressArray(tuple(
        PressElement(e.position, e.antenna, e.states, name=f"e{i}") for i, e in enumerate(elements)
    ))


@pytest.fixture(scope="module")
def scene():
    """The blocked-link study scene, its endpoints, and a mixed array in it."""
    setup = build_nlos_setup(3, StudyConfig())
    tx, rx = setup.tx_device.chains[0].position, setup.rx_device.chains[0].position
    return setup.testbed.tracer, tx, rx, _mixed_array(tx, rx)


TX_ANTENNAS = {
    "omni": OmniAntenna(),
    "directional": LogPeriodicAntenna(boresight_rad=0.4),
}


def test_mixed_array_reaches_every_branch(scene):
    tracer, tx, rx, array = scene
    frame = element_frame(array, tracer, tx, OmniAntenna())
    amplitude, _, _, clear = frame.relay_geometry(np.array([rx.x]), np.array([rx.y]), OmniAntenna())
    assert not clear.all() and clear.sum() > array.num_elements // 2
    assert (amplitude[:, 0] == 0.0).sum() == 1
    d1 = frame.relays.columns[2, :, 0]
    assert d1.min() < 0.05
    assert len({e.states for e in array.elements}) == 2 < len({id(e.states) for e in array.elements})


@pytest.mark.parametrize("tx_antenna", TX_ANTENNAS.values(), ids=TX_ANTENNAS.keys())
def test_relay_half_matches_the_per_relay_loop(scene, tx_antenna):
    tracer, tx, _, array = scene
    got = element_frame(array, tracer, tx, tx_antenna).relays
    want = _reference_frame(array, tracer, tx, tx_antenna).relays
    assert got.columns.shape == want.columns.shape
    assert got.columns.tobytes() == want.columns.tobytes()
    assert got.tx_clear.tobytes() == want.tx_clear.tobytes()
    assert [(a, rows.tolist()) for a, rows in got.patterns] == [
        (a, rows.tolist()) for a, rows in want.patterns
    ]


def test_scatterer_half_matches_the_per_relay_loop(scene):
    tracer, tx, _, array = scene
    frame = element_frame(array, tracer, tx, TX_ANTENNAS["directional"])
    relays = [(s.position, None, s.gain_dbi) for s in tracer.scene.scatterers]
    want = _reference_relay_half(tracer, tx, TX_ANTENNAS["directional"], relays)
    assert frame.scatterers.columns.tobytes() == want.columns.tobytes()
    assert frame.scatterers.tx_clear.tobytes() == want.tx_clear.tobytes()
    assert frame.scatterers.patterns == want.patterns == ()


@pytest.mark.parametrize("num_subcarriers", [64, 15, 2, 1])
@pytest.mark.parametrize("element_chunk", [256, 7, 1])
@pytest.mark.parametrize("tx_antenna", TX_ANTENNAS.values(), ids=TX_ANTENNAS.keys())
def test_trace_chunked_matches_the_per_element_fold(
    scene, tx_antenna, element_chunk, num_subcarriers, monkeypatch
):
    tracer, tx, rx, array = scene
    rx_antenna = OmniAntenna(peak_gain_dbi=3.0)
    monkeypatch.setattr(basis_module, "_ELEMENT_CHUNK", element_chunk)
    basis = ChannelBasis.trace_chunked(
        array, tx, rx, tracer, tx_antenna=tx_antenna, rx_antenna=rx_antenna,
        num_subcarriers=num_subcarriers, bandwidth_hz=BANDWIDTH_HZ,
    )
    want = _reference_chunked_tensor(
        array, tx, rx, tracer, tx_antenna, rx_antenna, num_subcarriers, element_chunk
    )
    assert basis.state_tensor.tobytes() == want.tobytes()


@pytest.mark.parametrize("num_subcarriers", [64, 15, 2, 1])
@pytest.mark.parametrize("tx_antenna", TX_ANTENNAS.values(), ids=TX_ANTENNAS.keys())
def test_trace_batch_matches_the_full_grid_exp(scene, tx_antenna, num_subcarriers):
    tracer, tx, rx, array = scene
    offsets = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 2))
    points = [Point(rx.x + dx, rx.y + dy) for dx, dy in offsets] + [rx]
    frame = element_frame(array, tracer, tx, tx_antenna)
    bases = ChannelBasis.trace_batch(
        array, tx, points, tracer, tx_antenna=tx_antenna, rx_antenna=OmniAntenna(),
        num_subcarriers=num_subcarriers, bandwidth_hz=BANDWIDTH_HZ, frame=frame,
    )
    want = _reference_batch_tensors(array, tracer, frame, points, OmniAntenna(), num_subcarriers)
    for basis, tensor in zip(bases, want):
        assert basis.state_tensor.tobytes() == tensor.tobytes()


def _reference_grid(start, end, count, rows=1, standoff_m=0.05, row_spacing_m=0.06):
    """The Point-arithmetic loop ``surface_grid_positions`` replaced."""
    direction = end - start
    length = direction.norm()
    unit = direction.normalized()
    normal = Point(-unit.y, unit.x)
    columns = -(-count // rows)
    positions = []
    for index in range(count):
        row, column = divmod(index, columns)
        along = 0.5 * length if columns == 1 else length * column / (columns - 1)
        inward = standoff_m + row * row_spacing_m
        positions.append(start + along * unit + inward * normal)
    return tuple(positions)


@pytest.mark.parametrize(
    "count,rows", [(1, 1), (3, 3), (7, 1), (1024, 4), (1000, 3), (256, 1)]
)
def test_surface_grid_matches_point_arithmetic(count, rows):
    for start, end in ((Point(11.4, 7.8), Point(0.6, 7.8)), (Point(0.3, 0.7), Point(2.9, 5.1))):
        got = surface_grid_positions(start, end, count=count, rows=rows)
        want = _reference_grid(start, end, count, rows)
        assert [(p.x.hex(), p.y.hex()) for p in got] == [(p.x.hex(), p.y.hex()) for p in want]


def test_wall_array_equals_the_omni_element_build():
    setup = build_large_array_setup(1, num_elements=300, rows=2)
    config = setup.config
    y = config.room_height_m - 0.2
    positions = _reference_grid(
        Point(config.room_width_m - 0.6, y), Point(0.6, y), count=300, rows=2
    )
    want = tuple(
        omni_element(p, name=f"e{i}", gain_dbi=config.element_gain_dbi, states=sp4t_states())
        for i, p in enumerate(positions)
    )
    assert setup.array.elements == want
    assert len({id(e.antenna) for e in setup.array.elements}) == 1
