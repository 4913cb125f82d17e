"""Blockage and tracer parity: the batched forms against the per-leg scalar ones.

* ``legs_blocked_packed`` gives, row for row, the boolean of
  ``leg_blocked_packed``, on legs chosen to hit the edge cases: collinear
  overlaps, endpoint touches, degenerate legs and segments, and shared
  and per-leg exclude masks.
* ``RayTracer.trace``, which tests each path family's legs in one
  ``legs_blocked_packed`` call, matches a reference kept here that tests
  each leg on its own with ``leg_is_clear``, bit for bit.
* The scalar tracer and ``TraceFrame.trace_batch`` differ by about
  1e-13 relative on wall and scatterer gains.  Two roundings explain it
  all: numpy's complex / real multiplies by the reciprocal where CPython
  divides, and numpy's complex multiply fuses its products (FMA) at the
  AVX2 and AVX-512 dispatch levels where CPython's does not.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CARRIER_FREQUENCY_HZ, SPEED_OF_LIGHT
from repro.em.antennas import IsotropicAntenna, OmniAntenna
from repro.em.geometry import (
    Obstacle,
    Point,
    Segment,
    Wall,
    distance,
    leg_blocked_packed,
    legs_blocked_packed,
    mirror_point,
    pack_segments,
    segment_intersection,
)
from repro.em.materials import get_material
from repro.em.paths import SignalPath
from repro.em.raytracer import RayTracer, carrier_phase, free_space_amplitude
from repro.em.scene import Scatterer, Scene, shoebox_scene
from repro.experiments.common import build_large_array_setup

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Coordinates on a half-metre grid make collinear overlaps and endpoint
# touches common; the small offsets probe the endpoint tolerance.
_grid = st.integers(-4, 4).map(lambda v: v * 0.5)
_near = st.tuples(_grid, st.sampled_from([1e-7, -1e-7, 9e-7, -2e-6])).map(sum)
_coords = st.one_of(_grid, _grid, _near, st.floats(-2.5, 2.5, allow_nan=False))
_points = st.builds(Point, _coords, _coords)


@given(
    segments=st.lists(st.tuples(_points, _points), min_size=1, max_size=6),
    legs=st.lists(st.tuples(_points, _points), min_size=1, max_size=10),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_batched_blockage_matches_scalar_row_for_row(segments, legs, data):
    packed = pack_segments([Segment(a, b) for a, b in segments])
    # Some legs start or end exactly on a segment's endpoint, and some
    # are points.
    ends = [p for pair in segments for p in pair]
    legs = [
        (
            data.draw(st.sampled_from(ends)) if data.draw(st.booleans()) else a,
            a if data.draw(st.integers(0, 5)) == 0 else b,
        )
        for a, b in legs
    ]
    mode = data.draw(st.sampled_from(["none", "shared", "per-leg"]))
    bits = st.lists(st.booleans(), min_size=len(packed), max_size=len(packed))
    if mode == "none":
        mask = None
    elif mode == "shared":
        mask = np.array(data.draw(bits))
    else:
        mask = np.array([data.draw(bits) for _ in legs]).reshape(len(legs), len(packed))
    xy = np.array([(a.x, a.y, b.x, b.y) for a, b in legs], dtype=float)
    batched = legs_blocked_packed(*xy.T, packed, exclude_mask=mask)
    for row, (a, b) in enumerate(legs):
        row_mask = mask if mask is None or mask.ndim == 1 else mask[row]
        assert batched[row] == leg_blocked_packed(a, b, packed, exclude_mask=row_mask)


# ---------------------------------------------------------------------------
# The scalar tracer against a per-leg reference
# ---------------------------------------------------------------------------


def _reference_wall_path(tracer, tx, rx, walls, tx_antenna, rx_antenna):
    """The scalar ``_wall_path`` as it was, testing each leg on its own."""
    images = [tx]
    for wall in walls:
        images.append(mirror_point(images[-1], wall.segment))
    vertices = [rx]
    target = rx
    for index in range(len(walls) - 1, -1, -1):
        wall = walls[index]
        hit = segment_intersection(Segment(images[index + 1], target), wall.segment)
        if hit is None or not wall.segment.contains_point(hit, tol=1e-6):
            return None
        vertices.append(hit)
        target = hit
    vertices.append(tx)
    vertices.reverse()
    legs = list(zip(vertices[:-1], vertices[1:]))
    if any(distance(a, b) <= 1e-6 for a, b in legs):
        return None
    for leg_index, (start, end) in enumerate(legs):
        exclude = []
        if leg_index > 0:
            exclude.append(walls[leg_index - 1].segment)
        if leg_index < len(walls):
            exclude.append(walls[leg_index].segment)
        if not tracer.leg_is_clear(start, end, exclude=exclude):
            return None
    total_length = sum(distance(a, b) for a, b in legs)
    reflection = complex(1.0, 0.0)
    for wall in walls:
        reflection *= get_material(wall.material).reflection_coefficient
    aod = (vertices[1] - tx).angle()
    aoa = (vertices[-2] - rx).angle()
    amplitude = (
        free_space_amplitude(total_length, tracer.wavelength_m)
        * tx_antenna.amplitude_gain(aod)
        * rx_antenna.amplitude_gain(aoa)
    )
    gain = amplitude * reflection * carrier_phase(total_length, tracer.wavelength_m)
    return SignalPath(
        gain=gain, delay_s=total_length / SPEED_OF_LIGHT, aod_rad=aod, aoa_rad=aoa,
        kind="wall-reflection", hops=len(walls),
    )


def _reference_trace(tracer, tx, rx, tx_antenna, rx_antenna):
    """LoS, walls and scatterers, every leg its own ``leg_is_clear`` call."""
    paths = []
    los = tracer.line_of_sight_path(tx, rx, tx_antenna, rx_antenna)
    if los is not None:
        paths.append(los)
    walls = tracer.scene.walls
    sequences = [(w,) for w in walls] if tracer.max_bounces >= 1 else []
    if tracer.max_bounces >= 2:
        sequences += [
            (a, b) for a in walls for b in walls
            if {a.segment.start, a.segment.end} != {b.segment.start, b.segment.end}
        ]
    for sequence in sequences:
        path = _reference_wall_path(tracer, tx, rx, sequence, tx_antenna, rx_antenna)
        if path is not None:
            paths.append(path)
    for scatterer in tracer.scene.scatterers:
        path = tracer.relay_path(
            tx, scatterer.position, rx, tx_antenna=tx_antenna, rx_antenna=rx_antenna,
            relay_gain_dbi=scatterer.gain_dbi, reflectivity=scatterer.reflectivity,
            kind="scatterer",
        )
        if path is not None:
            paths.append(path)
    return paths


def _bits(paths):
    return [
        (p.gain.real.hex(), p.gain.imag.hex(), p.delay_s.hex(), p.aod_rad.hex(),
         p.aoa_rad.hex(), p.kind, p.hops)
        for p in paths
    ]


_room = st.builds(Point, st.integers(1, 15).map(lambda v: v * 0.5), st.integers(1, 11).map(lambda v: v * 0.5))


@given(
    extra=st.lists(st.tuples(_room, _room, st.booleans()), max_size=3),
    scatterers=st.lists(st.tuples(_room, st.floats(0.1, 0.9), st.floats(0.0, 6.0)), max_size=5),
    tx=_room,
    rx=_room,
    bounces=st.integers(0, 2),
    omni=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_scalar_trace_matches_per_leg_reference(extra, scatterers, tx, rx, bounces, omni):
    walls = list(shoebox_scene(8.0, 6.0).walls)
    obstacles = []
    for a, b, is_wall in extra:
        if a == b:
            continue
        if is_wall:
            walls.append(Wall(Segment(a, b), material="metal"))
        else:
            obstacles.append(Obstacle(Segment(a, b)))
    scene = Scene(
        walls=tuple(walls),
        obstacles=tuple(obstacles),
        scatterers=tuple(Scatterer(p, complex(r), g) for p, r, g in scatterers),
    )
    tracer = RayTracer(scene, max_bounces=bounces)
    antenna = OmniAntenna(peak_gain_dbi=3.0) if omni else IsotropicAntenna()
    expected = _bits(_reference_trace(tracer, tx, rx, antenna, antenna))
    assert _bits(tracer.trace(tx, rx, antenna, antenna)) == expected
    assert _bits(tracer.wall_paths(tx, rx, antenna, antenna)) == expected[
        : len(expected) - len(tracer.scatterer_paths(tx, rx, antenna, antenna))
    ]


# ---------------------------------------------------------------------------
# Why the scalar tracer and the trace frame differ by about 1e-13
# ---------------------------------------------------------------------------


def test_phase_argument_rounds_differently_in_numpy_and_cpython():
    wavelength = SPEED_OF_LIGHT / CARRIER_FREQUENCY_HZ
    lengths = np.random.default_rng(7).uniform(0.5, 30.0, 100_000)
    # The frame's argument: numpy's complex / real multiplies by 1 / lambda.
    frame = -2.0j * np.pi * lengths / wavelength
    # carrier_phase's argument: CPython's complex / real divides.
    scalar = np.array([-2.0j * math.pi * length / wavelength for length in lengths.tolist()])
    assert not frame.real.any() and not scalar.real.any()
    assert np.array_equal(frame.imag, (-2.0 * np.pi * lengths) * (1.0 / wavelength))
    assert np.array_equal(scalar.imag, (-2.0 * np.pi * lengths) / wavelength)
    ulps = np.abs(frame.imag - scalar.imag) / np.spacing(np.abs(scalar.imag))
    assert ulps.max() == 1.0
    assert np.mean(ulps != 0) > 0.4  # 58% on this draw
    # Given one argument, numpy's and cmath's exp agree bit for bit.
    assert np.array_equal(np.exp(scalar), [cmath.exp(z) for z in scalar.tolist()])


@pytest.mark.parametrize("placement", [0, 1, 4])
def test_tracers_agree_to_rounding_on_benchmark_scenes(placement):
    setup = build_large_array_setup(placement, 256)
    tracer = setup.testbed.tracer
    tx, rx = setup.tx_device.chains[0], setup.rx_device.chains[0]
    batch = tracer.frame(tx.position, tx.antenna).trace_batch([rx.position], rx.antenna)
    valid = batch.valid[0]
    scalar = tracer.trace(tx.position, rx.position, tx.antenna, rx.antenna)
    assert [p.kind for p in scalar] == [k for k, v in zip(batch.kinds, valid) if v]
    assert np.array_equal([p.delay_s for p in scalar], batch.delays_s[0][valid])
    gains = np.array([p.gain for p in scalar])
    relative = np.abs(gains - batch.gains[0][valid]) / np.abs(gains)
    assert relative.max() < 2e-13  # 1.14e-13 on these scenes


_SSE_LEVEL_CHECK = r"""
import cmath, json, math
import numpy as np
from repro.em import raytracer
from repro.experiments.common import build_large_array_setup

rng = np.random.default_rng(3)
a, b = (rng.normal(size=20_000) + 1j * rng.normal(size=20_000) for _ in range(2))
fused = bool(np.any(a * b != np.array([x * y for x, y in zip(a.tolist(), b.tolist())])))

def numpy_rounded_phase(total_length_m, wavelength_m):
    return cmath.exp(complex(0.0, (-2.0 * math.pi * total_length_m) * (1.0 / wavelength_m)))

raytracer.carrier_phase = numpy_rounded_phase
same = []
for placement in (0, 1, 4):
    setup = build_large_array_setup(placement, 256)
    tracer = setup.testbed.tracer
    tx, rx = setup.tx_device.chains[0], setup.rx_device.chains[0]
    batch = tracer.frame(tx.position, tx.antenna).trace_batch([rx.position], rx.antenna)
    gains = np.array([p.gain for p in tracer.trace(tx.position, rx.position, tx.antenna, rx.antenna)])
    same.append(gains.tobytes() == batch.gains[0][batch.valid[0]].tobytes())
print(json.dumps({"fused": fused, "same": same}))
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="names numpy's x86 dispatch levels",
)
def test_tracers_agree_bit_for_bit_without_the_two_roundings():
    """At numpy's SSE dispatch level complex multiply is unfused, as in CPython.

    There, with the scalar phase argument rounded as numpy rounds it, the
    scalar tracer's ambient gains equal the frame's bit for bit.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    env["NPY_DISABLE_CPU_FEATURES"] = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
    done = subprocess.run(
        [sys.executable, "-c", _SSE_LEVEL_CHECK], env=env, capture_output=True, text=True,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"fused": False, "same": [True, True, True]}
