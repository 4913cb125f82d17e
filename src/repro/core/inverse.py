"""The PRESS inverse problem (§2, second challenge).

The forward model predicts the channel from path parameters.  "But PRESS
demands the inverse direction of this calculation: given the existing
wireless channel ... we seek to compute the signal path parameters
{phi_m, tau_m, gamma_m, theta_m, ...} for an existing or additional path or
paths such that the superposition of the existing, modified, and additional
paths yields the desired wireless channel."

Two inverse tools are provided:

* **Element-coefficient synthesis** — because each PRESS element's
  geometric contribution is fixed (it sits where it sits), the only free
  parameter per element is its complex reflection coefficient.  The channel
  is linear in those coefficients:  ``H(f) = H_env(f) + U(f) c`` where
  column ``e`` of the basis ``U`` is element ``e``'s unit-reflectivity CFR.
  :func:`solve_element_coefficients` least-squares-solves for ``c`` and
  :func:`quantize_to_states` snaps it onto the hardware's discrete switch
  states.
* **Path-parameter recovery** — :func:`matching_pursuit_paths` decomposes a
  (residual) CFR into discrete paths {gain, delay} by greedy correlation
  with delay steering vectors, recovering the signal-model parameters of
  the paths that must be added or removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..constants import SPEED_OF_LIGHT
from ..em.antennas import Antenna, IsotropicAntenna
from ..em.geometry import Point
from ..em.paths import SignalPath, paths_to_cfr
from ..em.raytracer import RayTracer
from .array import PressArray
from .basis import element_frame
from .configuration import ArrayConfiguration

__all__ = [
    "element_basis",
    "solve_element_coefficients",
    "quantize_to_states",
    "matching_pursuit_paths",
    "InverseSolution",
    "synthesize_configuration",
]


def element_basis(
    array: PressArray,
    tx: Point,
    rx: Point,
    tracer: RayTracer,
    frequencies_hz: np.ndarray,
    tx_antenna: Antenna = IsotropicAntenna(),
    rx_antenna: Antenna = IsotropicAntenna(),
) -> np.ndarray:
    """Unit-reflectivity CFR contribution of each element.

    Returns a (num_frequencies, num_elements) complex matrix ``U`` such
    that, for element reflection coefficients ``c``, the array adds
    ``U @ c`` to the environment CFR.  Every element's two-hop geometry is
    one :meth:`TraceFrame.relay_geometry` broadcast of the array's
    :func:`element_frame`; elements with a blocked view of TX or RX
    contribute a zero column.
    """
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    frame = element_frame(array, tracer, tx, tx_antenna)
    geometry = frame.relay_geometry(np.array([rx.x]), np.array([rx.y]), rx_antenna)
    amplitude, total, _, clear = (column[:, 0] for column in geometry)
    gain = np.where(clear, amplitude, 0.0) * np.exp(
        -2.0j * np.pi * total / tracer.wavelength_m
    )
    return gain * np.exp(
        -2.0j * np.pi * frequencies_hz[:, None] * (total / SPEED_OF_LIGHT)
    )


def solve_element_coefficients(
    target_cfr: np.ndarray,
    environment_cfr: np.ndarray,
    basis: np.ndarray,
    max_magnitude: Optional[float] = 1.0,
    regularization: float = 0.0,
) -> np.ndarray:
    """Least-squares reflection coefficients achieving a target channel.

    Solves ``min_c || environment + U c - target ||^2`` (optionally ridge-
    regularised), then projects each coefficient onto the passivity disc
    ``|c| <= max_magnitude`` — a passive element cannot reflect more energy
    than it captures.  Pass ``max_magnitude=None`` for active elements.
    """
    target = np.asarray(target_cfr, dtype=complex).ravel()
    environment = np.asarray(environment_cfr, dtype=complex).ravel()
    basis = np.asarray(basis, dtype=complex)
    if basis.shape[0] != target.size or environment.size != target.size:
        raise ValueError(
            f"shape mismatch: basis {basis.shape}, target {target.shape}, "
            f"environment {environment.shape}"
        )
    residual = target - environment
    if regularization > 0:
        gram = basis.conj().T @ basis + regularization * np.eye(basis.shape[1])
        coefficients = np.linalg.solve(gram, basis.conj().T @ residual)
    else:
        coefficients, *_ = np.linalg.lstsq(basis, residual, rcond=None)
    if max_magnitude is not None:
        magnitudes = np.abs(coefficients)
        over = magnitudes > max_magnitude
        scale = np.ones_like(magnitudes)
        scale[over] = max_magnitude / magnitudes[over]
        coefficients = coefficients * scale
    return coefficients


def quantize_to_states(
    coefficients: np.ndarray,
    array: PressArray,
    frequency_hz: float,
) -> ArrayConfiguration:
    """Snap continuous reflection coefficients onto hardware switch states.

    Per element, picks the state whose Gamma at the carrier is closest (in
    the complex plane) to the requested coefficient — the quantisation a
    real SP4T-based element imposes on the ideal solution.
    """
    coefficients = np.asarray(coefficients, dtype=complex).ravel()
    if coefficients.size != array.num_elements:
        raise ValueError(
            f"{coefficients.size} coefficients for {array.num_elements} elements"
        )
    indices = []
    for element, wanted in zip(array.elements, coefficients):
        gammas = np.array(
            [state.reflection_coefficient(frequency_hz) for state in element.states]
        )
        indices.append(int(np.argmin(np.abs(gammas - wanted))))
    return ArrayConfiguration(tuple(indices))


def matching_pursuit_paths(
    cfr: np.ndarray,
    frequencies_hz: np.ndarray,
    max_delay_s: float = 400e-9,
    delay_resolution_s: float = 2e-9,
    num_paths: int = 8,
    stop_energy_fraction: float = 1e-3,
) -> list[SignalPath]:
    """Decompose a CFR into discrete {gain, delay} paths by matching pursuit.

    Greedily picks the delay whose steering vector ``e^{-j 2 pi f tau}``
    best correlates with the residual, solves the complex gain in closed
    form, subtracts, and repeats — recovering the signal-model parameters
    (§2) of the dominant paths.

    Parameters
    ----------
    cfr:
        Channel frequency response to explain.
    frequencies_hz:
        Baseband frequency grid of ``cfr``.
    max_delay_s, delay_resolution_s:
        Extent and granularity of the delay search grid.
    num_paths:
        Maximum number of paths to extract.
    stop_energy_fraction:
        Stop once the residual energy falls below this fraction of the
        input energy.
    """
    if max_delay_s <= 0 or delay_resolution_s <= 0:
        raise ValueError("delay grid parameters must be positive")
    if num_paths <= 0:
        raise ValueError(f"num_paths must be positive, got {num_paths}")
    cfr = np.asarray(cfr, dtype=complex).ravel()
    frequencies = np.asarray(frequencies_hz, dtype=float).ravel()
    if cfr.size != frequencies.size:
        raise ValueError(f"cfr size {cfr.size} != frequency grid {frequencies.size}")
    delays = np.arange(0.0, max_delay_s, delay_resolution_s)
    # Steering matrix: (delays, frequencies).
    steering = np.exp(-2.0j * math.pi * delays[:, None] * frequencies[None, :])
    residual = cfr.copy()
    total_energy = float(np.sum(np.abs(cfr) ** 2))
    if total_energy == 0:
        return []
    paths: list[SignalPath] = []
    n = frequencies.size
    for _ in range(num_paths):
        correlations = steering.conj() @ residual / n
        best = int(np.argmax(np.abs(correlations)))
        gain = correlations[best]
        if abs(gain) == 0:
            break
        residual = residual - gain * steering[best]
        paths.append(
            SignalPath(gain=complex(gain), delay_s=float(delays[best]), kind="recovered")
        )
        if float(np.sum(np.abs(residual) ** 2)) < stop_energy_fraction * total_energy:
            break
    return paths


@dataclass(frozen=True)
class InverseSolution:
    """Result of end-to-end configuration synthesis.

    Attributes
    ----------
    configuration:
        The quantised switch settings.
    coefficients:
        The ideal (continuous) per-element reflection coefficients.
    achieved_cfr:
        CFR predicted for ``configuration``.
    residual_rms:
        RMS complex error between achieved and target CFR.
    """

    configuration: ArrayConfiguration
    coefficients: np.ndarray
    achieved_cfr: np.ndarray
    residual_rms: float


def synthesize_configuration(
    array: PressArray,
    target_cfr: np.ndarray,
    environment_paths: Sequence[SignalPath],
    tx: Point,
    rx: Point,
    tracer: RayTracer,
    frequencies_hz: np.ndarray,
    tx_antenna: Antenna = IsotropicAntenna(),
    rx_antenna: Antenna = IsotropicAntenna(),
    max_magnitude: Optional[float] = 1.0,
) -> InverseSolution:
    """Solve the inverse problem end to end: target CFR -> switch settings.

    Solves the continuous least-squares problem, quantises to the hardware
    states, and reports the CFR the quantised configuration actually
    achieves: the basis ``U`` times each chosen state's Gamma and stub
    dispersion, added to the environment CFR.
    """
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    environment_cfr = paths_to_cfr(list(environment_paths), frequencies_hz)
    basis = element_basis(
        array, tx, rx, tracer, frequencies_hz, tx_antenna, rx_antenna
    )
    coefficients = solve_element_coefficients(
        target_cfr, environment_cfr, basis, max_magnitude=max_magnitude
    )
    configuration = quantize_to_states(coefficients, array, tracer.frequency_hz)
    # Each chosen state scales its element's column by Gamma at the
    # carrier and disperses it by the stub's group delay; terminated
    # states contribute nothing.
    achieved = environment_cfr.copy()
    for n, (element, index) in enumerate(zip(array.elements, configuration.indices)):
        state = element.state(index)
        if not state.is_terminated:
            achieved += (
                basis[:, n]
                * state.reflection_coefficient(tracer.frequency_hz)
                * np.exp(-2.0j * np.pi * frequencies_hz * state.extra_delay_s)
            )
    target = np.asarray(target_cfr, dtype=complex).ravel()
    residual_rms = float(np.sqrt(np.mean(np.abs(achieved - target) ** 2)))
    return InverseSolution(
        configuration=configuration,
        coefficients=coefficients,
        achieved_cfr=achieved,
        residual_rms=residual_rms,
    )
