"""The simulated testbed: devices + scene + PRESS array, wired together.

Replaces the paper's physical lab: WARP/USRP devices stand at their
positions in a scene, a PRESS array sits between them, and this harness
produces the measurements the paper collects — per-subcarrier SNR sweeps
over all array configurations (Figures 4-6), frequency-selectivity pairs
(Figure 7), and per-configuration 2x2 MIMO channel matrices (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..constants import BANDWIDTH_HZ, CARRIER_FREQUENCY_HZ, NUM_SUBCARRIERS
from ..core.array import PressArray
from ..core.basis import (
    MAX_ENUMERABLE_CONFIGS,
    ChannelBasis,
    SearchSpaceTooLarge,
    _too_large_message,
    element_frame,
)
from ..core.configuration import ArrayConfiguration
from ..em.channel import ChannelObservation, observe_cfr, snr_db_from_cfr
from ..em.antennas import Antenna
from ..em.geometry import Point
from ..em.paths import SignalPath
from ..em.raytracer import RayTracer, TraceFrame
from ..em.scene import Scene
from ..em.trace_cache import global_trace_cache
from ..obs.tracing import global_tracer
from ..phy.ofdm import OfdmParams
from .device import SdrDevice

__all__ = [
    "Testbed",
    "SweepResult",
    "drift_factors",
    "sound_basis",
    "sweep_basis_snr",
]

# Span names: registered once here so the phase vocabulary of a run is
# statically known (enforced by `repro lint` rule RPL006).
_SPAN_BASIS_TRACE = "testbed.basis_trace"
_SPAN_BASES_FOR_POINTS = "testbed.bases_for_points"
_SPAN_SWEEP = "testbed.sweep"


def drift_factors(
    num_paths: int,
    rng: Optional[np.random.Generator],
    drift_phase_rad: float,
    drift_amplitude: float,
) -> Optional[np.ndarray]:
    """Per-path complex drift factors for one measurement (or ``None``).

    Draw order (one phase vector, then one amplitude vector) is the RNG
    contract shared by every sounding (:func:`sound_basis`) and by MIMO
    matrices — and by workers sweeping a shipped basis without a testbed —
    so identically seeded generators produce identical measurements
    everywhere.
    """
    if rng is None or (drift_phase_rad == 0 and drift_amplitude == 0):
        return None
    phases = rng.normal(scale=drift_phase_rad, size=num_paths)
    scales = np.maximum(
        1.0 + rng.normal(scale=drift_amplitude, size=num_paths), 0.0
    )
    return scales * np.exp(1j * phases)


def sound_basis(
    basis: ChannelBasis,
    element_sum: np.ndarray,
    rng: Optional[np.random.Generator],
    tx_power_dbm: float,
    noise_figure_db: float,
    drift_phase_rad: float,
    drift_amplitude: float,
) -> ChannelObservation:
    """One sounding of a configuration whose element sum is ``element_sum``.

    The ambient gains take one :func:`drift_factors` draw, the element sum
    adds on, and :func:`observe_cfr` draws the estimation noise: the RNG
    contract of :meth:`Testbed.measure_csi` and of every sounding of
    :func:`sweep_basis_snr`.  Without an rng the observation is exact.
    """
    factors = drift_factors(
        basis.num_ambient_paths, rng, drift_phase_rad, drift_amplitude
    )
    ambient = basis.ambient_cfr(
        None if factors is None else basis.ambient_gains * factors
    )
    return observe_cfr(
        ambient + element_sum,
        basis.num_subcarriers,
        basis.bandwidth_hz,
        tx_power_dbm=tx_power_dbm,
        noise_figure_db=noise_figure_db,
        rng=rng,
    )


def sweep_basis_snr(
    basis: ChannelBasis,
    repetitions: int,
    rng: Optional[np.random.Generator],
    tx_power_dbm: float,
    noise_figure_db: float,
    drift_phase_rad: float = 0.0,
    drift_amplitude: float = 0.0,
) -> np.ndarray:
    """The configuration sweep of :meth:`Testbed.sweep`, standalone.

    Takes the (picklable) basis and radio parameters directly: a worker
    process can sweep a basis traced by the parent without rebuilding
    scene, tracer or testbed.  Without an rng the sweep is exact, so every
    repetition is one vectorized evaluation.  With an rng, each sounding
    is one :func:`sound_basis` call, repetition-major then
    configuration-major — the draws of one :meth:`Testbed.measure_csi`
    per configuration, bit for bit.  Returns shape
    ``(repetitions, configurations, subcarriers)``.
    """
    element_sums = basis.all_element_sums  # (C, K)
    num_configs = element_sums.shape[0]
    if rng is None:
        cfr = basis.ambient_cfr() + element_sums
        snr_once = snr_db_from_cfr(
            cfr,
            basis.num_subcarriers,
            basis.bandwidth_hz,
            tx_power_dbm=tx_power_dbm,
            noise_figure_db=noise_figure_db,
        )
        return np.broadcast_to(snr_once, (repetitions,) + snr_once.shape).copy()
    snr = np.empty((repetitions, num_configs, basis.num_subcarriers))
    for rep in range(repetitions):
        for index in range(num_configs):
            snr[rep, index] = sound_basis(
                basis,
                element_sums[index],
                rng,
                tx_power_dbm,
                noise_figure_db,
                drift_phase_rad,
                drift_amplitude,
            ).snr_db
    return snr


@dataclass(frozen=True)
class SweepResult:
    """A full configuration sweep, §3.2-style.

    Attributes
    ----------
    snr_db:
        Array of shape (repetitions, configurations, subcarriers).
    configurations:
        The configurations, in sweep order.
    used_mask:
        Which subcarriers are used (52 of 64 for the default numerology).
    """

    snr_db: np.ndarray
    configurations: tuple[ArrayConfiguration, ...]
    used_mask: np.ndarray

    @property
    def num_repetitions(self) -> int:
        return self.snr_db.shape[0]

    @property
    def num_configurations(self) -> int:
        return self.snr_db.shape[1]

    def mean_snr_db(self) -> np.ndarray:
        """Per-configuration, per-subcarrier SNR averaged over repetitions."""
        return self.snr_db.mean(axis=0)

    def used_snr_db(self) -> np.ndarray:
        """SNR restricted to used subcarriers, shape (reps, configs, used)."""
        return self.snr_db[:, :, self.used_mask]


class Testbed:
    """A complete measurement setup.

    Parameters
    ----------
    scene:
        The propagation environment.
    array:
        The PRESS array installed in it.
    frequency_hz, bandwidth_hz, num_subcarriers:
        Radio numerology (defaults: the paper's channel 11 / 20 MHz / 64).
    max_bounces:
        Ray-tracing depth for the ambient environment.
    """

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        scene: Scene,
        array: PressArray,
        frequency_hz: float = CARRIER_FREQUENCY_HZ,
        bandwidth_hz: float = BANDWIDTH_HZ,
        num_subcarriers: int = NUM_SUBCARRIERS,
        max_bounces: int = 2,
        drift_phase_rad: float = 0.0,
        drift_amplitude: float = 0.0,
    ) -> None:
        if drift_phase_rad < 0 or drift_amplitude < 0:
            raise ValueError("drift parameters must be non-negative")
        self.scene = scene
        self.array = array
        self.frequency_hz = frequency_hz
        self.bandwidth_hz = bandwidth_hz
        self.num_subcarriers = num_subcarriers
        #: Per-measurement ambient channel drift.  The §3.2 sweep takes ~5 s
        #: — far beyond the channel coherence time — so successive
        #: configuration measurements see slightly different ambient
        #: channels.  Each measurement perturbs every ambient path's phase
        #: (sigma = ``drift_phase_rad``) and amplitude (relative sigma =
        #: ``drift_amplitude``) when an rng is supplied.
        self.drift_phase_rad = drift_phase_rad
        self.drift_amplitude = drift_amplitude
        self.tracer = RayTracer(
            scene=scene, frequency_hz=frequency_hz, max_bounces=max_bounces
        )
        self._basis_cache: dict[tuple, ChannelBasis] = {}
        self._frames: dict[tuple, TraceFrame] = {}
        # The configuration space is fixed by the (immutable) array; its
        # enumeration is computed lazily — a wall-sized array's space can
        # never be enumerated at all (see :attr:`configurations`), but the
        # testbed must still construct so the basis/delta paths can run.
        self._space = array.configuration_space()
        self._configurations: Optional[tuple[ArrayConfiguration, ...]] = None

    @property
    def configurations(self) -> tuple[ArrayConfiguration, ...]:
        """Every configuration, enumerated once per testbed (guarded).

        Raises :class:`~repro.core.basis.SearchSpaceTooLarge` on
        RFocus-scale arrays instead of materializing the M^N tuple.
        """
        if self._configurations is None:
            if self._space.size > MAX_ENUMERABLE_CONFIGS:
                raise SearchSpaceTooLarge(_too_large_message(self._space))
            self._configurations = tuple(self._space.all_configurations())
        return self._configurations

    # ------------------------------------------------------------------
    # Environment paths (configuration independent, cached)
    # ------------------------------------------------------------------
    def environment_paths(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        tx_chain: int = 0,
        rx_chain: int = 0,
    ) -> tuple[SignalPath, ...]:
        """Ambient multipath between two device chains (no PRESS paths).

        The process-wide cache is keyed by geometry *values* (scene
        fingerprint + endpoints), so testbeds rebuilt for the same
        placement seed — e.g. successive experiments in a figure suite —
        share one trace across instances.
        """
        tx = tx_device.chains[tx_chain]
        rx = rx_device.chains[rx_chain]
        return global_trace_cache().get_or_trace(
            self.tracer, tx.position, rx.position, tx.antenna, rx.antenna
        )

    def basis_for(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        tx_chain: int = 0,
        rx_chain: int = 0,
    ) -> ChannelBasis:
        """The precomputed channel basis for a device-chain pair (cached).

        Traces geometry once through :meth:`ChannelBasis.trace_chunked` —
        ambient multipath plus every element's two-hop geometry — after
        which any configuration's CFR is ``H0 + sum_n E[n, c_n]``, a
        vectorized gather over the basis.
        """
        tx = tx_device.chains[tx_chain]
        rx = rx_device.chains[rx_chain]
        key = (
            tx.position.as_tuple(),
            rx.position.as_tuple(),
            tx.antenna,
            rx.antenna,
        )
        if key not in self._basis_cache:
            with global_tracer().span(_SPAN_BASIS_TRACE):
                self._basis_cache[key] = ChannelBasis.trace_chunked(
                    self.array,
                    tx.position,
                    rx.position,
                    self.tracer,
                    tx_antenna=tx.antenna,
                    rx_antenna=rx.antenna,
                    num_subcarriers=self.num_subcarriers,
                    bandwidth_hz=self.bandwidth_hz,
                    environment_paths=self.environment_paths(
                        tx_device, rx_device, tx_chain, rx_chain
                    ),
                )
        return self._basis_cache[key]

    def bases_for_points(
        self,
        tx_device: SdrDevice,
        rx_points: Union[Sequence[Point], np.ndarray],
        rx_antenna: Antenna,
        tx_chain: int = 0,
    ) -> list[ChannelBasis]:
        """Channel bases for one TX chain against a batch of RX positions.

        The position-sweep and moving-user fast path: everything that
        depends only on the scene and this TX chain — images, TX-to-element
        legs, gains toward the TX — sits in a trace frame built once per
        (TX chain, antenna) and kept on the testbed, so each call traces
        only the receiver-facing legs, as a few broadcasts over all P
        points (:meth:`ChannelBasis.trace_batch`).  Per-point results
        match :meth:`basis_for` against a probe device at the same
        position with the same antenna.
        """
        tx = tx_device.chains[tx_chain]
        with global_tracer().span(_SPAN_BASES_FOR_POINTS):
            key = (tx.position.as_tuple(), tx.antenna)
            frame = self._frames.get(key)
            if frame is None:
                frame = self._frames[key] = element_frame(
                    self.array, self.tracer, tx.position, tx.antenna
                )
            # The ambient batch is value-cached process-wide: coverage runs
            # that revisit a (scene, TX, grid) — e.g. no-array vs pattern
            # phases of the same placement — trace the grid once.
            ambient = global_trace_cache().get_or_trace_batch(
                self.tracer, tx.position, rx_points, tx.antenna, rx_antenna, frame
            )
            return ChannelBasis.trace_batch(
                self.array,
                tx.position,
                rx_points,
                self.tracer,
                tx_antenna=tx.antenna,
                rx_antenna=rx_antenna,
                num_subcarriers=self.num_subcarriers,
                bandwidth_hz=self.bandwidth_hz,
                ambient=ambient,
                frame=frame,
            )

    def snr_function(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        mask: Optional[np.ndarray] = None,
        tx_chain: int = 0,
        rx_chain: int = 0,
    ) -> Callable[[ArrayConfiguration], np.ndarray]:
        """A fast ``configuration -> per-subcarrier SNR (dB)`` callable.

        Backed by the precomputed channel basis, so each call is an O(K)
        gather instead of a re-trace — the measurement callback a
        :class:`~repro.core.controller.PressController` sounds the channel
        with when it runs many optimisation rounds against one geometry.
        ``mask`` restricts the returned SNR to selected subcarriers.
        """
        basis = self.basis_for(tx_device, rx_device, tx_chain, rx_chain)

        def measure(configuration: ArrayConfiguration) -> np.ndarray:
            snr = snr_db_from_cfr(
                basis.cfr(configuration),
                self.num_subcarriers,
                self.bandwidth_hz,
                tx_power_dbm=tx_device.tx_power_dbm,
                noise_figure_db=rx_device.noise_figure_db,
            )
            return snr if mask is None else snr[mask]

        return measure

    # ------------------------------------------------------------------
    # SISO measurements
    # ------------------------------------------------------------------
    def measure_csi(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        configuration: ArrayConfiguration,
        rng: Optional[np.random.Generator] = None,
    ) -> ChannelObservation:
        """One CSI measurement, as the paper's receiver would estimate it.

        The configured CFR comes from :meth:`basis_for`, and
        :func:`sound_basis` takes the measurement: with an ``rng``, the
        ambient part is a fresh coherence-drifted realisation (see
        ``drift_phase_rad``) and the observation carries single-frame
        channel-estimation noise; without, it is the exact channel.
        """
        basis = self.basis_for(tx_device, rx_device)
        return sound_basis(
            basis,
            basis.element_sum(configuration),
            rng,
            tx_power_dbm=tx_device.tx_power_dbm,
            noise_figure_db=rx_device.noise_figure_db,
            drift_phase_rad=self.drift_phase_rad,
            drift_amplitude=self.drift_amplitude,
        )

    def sweep(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        repetitions: int = 10,
        rng: Optional[np.random.Generator] = None,
        used_mask: Optional[np.ndarray] = None,
    ) -> SweepResult:
        """Iterate all configurations ``repetitions`` times (the §3.2 loop).

        "we iterate through the 64 combinations 10 times and calculate
        statistics on the SNR for each PRESS antenna configuration."

        Evaluated from the precomputed channel basis (:func:`sweep_basis_snr`):
        geometry traced once, every configuration's CFR a vectorized gather
        + sum.  Each noisy sounding is the :func:`sound_basis` call of
        one :meth:`measure_csi`, so an identically seeded ``measure_csi``
        loop gives the same sweep bit for bit.
        """
        if repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {repetitions}")
        configurations = self.configurations
        with global_tracer().span(_SPAN_SWEEP):
            snr = sweep_basis_snr(
                self.basis_for(tx_device, rx_device),
                repetitions,
                rng,
                tx_power_dbm=tx_device.tx_power_dbm,
                noise_figure_db=rx_device.noise_figure_db,
                drift_phase_rad=self.drift_phase_rad,
                drift_amplitude=self.drift_amplitude,
            )
        if used_mask is None:
            if self.num_subcarriers == 64:
                used_mask = OfdmParams().used_mask()
            else:
                used_mask = np.ones(self.num_subcarriers, dtype=bool)
        else:
            used_mask = np.asarray(used_mask)
            if used_mask.ndim != 1 or used_mask.shape[0] != self.num_subcarriers:
                raise ValueError(
                    f"used_mask must be 1-D with length {self.num_subcarriers}, "
                    f"got shape {used_mask.shape}"
                )
        return SweepResult(
            snr_db=snr, configurations=configurations, used_mask=used_mask
        )

    # ------------------------------------------------------------------
    # MIMO measurements
    # ------------------------------------------------------------------
    def mimo_matrices(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        configuration: ArrayConfiguration,
        rng: Optional[np.random.Generator] = None,
        estimation_error_std: float = 0.0,
    ) -> np.ndarray:
        """Per-subcarrier MIMO channel matrices for one configuration.

        Returns shape (num_subcarriers, num_rx_chains, num_tx_chains).
        ``estimation_error_std`` adds relative complex-Gaussian estimation
        error per entry, standing in for the finite-SNR CSI estimates of
        §3.2.3 (which averages 50 measurements per configuration).

        Each entry comes from its chain pair's precomputed channel basis
        (geometry traced once per pair, drift applied as a phasor scaling
        of the ambient gain vector, one :func:`drift_factors` draw per
        pair).
        """
        num_rx = rx_device.num_chains
        num_tx = tx_device.num_chains
        h = np.zeros((self.num_subcarriers, num_rx, num_tx), dtype=complex)
        for i in range(num_rx):
            for j in range(num_tx):
                basis = self.basis_for(tx_device, rx_device, j, i)
                factors = drift_factors(
                    basis.num_ambient_paths,
                    rng,
                    self.drift_phase_rad,
                    self.drift_amplitude,
                )
                h[:, i, j] = basis.cfr(
                    configuration,
                    ambient_gains=(
                        None if factors is None else basis.ambient_gains * factors
                    ),
                )
        if estimation_error_std > 0:
            if rng is None:
                raise ValueError("estimation_error_std > 0 requires an rng")
            scale = estimation_error_std * np.sqrt(np.mean(np.abs(h) ** 2))
            noise = scale / np.sqrt(2.0) * (
                rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
            )
            h = h + noise
        return h
