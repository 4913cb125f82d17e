"""Channel-basis sweep engine: trace once, evaluate every configuration.

The PRESS channel is *linear* in each element's reflection coefficient
(the same Γ-linearity RFocus and the programmable-wireless-environment
simulators exploit to scale to thousands of elements): with passive
elements and no element–element rescattering,

    H(f; c) = H_0(f) + sum_n E_n(f; c_n),

where ``H_0`` is the ambient (configuration-independent) response and
``E_n(f; m)`` is element ``n``'s two-hop TX → element → RX contribution in
state ``m`` — blockage, distances, antenna gains and the waveguide-stub's
delay dispersion folded in.  Geometry therefore needs to be traced exactly
once: the ambient paths via :meth:`RayTracer.trace` plus one two-hop relay
path per (element, state).  After that, *any* configuration's CFR is a
gather + sum over the precomputed state tensor, and the whole M^N sweep
evaluates as a single vectorized numpy operation.

The decomposition is exact for passive arrays because a passive element
re-radiates the incident field scaled by its own Γ only; it ignores the
second-order element → element → RX rescattering, which the per-path route
(:meth:`PressArray.element_paths`) also ignores — so the two routes agree
to machine precision (see ``tests/test_basis_equivalence.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..constants import (
    BANDWIDTH_HZ,
    NUM_SUBCARRIERS,
    SPEED_OF_LIGHT,
    dbm_to_watts,
    thermal_noise_power_w,
)
from ..em.antennas import Antenna, IsotropicAntenna
from ..em.channel import snr_db_from_cfr, subcarrier_frequencies
from ..em.geometry import Point
from ..em.paths import PathBatch, SignalPath, path_arrays, paths_to_cfr_batch
from ..em.raytracer import RayTracer, TraceFrame, _points_to_arrays
from ..obs.metrics import counter_handle
from .array import PressArray
from .configuration import ArrayConfiguration, ConfigurationSpace

__all__ = [
    "ChannelBasis",
    "BasisEvaluator",
    "DeltaEvaluator",
    "MultiLinkDeltaEvaluator",
    "SearchSpaceTooLarge",
    "StateTensorBudgetExceeded",
    "MAX_ENUMERABLE_CONFIGS",
    "DEFAULT_STATE_TENSOR_BUDGET_BYTES",
    "element_frame",
    "state_tensor_nbytes",
    "exhaustive_argmax",
]

ConfigurationsLike = Union[Sequence[ArrayConfiguration], np.ndarray]

_BASES_TRACED = counter_handle("core.basis.traces")
_BATCHES_TRACED = counter_handle("core.basis.batch_traces")
_BATCH_POINTS = counter_handle("core.basis.batch_points")
_EVALUATIONS = counter_handle("core.basis.evaluations")
_CONFIGS_EVALUATED = counter_handle("core.basis.configurations_evaluated")
_DELTA_EVALS = counter_handle("search.delta_evals")

#: Largest configuration space the vectorized exhaustive path will
#: materialize as an (M^N, N) index table.  4^10 = 2^20 rows of N intp
#: columns is ~80 MB of indices plus an (M^N, K) complex sum matrix —
#: already generous.  Above this, enumeration raises
#: :class:`SearchSpaceTooLarge` instead of OOM-ing.
MAX_ENUMERABLE_CONFIGS = 1 << 20

#: Largest space :meth:`ChannelBasis.warm` will eagerly enumerate.  Warm
#: is about publishing a fully-materialized read-only object, so it only
#: pre-builds sum tables that are cheap to keep resident (2^14 rows x 64
#: subcarriers of complex128 is ~16 MB); bigger spaces stay lazy.
WARM_ENUMERATION_LIMIT = 1 << 14

#: Default cap on the E[n, m, k] state-tensor allocation (512 MiB holds
#: N=65536 elements x 8 states x 64 subcarriers of complex128).
DEFAULT_STATE_TENSOR_BUDGET_BYTES = 512 * 1024 * 1024


class SearchSpaceTooLarge(RuntimeError):
    """Raised instead of materializing an M^N table that cannot fit.

    Exhaustive enumeration is only meaningful for prototype-scale arrays
    (the paper's 4^3 = 64).  Large arrays must use the scalable searchers,
    which score configurations by O(K) per-element delta updates.
    """


class StateTensorBudgetExceeded(MemoryError):
    """Raised when a basis state tensor would exceed its memory budget."""


def state_tensor_nbytes(
    num_elements: int, max_states: int, num_subcarriers: int
) -> int:
    """Bytes needed by a complex128 ``E[n, m, k]`` state tensor."""
    return int(num_elements) * int(max_states) * int(num_subcarriers) * 16


def _too_large_message(space: ConfigurationSpace) -> str:
    size = space.size
    digits = len(str(size))
    shown = str(size) if digits <= 12 else f"~10^{digits - 1}"
    low, high = min(space.state_counts), max(space.state_counts)
    states = str(low) if low == high else f"{low}-{high}"
    return (
        f"configuration space has {space.num_elements} elements with "
        f"{states} states each = {shown} configurations "
        f"(> MAX_ENUMERABLE_CONFIGS = {MAX_ENUMERABLE_CONFIGS}); "
        "enumerating it would materialize the full M^N table. Use the "
        "scalable searchers instead: GreedyCoordinateDescent or "
        "RFocusMajoritySearch via Searcher.search_basis (repro.core.search), "
        "or repro.core.scheduler.pick_searcher, which auto-selects them for "
        "large spaces."
    )


def element_frame(array: PressArray, tracer: RayTracer, tx: Point, tx_antenna: Antenna) -> TraceFrame:
    """The trace frame of ``tx`` with ``array``'s elements as its relays."""
    return tracer.frame(tx, tx_antenna, [(e.position, e.antenna, 0.0) for e in array.elements])


@dataclass(frozen=True)
class ChannelBasis:
    """Precomputed channel basis for one TX/RX endpoint pair.

    Attributes
    ----------
    space:
        The array's configuration space (defines index order everywhere).
    frequencies_hz:
        Baseband subcarrier grid, shape ``(K,)``.
    ambient_gains, ambient_delays:
        Packed ambient multipath (configuration independent), shape
        ``(L,)`` each.  Coherence drift is applied by scaling this gain
        vector — no re-trace, no path objects.
    state_tensor:
        ``E[n, m, k]``: element ``n``'s CFR contribution in state ``m`` on
        subcarrier ``k``, shape ``(N, M_max, K)``; rows for terminated or
        blocked states are zero, and ragged state counts are zero-padded.
    num_subcarriers, bandwidth_hz:
        The OFDM grid the basis was evaluated on.
    """

    space: ConfigurationSpace
    frequencies_hz: np.ndarray
    ambient_gains: np.ndarray
    ambient_delays: np.ndarray
    state_tensor: np.ndarray
    num_subcarriers: int = NUM_SUBCARRIERS
    bandwidth_hz: float = BANDWIDTH_HZ

    def __post_init__(self) -> None:
        # Reentrancy guard: a basis is shared by concurrent readers (the
        # serving layer hands one session to interleaved request handlers;
        # the parallel runner ships one to worker processes).  Marking the
        # arrays read-only turns any accidental in-place write into an
        # immediate ValueError instead of a cross-request data race.
        # Flag flips on views never propagate to their base array, so the
        # per-point bases sliced out of a parent batch are safe to freeze.
        for array in (
            self.frequencies_hz,
            self.ambient_gains,
            self.ambient_delays,
            self.state_tensor,
        ):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)

    def warm(self) -> "ChannelBasis":
        """Materialize the lazy caches so concurrent readers never write.

        ``cached_property`` installs its value with a plain ``__dict__``
        write on first access — benign under a single reader, but a
        publish step (the serving layer building a session) should finish
        all writes before the object is shared.  Enumeration caches are
        only touched while the space is small enough that the (M^N, K)
        sum table is cheap to hold (well under the
        :data:`MAX_ENUMERABLE_CONFIGS` guard, which bounds compute but
        not residency); larger spaces keep lazy/guarded behaviour.
        Returns ``self`` for chaining.
        """
        _ = self._ambient_cfr0
        if self.space.size <= WARM_ENUMERATION_LIMIT:
            _ = self.all_element_sums
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def trace(
        cls,
        array: PressArray,
        tx: Point,
        rx: Point,
        tracer: RayTracer,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
        num_subcarriers: int = NUM_SUBCARRIERS,
        bandwidth_hz: float = BANDWIDTH_HZ,
        environment_paths: Optional[Sequence[SignalPath]] = None,
    ) -> "ChannelBasis":
        """Trace the geometry once and build the basis.

        ``environment_paths`` lets a caller reuse already-traced ambient
        paths (e.g. the testbed's environment cache); when ``None`` the
        ambient multipath is traced here.
        """
        _BASES_TRACED.inc()
        freqs = subcarrier_frequencies(num_subcarriers, bandwidth_hz)
        if environment_paths is None:
            environment_paths = tracer.trace(tx, rx, tx_antenna, rx_antenna)
        gains, delays, _ = path_arrays(environment_paths)
        space = array.configuration_space()
        max_states = max(space.state_counts)
        tensor = np.zeros(
            (array.num_elements, max_states, num_subcarriers), dtype=complex
        )
        carrier = tracer.frequency_hz
        for n, element in enumerate(array.elements):
            for m, state in enumerate(element.states):
                if state.is_terminated:
                    continue
                # Split Gamma(f) exactly as PressArray.element_paths does:
                # magnitude + fixed phase -> reflectivity; the stub's
                # carrier phase -> extra phase; its dispersion -> delay.
                stub_carrier_phase = (
                    -2.0 * math.pi * carrier * state.extra_path_m / SPEED_OF_LIGHT
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
                if path is None:
                    continue
                tensor[n, m] = path.gain * np.exp(
                    -2.0j * np.pi * freqs * path.delay_s
                )
        return cls(
            space=space,
            frequencies_hz=freqs,
            ambient_gains=gains,
            ambient_delays=delays,
            state_tensor=tensor,
            num_subcarriers=num_subcarriers,
            bandwidth_hz=bandwidth_hz,
        )

    @classmethod
    def trace_batch(
        cls,
        array: PressArray,
        tx: Point,
        rx_points: Union[Sequence[Point], np.ndarray],
        tracer: RayTracer,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
        num_subcarriers: int = NUM_SUBCARRIERS,
        bandwidth_hz: float = BANDWIDTH_HZ,
        ambient: Optional[PathBatch] = None,
        frame: Optional[TraceFrame] = None,
    ) -> list["ChannelBasis"]:
        """One basis per receiver point, traced with the batched geometry.

        The batched twin of :meth:`trace`, for position sweeps and moving
        users: ambient multipath comes from :meth:`TraceFrame.trace_batch`,
        every element's two-hop geometry for all P points is one
        :meth:`TraceFrame.relay_geometry` broadcast, and each state set's
        reflectivities and stub phases fold in over all its elements.
        Per-point results match :meth:`trace` to machine precision (same
        op order throughout), so ambient path counts — and therefore
        drift-draw counts — are identical to the scalar route.  ``ambient``
        and ``frame`` (an :func:`element_frame` of ``tx``) reuse earlier work.
        """
        if frame is None:
            frame = element_frame(array, tracer, tx, tx_antenna)
        elif (frame.tracer, frame.tx, frame.tx_antenna) != (tracer, tx, tx_antenna):
            raise ValueError("trace frame was built for another tracer or TX")
        freqs = subcarrier_frequencies(num_subcarriers, bandwidth_hz)
        if ambient is None:
            ambient = frame.trace_batch(rx_points, rx_antenna)
        rx_x, rx_y = _points_to_arrays(rx_points)
        num_points = ambient.num_points
        _BATCHES_TRACED.inc()
        _BATCH_POINTS.inc(num_points)
        space = array.configuration_space()
        tensors = np.zeros(
            (num_points, array.num_elements, max(space.state_counts), num_subcarriers),
            dtype=complex,
        )
        by_element = tensors.transpose(1, 2, 0, 3)  # (N, M, P, K) view
        carrier = tracer.frequency_hz
        freq_factor = -2.0j * np.pi * freqs  # shared (K,) phasor exponent
        amplitude, total, _, clear = frame.relay_geometry(rx_x, rx_y, rx_antenna)
        carrier_phasor = np.exp(-2.0j * np.pi * total / tracer.wavelength_m)
        base_delay = total / SPEED_OF_LIGHT
        by_states: dict[tuple, list[int]] = {}  # elements grouped by state set
        for n, element in enumerate(array.elements):
            by_states.setdefault(element.states, []).append(n)
        for states, rows in by_states.items():
            for m, state in enumerate(states):
                if state.is_terminated:
                    continue
                stub_carrier_phase = (
                    -2.0 * math.pi * carrier * state.extra_path_m / SPEED_OF_LIGHT
                )
                reflectivity = state.magnitude * complex(
                    math.cos(state.fixed_phase_rad), math.sin(state.fixed_phase_rad)
                )
                gain = amplitude[rows] * reflectivity * carrier_phasor[rows]
                gain = gain * complex(
                    math.cos(stub_carrier_phase), math.sin(stub_carrier_phase)
                )
                valid = clear[rows] & (np.abs(gain) != 0.0)
                delay = base_delay[rows] + state.extra_delay_s
                contribution = gain[..., None] * np.exp(freq_factor * delay[..., None])
                contribution[~valid] = 0.0
                by_element[rows, m] = contribution
        return [
            cls(
                space=space,
                frequencies_hz=freqs,
                ambient_gains=gains,
                ambient_delays=delays,
                state_tensor=tensors[p],
                num_subcarriers=num_subcarriers,
                bandwidth_hz=bandwidth_hz,
            )
            for p, (gains, delays) in enumerate(map(ambient.point_arrays, range(num_points)))
        ]

    @classmethod
    def trace_chunked(
        cls,
        array: PressArray,
        tx: Point,
        rx: Point,
        tracer: RayTracer,
        tx_antenna: Antenna = IsotropicAntenna(),
        rx_antenna: Antenna = IsotropicAntenna(),
        num_subcarriers: int = NUM_SUBCARRIERS,
        bandwidth_hz: float = BANDWIDTH_HZ,
        environment_paths: Optional[Sequence[SignalPath]] = None,
        element_chunk: int = 256,
        memory_budget_bytes: Optional[int] = DEFAULT_STATE_TENSOR_BUDGET_BYTES,
    ) -> "ChannelBasis":
        """Large-array basis construction: chunked, budgeted, state-vectorized.

        The wall-sized twin of :meth:`trace`.  Geometry (distances,
        blockage, antenna gains) is one :meth:`TraceFrame.relay_geometry`
        broadcast over every element — not one trace per (element, state)
        as the scalar path does — and every state's reflectivity, stub
        phase and stub dispersion fold in as vectorized per-chunk numpy
        operations, with per-state-set constants cached across elements.
        Agrees with :meth:`trace` to <=1e-9 (the stub phasor is factored
        out of the per-subcarrier exponential; the math is identical, the
        op order differs only in that split).

        The state tensor is assembled ``element_chunk`` elements at a time
        so the per-chunk temporaries stay bounded, and the full
        ``E[n, m, k]`` allocation is checked against
        ``memory_budget_bytes`` up front (``None`` disables the check),
        raising :class:`StateTensorBudgetExceeded` before any allocation
        instead of OOM-ing mid-build.  Nothing here ever touches the M^N
        configuration table.
        """
        if element_chunk <= 0:
            raise ValueError(f"element_chunk must be positive, got {element_chunk}")
        space = array.configuration_space()
        max_states = max(space.state_counts)
        needed = state_tensor_nbytes(array.num_elements, max_states, num_subcarriers)
        if memory_budget_bytes is not None and needed > memory_budget_bytes:
            raise StateTensorBudgetExceeded(
                f"state tensor E[{array.num_elements}, {max_states}, "
                f"{num_subcarriers}] needs {needed} bytes "
                f"(> memory_budget_bytes = {memory_budget_bytes}); raise the "
                "budget explicitly or reduce the array/subcarrier count"
            )
        _BASES_TRACED.inc()
        freqs = subcarrier_frequencies(num_subcarriers, bandwidth_hz)
        if environment_paths is None:
            environment_paths = tracer.trace(tx, rx, tx_antenna, rx_antenna)
        gains, delays, _ = path_arrays(environment_paths)
        num_elements = array.num_elements
        tensor = np.zeros((num_elements, max_states, num_subcarriers), dtype=complex)
        carrier = tracer.frequency_hz
        freq_factor = -2.0j * np.pi * freqs  # shared (K,) phasor exponent
        frame = element_frame(array, tracer, tx, tx_antenna)
        geometry = frame.relay_geometry(np.array([rx.x]), np.array([rx.y]), rx_antenna)
        amplitudes, all_totals, _, clears = (column[:, 0] for column in geometry)

        # Per-state-set constants, shared across every element using the
        # same switch hardware (the common case is one state set for the
        # whole wall): Gamma at the carrier and the stub's dispersion
        # phasor across the band.
        folds: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        for states in dict.fromkeys(element.states for element in array.elements):
            gamma = np.zeros(len(states), dtype=complex)
            extra_phasor = np.zeros((len(states), num_subcarriers), dtype=complex)
            for m, state in enumerate(states):
                if state.is_terminated:
                    continue
                stub_carrier_phase = (
                    -2.0 * math.pi * carrier * state.extra_path_m / SPEED_OF_LIGHT
                )
                gamma[m] = state.magnitude * complex(
                    math.cos(state.fixed_phase_rad), math.sin(state.fixed_phase_rad)
                ) * complex(math.cos(stub_carrier_phase), math.sin(stub_carrier_phase))
                extra_phasor[m] = np.exp(freq_factor * state.extra_delay_s)
            folds[states] = (gamma, extra_phasor)

        for start in range(0, num_elements, element_chunk):
            stop = min(start + element_chunk, num_elements)
            totals = all_totals[start:stop]
            # One vectorized (chunk, K) exponential covers the chunk's
            # carrier phase + propagation delay across the band.
            base_phasors = np.exp(
                freq_factor[None, :] * (totals / SPEED_OF_LIGHT)[:, None]
            )
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
        return cls(
            space=space,
            frequencies_hz=freqs,
            ambient_gains=gains,
            ambient_delays=delays,
            state_tensor=tensor,
            num_subcarriers=num_subcarriers,
            bandwidth_hz=bandwidth_hz,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @property
    def num_elements(self) -> int:
        return self.state_tensor.shape[0]

    @property
    def num_ambient_paths(self) -> int:
        return int(self.ambient_gains.shape[0])

    @cached_property
    def _ambient_cfr0(self) -> np.ndarray:
        """The undrifted ambient CFR ``H_0[k]``."""
        return paths_to_cfr_batch(
            self.ambient_gains, self.ambient_delays, self.frequencies_hz
        )

    @cached_property
    def all_configuration_indices(self) -> np.ndarray:
        """Index matrix of the whole space, shape ``(M^N, N)``.

        Row order matches :meth:`ConfigurationSpace.all_configurations`.

        Raises
        ------
        SearchSpaceTooLarge
            When the space exceeds :data:`MAX_ENUMERABLE_CONFIGS`; every
            exhaustive entry point (:meth:`all_element_sums`,
            :meth:`evaluate` with ``configurations=None``,
            :meth:`BasisEvaluator.scores_all`/:meth:`BasisEvaluator.argmax`,
            :func:`exhaustive_argmax`) inherits the guard.
        """
        if self.space.size > MAX_ENUMERABLE_CONFIGS:
            raise SearchSpaceTooLarge(_too_large_message(self.space))
        indices = np.array(
            [cfg.indices for cfg in self.space.all_configurations()], dtype=np.intp
        )
        indices.setflags(write=False)
        return indices

    @cached_property
    def all_element_sums(self) -> np.ndarray:
        """``sum_n E[n, c_n]`` for every configuration, shape ``(M^N, K)``.

        One gather + sum over the state tensor — this is the whole
        configuration sweep, minus the (shared) ambient term.
        """
        return self.element_sums(self.all_configuration_indices)

    def element_sums(self, indices: np.ndarray) -> np.ndarray:
        """Per-configuration element contributions for an index matrix.

        Parameters
        ----------
        indices:
            Integer array of shape ``(C, N)`` of state indices.

        Returns
        -------
        numpy.ndarray
            Complex array of shape ``(C, K)``.
        """
        indices = np.asarray(indices)
        total = np.zeros((indices.shape[0], self.state_tensor.shape[2]), dtype=complex)
        for n in range(self.num_elements):
            total += self.state_tensor[n, indices[:, n], :]
        return total

    def configuration_indices(self, configurations: ConfigurationsLike) -> np.ndarray:
        """Normalise a configuration batch to an ``(C, N)`` index matrix."""
        if isinstance(configurations, np.ndarray):
            return configurations.astype(np.intp, copy=False)
        return np.array([cfg.indices for cfg in configurations], dtype=np.intp)

    def ambient_cfr(self, gains: Optional[np.ndarray] = None) -> np.ndarray:
        """Ambient CFR, optionally for a drifted ambient gain vector.

        ``gains`` may carry leading batch dimensions (e.g. one realisation
        per measurement); the delay vector is shared.
        """
        if gains is None:
            return self._ambient_cfr0
        return paths_to_cfr_batch(gains, self.ambient_delays, self.frequencies_hz)

    def element_sum(self, configuration: ArrayConfiguration) -> np.ndarray:
        """``sum_n E[n, c_n]`` for a single configuration, shape ``(K,)``."""
        self.space.validate(configuration)
        total = np.zeros(self.state_tensor.shape[2], dtype=complex)
        for n, state_index in enumerate(configuration.indices):
            total += self.state_tensor[n, state_index]
        return total

    def cfr(
        self,
        configuration: ArrayConfiguration,
        ambient_gains: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One configuration's CFR: ``H_0 + sum_n E[n, c_n]``."""
        return self.ambient_cfr(ambient_gains) + self.element_sum(configuration)

    def evaluate(
        self,
        configurations: Optional[ConfigurationsLike] = None,
        ambient_gains: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """CFRs of a configuration batch as one vectorized operation.

        Parameters
        ----------
        configurations:
            Configurations (or an index matrix); ``None`` evaluates the
            entire M^N space in :meth:`ConfigurationSpace.all_configurations`
            order.
        ambient_gains:
            Optional drifted ambient gain vector (shape ``(L,)`` shared by
            the batch, or ``(C, L)`` per configuration).

        Returns
        -------
        numpy.ndarray
            Complex array of shape ``(C, K)``.
        """
        if configurations is None:
            sums = self.all_element_sums
        else:
            sums = self.element_sums(self.configuration_indices(configurations))
        _EVALUATIONS.inc()
        _CONFIGS_EVALUATED.inc(int(sums.shape[0]))
        return self.ambient_cfr(ambient_gains) + sums

    # ------------------------------------------------------------------
    # Objective plumbing
    # ------------------------------------------------------------------
    def evaluator(
        self,
        objective: Callable[[np.ndarray], float],
        tx_power_dbm: float = 15.0,
        noise_figure_db: float = 7.0,
        mask: Optional[np.ndarray] = None,
    ) -> "BasisEvaluator":
        """A basis-backed score function for the configuration searchers.

        Each call costs one O(K) numpy gather + sum — zero re-tracing —
        so any :class:`~repro.core.search.Searcher` runs against it at
        numpy speed.
        """
        return BasisEvaluator(
            basis=self,
            objective=objective,
            tx_power_dbm=tx_power_dbm,
            noise_figure_db=noise_figure_db,
            mask=None if mask is None else np.asarray(mask),
        )


@dataclass(frozen=True)
class BasisEvaluator:
    """``configuration -> objective(snr_db)`` backed by a :class:`ChannelBasis`.

    Matches the noiseless measurement model of
    :func:`repro.em.channel.observe_cfr` (``rng=None``), so scores agree
    with over-the-air exhaustive sweeps of an exact testbed.
    """

    basis: ChannelBasis
    objective: Callable[[np.ndarray], float]
    tx_power_dbm: float = 15.0
    noise_figure_db: float = 7.0
    mask: Optional[np.ndarray] = None

    def _snr_db(self, cfr: np.ndarray) -> np.ndarray:
        snr = snr_db_from_cfr(
            cfr,
            self.basis.num_subcarriers,
            self.basis.bandwidth_hz,
            tx_power_dbm=self.tx_power_dbm,
            noise_figure_db=self.noise_figure_db,
        )
        if self.mask is not None:
            snr = snr[..., self.mask]
        return snr

    def __call__(self, configuration: ArrayConfiguration) -> float:
        return float(self.objective(self._snr_db(self.basis.cfr(configuration))))

    def scores_all(self) -> np.ndarray:
        """Objective value of every configuration (vectorized CFR + SNR)."""
        snr = self._snr_db(self.basis.evaluate())
        return np.array([float(self.objective(row)) for row in snr])

    def argmax(self) -> tuple[ArrayConfiguration, float]:
        """The best configuration over the whole space, fully vectorized.

        Raises :class:`SearchSpaceTooLarge` (via
        :attr:`ChannelBasis.all_configuration_indices`) instead of
        allocating the M^N score vector for spaces past
        :data:`MAX_ENUMERABLE_CONFIGS`.
        """
        scores = self.scores_all()
        index = int(np.argmax(scores))
        winner = ArrayConfiguration(
            tuple(int(i) for i in self.basis.all_configuration_indices[index])
        )
        return winner, float(scores[index])

    def delta(
        self,
        initial: Optional[ArrayConfiguration] = None,
        resync_interval: int = 4096,
    ) -> "DeltaEvaluator":
        """An incrementally-scored working copy of this evaluator."""
        return DeltaEvaluator([self], initial=initial, resync_interval=resync_interval)


def _scoring_key(evaluator: BasisEvaluator) -> tuple:
    """Everything besides the basis that turns a CFR into a link score."""
    basis = evaluator.basis
    mask = None if evaluator.mask is None else np.asarray(evaluator.mask).tobytes()
    return (
        evaluator.objective,
        evaluator.tx_power_dbm,
        evaluator.noise_figure_db,
        basis.num_subcarriers,
        basis.bandwidth_hz,
        mask,
    )


class DeltaEvaluator:
    """Incremental scoring of one shared configuration against L links.

    Because each link's basis CFR is linear in per-element state,

        H_l(f; c) = H_0,l(f) + sum_n E_l[n, c_n, f],

    changing one element's state only moves link ``l``'s running element
    sum by ``E_l[n, new] - E_l[n, old]`` — O(K·L) work regardless of N —
    instead of the O(N*K) gather the full path
    (:meth:`ChannelBasis.element_sum`) redoes per candidate.  This is the
    kernel that makes search cost scale with elements *touched* rather
    than configurations *enumerated*.

    Every link sees the same array, so the links share one working
    configuration and their state tensors are stacked as
    ``T[n, m, l, k]``: one element's states for every link sit in one
    contiguous block.  A flip is one fancy-index across all links, and a
    scan of one element reads its whole (M, L, K) block in one gather.  A
    single link is L = 1 (:meth:`BasisEvaluator.delta`); the §2 joint
    strategy (:func:`repro.core.joint.optimize_joint`) scores L links at
    once, which is what makes it runnable with
    :class:`~repro.core.search.GreedyCoordinateDescent` /
    :class:`~repro.core.search.RFocusMajoritySearch` on wall-sized arrays.
    The links must share one configuration space, objective, transmit
    power, noise figure, subcarrier grid and mask; anything else raises
    ``ValueError``.

    The score is ``aggregate(per_link_scores, weights)`` — any
    :data:`~repro.core.objectives.LinkAggregate` (weighted mean,
    worst-link max-min, lexicographic); ``aggregate=None`` means the
    weighted mean, matching :meth:`repro.core.joint.JointResult.aggregate_score`,
    which for a single link is that link's own score.

    The evaluator keeps two states: a *working* configuration mutated by
    :meth:`flip`/:meth:`flip_many`, and a *committed* snapshot restored
    bit-exactly by :meth:`revert` and advanced by :meth:`commit`.  Every
    ``resync_interval`` applied flips the running sums are recomputed from
    scratch at a deterministic point, bounding floating-point drift so
    delta-scored values stay within 1e-9 of the full path over arbitrarily
    long flip sequences (``tests/test_delta_evaluator.py``).

    Bookkeeping matches :class:`~repro.core.search.CountingScore`, the
    callback twin of this protocol: ``num_scores`` counts scored probes
    (the over-the-air measurement proxy; reverts are free) and
    ``trajectory`` records the best-so-far score after each probe.  Each
    probe sounds every link once, so callers charging over-the-air
    measurements multiply ``num_scores`` by the number of links (see
    :func:`repro.core.joint.optimize_joint`).
    """

    def __init__(
        self,
        evaluators: Sequence[BasisEvaluator],
        weights: Optional[Sequence[float]] = None,
        aggregate: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
        initial: Optional[ArrayConfiguration] = None,
        resync_interval: int = 4096,
    ) -> None:
        if not evaluators:
            raise ValueError("need at least one link evaluator")
        if resync_interval <= 0:
            raise ValueError(
                f"resync_interval must be positive, got {resync_interval}"
            )
        first = evaluators[0]
        space = first.basis.space
        for evaluator in evaluators[1:]:
            if evaluator.basis.space.state_counts != space.state_counts:
                raise ValueError(
                    "all link bases must share one configuration space "
                    f"(got state counts {space.state_counts} vs "
                    f"{evaluator.basis.space.state_counts}); every link sees "
                    "the same array"
                )
            if _scoring_key(evaluator) != _scoring_key(first):
                raise ValueError(
                    "all links must share one objective, transmit power, "
                    "noise figure, subcarrier grid and mask"
                )
        if weights is None:
            weight_vector = np.ones(len(evaluators))
        else:
            weight_vector = np.asarray(list(weights), dtype=float)
            if weight_vector.shape != (len(evaluators),):
                raise ValueError(
                    f"{len(evaluators)} evaluators but weights shape "
                    f"{weight_vector.shape}"
                )
            if np.any(weight_vector <= 0.0) or not np.all(
                np.isfinite(weight_vector)
            ):
                raise ValueError(
                    f"link weights must be finite and positive, got "
                    f"{weight_vector.tolist()}"
                )
        self._weights = weight_vector
        self._weight_total = float(weight_vector.sum())
        self._aggregate = aggregate
        self._objective = first.objective
        self._space = space
        self._state_counts = np.array(space.state_counts, dtype=np.uintp)
        # Scoring only ever sees masked subcarriers, and every SNR op is
        # elementwise — so the mask is applied once to the tensors and the
        # ambient CFRs up front, not per probe.  Scores are elementwise
        # identical to masking after the fact.
        keep = slice(None) if first.mask is None else first.mask
        tensors = [
            np.ascontiguousarray(evaluator.basis.state_tensor[:, :, keep])
            for evaluator in evaluators
        ]
        # T[n, m, l, k]; a single link is a view, not a copy.
        if len(tensors) == 1:
            self._tensor = tensors[0][:, :, None, :]
        else:
            self._tensor = np.stack(tensors, axis=2)
        self._ambient = np.stack(
            [evaluator.basis.ambient_cfr()[keep] for evaluator in evaluators]
        )
        self._resync_interval = int(resync_interval)
        self._flips_since_resync = 0
        if initial is None:
            indices = np.zeros(space.num_elements, dtype=np.intp)
        else:
            space.validate(initial)
            indices = np.array(initial.indices, dtype=np.intp)
        self._indices = indices
        # Per-score constants of BasisEvaluator._snr_db / snr_db_from_cfr,
        # hoisted out of the per-flip path.  The operation order below in
        # _snr_db_fast is exactly the library's (p * |H|^2 / n, floor,
        # 10*log10), so delta scores are bit-identical to the full path's
        # — only the constant recomputation and dispatch overhead go.
        self._subcarrier_power_w = float(
            dbm_to_watts(first.tx_power_dbm) / first.basis.num_subcarriers
        )
        self._noise_w = thermal_noise_power_w(
            first.basis.bandwidth_hz / first.basis.num_subcarriers,
            first.noise_figure_db,
        )
        self._sum = self._full_sum()
        self._rescore()
        self._committed_indices = self._indices.copy()
        self._committed_sum = self._sum.copy()
        self._committed_links = self._links
        self._committed_score = self._score
        self.num_scores = 1
        self._best = self._score
        self.trajectory: list[float] = [self._score]

    # -- state views ----------------------------------------------------
    @property
    def space(self) -> ConfigurationSpace:
        """The configuration space every link shares."""
        return self._space

    @property
    def score(self) -> float:
        """Aggregate value of the current working configuration."""
        return self._score

    @property
    def configuration(self) -> ArrayConfiguration:
        """The current working configuration."""
        return ArrayConfiguration(tuple(int(i) for i in self._indices))

    @property
    def committed_configuration(self) -> ArrayConfiguration:
        """The configuration :meth:`revert` falls back to."""
        return ArrayConfiguration(tuple(int(i) for i in self._committed_indices))

    def per_link_scores(self) -> np.ndarray:
        """Each link's objective at the current working configuration."""
        return self._links.copy()

    # -- internals ------------------------------------------------------
    def _full_sum(self) -> np.ndarray:
        rows = np.arange(self._space.num_elements)
        return self._tensor[rows, self._indices].sum(axis=0)

    def _snr_db_fast(self, cfr: np.ndarray) -> np.ndarray:
        """BasisEvaluator._snr_db with the per-call constants precomputed.

        ``cfr`` is already mask-restricted (the working tensor is); the
        operation order matches :func:`~repro.em.channel.snr_db_from_cfr`
        exactly, so values are bit-identical to the full path's.
        """
        snr_linear = self._subcarrier_power_w * np.abs(cfr) ** 2 / self._noise_w
        return 10.0 * np.log10(np.maximum(snr_linear, 1e-30))

    def _link_scores(self, sums: np.ndarray) -> np.ndarray:
        """Each link's objective for running sums of shape ``(..., L, K)``."""
        snr = self._snr_db_fast(self._ambient + sums)
        rows = snr.reshape(-1, snr.shape[-1])
        scores = np.fromiter(map(self._objective, rows), float, len(rows))
        return scores.reshape(snr.shape[:-1])

    def _joint_score(self, link_scores: np.ndarray) -> float:
        """Aggregate one probe's per-link scores, shape ``(L,)``."""
        if self._aggregate is not None:
            return float(self._aggregate(link_scores, self._weights))
        if link_scores.size == 1:
            return float(link_scores[0])  # one link's mean is its own score
        return float(np.dot(self._weights, link_scores) / self._weight_total)

    def _rescore(self) -> float:
        self._links = self._link_scores(self._sum)
        self._score = self._joint_score(self._links)
        return self._score

    def _record(self, value: float) -> None:
        self.num_scores += 1
        _DELTA_EVALS.inc()
        if value > self._best:
            self._best = value
        self.trajectory.append(self._best)

    def _count_flips(self, applied: int) -> None:
        self._flips_since_resync += applied
        if self._flips_since_resync >= self._resync_interval:
            self._sum = self._full_sum()
            self._flips_since_resync = 0

    def _move(self, element: int, state: int) -> float:
        if not 0 <= element < self._space.num_elements:
            raise IndexError(f"element {element} out of range")
        if not 0 <= state < self._space.state_counts[element]:
            raise ValueError(
                f"state {state} out of range for element {element} "
                f"({self._space.state_counts[element]} states)"
            )
        previous = int(self._indices[element])
        if state != previous:
            self._sum += self._tensor[element, state] - self._tensor[element, previous]
            self._indices[element] = state
            self._count_flips(1)
        return self._rescore()

    def _check_moves(self, elements: np.ndarray, states: np.ndarray) -> None:
        """:meth:`flip`'s range checks, plus distinctness, for a batch.

        Viewed as unsigned, a negative index wraps past every bound, so one
        comparison per array checks both ends of its range.
        """
        num_elements = self._space.num_elements
        if elements.view(np.uintp).max() >= num_elements:
            outside = elements[(elements < 0) | (elements >= num_elements)]
            raise IndexError(f"element {int(outside[0])} out of range")
        counts = self._state_counts[elements]
        invalid = states.view(np.uintp) >= counts
        if invalid.any():
            at = int(np.argmax(invalid))
            raise ValueError(
                f"state {int(states[at])} out of range for element "
                f"{int(elements[at])} ({int(counts[at])} states)"
            )
        if np.bincount(elements, minlength=num_elements).max() > 1:
            raise ValueError(f"elements must be distinct, got {elements.tolist()}")

    # -- mutation -------------------------------------------------------
    def flip(self, element: int, state: int) -> float:
        """Set one element's state on every link and return the new score."""
        value = self._move(element, state)
        self._record(value)
        return value

    def adopt(self, element: int, state: int) -> float:
        """Move one element to a state a scan has measured, and commit.

        Greedy descent's accept step: :meth:`scores_for_element` already
        charged the sounding for this configuration, so no probe is
        counted.  The arithmetic is :meth:`flip`'s, so the committed score
        is exactly what a charged flip would return.
        """
        self._move(element, state)
        return self.commit()

    def flip_many(
        self,
        elements: Sequence[int],
        states: Sequence[int],
    ) -> float:
        """Flip several distinct elements at once (one scored probe).

        The RFocus perturbation primitive: one random multi-element
        perturbation costs one sounding, not N.  Elements and states are
        range-checked as :meth:`flip` checks them, and a repeated element
        raises ``ValueError``: the batched gather reads every previous
        state before any write, so a repeat would corrupt the running sum.
        """
        element_idx = np.asarray(elements, dtype=np.intp)
        state_idx = np.asarray(states, dtype=np.intp)
        if element_idx.shape != state_idx.shape:
            raise ValueError("elements and states must have matching shapes")
        if element_idx.size:
            self._check_moves(element_idx, state_idx)
            previous = self._indices[element_idx]
            changed = state_idx != previous
            if np.any(changed):
                moved = element_idx[changed]
                self._sum += (
                    self._tensor[moved, state_idx[changed]]
                    - self._tensor[moved, previous[changed]]
                ).sum(axis=0)
                self._indices[moved] = state_idx[changed]
                self._count_flips(int(changed.sum()))
        value = self._rescore()
        self._record(value)
        return value

    def set_configuration(self, configuration: ArrayConfiguration) -> float:
        """Jump to an arbitrary configuration (full O(N*K·L) recompute)."""
        self._space.validate(configuration)
        self._indices = np.array(configuration.indices, dtype=np.intp)
        self._sum = self._full_sum()
        self._flips_since_resync = 0
        value = self._rescore()
        self._record(value)
        return value

    def revert(self) -> float:
        """Bit-exact rollback to the committed configuration (free)."""
        self._indices = self._committed_indices.copy()
        self._sum = self._committed_sum.copy()
        self._links = self._committed_links
        self._score = self._committed_score
        return self._score

    def commit(self) -> float:
        """Make the working configuration the new revert point."""
        self._committed_indices = self._indices.copy()
        self._committed_sum = self._sum.copy()
        self._committed_links = self._links
        self._committed_score = self._score
        return self._score

    # -- batched per-element probing ------------------------------------
    def scores_for_element(self, element: int) -> np.ndarray:
        """Score every state of one element, vectorized over states and links.

        The greedy-descent kernel: the candidate sums for all M states of
        ``element`` on every link are formed in one (M, L, K) broadcast
        from one gather, scored in one batched SNR evaluation and then
        aggregated once per state.  Counts M-1 probes (the current state's
        score is already known).
        """
        if not 0 <= element < self._space.num_elements:
            raise IndexError(f"element {element} out of range")
        count = self._space.state_counts[element]
        current = int(self._indices[element])
        block = self._tensor[element]
        candidates = (self._sum - block[current])[None] + block[:count]
        scores = np.array(
            [self._joint_score(row) for row in self._link_scores(candidates)]
        )
        for m in range(count):
            if m != current:
                self._record(float(scores[m]))
        return scores


#: The joint scorer's former name.  The benchmark's layer probes
#: (``perfbench/probes.py``) still wrap methods through it.
MultiLinkDeltaEvaluator = DeltaEvaluator


def exhaustive_argmax(
    basis: ChannelBasis,
    objective: Callable[[np.ndarray], float],
    tx_power_dbm: float = 15.0,
    noise_figure_db: float = 7.0,
    mask: Optional[np.ndarray] = None,
) -> tuple[ArrayConfiguration, float]:
    """Vectorized exhaustive search: argmax of the objective over all M^N.

    Equivalent to ``ExhaustiveSearch().search(...)`` against an exact
    testbed score, at a tiny fraction of the cost (no per-configuration
    tracing, one vectorized CFR evaluation).
    """
    return basis.evaluator(
        objective,
        tx_power_dbm=tx_power_dbm,
        noise_figure_db=noise_figure_db,
        mask=mask,
    ).argmax()
