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
once: the ambient paths plus every element's two-hop geometry, one
:meth:`TraceFrame.relay_geometry` broadcast over the array, with each state
folded in as a scale and a dispersion phasor.  After that, *any*
configuration's CFR is a gather + sum over the precomputed state tensor, and
the whole M^N sweep evaluates as a single vectorized numpy operation.

The decomposition is exact for passive arrays because a passive element
re-radiates the incident field scaled by its own Γ only; it ignores the
second-order element → element → RX rescattering, which the scalar
tracer's two-hop relay paths also ignore — so the basis agrees with a
per-path composition of ambient and relay paths to machine precision (see
``tests/test_basis_equivalence.py`` and its reference,
``tests/basis_reference.py``).  Every configured channel the package
composes — soundings, sweeps, MIMO matrices — is read off the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
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
from ..em.raytracer import RayTracer, TraceFrame, _points_to_arrays, rows_by_value
from ..em.trace_cache import global_trace_cache
from ..obs.metrics import counter_handle
from .array import PressArray
from .configuration import ArrayConfiguration, ConfigurationSpace
from .objectives import WeightedMeanAggregate

__all__ = [
    "ChannelBasis",
    "BasisEvaluator",
    "DeltaEvaluator",
    "MultiLinkDeltaEvaluator",
    "SearchSpaceTooLarge",
    "StateTensorBudgetExceeded",
    "MAX_ENUMERABLE_CONFIGS",
    "STATE_TENSOR_BUDGET_BYTES",
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

#: Most candidate rows (elements x states x links) one kernel call of
#: :meth:`DeltaEvaluator.first_improvement` scores.  The scan window
#: starts at two elements, since greedy descent accepts most moves within
#: an element or two of the last, and doubles while nothing improves, up
#: to this many rows: 64 elements of a 4-state single-link array, 8 over
#: eight links.
_SCAN_ROWS = 256

#: Most bytes of the (rows, N, K) complex gather one chunk of
#: :meth:`ChannelBasis.element_sums` holds: 4 rows of an N = 1024,
#: 64-subcarrier basis, or 512 rows of an N = 8 one.
_GATHER_BYTES = 4 << 20

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

#: Cap on the E[n, m, k] state-tensor allocation (512 MiB holds
#: N=65536 elements x 8 states x 64 subcarriers of complex128).
STATE_TENSOR_BUDGET_BYTES = 512 * 1024 * 1024

#: Elements per state-fold broadcast of :meth:`ChannelBasis.trace_chunked`,
#: which bounds its per-chunk temporaries.  Every chunk size gives the same
#: bytes, so the tensor's cache key leaves it out.
_ELEMENT_CHUNK = 256


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


def _delay_phasors(freq_factor: np.ndarray, delays: np.ndarray) -> np.ndarray:
    """``np.exp(freq_factor * delays[..., None])``, one ``exp`` per mirror pair.

    ``freq_factor`` is ``-2j pi f`` on the centred grid of
    :func:`subcarrier_frequencies`, where ``f[h - j] == -f[h + j]``
    exactly (``h = K // 2``) and the exponent's real part is a signed
    zero.  Bin ``h - j`` is then the conjugate of bin ``h + j`` bit for
    bit, so bins from ``h`` up (and the unpaired bin 0 of an even grid)
    take ``exp`` and the rest conjugate their mirrors.
    """
    num = freq_factor.shape[0]
    half, low = num // 2, 1 - num % 2
    phasors = np.empty(delays.shape + (num,), dtype=complex)
    phasors[..., half:] = np.exp(freq_factor[half:] * delays[..., None])
    phasors[..., :low] = np.exp(freq_factor[:low] * delays[..., None])
    np.conjugate(phasors[..., 2 * half - low : half : -1], out=phasors[..., low:half])
    return phasors


def _element_tensor_key(
    array: PressArray,
    tracer: RayTracer,
    tx: Point,
    rx: Point,
    tx_antenna: Antenna,
    rx_antenna: Antenna,
    by_states: dict,
    num_subcarriers: int,
    bandwidth_hz: float,
) -> tuple:
    """The trace-cache key of :func:`_element_tensor`: every value it reads.

    Element positions go in as one float64 array's bytes and antennas and
    state sets as their row groups, so a key costs one hash per distinct
    antenna or state set rather than one per element.  Scatterers, wall
    materials and ``max_bounces`` are not read.
    """
    elements = array.elements
    positions = np.fromiter(
        (c for e in elements for c in (e.position.x, e.position.y)), float, 2 * len(elements)
    )
    by_antenna = rows_by_value([e.antenna for e in elements])
    return (
        "element-tensor",
        tuple(tracer.scene.blocking_segments()),
        tracer.frequency_hz,
        tx,
        rx,
        tx_antenna,
        rx_antenna,
        positions.tobytes(),
        tuple((antenna, rows.tobytes()) for antenna, rows in by_antenna.items()),
        tuple((states, rows.tobytes()) for states, rows in by_states.items()),
        num_subcarriers,
        bandwidth_hz,
    )


def _element_tensor(
    array: PressArray,
    tracer: RayTracer,
    tx: Point,
    rx: Point,
    tx_antenna: Antenna,
    rx_antenna: Antenna,
    by_states: dict,
    freqs: np.ndarray,
) -> np.ndarray:
    """``E[n, m, k]`` of :meth:`ChannelBasis.trace_chunked`.

    Geometry is one :meth:`TraceFrame.relay_geometry` broadcast over every
    element, and each state set folds in as one broadcast per chunk.
    """
    num_elements = array.num_elements
    max_states = max(len(states) for states in by_states)
    tensor = np.zeros((num_elements, max_states, freqs.shape[0]), dtype=complex)
    carrier = tracer.frequency_hz
    freq_factor = -2.0j * np.pi * freqs  # shared (K,) phasor exponent
    frame = element_frame(array, tracer, tx, tx_antenna)
    geometry = frame.relay_geometry(np.array([rx.x]), np.array([rx.y]), rx_antenna)
    amplitudes, all_totals, _, clears = (column[:, 0] for column in geometry)
    live = clears & (amplitudes != 0.0)  # blocked and zero rows stay zero

    # Per-state-set constants, shared across every element using the
    # same switch hardware (the common case is one state set for the
    # whole wall): Gamma at the carrier and the stub's dispersion
    # phasor across the band.
    folds = []
    for states, rows in by_states.items():
        gamma = np.zeros(len(states), dtype=complex)
        extra_phasor = np.zeros((len(states), freqs.shape[0]), dtype=complex)
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
        folds.append((rows[live[rows]], gamma, extra_phasor))

    # One broadcast per (chunk, state set): each live element's
    # carrier phase, propagation-delay phasor and state fold, in the
    # per-element order of operations.
    for start in range(0, num_elements, _ELEMENT_CHUNK):
        for live_rows, gamma, extra_phasor in folds:
            rows = live_rows[(live_rows >= start) & (live_rows < start + _ELEMENT_CHUNK)]
            if not len(rows):
                continue
            totals = all_totals[rows]
            base_phasors = _delay_phasors(freq_factor, totals / SPEED_OF_LIGHT)
            carrier_phasors = np.exp(-2.0j * np.pi * totals / tracer.wavelength_m)
            per_state_gain = amplitudes[rows, None] * carrier_phasors[:, None] * gamma
            tensor[rows, : len(gamma)] = (
                per_state_gain[:, :, None] * base_phasors[:, None, :] * extra_phasor
            )
    return tensor


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

    def __getstate__(self) -> dict:
        # The masked tensors are rebuilt on demand, so they never ship.
        state = self.__dict__.copy()
        state.pop("_masked_tensors", None)
        return state

    def masked_tensor(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """The state tensor on ``mask``'s subcarriers, contiguous and read-only.

        Built on first use per mask and shared by every later scorer;
        :meth:`warm` leaves it unbuilt and pickling drops it.  Two racing
        first uses build equal arrays and keep one, so it needs no lock.
        """
        key = None if mask is None else np.flatnonzero(mask).tobytes()
        cache = self.__dict__.setdefault("_masked_tensors", {})
        if key not in cache:
            tensor = np.ascontiguousarray(_masked(self.state_tensor, mask))
            tensor.setflags(write=False)
            cache[key] = tensor
        return cache[key]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
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

        The many-receiver form of :meth:`trace_chunked`, for position
        sweeps and moving users: ambient multipath comes from
        :meth:`TraceFrame.trace_batch`, every element's two-hop geometry for
        all P points is one :meth:`TraceFrame.relay_geometry` broadcast, and
        each state set's reflectivities and stub phases fold in over all its
        elements.  Per-point results match :meth:`trace_chunked` to machine
        precision, and the ambient batch keeps the scalar tracer's paths
        one for one, so drift-draw counts are the same on both routes.
        ``ambient`` and ``frame`` (an :func:`element_frame` of ``tx``) reuse
        earlier work.
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
        by_states = rows_by_value([element.states for element in array.elements])
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
                contribution = gain[..., None] * _delay_phasors(freq_factor, delay)
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
    ) -> "ChannelBasis":
        """Trace one TX/RX pair's geometry once and build its basis.

        The one builder of a single-receiver basis.  Geometry (distances,
        blockage, antenna gains) is one :meth:`TraceFrame.relay_geometry`
        broadcast over every element, and every state's reflectivity, stub
        phase and stub dispersion fold in as one broadcast per
        :data:`_ELEMENT_CHUNK` elements and state set, with per-state-set
        constants shared across elements.  Blocked and zero-amplitude
        elements keep zero rows.  Each row agrees with the scalar tracer's
        two-hop relay path of that element and state (the per-element
        reference builder in ``tests/basis_reference.py``) to machine
        precision.
        ``environment_paths`` lets a caller reuse already-traced ambient
        paths (e.g. the testbed's environment cache); when ``None`` the
        ambient multipath is traced here.

        The full ``E[n, m, k]`` allocation is checked against
        :data:`STATE_TENSOR_BUDGET_BYTES` up front, raising
        :class:`StateTensorBudgetExceeded` before anything is traced instead
        of OOM-ing mid-build.  Nothing here ever touches the M^N
        configuration table.

        The tensor comes from the process-wide trace cache
        (:meth:`~repro.em.trace_cache.TraceCache.get_or_build_tensor`),
        keyed by every value its build reads (:func:`_element_tensor_key`):
        bases of one array between one pair of endpoints in one opaque
        geometry share one read-only tensor, whatever their scatterers.
        """
        space = array.configuration_space()
        max_states = max(space.state_counts)
        needed = state_tensor_nbytes(array.num_elements, max_states, num_subcarriers)
        if needed > STATE_TENSOR_BUDGET_BYTES:
            raise StateTensorBudgetExceeded(
                f"state tensor E[{array.num_elements}, {max_states}, "
                f"{num_subcarriers}] needs {needed} bytes "
                f"(> STATE_TENSOR_BUDGET_BYTES = {STATE_TENSOR_BUDGET_BYTES}); "
                "reduce the array/subcarrier count"
            )
        _BASES_TRACED.inc()
        freqs = subcarrier_frequencies(num_subcarriers, bandwidth_hz)
        if environment_paths is None:
            environment_paths = tracer.trace(tx, rx, tx_antenna, rx_antenna)
        gains, delays, _ = path_arrays(environment_paths)
        by_states = rows_by_value([e.states for e in array.elements])
        key = _element_tensor_key(
            array, tracer, tx, rx, tx_antenna, rx_antenna, by_states,
            num_subcarriers, bandwidth_hz,
        )
        tensor = global_trace_cache().get_or_build_tensor(
            key,
            lambda: _element_tensor(
                array, tracer, tx, rx, tx_antenna, rx_antenna, by_states, freqs
            ),
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

        One gather ``E[arange(N), indices]`` and one sum over its element
        axis per chunk of rows; each chunk's ``(rows, N, K)`` gather stays
        under :data:`_GATHER_BYTES`.  The sum runs over a non-inner axis,
        so numpy adds the elements in order, 0 to N-1: a row's value does
        not depend on the batch it is evaluated in, and every evaluation
        route (:meth:`element_sum`, :meth:`evaluate`,
        :attr:`all_element_sums`) gives the same bits for it.

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
        num_elements, _, num_subcarriers = self.state_tensor.shape
        total = np.empty((indices.shape[0], num_subcarriers), dtype=complex)
        elements = np.arange(num_elements)
        chunk = max(1, _GATHER_BYTES // (num_elements * num_subcarriers * 16))
        for start in range(0, indices.shape[0], chunk):
            stop = start + chunk
            gathered = self.state_tensor[elements, indices[start:stop]]
            np.sum(gathered, axis=1, out=total[start:stop])
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
        return self.element_sums(np.array([configuration.indices], dtype=np.intp))[0]

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

        Each call costs one O(N·K) numpy gather + sum — zero re-tracing —
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
        return _masked(snr, self.mask)

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


def _masked(values: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """``values[..., mask]`` for a boolean subcarrier mask.

    ``np.take`` of the kept indices gives the same C-contiguous array as
    the boolean index, about ten times faster on an (N, M, K) tensor.
    """
    if mask is None:
        return values
    return np.take(values, np.flatnonzero(mask), axis=-1)


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
    which for a single link is that link's own score.  Every batch of
    probes is aggregated in one call to the aggregate's ``rows`` form
    (all three named aggregates have one), or row by row through
    ``__call__`` for an aggregate without one.

    The evaluator keeps two states: a *working* configuration mutated by
    :meth:`flip`/:meth:`flip_many`, and a *committed* snapshot restored
    bit-exactly by :meth:`revert` and advanced by :meth:`commit` and
    :meth:`adopt`.  Every ``resync_interval`` applied flips the running
    sums are recomputed from scratch at a deterministic point, bounding
    floating-point drift so delta-scored values stay within 1e-9 of the
    full path over arbitrarily long flip sequences
    (``tests/test_delta_evaluator.py``).

    :meth:`adopt` defers its configuration's score: the next
    :meth:`first_improvement` scores it as one more row of its own kernel
    call, and every other reader of the score (:attr:`score`,
    :meth:`per_link_scores`, :meth:`commit`, :meth:`revert`, the flips and
    :meth:`set_configuration`) scores it first if no scan has.  Rows are
    scored independently, so the deferred score has the bits an eager
    re-score would give.

    :meth:`score_perturbations` is RFocus's round: P perturbations of the
    working configuration, each summed as :meth:`flip_many` sums it and
    all scored in one kernel call, with the working configuration left
    unchanged.  Each score has the bits of a :meth:`flip_many` +
    :meth:`revert` of its probe.

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
        if aggregate is None and len(evaluators) > 1:
            aggregate = WeightedMeanAggregate()
        self._aggregate = aggregate
        self._aggregate_rows = getattr(aggregate, "rows", None)
        self._objective = first.objective
        self._objective_rows = getattr(first.objective, "rows", None)
        self._space = space
        # Scoring only ever sees masked subcarriers, and every SNR op is
        # elementwise — so the mask is applied once to the tensors and the
        # ambient CFRs up front, not per probe.  Scores are elementwise
        # identical to masking after the fact.
        # T[n, m, l, k]; a single link is a view of its basis's cached
        # masked tensor, and each of several links is copied once,
        # straight into its slice.
        if len(evaluators) == 1:
            self._tensor = first.basis.masked_tensor(first.mask)[:, :, None, :]
        else:
            num_elements, max_states, num_subcarriers = first.basis.state_tensor.shape
            kept = np.arange(num_subcarriers) if first.mask is None else np.flatnonzero(first.mask)
            self._tensor = np.empty(
                (num_elements, max_states, len(evaluators), kept.size), dtype=complex
            )
            for link, evaluator in enumerate(evaluators):
                np.take(evaluator.basis.state_tensor, kept, axis=-1, out=self._tensor[:, :, link])
        self._ambient = np.stack(
            [_masked(evaluator.basis.ambient_cfr(), first.mask) for evaluator in evaluators]
        )
        # Scan buffers, reused by every kernel call: a window's candidate
        # CFRs and their SNRs, plus one row for an adopted configuration.
        # Mapping the objective or the aggregate row by row costs as much
        # per row as the scan it would save, so only row forms of both
        # earn a window wider than one element.
        _, max_states, num_links, num_subcarriers = self._tensor.shape
        self._scan_cap = 1
        if self._objective_rows is not None and (
            aggregate is None or self._aggregate_rows is not None
        ):
            self._scan_cap = max(1, _SCAN_ROWS // (max_states * num_links))
        rows = self._scan_cap * max_states + 1
        self._cfr_rows = np.empty((rows, num_links, num_subcarriers), dtype=complex)
        self._snr_rows = np.empty((rows, num_links, num_subcarriers))
        self._base_rows = np.empty((self._scan_cap, num_links, num_subcarriers), dtype=complex)
        # T as (N*M, L, K) rows: element e in state m is row e*M + m.
        self._state_rows = self._tensor.reshape(-1, num_links, num_subcarriers)
        self._first_rows = np.arange(space.num_elements) * max_states
        self._table: Optional[np.ndarray] = None  # score_perturbations' D
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
        # _objective_scores is exactly the library's (p * |H|^2 / n, floor,
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
        self._pending = False
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
        self._settle()
        return self._score

    @property
    def configuration(self) -> ArrayConfiguration:
        """The current working configuration."""
        return ArrayConfiguration(tuple(self._indices.tolist()))

    @property
    def committed_configuration(self) -> ArrayConfiguration:
        """The configuration :meth:`revert` falls back to."""
        return ArrayConfiguration(tuple(self._committed_indices.tolist()))

    def per_link_scores(self) -> np.ndarray:
        """Each link's objective at the current working configuration."""
        self._settle()
        return self._links.copy()

    def link_scores_at(self, configuration: ArrayConfiguration) -> np.ndarray:
        """Each link's objective at ``configuration``, summed from scratch.

        It reads the basis, so it sounds nothing and charges no probe.  The
        element sum adds the same terms in the same order as
        :class:`BasisEvaluator`'s full path, so every score has its bits.
        """
        self._space.validate(configuration)
        return self._link_scores(self._full_sum(np.array(configuration.indices, dtype=np.intp)))

    # -- internals ------------------------------------------------------
    def _full_sum(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """The running sums of ``indices`` (the working ones by default), from scratch."""
        if indices is None:
            indices = self._indices
        return self._tensor[np.arange(self._space.num_elements), indices].sum(axis=0)

    def _objective_scores(self, cfr: np.ndarray, snr: np.ndarray) -> np.ndarray:
        """Each link's objective for CFRs of shape ``(..., L, K)``.

        ``snr`` is scratch space of ``cfr``'s shape for the SNR map of
        BasisEvaluator._snr_db, with its per-call constants precomputed.
        ``cfr`` is already mask-restricted (the working tensor is); the
        operation order matches :func:`~repro.em.channel.snr_db_from_cfr`
        exactly, so values are bit-identical to the full path's.
        """
        np.abs(cfr, out=snr)
        np.square(snr, out=snr)
        np.multiply(self._subcarrier_power_w, snr, out=snr)
        np.divide(snr, self._noise_w, out=snr)
        np.maximum(snr, 1e-30, out=snr)
        np.log10(snr, out=snr)
        np.multiply(10.0, snr, out=snr)
        if self._objective_rows is not None:
            return self._objective_rows(snr)
        rows = snr.reshape(-1, snr.shape[-1])
        scores = np.fromiter(map(self._objective, rows), float, len(rows))
        return scores.reshape(snr.shape[:-1])

    def _link_scores(self, sums: np.ndarray) -> np.ndarray:
        """Each link's objective for running sums of shape ``(..., L, K)``."""
        cfr = self._ambient + sums
        return self._objective_scores(cfr, np.empty(cfr.shape))

    def _joint_scores(self, links: np.ndarray) -> Union[float, list]:
        """The joint score of every (L,) row of ``links``: a float for one
        row, (nested) lists for more.  An aggregate without a row form is
        mapped row by row."""
        if self._aggregate is None:
            return links[..., 0].tolist()  # one link's mean is its own score
        if self._aggregate_rows is not None:
            return self._aggregate_rows(links, self._weights).tolist()
        rows = links.reshape(-1, links.shape[-1])
        scores = (self._aggregate(row, self._weights) for row in rows)
        return np.fromiter(scores, float, len(rows)).reshape(links.shape[:-1]).tolist()

    def _rescore(self) -> float:
        self._links = self._link_scores(self._sum)
        self._score = self._joint_scores(self._links)
        return self._score

    def _settle(self) -> None:
        """Score an adopted configuration that no scan has scored yet."""
        if self._pending:
            links = self._link_scores(self._sum)
            self._settle_with(links, self._joint_scores(links))

    def _settle_with(self, links: np.ndarray, score: float) -> None:
        """Take ``links`` and ``score`` as the adopted (working and committed) scores."""
        self._links = self._committed_links = links
        self._score = self._committed_score = score
        self._pending = False

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

    def _move(self, element: int, state: int) -> None:
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

    # -- mutation -------------------------------------------------------
    def flip(self, element: int, state: int) -> float:
        """Set one element's state on every link and return the new score."""
        self._settle()
        self._move(element, state)
        value = self._rescore()
        self._record(value)
        return value

    def adopt(self, element: int, state: int) -> None:
        """Move one element to a state a scan has measured, and commit.

        Greedy descent's accept step: :meth:`first_improvement` already
        charged the sounding for this configuration, so no probe is
        counted.  The running sums move with :meth:`flip`'s arithmetic,
        and the new score is left for the next reader to compute.
        """
        self._move(element, state)
        self._committed_indices = self._indices.copy()
        self._committed_sum = self._sum.copy()
        self._pending = True

    def flip_many(
        self,
        elements: Sequence[int],
        states: Sequence[int],
    ) -> float:
        """Flip several distinct elements at once (one scored probe).

        The RFocus perturbation primitive: one random multi-element
        perturbation costs one sounding, not N.  Moves are checked by
        :meth:`~repro.core.configuration.ConfigurationSpace.check_moves`:
        the batched gather reads every previous state before any write, so
        a repeated element would corrupt the running sum.
        """
        element_idx, state_idx = self._space.check_moves(elements, states)
        self._settle()
        if element_idx.size:
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

    def score_perturbations(self, masks: np.ndarray, states: np.ndarray) -> list[float]:
        """Score P perturbations of the working configuration, one sounding each.

        Probe ``p`` moves every element ``n`` with ``masks[p, n]`` to
        ``states[p, n]``, from the working configuration rather than from
        the probe before it; ``masks`` and ``states`` have shape (P, N).
        The scores are in probe order, and the working configuration is
        left as it was.  Every masked state is checked in one comparison,
        so a state out of range raises ``ValueError`` before any probe is
        charged.

        This is RFocus's round.  It fills one difference table
        ``D = T - T[arange(N), cur][:, None]``, allocated on the first
        round, and each probe's running sum is built as :meth:`flip_many`
        builds it: the moved elements' differences, here gathered as
        ``D[idx, s]``, summed in order along axis 0 and added to the
        working sum.  The flip counter advances probe by probe as those
        flips would advance it; a probe that reaches ``resync_interval``
        is summed from scratch over its own configuration instead, and the
        counter restarts.  All P sums are then scored in one kernel call,
        so each score has the bits a :meth:`flip_many` + :meth:`revert`
        of the probe gives from a committed working configuration.
        """
        masks, states = self._space.check_perturbations(masks, states)
        self._settle()
        if self._table is None:
            self._table = np.empty(self._tensor.shape, dtype=complex)
        held = self._state_rows[self._first_rows + self._indices]
        table = np.subtract(self._tensor, held[:, None], out=self._table)
        changed = masks & (states != self._indices)
        sums = np.empty((masks.shape[0],) + self._sum.shape, dtype=complex)
        for probe, moving in enumerate(changed):
            moved = moving.nonzero()[0]
            if not moved.size:
                sums[probe] = self._sum
                continue
            self._flips_since_resync += moved.size
            if self._flips_since_resync >= self._resync_interval:
                self._flips_since_resync = 0
                indices = np.where(moving, states[probe], self._indices)
                sums[probe] = self._full_sum(indices)
                continue
            step = table[moved, states[probe, moved]].sum(axis=0)
            np.add(self._sum, step, out=sums[probe])
        values = self._joint_scores(self._link_scores(sums))
        self._record_many(values)
        return values

    def set_configuration(self, configuration: ArrayConfiguration) -> float:
        """Jump to an arbitrary configuration (full O(N*K·L) recompute)."""
        self._space.validate(configuration)
        self._settle()
        self._indices = np.array(configuration.indices, dtype=np.intp)
        self._sum = self._full_sum()
        self._flips_since_resync = 0
        value = self._rescore()
        self._record(value)
        return value

    def revert(self) -> float:
        """Bit-exact rollback to the committed configuration (free)."""
        self._settle()
        self._indices = self._committed_indices.copy()
        self._sum = self._committed_sum.copy()
        self._links = self._committed_links
        self._score = self._committed_score
        return self._score

    def commit(self) -> float:
        """Make the working configuration the new revert point."""
        self._settle()
        self._committed_indices = self._indices.copy()
        self._committed_sum = self._sum.copy()
        self._committed_links = self._links
        self._committed_score = self._score
        return self._score

    # -- batched per-element probing ------------------------------------
    def scores_for_element(self, element: int) -> np.ndarray:
        """Score every state of one element, vectorized over states and links.

        The per-element form of :meth:`first_improvement`'s kernel: the
        candidate sums for all M states of ``element`` on every link are
        formed in one (M, L, K) broadcast from one gather, scored in one
        batched SNR evaluation and one aggregation call.  Counts
        M-1 probes (the current state's score is already known).
        """
        if not 0 <= element < self._space.num_elements:
            raise IndexError(f"element {element} out of range")
        count = self._space.state_counts[element]
        current = int(self._indices[element])
        block = self._tensor[element]
        candidates = (self._sum - block[current])[None] + block[:count]
        scores = np.array(self._joint_scores(self._link_scores(candidates)))
        for m in range(count):
            if m != current:
                self._record(float(scores[m]))
        return scores

    def first_improvement(self, start: int) -> Optional[tuple[int, int]]:
        """Greedy descent's scan: the first element from ``start`` worth moving.

        Scans elements ``start, start + 1, ...`` of the working
        configuration as repeated :meth:`scores_for_element` calls would,
        and stops at the first whose best state (first index on ties)
        differs from its current state and scores above the committed
        score; returns ``(element, state)``, or ``None`` past the last
        element.  Soundings are charged exactly as those calls charge
        them, through the returned element only.  ``start`` must lie in
        ``[0, N]``; anything else raises ``IndexError`` before a probe.

        Between two accepted moves the running sum does not change, so a
        window of elements is scored per kernel call: their candidate sums
        ``(sum - T[e, cur_e]) + T[e, m]`` are the same elementwise
        arithmetic as :meth:`scores_for_element`, so the scores are
        bit-identical, and the objective's and the aggregate's ``rows``
        forms score them in one call each.  The window starts at two
        elements and doubles while nothing improves, up to
        :data:`_SCAN_ROWS` rows; without both ``rows`` forms it is one
        element.  A configuration :meth:`adopt` left unscored rides along as
        one more row of the first call, and its score is the threshold.
        """
        num_elements = self._space.num_elements
        if not 0 <= start <= num_elements:
            raise IndexError(
                f"scan start {start} out of range for {num_elements} elements"
            )
        width = min(2, self._scan_cap)
        lo = start
        while lo < num_elements or self._pending:
            hi = min(lo + width, num_elements)
            move = self._scan_window(lo, hi)
            if move is not None:
                return move
            lo = hi
            width = min(2 * width, self._scan_cap)
        return None

    def _scan_window(self, lo: int, hi: int) -> Optional[tuple[int, int]]:
        """One kernel call of :meth:`first_improvement` over elements ``lo:hi``."""
        block = self._tensor[lo:hi]
        count, max_states = block.shape[:2]
        current = self._indices[lo:hi]
        candidates = count * max_states
        used = candidates + self._pending
        cfr = self._cfr_rows[:used]
        held = self._state_rows[self._first_rows[lo:hi] + current]
        base = np.subtract(self._sum, held, out=self._base_rows[:count])
        np.add(base[:, None], block, out=cfr[:candidates].reshape(block.shape))
        if self._pending:
            cfr[candidates] = self._sum
        np.add(self._ambient, cfr, out=cfr)
        links = self._objective_scores(cfr, self._snr_rows[:used])
        scores = self._joint_scores(links)
        if self._pending:
            self._settle_with(links[candidates], scores[candidates])
        threshold = self._committed_score
        state_counts = self._space.state_counts[lo:hi]
        charged: list[float] = []
        move = None
        for i, (state, states) in enumerate(zip(current.tolist(), state_counts)):
            row = scores[i * max_states : i * max_states + states]
            charged += row[:state]
            charged += row[state + 1 :]
            top = max(row)
            winner = row.index(top)
            if winner != state and top > threshold:
                move = (lo + i, winner)
                break
        self._record_many(charged)
        return move

    def _record_many(self, values: list[float]) -> None:
        """:meth:`_record` of each value in turn."""
        if not values:
            return
        self.num_scores += len(values)
        _DELTA_EVALS.inc(len(values))
        running = accumulate(values, max, initial=self._best)
        next(running)
        self.trajectory.extend(running)
        self._best = self.trajectory[-1]


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
