"""The multipath signal model of §2.

The paper adopts the standard parametric signal model (Tse & Viswanath): the
channel between a sender and receiver is a superposition of paths, each
characterised by its angle of departure phi_l, propagation delay tau_l,
Doppler shift gamma_l and angle of arrival theta_l, plus a complex gain.
:class:`SignalPath` carries exactly those parameters, and
:func:`paths_to_cfr` synthesises the channel frequency response

    H(f, t) = sum_l  g_l  e^{j 2 pi gamma_l t}  e^{-j 2 pi f tau_l}

on an arbitrary frequency grid.  PRESS's "inverse problem" (§2) — given a
desired H, find path parameters whose superposition produces it — is solved
against this same model in :mod:`repro.core.inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "SignalPath",
    "PathBatch",
    "path_arrays",
    "paths_to_cfr",
    "paths_to_cfr_batch",
    "paths_to_cir",
    "total_path_power",
]


@dataclass(frozen=True)
class SignalPath:
    """One propagation path in the §2 signal model.

    Attributes
    ----------
    gain:
        Complex field gain of the path (includes antenna gains, path loss,
        reflection losses and the carrier-phase rotation at f=0 of the
        baseband grid — i.e. the phase accumulated at the carrier).
    delay_s:
        Propagation delay tau_l in seconds, measured over the air (and any
        waveguide stubs inside PRESS elements).
    aod_rad:
        Angle of departure phi_l from the transmitter, radians in scene
        coordinates.
    aoa_rad:
        Angle of arrival theta_l at the receiver, radians.
    doppler_hz:
        Doppler shift gamma_l in hertz (0 for the static scenes of §3).
    kind:
        Free-form tag describing the path's origin: ``"los"``,
        ``"wall-reflection"``, ``"press-element"``, ``"scatterer"``,
        ``"active-element"`` ...  Used by analyses that separate the PRESS
        contribution from the ambient environment.
    hops:
        Number of interactions (reflections/retransmissions) along the path.
    """

    gain: complex
    delay_s: float
    aod_rad: float = 0.0
    aoa_rad: float = 0.0
    doppler_hz: float = 0.0
    kind: str = "generic"
    hops: int = 0

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.hops < 0:
            raise ValueError(f"hops must be non-negative, got {self.hops}")

    @property
    def power(self) -> float:
        """Path power |g_l|^2."""
        return float(abs(self.gain) ** 2)

    def scaled(self, factor: complex) -> "SignalPath":
        """A copy of this path with the gain multiplied by ``factor``."""
        return replace(self, gain=self.gain * factor)

    def delayed(self, extra_delay_s: float) -> "SignalPath":
        """A copy with ``extra_delay_s`` added to the propagation delay."""
        return replace(self, delay_s=self.delay_s + extra_delay_s)


def path_arrays(
    paths: Sequence[SignalPath] | Iterable[SignalPath],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack paths into (gains, delays_s, dopplers_hz) numpy arrays.

    The array form is what the vectorized CFR kernels operate on; packing
    once and reusing the arrays avoids touching ``SignalPath`` attributes
    in hot loops.
    """
    path_list = list(paths)
    gains = np.array([p.gain for p in path_list], dtype=complex)
    delays = np.array([p.delay_s for p in path_list], dtype=float)
    dopplers = np.array([p.doppler_hz for p in path_list], dtype=float)
    return gains, delays, dopplers


def paths_to_cfr_batch(
    gains: np.ndarray,
    delays_s: np.ndarray,
    frequencies_hz: np.ndarray,
    dopplers_hz: Optional[np.ndarray] = None,
    time_s: float = 0.0,
) -> np.ndarray:
    """Batched channel frequency response from packed path arrays.

    Evaluates ``H[..., k] = sum_l gains[..., l] e^{-j 2 pi f_k tau_l}`` as
    one outer-product ``np.exp`` plus a matmul — no per-path Python loop.
    The leading dimensions of ``gains`` broadcast, so a whole batch of
    gain realisations (e.g. per-measurement coherence drift) evaluates in
    one call against a shared delay vector.

    Parameters
    ----------
    gains:
        Complex path gains, shape ``(..., L)``.
    delays_s:
        Path delays: shape ``(L,)`` shared across the gain batch, or any
        shape broadcastable against ``gains`` (e.g. ``(P, L)`` per-point
        delays from a batched geometry trace).
    frequencies_hz:
        Baseband frequency grid, shape ``(K,)``.
    dopplers_hz:
        Optional per-path Doppler shifts, shape ``(L,)``.
    time_s:
        Observation time; only matters with non-zero Doppler.

    Returns
    -------
    numpy.ndarray
        Complex H of shape ``(..., K)``.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    gains = np.asarray(gains, dtype=complex)
    delays = np.asarray(delays_s, dtype=float)
    if gains.shape[-1:] != delays.shape[-1:]:
        raise ValueError(
            f"gains last axis {gains.shape[-1:]} must match delays last axis "
            f"{delays.shape[-1:]}"
        )
    if delays.shape[-1:] == (0,):
        batch = np.broadcast_shapes(gains.shape[:-1], delays.shape[:-1])
        return np.zeros(batch + freqs.shape, dtype=complex)
    if dopplers_hz is not None and time_s != 0.0:
        dopplers = np.asarray(dopplers_hz, dtype=float)
        gains = gains * np.exp(2.0j * np.pi * dopplers * time_s)
    if delays.ndim == 1:
        phasors = np.exp(-2.0j * np.pi * np.outer(delays, freqs))  # (L, K)
        return gains @ phasors
    # Per-batch delays: one phasor tensor (..., L, K), contracted over L.
    phasors = np.exp(-2.0j * np.pi * delays[..., None] * freqs)
    return (gains[..., None] * phasors).sum(axis=-2)


def paths_to_cfr(
    paths: Sequence[SignalPath] | Iterable[SignalPath],
    frequencies_hz: np.ndarray,
    time_s: float = 0.0,
) -> np.ndarray:
    """Channel frequency response of a path superposition.

    Parameters
    ----------
    paths:
        The multipath components.
    frequencies_hz:
        Frequency grid — *baseband* offsets from the carrier (the carrier
        phase is already folded into each path's complex gain).
    time_s:
        Observation time; only matters when paths carry Doppler.

    Returns
    -------
    numpy.ndarray
        Complex H of the same shape as ``frequencies_hz``.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    gains, delays, dopplers = path_arrays(paths)
    if gains.size == 0:
        return np.zeros(freqs.shape, dtype=complex)
    response = paths_to_cfr_batch(
        gains, delays, freqs.reshape(-1), dopplers_hz=dopplers, time_s=time_s
    )
    return response.reshape(freqs.shape)


@dataclass(frozen=True)
class PathBatch:
    """Packed multipath of one transmitter against P receiver positions.

    The output of :meth:`repro.em.raytracer.TraceFrame.trace_batch`: every
    candidate path family (LoS, each wall, each ordered wall pair, each
    scatterer) contributes one column, and validity is a mask — so the
    arrays stay rectangular and every downstream consumer is a vectorized
    numpy operation.  Column order matches the scalar
    :meth:`~repro.em.raytracer.RayTracer.trace` path order exactly, so
    compressing row ``p`` by its validity mask reproduces the per-point
    path list (same paths, same order).

    Attributes
    ----------
    gains:
        Complex path gains, shape ``(P, C)``; zero where invalid.
    delays_s:
        Path delays in seconds, shape ``(P, C)``; zero where invalid.
    aod_rad, aoa_rad:
        Departure/arrival angles, shape ``(P, C)``.
    valid:
        Which (point, candidate) pairs are real paths, shape ``(P, C)``.
    kinds:
        Per-candidate path kind (``"los"``, ``"wall-reflection"``,
        ``"scatterer"`` ...), length ``C``.
    hops:
        Per-candidate interaction count, length ``C``.
    """

    gains: np.ndarray
    delays_s: np.ndarray
    aod_rad: np.ndarray
    aoa_rad: np.ndarray
    valid: np.ndarray
    kinds: tuple[str, ...]
    hops: tuple[int, ...]

    @property
    def num_points(self) -> int:
        return int(self.gains.shape[0])

    @property
    def num_candidates(self) -> int:
        return int(self.gains.shape[1])

    def counts(self) -> np.ndarray:
        """Number of valid paths per receiver position, shape ``(P,)``."""
        return self.valid.sum(axis=1)

    def point_arrays(self, point: int) -> tuple[np.ndarray, np.ndarray]:
        """Packed ``(gains, delays_s)`` of point ``point``'s valid paths.

        The arrays are ordered exactly like the scalar trace, so they can
        stand in for ``path_arrays(tracer.trace(tx, rx))`` — e.g. as a
        :class:`~repro.core.basis.ChannelBasis` ambient vector whose length
        drives drift-draw counts.
        """
        mask = self.valid[point]
        return self.gains[point, mask], self.delays_s[point, mask]

    def paths(self, point: int) -> list[SignalPath]:
        """Point ``point``'s paths as :class:`SignalPath` objects."""
        out: list[SignalPath] = []
        for c in range(self.num_candidates):
            if not self.valid[point, c]:
                continue
            out.append(
                SignalPath(
                    gain=complex(self.gains[point, c]),
                    delay_s=float(self.delays_s[point, c]),
                    aod_rad=float(self.aod_rad[point, c]),
                    aoa_rad=float(self.aoa_rad[point, c]),
                    kind=self.kinds[c],
                    hops=self.hops[c],
                )
            )
        return out

    def cfr(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """All P channel frequency responses, shape ``(P, K)``.

        Invalid candidates carry zero gain, so they drop out of the sum;
        the whole grid evaluates as one vectorized
        :func:`paths_to_cfr_batch` call with per-point delays.
        """
        return paths_to_cfr_batch(self.gains, self.delays_s, frequencies_hz)


def paths_to_cir(
    paths: Sequence[SignalPath],
    sample_rate_hz: float,
    num_taps: int,
) -> np.ndarray:
    """Discrete channel impulse response (tapped delay line).

    Each path's energy is placed on the nearest tap of a uniform delay grid
    with spacing ``1/sample_rate_hz``.  Paths whose delay exceeds the grid
    are folded onto the last tap so that total power is conserved (and the
    caller can detect an undersized grid by inspecting the final tap).

    Parameters
    ----------
    paths:
        Multipath components.
    sample_rate_hz:
        Tap spacing is one sample at this rate.
    num_taps:
        Length of the returned tap vector.
    """
    if sample_rate_hz <= 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    if num_taps <= 0:
        raise ValueError(f"num_taps must be positive, got {num_taps}")
    taps = np.zeros(num_taps, dtype=complex)
    for path in paths:
        index = int(round(path.delay_s * sample_rate_hz))
        index = min(index, num_taps - 1)
        taps[index] += path.gain
    return taps


def total_path_power(paths: Iterable[SignalPath]) -> float:
    """Sum of |g_l|^2 over all paths (incoherent total received power)."""
    return float(sum(path.power for path in paths))
