"""Scenario registry for the serving layer: specs to hot sessions.

A :class:`ScenarioSpec` is a small immutable *value* naming one served
environment — which study scene, which placement seed, how many elements.
Being a frozen dataclass it hashes by value, so it doubles as the shard
key of the service's session layer: every request carrying an equal spec
lands on the same :class:`ScenarioSession`, and the expensive part (scene
construction + the traced :class:`~repro.core.basis.ChannelBasis`) is
paid once per spec instead of once per request.  The underlying geometry
traces additionally go through the process-wide
:func:`~repro.em.trace_cache.global_trace_cache`, so even rebuilding an
evicted session reuses cached traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core.basis import ChannelBasis
from ..em.channel import snr_db_from_cfr
from ..experiments.common import (
    StudySetup,
    build_large_array_setup,
    build_nlos_setup,
    used_subcarrier_mask,
)

__all__ = ["ScenarioSpec", "ScenarioSession", "build_session"]

#: Scene families the service knows how to build.
SCENARIO_KINDS = ("nlos", "large")


@dataclass(frozen=True)
class ScenarioSpec:
    """Value-identity of one served environment.

    Attributes
    ----------
    kind:
        ``"nlos"`` for the §3 blocked-link study scene (enumerable
        configuration space — sweep/evaluate/actuate all work), or
        ``"large"`` for a wall-sized array scene (delta-powered search
        territory; exhaustive sweeps raise ``SearchSpaceTooLarge``).
    placement:
        Placement seed threaded to the scene builder; distinct values are
        distinct scenarios with independent sessions.
    num_elements:
        Array size for ``kind="large"`` (ignored for ``"nlos"``).
    """

    kind: str = "nlos"
    placement: int = 0
    num_elements: int = 48

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; expected one of "
                f"{SCENARIO_KINDS}"
            )
        if self.num_elements <= 0:
            raise ValueError(
                f"num_elements must be positive, got {self.num_elements}"
            )


@dataclass(frozen=True, eq=False)
class ScenarioSession:
    """One hot scenario: built scene, traced basis, radio parameters.

    Immutable once built; concurrent readers (interleaved request
    handlers) share it without coordination.  It never crosses a process
    boundary: a pool worker builds its own session from the spec, which
    gives the same bits.  All scoring helpers are pure functions of
    their arguments plus this frozen state.
    """

    spec: ScenarioSpec
    setup: StudySetup
    basis: ChannelBasis
    mask: np.ndarray = field(repr=False)

    @property
    def tx_power_dbm(self) -> float:
        return self.setup.tx_device.tx_power_dbm

    @property
    def noise_figure_db(self) -> float:
        return self.setup.rx_device.noise_figure_db

    def snr_rows(self, indices: np.ndarray) -> np.ndarray:
        """Per-subcarrier SNR (dB) rows for a configuration index matrix.

        The batched fast path behind both ``evaluate`` and ``actuate``
        requests: one vectorized basis evaluation for the whole batch.
        Row ``c`` depends only on ``indices[c]`` (the state-tensor gather
        and the elementwise SNR map are both per-row), so a coalesced
        batch is bit-identical to evaluating each row alone — the
        micro-batcher's determinism rests on this.
        """
        cfr = self.basis.evaluate(np.asarray(indices, dtype=np.int64))
        return snr_db_from_cfr(
            cfr,
            self.basis.num_subcarriers,
            self.basis.bandwidth_hz,
            tx_power_dbm=self.tx_power_dbm,
            noise_figure_db=self.noise_figure_db,
        )

    def mean_used_snr(self, snr_rows: np.ndarray) -> np.ndarray:
        """Mean SNR over the used (data + pilot) subcarriers, per row.

        Deliberately NOT ``mean(axis=1)``: numpy's axis reduction picks
        its pairwise-summation blocking from the *batch* shape, which
        perturbs the last bits of a row's mean depending on who else
        shares the batch.  ``np.add.reduceat`` sums each row strictly
        left-to-right — one vectorized call whose per-row result is
        independent of batch composition, so a coalesced response is
        bit-identical to the same request served alone.
        """
        used = np.ascontiguousarray(snr_rows[:, self.mask])
        width = used.shape[1]
        flat = used.reshape(-1)
        sums = np.add.reduceat(flat, np.arange(0, flat.size, width))
        return sums / width

    @cached_property
    def state_bounds(self) -> np.ndarray:
        """Per-element state counts as an array, for vectorized validation."""
        bounds = np.asarray(self.basis.space.state_counts, dtype=np.int64)
        bounds.setflags(write=False)
        return bounds

    def validate_rows(self, configurations) -> np.ndarray:
        """Normalise + validate a request's configuration rows, vectorized.

        Returns the ``(C, N)`` int64 index matrix.  Validation is
        per-request so one bad row poisons only its own response, never
        the coalesced batch it would have ridden in.
        """
        rows = np.asarray(configurations, dtype=np.int64)
        if rows.ndim == 1:
            rows = rows[None, :]
        space = self.basis.space
        if rows.ndim != 2 or rows.shape[1] != space.num_elements:
            raise ValueError(
                f"configuration rows have shape {rows.shape}, scenario "
                f"{self.spec!r} expects (*, {space.num_elements})"
            )
        if bool((rows < 0).any()) or bool((rows >= self.state_bounds).any()):
            raise ValueError(
                f"configuration state out of range for per-element bounds "
                f"{self.state_bounds.tolist()}"
            )
        return rows

    def validate_configuration(self, configuration: tuple) -> None:
        """Single-row convenience wrapper over :meth:`validate_rows`."""
        self.validate_rows(np.asarray(configuration, dtype=np.int64))


def build_session(spec: ScenarioSpec) -> ScenarioSession:
    """Build the hot session for one scenario spec.

    This is the expensive, once-per-scenario step: scene construction,
    placement, and the full basis trace (``Testbed.basis_for``).  The
    basis is warmed — its lazy caches materialized — before the session
    is published, so concurrent request handlers only ever read it.
    """
    if spec.kind == "nlos":
        setup = build_nlos_setup(spec.placement)
    else:
        setup = build_large_array_setup(
            spec.placement, num_elements=spec.num_elements
        )
    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    basis.warm()
    return ScenarioSession(
        spec=spec,
        setup=setup,
        basis=basis,
        mask=used_subcarrier_mask(),
    )
