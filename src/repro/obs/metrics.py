"""Process-local metrics registry: counters, gauges, bounded histograms.

Every subsystem below the controller used to invent its own counters
(``TraceCache.hits``, ``RoundTelemetry.retries``, ...), and anything that
ran inside a worker process of the parallel experiment runner was invisible
to the parent.  This module is the one place instruments live:

* **Counters** are monotonic integers (``em.trace_cache.hits``).  Merging
  sums them — integer addition, so merges are exact and associative.
* **Gauges** are levels (``em.trace_cache.entries``).  Merging takes the
  maximum, the only order-independent reduction that makes sense for a
  level sampled per process.
* **Histograms** use *fixed log-spaced bin edges* chosen at registration
  from ``(lo, hi, bins_per_decade)`` — every process derives the same edge
  vector from the same integer exponent grid, so worker snapshots merge
  by elementwise integer bin addition, deterministically and associatively
  in any merge order (``tests/test_obs.py``).

Instruments never touch random streams or experiment numerics: results are
bit-identical with observability enabled or disabled.  ``set_enabled``
(or the ``REPRO_OBS=0`` environment variable) turns all recording into
no-ops for overhead A/B runs.

Snapshots (:class:`MetricsSnapshot`) are frozen, picklable value objects:
the parallel runner snapshots each worker's registry around every task and
ships the *delta* back, so the parent can merge a complete run-level view
at any ``--jobs`` value.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "CounterHandle",
    "Gauge",
    "GaugeHandle",
    "Histogram",
    "HistogramHandle",
    "HistogramState",
    "MetricsSnapshot",
    "MetricsRegistry",
    "counter_handle",
    "gauge_handle",
    "global_registry",
    "histogram_handle",
    "monotonic_s",
    "reset_metrics",
    "merge_snapshots",
    "log_bin_edges",
    "enabled",
    "set_enabled",
]

#: Default histogram range: 1 microsecond .. 1000 seconds covers every
#: latency-like quantity in the repo (switch settling to suite wall time).
DEFAULT_LO = 1e-6
DEFAULT_HI = 1e3
DEFAULT_BINS_PER_DECADE = 3

_ENABLED = os.environ.get("REPRO_OBS", "1").strip().lower() not in (
    "0",
    "false",
    "off",
    "no",
)


def enabled() -> bool:
    """Whether instruments record (global, process-local switch)."""
    return _ENABLED


def set_enabled(value: bool) -> bool:
    """Set the recording switch; returns the previous value.

    Disabling makes every ``inc``/``set``/``observe``/span a no-op — the
    overhead A/B baseline.  It never changes experiment results, which are
    bit-identical either way (instruments read no random streams).
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


def monotonic_s() -> float:
    """The obs-sanctioned monotonic clock (seconds, arbitrary epoch).

    The *only* stopwatch library code outside ``repro/obs/`` may use
    (RPL003): pairs of readings measure real elapsed time for latency
    histograms without ever touching the wall clock, so no measured value
    can leak into experiment numerics.
    """
    return time.perf_counter()


def log_bin_edges(
    lo: float = DEFAULT_LO,
    hi: float = DEFAULT_HI,
    bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
) -> Tuple[float, ...]:
    """Fixed log-spaced bin edges ``10^(k / bins_per_decade)``.

    The exponent grid is *integer* (``k`` from ``round(log10(lo)*bpd)`` to
    ``round(log10(hi)*bpd)``), so every process computes bit-identical
    edges from the same parameters — the precondition for deterministic
    histogram merges.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if bins_per_decade <= 0:
        raise ValueError(f"bins_per_decade must be positive, got {bins_per_decade}")
    k_lo = round(math.log10(lo) * bins_per_decade)
    k_hi = round(math.log10(hi) * bins_per_decade)
    if k_hi <= k_lo:
        raise ValueError(f"range ({lo}, {hi}) spans no bins at {bins_per_decade}/decade")
    return tuple(10.0 ** (k / bins_per_decade) for k in range(k_lo, k_hi + 1))


class Counter:
    """A monotonic integer instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if _ENABLED:
            self.value += amount


class Gauge:
    """A last-value level instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        if _ENABLED:
            self.value = float(value)


@dataclass(frozen=True)
class HistogramState:
    """A histogram's frozen, picklable state.

    ``counts`` has ``len(edges) + 1`` entries: one underflow bin
    (``value < edges[0]``), the inter-edge bins, and one overflow bin
    (``value >= edges[-1]``).  ``min``/``max`` are ``inf``/``-inf`` while
    empty.
    """

    edges: Tuple[float, ...]
    counts: Tuple[int, ...]
    count: int
    sum: float
    min: float
    max: float

    def merged(self, other: "HistogramState") -> "HistogramState":
        """Elementwise merge (bin edges must match)."""
        if self.edges != other.edges:
            raise ValueError("cannot merge histograms with different bin edges")
        return HistogramState(
            edges=self.edges,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    def delta(self, earlier: "HistogramState") -> "HistogramState":
        """Observations recorded since ``earlier`` (same-registry snapshot).

        Bin counts and totals subtract exactly; ``min``/``max`` carry the
        cumulative window (a later merge of deltas still recovers the true
        run-level extrema, since min-of-mins / max-of-maxes is exact).
        """
        if self.edges != earlier.edges:
            raise ValueError("cannot delta histograms with different bin edges")
        return HistogramState(
            edges=self.edges,
            counts=tuple(a - b for a, b in zip(self.counts, earlier.counts)),
            count=self.count - earlier.count,
            sum=self.sum - earlier.sum,
            min=self.min,
            max=self.max,
        )

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramState":
        return cls(
            edges=tuple(float(e) for e in data["edges"]),
            counts=tuple(int(c) for c in data["counts"]),
            count=int(data["count"]),
            sum=float(data["sum"]),
            min=float(data["min"]),
            max=float(data["max"]),
        )


class Histogram:
    """A bounded histogram over fixed log-spaced bins.

    The bin count is fixed at registration, so memory is bounded no matter
    how many values are observed, and two processes that registered the
    same instrument merge bin-for-bin.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, edges: Tuple[float, ...]) -> None:
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        value = float(value)
        self.counts[bisect_right(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def state(self) -> HistogramState:
        return HistogramState(
            edges=self.edges,
            counts=tuple(self.counts),
            count=self.count,
            sum=self.sum,
            min=self.min,
            max=self.max,
        )

    def reset(self) -> None:
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, picklable copy of a registry's instrument values."""

    counters: Mapping[str, int]
    gauges: Mapping[str, float]
    histograms: Mapping[str, HistogramState]

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls(counters={}, gauges={}, histograms={})

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What was recorded between ``earlier`` and this snapshot.

        Both snapshots must come from the same registry (instruments only
        ever grow, so names in ``earlier`` are a subset of this one's).
        """
        counters = {
            name: value - earlier.counters.get(name, 0)
            for name, value in self.counters.items()
        }
        histograms = {}
        for name, state in self.histograms.items():
            prior = earlier.histograms.get(name)
            histograms[name] = state if prior is None else state.delta(prior)
        return MetricsSnapshot(
            counters=counters, gauges=dict(self.gauges), histograms=histograms
        )

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Order-independent merge: counters sum, gauges max, bins add."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        histograms = dict(self.histograms)
        for name, state in other.histograms.items():
            prior = histograms.get(name)
            histograms[name] = state if prior is None else prior.merged(state)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def as_dict(self) -> dict:
        """JSON-serializable form (the run-record ``metrics`` field)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: state.as_dict()
                for name, state in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        return cls(
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            gauges={str(k): float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                str(k): HistogramState.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
        )


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Merge any number of snapshots into one run-level view.

    Counters and histogram bins are integers, so the result is identical
    for any merge order or grouping (associative and commutative); gauges
    reduce by ``max``.
    """
    merged = MetricsSnapshot.empty()
    for snapshot in snapshots:
        merged = merged.merged(snapshot)
    return merged


class MetricsRegistry:
    """Process-local home of named instruments.

    ``counter``/``gauge``/``histogram`` create on first use and return the
    same object thereafter, so callers may hold instrument references in
    hot paths (``reset`` zeroes values in place — held references stay
    valid).  Names follow ``<package>.<subsystem>.<quantity>``, e.g.
    ``em.trace_cache.hits`` (see DESIGN.md "Observability").
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self,
        name: str,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
    ) -> Histogram:
        edges = log_bin_edges(lo, hi, bins_per_decade)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, edges)
        elif instrument.edges != edges:
            raise ValueError(
                f"histogram {name!r} already registered with different bin edges"
            )
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={c.name: c.value for c in self._counters.values()},
            gauges={g.name: g.value for g in self._gauges.values()},
            histograms={h.name: h.state() for h in self._histograms.values()},
        )

    def reset(self) -> None:
        """Zero every instrument in place (references stay valid)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for histogram in self._histograms.values():
            histogram.reset()


_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry all subsystems register instruments in."""
    return _REGISTRY


def reset_metrics(clear: bool = False) -> None:
    """Zero the global registry (benchmarks use this between phases).

    With ``clear=True`` the registry object itself is *replaced*, dropping
    every registered instrument — the isolation mode tests use so that
    instruments registered by one test (``test.work`` and friends) do not
    linger in later snapshots.  Hot-path call sites must therefore never
    cache raw :class:`Counter`/:class:`Gauge`/:class:`Histogram` objects at
    import time; they hold :class:`CounterHandle`-style handles instead,
    which re-resolve automatically when the registry is replaced.
    """
    global _REGISTRY
    if clear:
        _REGISTRY = MetricsRegistry()
    else:
        _REGISTRY.reset()


# ----------------------------------------------------------------------
# Instrument handles (stale-registry-proof module-level references)
# ----------------------------------------------------------------------
class _Handle:
    """Base of the cached instrument handles module scopes hold.

    A raw instrument reference captured at import time points into
    whatever registry existed *then*; after ``reset_metrics(clear=True)``
    such a reference keeps recording into a dead registry while snapshots
    read a fresh zero instrument — the stale-handle hazard.  A handle
    stores only the instrument *name* plus a one-slot cache keyed on the
    registry's identity: the hot path pays two attribute loads and an
    ``is`` check, and re-resolves through :func:`global_registry` only
    when the registry actually changed.
    """

    __slots__ = ("name", "_registry", "_instrument")

    def __init__(self, name: str) -> None:
        self.name = name
        self._registry: Optional[MetricsRegistry] = None
        self._instrument = None

    def _resolve(self):
        raise NotImplementedError


class CounterHandle(_Handle):
    """A stale-proof reference to a named :class:`Counter`."""

    __slots__ = ()

    def _resolve(self) -> Counter:
        registry = _REGISTRY
        if self._registry is not registry:
            self._instrument = registry.counter(self.name)
            self._registry = registry
        return self._instrument

    @property
    def value(self) -> int:
        return self._resolve().value

    def inc(self, amount: int = 1) -> None:
        self._resolve().inc(amount)


class GaugeHandle(_Handle):
    """A stale-proof reference to a named :class:`Gauge`."""

    __slots__ = ()

    def _resolve(self) -> Gauge:
        registry = _REGISTRY
        if self._registry is not registry:
            self._instrument = registry.gauge(self.name)
            self._registry = registry
        return self._instrument

    @property
    def value(self) -> float:
        return self._resolve().value

    def set(self, value: float) -> None:
        self._resolve().set(value)


class HistogramHandle(_Handle):
    """A stale-proof reference to a named :class:`Histogram`."""

    __slots__ = ("_lo", "_hi", "_bins_per_decade")

    def __init__(
        self,
        name: str,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
    ) -> None:
        super().__init__(name)
        # Validate eagerly so a bad range fails at import, not first use.
        log_bin_edges(lo, hi, bins_per_decade)
        self._lo = lo
        self._hi = hi
        self._bins_per_decade = bins_per_decade

    def _resolve(self) -> Histogram:
        registry = _REGISTRY
        if self._registry is not registry:
            self._instrument = registry.histogram(
                self.name, self._lo, self._hi, self._bins_per_decade
            )
            self._registry = registry
        return self._instrument

    def observe(self, value: float) -> None:
        self._resolve().observe(value)

    def state(self) -> HistogramState:
        return self._resolve().state()


def counter_handle(name: str) -> CounterHandle:
    """Module-level registration of a counter, by stale-proof handle."""
    handle = CounterHandle(name)
    handle._resolve()
    return handle


def gauge_handle(name: str) -> GaugeHandle:
    """Module-level registration of a gauge, by stale-proof handle."""
    handle = GaugeHandle(name)
    handle._resolve()
    return handle


def histogram_handle(
    name: str,
    lo: float = DEFAULT_LO,
    hi: float = DEFAULT_HI,
    bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
) -> HistogramHandle:
    """Module-level registration of a histogram, by stale-proof handle."""
    handle = HistogramHandle(name, lo, hi, bins_per_decade)
    handle._resolve()
    return handle
