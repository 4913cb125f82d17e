"""One timed phase's samples, and the end-to-end metrics made from them."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import stats

#: End-to-end metrics: name -> unit.  ``BENCHMARK.json`` lists the same
#: names; a test keeps the two in step.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "ok_frac": "frac",
    "gain_db": "dB",
    "search_p50_ms": "ms",
    "evaluate_p99_ms": "ms",
}


@dataclass
class Phase:
    """Samples of one timed phase; latencies in seconds.

    ``latency_s`` holds one entry per operation that completed and passed
    its output check.  ``search_s`` and ``evaluate_s`` hold the search
    and evaluate/actuate parts of those operations.  ``wall_s`` is the
    time the operations were timed over.  ``gains_db`` holds each
    gain-counted round's best score minus its all-zeros score.
    """

    attempted: int = 0
    ok: int = 0
    wall_s: float = 0.0
    latency_s: list = field(default_factory=list)
    search_s: list = field(default_factory=list)
    evaluate_s: list = field(default_factory=list)
    gains_db: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    #: serve-mixed only: ``(request index, response, latency_s)`` per
    #: verified request, to match against the request's spans.
    served: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failures.append(why)

    @property
    def ops_per_s(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0


def end_to_end(phase: Phase, setup_reps: list) -> dict:
    """Every :data:`END_TO_END` metric, as ``{name: {"value", "unit"}}``.

    ``p99_ms`` and ``evaluate_p99_ms`` fall back to the highest
    percentile the sample count supports (p90 on the closed loops).
    """
    ms = 1e3
    values = {
        "setup_s": stats.median(setup_reps),
        "ops_per_s": phase.ops_per_s,
        "p50_ms": ms * stats.percentile(phase.latency_s, 50),
        "p90_ms": ms * stats.percentile(phase.latency_s, 90),
        "p99_ms": ms * stats.tail(phase.latency_s, 99)[1],
        "ok_frac": phase.ok / phase.attempted,
        "gain_db": sum(phase.gains_db) / len(phase.gains_db),
        "search_p50_ms": ms * stats.percentile(phase.search_s, 50),
        "evaluate_p99_ms": ms * stats.tail(phase.evaluate_s, 99)[1],
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()}


def describe(phase: Phase) -> str:
    """Sample counts and the percentile each tail metric used."""

    def rung(values: list) -> str:
        return f"p{stats.tail(values, 99)[0]:g}" if stats.supports(len(values), 50) else "none"

    return (
        f"samples: ops={len(phase.latency_s)} attempted={phase.attempted} "
        f"search={len(phase.search_s)} evaluate={len(phase.evaluate_s)} "
        f"gain_rounds={len(phase.gains_db)} "
        f"p99_ms={rung(phase.latency_s)} evaluate_p99_ms={rung(phase.evaluate_s)}"
    )
