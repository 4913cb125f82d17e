"""Order statistics and stage arithmetic for the benchmark.

Pure functions over plain numbers, so they can be tested without the
program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when a tail is asked for and the run
#: holds too few samples for the one requested.
TAIL_LADDER = (99.0, 90.0, 50.0)


def nearest_rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples."""
    if count <= 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * count - 1e-9))


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least MIN_BEYOND beyond ``q``."""
    return count > 0 and count - nearest_rank(count, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; raises unless MIN_BEYOND samples lie beyond.

    Nearest rank returns a value that was measured, never an
    interpolation between two of them.
    """
    ordered = sorted(values)
    if not supports(len(ordered), q):
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"have {len(ordered)} samples"
        )
    return ordered[nearest_rank(len(ordered), q) - 1]


def tail(values: Sequence[float], q: float) -> tuple[float, float]:
    """``(percentile used, value)`` for the highest supported rung <= ``q``.

    Closed loops complete too few operations in a run for p99; their
    tail metrics fall back down :data:`TAIL_LADDER` instead of reporting
    a percentile with nothing beyond it.
    """
    for rung in TAIL_LADDER:
        if rung <= q and supports(len(values), rung):
            return rung, percentile(values, rung)
    raise ValueError(f"{len(values)} samples support no percentile up to p{q:g}")


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def unattributed(total: float, stages: Iterable[float]) -> float:
    """Part of ``total`` no stage covers, clipped to ``[0, total]``.

    Stages are sequential parts of one request's latency.  A stage the
    program records too wide (a batch span that outlives the request it
    served) can sum past the total; the excess is not negative time, so
    the result is clipped rather than allowed to cancel other gaps.
    """
    return min(total, max(0.0, total - sum(stages)))


def unattributed_share(
    totals: Sequence[float], stage_lists: Sequence[Sequence[float]]
) -> float:
    """Share of summed latency that no stage covers, over many requests."""
    if len(totals) != len(stage_lists):
        raise ValueError("one stage list per total")
    whole = sum(totals)
    if whole <= 0.0:
        return 0.0
    gap = sum(unattributed(t, s) for t, s in zip(totals, stage_lists))
    return gap / whole
