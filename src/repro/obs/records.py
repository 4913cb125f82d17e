"""Run records: one JSONL line per experiment run, schema-validated.

A run record is the machine-readable artefact a production pipeline would
archive for every experiment invocation: what ran (experiment name +
config + seeds + jobs), what it cost (wall clock, per-phase span
summaries), what the subsystems did (the merged metrics registry — trace
cache, ray tracer, basis, control protocol, controller counters from the
parent *and* every worker process), and where (git/python/numpy/platform
metadata).  ``repro report <records.jsonl>`` renders them; CI validates
every emitted record against :func:`validate_record` so schema drift is
caught in PRs.

The aggregation primitive is :class:`ObsSample` — a picklable
(metrics snapshot, span summaries, pid) triple.  The parallel runner
takes a sample delta around every task in every worker; the parent merges
those deltas with its own delta over the whole experiment body.  Because
counters and histogram bins are integers, the merged totals are exact at
any ``--jobs`` value, worker processes included.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .metrics import MetricsSnapshot, enabled, global_registry
from .tracing import SpanRecord, SpanSummary, global_tracer, merge_span_summaries

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ObsSample",
    "current_sample",
    "merge_samples",
    "RunRecorder",
    "run_metadata",
    "append_record",
    "read_records",
    "validate_record",
]

#: Bump on any backwards-incompatible record shape change.  v2 adds the
#: optional ``request_traces`` section (request-scoped span stitching);
#: v1 records remain readable and valid.
SCHEMA_VERSION = 2

#: Versions :func:`validate_record` accepts.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)


# ----------------------------------------------------------------------
# Observability samples (the worker-aggregation unit)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObsSample:
    """One process's observability state (or a delta of it).

    Picklable by construction: the parallel runner returns one delta per
    task from each worker process alongside the task result.
    """

    metrics: MetricsSnapshot
    spans: Mapping[str, SpanSummary]
    pid: int

    def delta(self, earlier: "ObsSample") -> "ObsSample":
        """What this process recorded since ``earlier``."""
        spans = {}
        for name, summary in self.spans.items():
            prior = earlier.spans.get(name)
            spans[name] = summary if prior is None else summary.delta(prior)
        return ObsSample(
            metrics=self.metrics.delta(earlier.metrics), spans=spans, pid=self.pid
        )


def current_sample() -> ObsSample:
    """Snapshot this process's global registry and tracer."""
    return ObsSample(
        metrics=global_registry().snapshot(),
        spans=global_tracer().summaries(),
        pid=os.getpid(),
    )


def merge_samples(samples: Iterable[ObsSample]) -> ObsSample:
    """Merge sample deltas into one run-level view.

    Counters, histogram bins and span counts/totals add exactly in any
    order.  Gauges are levels, so the per-``pid`` *last* sample wins
    within a process and distinct processes sum — e.g. merged
    ``em.trace_cache.entries`` is total cache residency across the pool.
    """
    ordered = list(samples)
    merged_metrics = MetricsSnapshot.empty()
    for sample in ordered:
        merged_metrics = merged_metrics.merged(sample.metrics)
    # Gauge correction: replace the max-reduction with per-pid-last + sum.
    last_by_pid: Dict[int, ObsSample] = {}
    for sample in ordered:
        last_by_pid[sample.pid] = sample
    gauges: Dict[str, float] = {}
    for sample in last_by_pid.values():
        for name, value in sample.metrics.gauges.items():
            gauges[name] = gauges.get(name, 0.0) + value
    merged_metrics = MetricsSnapshot(
        counters=merged_metrics.counters,
        gauges=gauges,
        histograms=merged_metrics.histograms,
    )
    spans = merge_span_summaries(sample.spans for sample in ordered)
    return ObsSample(metrics=merged_metrics, spans=spans, pid=os.getpid())


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def _git_revision() -> Optional[str]:
    """The repo's HEAD commit, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else None


def run_metadata() -> dict:
    """Environment fingerprint stored in every run record."""
    numpy_version: Optional[str]
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git": _git_revision(),
        "pid": os.getpid(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else None,
    }


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of config payloads to JSON-native values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        # Sets iterate in hash order, which varies with PYTHONHASHSEED;
        # canonicalise so identical configs serialise identically.
        return sorted((_jsonable(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalars
        try:
            return _jsonable(item())
        except Exception:
            pass
    return str(value)


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
class RunRecorder:
    """Context manager assembling one run record around an experiment body.

    Usage (inside an experiment driver)::

        with RunRecorder("coverage_suite", config={...}, path=record_to,
                         jobs=jobs) as recorder:
            results, samples = run_parallel(task, tasks, jobs=jobs)
            recorder.add_worker_samples(samples)

    On exit the recorder computes the parent process's metrics/span delta
    over the body, merges the worker samples in, and — when ``path`` is
    set — appends the finished record as one JSONL line.  The record is
    always available afterwards as ``recorder.record``.
    """

    def __init__(
        self,
        experiment: str,
        config: Optional[Mapping[str, Any]] = None,
        path: Optional[Union[str, Path]] = None,
        jobs: Optional[int] = None,
        seeds: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.experiment = experiment
        self.config = dict(config or {})
        self.path = None if path is None else Path(path)
        self.jobs = jobs
        self.seeds = dict(seeds or {})
        self.record: Optional[dict] = None
        self._worker_samples: List[ObsSample] = []
        self._request_traces: Dict[str, List[SpanRecord]] = {}
        self._before: Optional[ObsSample] = None
        self._t0 = 0.0

    def __enter__(self) -> "RunRecorder":
        self._before = current_sample()
        self._t0 = time.perf_counter()
        return self

    def add_worker_samples(self, samples: Sequence[ObsSample]) -> None:
        """Attach per-task deltas returned by ``run_parallel``."""
        self._worker_samples.extend(samples)

    def add_request_traces(
        self, traces: Mapping[str, Sequence[SpanRecord]]
    ) -> None:
        """Attach per-request stitched span timelines (schema v2).

        ``traces`` maps request ids to their
        :class:`~repro.obs.tracing.SpanRecord` sequences — typically a
        :meth:`~repro.obs.tracing.RequestTraceStore.drain` from the
        serving layer, already merged across the event-loop process and
        any pool workers.  Calling repeatedly extends per-request lists.
        """
        for request_id, records in traces.items():
            self._request_traces.setdefault(str(request_id), []).extend(records)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None or self._before is None:
            return None
        wall_s = time.perf_counter() - self._t0
        parent_delta = current_sample().delta(self._before)
        merged = merge_samples([parent_delta, *self._worker_samples])
        self.record = {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            # reprolint: disable=RPL003 -- archival metadata: records when a
            # run happened; never read back into any computation.
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
            "wall_s": wall_s,
            "jobs": self.jobs,
            "workers": len({s.pid for s in self._worker_samples}),
            "config": _jsonable(self.config),
            "seeds": _jsonable(self.seeds),
            "observability_enabled": enabled(),
            "metrics": merged.metrics.as_dict(),
            "spans": {
                name: summary.as_dict()
                for name, summary in sorted(merged.spans.items())
            },
            "request_traces": {
                request_id: [record.as_dict() for record in records]
                for request_id, records in sorted(self._request_traces.items())
            },
            "meta": run_metadata(),
        }
        if self.path is not None:
            append_record(self.path, self.record)
        return None


# ----------------------------------------------------------------------
# JSONL I/O
# ----------------------------------------------------------------------
def append_record(path: Union[str, Path], record: dict) -> None:
    """Append one record as a JSON line (parent directories created)."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_records(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL run-record file (blank lines skipped)."""
    records: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from error
    return records


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
def _check(errors: List[str], condition: bool, message: str) -> bool:
    if not condition:
        errors.append(message)
    return condition


def _validate_request_traces(errors: List[str], traces: Any) -> None:
    """Validate the v2 ``request_traces`` span-stitching section."""
    if not _check(
        errors, isinstance(traces, dict), "request_traces must be an object"
    ):
        return
    for request_id, records in traces.items():
        label = f"request_traces[{request_id!r}]"
        if not _check(
            errors, isinstance(records, list), f"{label} must be a list"
        ):
            continue
        span_ids = set()
        for index, span in enumerate(records):
            where = f"{label}[{index}]"
            if not _check(
                errors, isinstance(span, dict), f"{where} must be an object"
            ):
                continue
            _check(
                errors,
                isinstance(span.get("name"), str) and span.get("name"),
                f"{where}.name must be a non-empty string",
            )
            span_id = span.get("span_id")
            if _check(
                errors,
                isinstance(span_id, str) and bool(span_id),
                f"{where}.span_id must be a non-empty string",
            ):
                span_ids.add(span_id)
            parent_id = span.get("parent_id")
            _check(
                errors,
                parent_id is None or (isinstance(parent_id, str) and parent_id),
                f"{where}.parent_id must be null or a non-empty string",
            )
            _check(
                errors,
                span.get("request_id") == request_id,
                f"{where}.request_id must equal its key {request_id!r}",
            )
            for field in ("start_s", "duration_s"):
                _check(
                    errors,
                    isinstance(span.get(field), (int, float))
                    and not isinstance(span.get(field), bool),
                    f"{where}.{field} must be a number",
                )
            _check(
                errors,
                isinstance(span.get("pid"), int) and span.get("pid", -1) >= 0,
                f"{where}.pid must be a non-negative integer",
            )
        for index, span in enumerate(records):
            if not isinstance(span, dict):
                continue
            parent_id = span.get("parent_id")
            if isinstance(parent_id, str) and parent_id:
                _check(
                    errors,
                    parent_id != span.get("span_id"),
                    f"{label}[{index}] is its own parent",
                )


def validate_record(record: Any) -> List[str]:
    """Validate one run record against its declared schema version.

    Accepts every version in :data:`SUPPORTED_SCHEMA_VERSIONS` — v1
    (no ``request_traces``) and v2 — so old record files stay readable.
    Returns a list of human-readable problems (empty = valid).  Kept as a
    hand-rolled checker so the repo needs no jsonschema dependency; CI
    runs it over a freshly emitted record every build.
    """
    errors: List[str] = []
    if not _check(errors, isinstance(record, dict), "record must be a JSON object"):
        return errors
    version = record.get("schema_version")
    _check(
        errors,
        version in SUPPORTED_SCHEMA_VERSIONS,
        f"schema_version must be one of {SUPPORTED_SCHEMA_VERSIONS}, "
        f"got {version!r}",
    )
    if version == 1:
        _check(
            errors,
            "request_traces" not in record,
            "request_traces requires schema_version 2",
        )
    elif version == SCHEMA_VERSION and "request_traces" in record:
        _validate_request_traces(errors, record.get("request_traces"))
    _check(
        errors,
        isinstance(record.get("experiment"), str) and record.get("experiment"),
        "experiment must be a non-empty string",
    )
    _check(
        errors,
        isinstance(record.get("wall_s"), (int, float))
        and record.get("wall_s", -1) >= 0,
        "wall_s must be a non-negative number",
    )
    _check(
        errors,
        record.get("jobs") is None or isinstance(record.get("jobs"), int),
        "jobs must be an integer or null",
    )
    _check(
        errors,
        isinstance(record.get("workers"), int) and record.get("workers", -1) >= 0,
        "workers must be a non-negative integer",
    )
    _check(errors, isinstance(record.get("config"), dict), "config must be an object")
    _check(errors, isinstance(record.get("seeds"), dict), "seeds must be an object")
    _check(
        errors,
        isinstance(record.get("created_at"), str),
        "created_at must be a string",
    )
    metrics = record.get("metrics")
    if _check(errors, isinstance(metrics, dict), "metrics must be an object"):
        for section in ("counters", "gauges", "histograms"):
            _check(
                errors,
                isinstance(metrics.get(section), dict),
                f"metrics.{section} must be an object",
            )
        for name, value in (metrics.get("counters") or {}).items():
            _check(
                errors,
                isinstance(value, int),
                f"metrics.counters[{name!r}] must be an integer",
            )
        for name, state in (metrics.get("histograms") or {}).items():
            if not _check(
                errors,
                isinstance(state, dict),
                f"metrics.histograms[{name!r}] must be an object",
            ):
                continue
            edges = state.get("edges")
            counts = state.get("counts")
            ok = _check(
                errors,
                isinstance(edges, list) and isinstance(counts, list),
                f"metrics.histograms[{name!r}] needs edges and counts lists",
            )
            if ok:
                _check(
                    errors,
                    len(counts) == len(edges) + 1,
                    f"metrics.histograms[{name!r}]: counts must have "
                    f"len(edges)+1 entries",
                )
                _check(
                    errors,
                    all(isinstance(c, int) and c >= 0 for c in counts),
                    f"metrics.histograms[{name!r}]: counts must be "
                    f"non-negative integers",
                )
            _check(
                errors,
                isinstance(state.get("count"), int),
                f"metrics.histograms[{name!r}].count must be an integer",
            )
    spans = record.get("spans")
    if _check(errors, isinstance(spans, dict), "spans must be an object"):
        for name, summary in spans.items():
            if not _check(
                errors,
                isinstance(summary, dict),
                f"spans[{name!r}] must be an object",
            ):
                continue
            _check(
                errors,
                isinstance(summary.get("count"), int)
                and summary.get("count", -1) >= 0,
                f"spans[{name!r}].count must be a non-negative integer",
            )
            _check(
                errors,
                isinstance(summary.get("total_s"), (int, float)),
                f"spans[{name!r}].total_s must be a number",
            )
    meta = record.get("meta")
    if _check(errors, isinstance(meta, dict), "meta must be an object"):
        _check(
            errors,
            isinstance(meta.get("python"), str),
            "meta.python must be a string",
        )
    return errors
