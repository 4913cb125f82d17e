"""Per-layer timing installed from outside the program.

:class:`LayerTracer` replaces chosen public functions and methods of the
program with timing wrappers and puts the originals back on
:meth:`LayerTracer.restore`.  Nothing in the program changes on disk, and
an untraced run never installs a wrapper.

Every wrapped call is a span: it knows its site (``"Class.method"``), its
layer (a module name such as ``"core.basis"``), its duration and the time
its nested wrapped calls took.  From these the tracer keeps, per site,
the call count, inclusive time and self time; per layer, the time spent
in its outermost calls (a call nested in another call of the same layer
is not counted twice); and the time spent inside any wrapped call at all.
Every wrapped call runs on the thread of the event loop or the closed
loop, so one span stack serves them all.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class LayerStats:
    """Accumulated timings; all times in seconds."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    layer_s: dict = field(default_factory=lambda: defaultdict(float))
    busy_s: float = 0.0

    def merged(self, other: "LayerStats") -> "LayerStats":
        out = LayerStats()
        for name in ("calls", "total_s", "self_s", "layer_s"):
            target = getattr(out, name)
            for source in (getattr(self, name), getattr(other, name)):
                for key, value in source.items():
                    target[key] += value
        out.busy_s = self.busy_s + other.busy_s
        return out

    def mean_us(self, *sites: str) -> float:
        """Mean inclusive microseconds per call over ``sites`` (0 if none)."""
        calls = sum(self.calls[s] for s in sites)
        return 1e6 * sum(self.total_s[s] for s in sites) / calls if calls else 0.0


class LayerTracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats = LayerStats()
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._suspended = False

    # -- installation ----------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        site: str,
        layer: str,
        observe: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr``; ``observe`` sees each result.

        ``attr`` is a plain function or method, or a classmethod, defined
        on ``owner`` itself.
        """
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            timed = classmethod(self._timed(original.__func__, site, layer, observe))
        else:
            timed = self._timed(original, site, layer, observe)
        self.replace(owner, attr, timed)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Install ``value`` as ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Let calls through untimed (the benchmark's own checks)."""
        previous, self._suspended = self._suspended, True
        try:
            yield
        finally:
            self._suspended = previous

    def take(self) -> LayerStats:
        """Return the stats gathered so far and start afresh."""
        stats, self.stats = self.stats, LayerStats()
        return stats

    # -- the wrapper -----------------------------------------------------

    def _timed(self, fn, site: str, layer: str, observe):
        tracer = self

        def timed(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            frame = [layer, tracer.clock(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer._close(site, frame, tracer.clock() - frame[1])
            if observe is not None:
                observe(result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", site)
        timed.__qualname__ = getattr(fn, "__qualname__", site)
        return timed

    def _close(self, site: str, frame: list, duration: float) -> None:
        stats = self.stats
        stats.calls[site] += 1
        stats.total_s[site] += duration
        stats.self_s[site] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        else:
            stats.busy_s += duration
        if all(outer[0] != frame[0] for outer in self._stack):
            stats.layer_s[frame[0]] += duration

