"""Span recording, self time and percentile summaries.

Standard library only.  Spans are kept in memory by a :class:`Tracer` and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def summarize(samples: Sequence[float]) -> dict:
    """Median and sample count, plus the highest percentile of PERCENTILES
    that has at least MIN_BEYOND samples above its rank (``tail`` is None
    when the run has too few samples for any)."""
    if not samples:
        raise ValueError("no samples to summarize")
    values = sorted(samples)
    n = len(values)
    tail = None
    for pct in PERCENTILES:
        if n - math.ceil(pct * n / 100.0) >= MIN_BEYOND:
            tail = {"pct": pct, "value": percentile(values, pct)}
    return {"n": n, "p50": statistics.median(values), "tail": tail}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    command: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; with ``enabled=False`` it records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []
        self._command_of: dict[int, Optional[int]] = {}

    @contextmanager
    def span(self, name: str, command: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if command is None and parent is not None:
            command = self._command_of[parent]
        index = len(self.spans)
        self.spans.append(None)
        self._command_of[index] = command
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, command)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def graft(self, spans: Sequence[Sequence], command: int) -> None:
        """Append spans recorded by another Tracer, e.g. in a child process,
        as (name, start, end, parent) with parents indexing ``spans``;
        ``time.perf_counter`` is system-wide monotonic on Linux."""
        if not self.enabled:
            return
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append(Span(name, start, end,
                                   None if parent is None else parent + offset,
                                   command))


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the summed durations of its children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def totals_by_name(spans: Sequence[Span], times: Sequence[float],
                   command: Optional[int] = None) -> dict[str, float]:
    """Sum ``times`` per span name, optionally for one command only."""
    out: dict[str, float] = {}
    for span, value in zip(spans, times):
        if command is None or span.command == command:
            out[span.name] = out.get(span.name, 0.0) + value
    return out
