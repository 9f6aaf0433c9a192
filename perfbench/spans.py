"""In-memory span recorder for the traced benchmark run.

A span is one call into a presort layer made by the benchmark: its name,
start and end (perf_counter nanoseconds) and the id of the span that was
open when it began.  Spans stay in memory and are written out once, when
the run ends.  A disabled recorder records nothing, so the same replay
code gives both the traced pass and its untraced twin.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    def __init__(self, enabled: bool, first_id: int = 0):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_id = first_id
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """Time the enclosed calls as one span; yields None when disabled."""
        if not self.enabled:
            yield None
            return
        span = Span(self._next_id, name, self._open[-1] if self._open else None, time.perf_counter_ns())
        self._next_id += 1
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def seconds_by_name(self) -> dict[str, float]:
        """Total duration of the spans of each name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def as_records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
