"""In-memory spans and counters recorded around calls into the package.

A span has a name, a start, an end, its parent span and a run id. Spans stay
in memory until the run ends. A span's self time is its duration minus the
time its child spans cover; spans nest on one thread, so children never
overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


@dataclass
class Tracer:
    enabled = True
    run_id: int = 0
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, dict[str, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.run_id][name] += amount

    def self_times(self) -> list[tuple[Span, float]]:
        """(span, self time) of every span."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [(s, s.end - s.start - c) for s, c in zip(self.spans, covered)]


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, amount: float = 1) -> None:
        pass
