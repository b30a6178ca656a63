"""Spans recorded around the benchmark's calls into each package layer.

Every span measures its own duration, so the pipeline reads stage times the
same way with tracing on or off.  Only an enabled tracer keeps the spans
(name, instance id, parent span, start and end) for the per-layer metrics
and the trace file.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


class Span:
    __slots__ = ("tracer", "id", "name", "instance", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, instance: str) -> None:
        self.tracer = tracer
        self.name = name
        self.instance = instance
        self.id: Optional[int] = None
        self.parent: Optional[int] = None
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        self.tracer._open(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer._close(self)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory when ``enabled``; otherwise only times them.

    Recorded start and end times count from ``origin`` (a ``perf_counter``
    reading, by default the tracer's creation).
    """

    def __init__(self, enabled: bool, origin: Optional[float] = None) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter() if origin is None else origin
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, instance: str) -> Span:
        return Span(self, name, instance)

    def _open(self, span: Span) -> None:
        if self.enabled:
            span.id = len(self.spans)
            span.parent = self._stack[-1].id if self._stack else None
            self.spans.append(span)
            self._stack.append(span)

    def _close(self, span: Span) -> None:
        if self.enabled:
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every recorded span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def records(self) -> List[Dict[str, object]]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "instance": s.instance,
                "parent": s.parent,
                "start": s.start - self.origin,
                "end": s.end - self.origin,
            }
            for s in self.spans
        ]


def span_cost(count: int = 20000, repeats: int = 5) -> float:
    """Seconds one recorded span costs beyond an unrecorded one.

    Times ``count`` empty spans on an enabled and on a disabled tracer and
    keeps each side's fastest of ``repeats`` trials.  Every span is timed
    either way, so the difference is what recording adds to a traced run.
    """

    def fastest(enabled: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            tracer = Tracer(enabled)
            start = time.perf_counter()
            for _ in range(count):
                with tracer.span("empty", "cost"):
                    pass
            best = min(best, time.perf_counter() - start)
        return best

    return (fastest(True) - fastest(False)) / count
