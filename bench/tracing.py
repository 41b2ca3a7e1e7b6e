"""In-memory spans recorded by the benchmark around calls into diskchannel.

A span has a name, a start, an end, the span that caused it and a trace
id that every span of one op (or one trial) shares. Spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def trace_id(self) -> str:
        """Trace id of the innermost open span."""
        return self._stack[-1].trace_id

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent else name
        record = Span(
            span_id=len(self.spans),
            parent_id=parent.span_id if parent else None,
            trace_id=trace_id,
            name=name,
            start=perf_counter(),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


class NullTracer:
    """Stands in for a Tracer where nothing is recorded."""

    def span(self, name: str, trace_id: str | None = None):
        return contextlib.nullcontext()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of half-open intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, by span id, in the spans' time unit."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent_id is not None:
            parent = by_id[s.parent_id]
            start, end = max(s.start, parent.start), min(s.end, parent.end)
            if end > start:
                children[s.parent_id].append((start, end))
    return {s.span_id: s.duration - _covered(children[s.span_id]) for s in spans}


def root_ids(spans: list[Span]) -> dict[int, int]:
    """The id of each span's root ancestor; parents precede children."""
    roots: dict[int, int] = {}
    for s in spans:
        roots[s.span_id] = s.span_id if s.parent_id is None else roots[s.parent_id]
    return roots
