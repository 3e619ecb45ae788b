"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer of the program: a name (its
layer is the part before the first dot), a start and end on the
``time.perf_counter`` clock, the id of the span that was open when it
started (its parent, per thread of control), and the id of the run it
belongs to.  Spans are kept in memory and written out once, at the end
of a run.

Self time is a span's duration minus the part of its interval that
its child spans cover.  Children may overlap one another (calls made
from several threads), so the covered part is the length of the union
of their intervals, clipped to the parent's interval.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Interval],
                 clip: Optional[Interval] = None) -> float:
    """Total length covered by ``intervals`` (optionally clipped)."""
    pieces = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            pieces.append((start, end))
    pieces.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in pieces:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span],
               keep: Optional[Callable[[Span], bool]] = None
               ) -> Dict[int, float]:
    """Self time of every kept span, keyed by span id.

    With ``keep`` the tree is first restricted to the kept spans: each
    kept span's children are its nearest kept descendants.  That gives
    self time *within one layer* -- e.g. a pipeline stage's time minus
    the upstream stages it computed, but including the training it ran.
    """
    by_id = {span.span_id: span for span in spans}
    kept = [span for span in spans if keep is None or keep(span)]
    kept_ids = {span.span_id for span in kept}

    def kept_parent(span: Span) -> Optional[int]:
        parent = span.parent
        while parent is not None and parent not in kept_ids:
            parent_span = by_id.get(parent)
            parent = None if parent_span is None else parent_span.parent
        return parent

    children: Dict[int, List[Interval]] = {}
    for span in kept:
        parent = kept_parent(span)
        if parent is not None:
            children.setdefault(parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - union_length(
            children.get(span.span_id, ()), clip=(span.start, span.end))
        for span in kept
    }


def coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` inside top-level (parentless) spans."""
    if end <= start:
        return 0.0
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return union_length(top, clip=(start, end)) / (end - start)


class Tracer:
    """Thread-safe recorder; the open span is tracked per context, so
    each thread (and each new thread) nests its own spans."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"perfbench-span-{id(self)}", default=None)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "span_id", "parent", "token", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        tracer = self.tracer
        with tracer._lock:
            self.span_id = next(tracer._ids)
        self.parent = tracer._current.get()
        self.token = tracer._current.set(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._current.reset(self.token)
        span = Span(self.span_id, self.name, self.start, end, self.parent,
                    tracer.run_id)
        with tracer._lock:
            tracer.spans.append(span)
