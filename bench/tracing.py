"""Spans recorded from outside the program, and the arithmetic on them.

A span is one call into a layer: its name, start and end on one clock, the
index of the span that was open when it began, the id of the run it belongs
to, and the counts measured at that boundary.  Spans stay in memory until the
pass ends.  The benchmark opens them by wrapping the module attributes that
the driver resolves at call time, so nothing under ``src/`` changes.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of one run on ``clock``."""

    def __init__(self, run: str, clock=time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; the body may add to the yielded counts."""
        parent = self._open[-1] if self._open else None
        span = Span(name, self.clock(), 0.0, parent, self.run)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span.counts
        finally:
            span.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result, args)`` returns its counts."""

        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(result, args))
            return result

        return traced


@contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples, restoring them on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(spans, index: int) -> float:
    """Duration of ``spans[index]`` minus the part its child spans cover."""
    parent = spans[index]
    children = [
        (max(s.start, parent.start), min(s.end, parent.end))
        for s in spans
        if s.parent == index and s.end > parent.start and s.start < parent.end
    ]
    return parent.duration - covered(children)


def check_spans(spans) -> list:
    """Problems with the span tree: a child outside its parent, or siblings
    that overlap (with one worker every layer call blocks the driver)."""
    problems = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} {s.name} lies outside its parent {p.name}")
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: s.start)
        for a, b in zip(siblings, siblings[1:]):
            if b.start < a.end:
                problems.append(f"sibling spans {a.name} and {b.name} overlap")
    return problems


def layer_totals(spans, peaks=("rss_mb",)) -> dict:
    """Per span name: summed duration, and counts summed over its spans
    (the maximum for the gauges named in ``peaks``)."""
    totals = {}
    for s in spans:
        t = totals.setdefault(s.name, {"time_s": 0.0, "counts": {}})
        t["time_s"] += s.duration
        for key, value in s.counts.items():
            if key in t["counts"]:
                old = t["counts"][key]
                value = max(old, value) if key in peaks else old + value
            t["counts"][key] = value
    return totals
