"""Spans around the benchmark's own calls into the library's modules.

A span records name, start, end, parent span and query id. Spans stay in
memory until the run ends. Names read ``<module>.<function>``; a module's
self time is the time its spans cover minus the time their child spans
cover, so a ``minor.decide_vertex_minor`` span splits into target-orbit
closure (its ``orbit.lc_orbit_paths`` child) and enumeration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    qid: int | None


class NoTracer:
    """Untraced runs: the call goes straight through."""

    qid = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.qid: int | None = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.qid)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Time covered by ``child_name`` spans directly under ``parent_name`` spans."""
        return sum(s.end - s.start for s in self.spans
                   if s.name == child_name and s.parent is not None
                   and self.spans[s.parent].name == parent_name)

    def self_times(self) -> dict[str, float]:
        """Per module: span time minus the time of direct child spans."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name.split(".", 1)[0]] += s.end - s.start
            if s.parent is not None:
                out[self.spans[s.parent].name.split(".", 1)[0]] -= s.end - s.start
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s._asdict() for s in self.spans], handle)
