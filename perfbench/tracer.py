"""In-memory spans around the benchmark's calls into the program.

A span records a name, its start and end (perf_counter seconds), the span
that encloses it and the run id of the pass it belongs to.  Spans stay in
memory and are written once, when the benchmark ends.  A disabled tracer
hands out one shared no-op span, so untraced runs pay one method call per
boundary and nothing else.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "run", "id")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr._stack[-1].id if tr._stack else None
        self.run = tr.run
        tr.spans.append(self)
        tr._stack.append(self)
        self.end = None
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans when enabled; `run` tags every span opened after it is set."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self.run: str | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def records(self) -> list[dict]:
        """Closed spans as dicts, with self time = duration minus child time."""
        child = defaultdict(float)
        for s in self.spans:
            if s.end is not None and s.parent is not None:
                child[s.parent] += s.end - s.start
        out = []
        for s in self.spans:
            if s.end is None:
                continue
            dur = s.end - s.start
            out.append({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "run": s.run,
                        "self": dur - child[s.id]})
        return out

    def durations(self, runs=None, skip=()) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by name, in recording order;
        only spans of `runs` when given, never spans of `skip`."""
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            if (s.end is not None and s.run not in skip
                    and (runs is None or s.run in runs)):
                out[s.name].append(s.end - s.start)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.records()}, fh)
