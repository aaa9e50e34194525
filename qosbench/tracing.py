"""In-memory spans recorded around calls into the program's layers.

A span holds its name, start, end, parent span and the pass/client id it
belongs to.  Spans stay in memory while a pass runs and are written out as
JSONL when it ends.  A span's self time is its duration minus the durations
of its direct children; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str
    client: str | None


class Tracer:
    def __init__(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, client: str | None = None):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id, client))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, function):
        """`function` with every call recorded as a span called `name`."""

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed self time of every span called `name`."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
        return sum(
            span.end - span.start - child_time.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span.name == name
        )

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **asdict(span)}, sort_keys=True) + "\n")


@contextlib.contextmanager
def patched(module, attribute: str, replacement):
    """Replace module.attribute for the duration of the block."""
    original = getattr(module, attribute)
    setattr(module, attribute, replacement)
    try:
        yield original
    finally:
        setattr(module, attribute, original)
