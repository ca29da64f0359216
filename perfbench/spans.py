"""In-memory spans recorded by the harness around calls into the program."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent) kept in memory and written at exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_s, end_s, parent index or None]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block; yields the span entry, whose end is set on exit."""
        parent = self._stack[-1] if self._stack else None
        entry = [name, time.perf_counter(), None, parent]
        self.spans.append(entry)
        self._stack.append(len(self.spans) - 1)
        try:
            yield entry
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "self_time_s": self.self_times(),
                    "spans": [
                        {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                },
                fh,
            )
