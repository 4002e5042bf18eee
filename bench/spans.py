"""In-memory spans and counters for the traced replay.

Spans are recorded only in the benchmark's own files, around calls into
the package's public functions; nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str


class Tracer:
    """Records spans (name, start, end, parent, job id) and per-layer counts.

    Garbage-collector pauses are counted through ``gc.callbacks`` while a
    job is active, so collections the benchmark itself forces between jobs
    are left out.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._gc_start: float | None = None
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.job is None:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.counts["python.gc_collections"] += 1
            self.counts["python.gc_s"] += perf_counter() - self._gc_start
            self._gc_start = None

    @contextmanager
    def job_span(self, job: str):
        """Root span of one replayed job; every span opened inside carries its id."""
        self.job = job
        try:
            with self.span("job"):
                yield
        finally:
            self.job = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, perf_counter(), float("nan"), parent, self.job or ""))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = perf_counter()

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def write(self, path: Path) -> None:
        """Write every span recorded so far as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "job": s.job}
            for s in self.spans
        ]
        path.write_text(json.dumps(doc) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that do not fit inside their parent, or belong to another job."""
    errors = []
    for k, s in enumerate(spans):
        if not s.start <= s.end:
            errors.append(f"span {k} ({s.name}) ends before it starts")
        if s.parent is None:
            continue
        p = spans[s.parent]
        if not (p.start <= s.start and s.end <= p.end) or p.job != s.job:
            errors.append(f"span {k} ({s.name}) does not fit inside span {s.parent} ({p.name})")
    return errors
