"""Lightweight tracing: ``span()`` context managers, structured records.

A *span* is one named, timed region with free-form tags and a parent —
``with span("solve", engine="lk"):`` times the block and records a
:class:`Span` into the process-wide :class:`Tracer`.  The active span is
thread-local; two propagation primitives move it across execution
boundaries:

- **threads** — capture :func:`current_context` on the submitting thread,
  re-establish it with :func:`activate` on the worker, and spans created
  there parent correctly (this is what
  :class:`~repro.service.server.ConcurrentLabelingService` does per job);
- **processes** — a :class:`SpanContext` is a picklable pair of ids, so it
  ships to a pool worker inside the job payload; spans recorded in the
  child are drained, returned as JSON rows, and re-ingested into the
  parent's tracer (see ``_worker_main`` in :mod:`repro.parallel.shm_pool`).

Records accumulate in a bounded deque (old spans fall off, the serving
path can run forever) and drain as dicts or NDJSON — the ``--trace FILE``
CLI flag is ``dump_ndjson`` at exit.

>>> t = Tracer()
>>> with t.span("outer") as outer:
...     with t.span("inner") as inner:
...         pass
>>> inner.parent_id == outer.span_id
True
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

#: Default bound on retained span records per tracer.
DEFAULT_CAPACITY = 8192

#: Process-local monotone id source; combined with the pid so ids minted
#: in offload workers never collide with the parent's.
_IDS = itertools.count(1)


def _new_id(prefix: str = "") -> str:
    """A process-unique id (``pid`` hex dot counter hex)."""
    return f"{prefix}{os.getpid():x}.{next(_IDS):x}"


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of an active span: enough to parent under it."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One recorded span: name, identity, timing, tags.

    ``start`` is wall-clock epoch seconds (for cross-process alignment);
    ``duration`` comes from ``perf_counter`` deltas.  Tags are free-form
    JSON-serializable values; :func:`repro.profiling.profile_call` attaches
    its hot-spot rows here.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float
    duration: float | None = None
    tags: dict = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        """This span's propagation context."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_json(self) -> dict:
        """One NDJSON row (the trace schema in ``docs/observability.md``)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6)
            if self.duration is not None
            else None,
            "tags": self.tags,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        """Parse one row (the cross-process re-ingestion path)."""
        return cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            start=float(data["start"]),
            duration=data.get("duration"),
            tags=dict(data.get("tags", {})),
        )


class Tracer:
    """Thread-aware span recorder with a bounded record buffer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        """An empty tracer retaining at most ``capacity`` records."""
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: list[Span] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        """This thread's active-context stack (spans and remote contexts)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span(self) -> Span | None:
        """The innermost active *local* span on this thread, if any."""
        for item in reversed(self._stack()):
            if isinstance(item, Span):
                return item
        return None

    def current_context(self) -> SpanContext | None:
        """The innermost active context (local span or activated remote)."""
        stack = self._stack()
        if not stack:
            return None
        top = stack[-1]
        return top.context if isinstance(top, Span) else top

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        """Open a span: time the block, record it on exit.

        The span parents under the innermost active context — a local
        enclosing ``span()`` or an :func:`activate`-d remote context — and
        starts a fresh trace id when there is neither.
        """
        parent = self.current_context()
        record = Span(
            name=name,
            trace_id=parent.trace_id if parent else _new_id("t"),
            span_id=_new_id(),
            parent_id=parent.span_id if parent else None,
            start=time.time(),
            tags=dict(tags),
        )
        stack = self._stack()
        stack.append(record)
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - t0
            stack.pop()
            self.record(record)

    @contextmanager
    def activate(self, ctx: SpanContext | None) -> Iterator[None]:
        """Re-establish a captured context on this thread for the block.

        Spans opened inside parent under ``ctx`` even though the span it
        names lives on another thread (or in another process).  ``None``
        is accepted and is a no-op, so call sites can pass an optional
        context through unconditionally.
        """
        if ctx is None:
            yield
            return
        stack = self._stack()
        stack.append(ctx)
        try:
            yield
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    def record(self, span: Span) -> None:
        """Append one finished span, evicting the oldest past capacity."""
        with self._lock:
            self._records.append(span)
            if len(self._records) > self.capacity:
                del self._records[: len(self._records) - self.capacity]

    def ingest(self, rows: list[dict]) -> None:
        """Re-record spans drained in another process (JSON rows)."""
        for row in rows:
            self.record(Span.from_json(row))

    def drain(self) -> list[Span]:
        """Remove and return every recorded span, oldest first."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def __len__(self) -> int:
        """Recorded (undrained) span count."""
        with self._lock:
            return len(self._records)

    def dump_ndjson(self, path: str | Path) -> Path:
        """Drain all records to ``path`` as NDJSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as fh:
            for record in self.drain():
                fh.write(json.dumps(record.to_json()) + "\n")
        return target


#: The process-wide default tracer.
TRACER = Tracer()


def span(name: str, **tags):
    """Open a span on the default tracer (module-level convenience)."""
    return TRACER.span(name, **tags)


def current_span() -> Span | None:
    """The default tracer's innermost active local span."""
    return TRACER.current_span()


def current_context() -> SpanContext | None:
    """The default tracer's innermost active context."""
    return TRACER.current_context()


def activate(ctx: SpanContext | None):
    """Re-establish a captured context on the default tracer."""
    return TRACER.activate(ctx)
