"""`LabelingService` — the request-level front door of the batch subsystem.

One service instance owns one cache and one solve executor; everything that
solves repeatedly (`LabelingSession` loops, the CLI ``batch`` subcommand,
sweep scripts) should route through a shared service so isomorphic work is
paid for once.  The cache is a
:class:`~repro.service.shard.ShardedResultCache`: concurrent callers —
the :class:`~repro.service.server.ConcurrentLabelingService` worker pool,
or any threads sharing one service — contend per shard, not on one global
lock.

Calls are synchronous (submit-and-wait on the caller's thread); for a
queued, multi-worker front end with backpressure and in-flight dedup, wrap
the service in :class:`repro.service.server.ConcurrentLabelingService`.
The module also hosts :func:`solve_record`, the single JSON serialization
used by both the ``solve`` and ``batch`` CLI paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.graphs.graph import Graph
from repro.labeling.spec import LpSpec
from repro.parallel.pool import default_workers
from repro.service.cache import CachedSolve, CacheStats
from repro.service.canonical import canonical_form
from repro.service.executor import (
    SolveExecutor,
    SolveTask,
    _answer,
    _composed_key,
    _resolved_tier,
)
from repro.service.protocol import SolveRequest, SolveResponse
from repro.service.shard import ShardedResultCache


@dataclass(frozen=True)
class BatchReport:
    """Aggregate accounting for one :meth:`LabelingService.submit_many` call."""

    total: int                   # requests in the batch
    unique: int                  # distinct canonical keys in the batch
    cache_hits: int              # served from cache warmed by earlier batches
    deduped: int                 # duplicates collapsed within this batch
    solved: int                  # jobs actually sent to an engine
    wall_seconds: float
    engine_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered without solving."""
        if self.total == 0:
            return 0.0
        return (self.cache_hits + self.deduped) / self.total

    @property
    def throughput(self) -> float:
        """Requests answered per second of wall time."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.total / self.wall_seconds

    def to_json(self) -> dict:
        """JSON counters (rates rounded) for reports and CLI summaries."""
        return {
            "total": self.total,
            "unique": self.unique,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "solved": self.solved,
            "wall_seconds": round(self.wall_seconds, 6),
            "hit_rate": round(self.hit_rate, 4),
            "throughput": round(self.throughput, 2),
            "engine_seconds": {
                e: round(s, 6) for e, s in sorted(self.engine_seconds.items())
            },
        }


class LabelingService:
    """Facade over the canonical cache and the solve executor.

    ``workers`` is the width of the persistent worker pool that
    :meth:`submit_many` solves a batch's cache misses on (``None`` = the
    library default, one less than the usable CPUs).  The pool starts on
    the first batch with more than one exact miss and lives until
    :meth:`close` (or the end of a ``with`` block); a width of 1, or a
    batch with a single exact miss, solves inline.

    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.graphs.operations import relabel
    >>> from repro.labeling.spec import L21
    >>> from repro.service.protocol import SolveRequest
    >>> svc = LabelingService()
    >>> svc.submit(SolveRequest(cycle_graph(5), L21, engine="held_karp")).span
    4
    >>> svc.submit(SolveRequest(relabel(cycle_graph(5), [4, 2, 0, 3, 1]), L21,
    ...            engine="held_karp")).cached
    True
    """

    def __init__(
        self,
        cache_capacity: int = 4096,
        cache_path: str | Path | None = None,
        workers: int | None = None,
    ) -> None:
        """Build the cache and the executor."""
        self.cache = ShardedResultCache(capacity=cache_capacity, path=cache_path)
        width = workers or default_workers()
        self.executor = SolveExecutor(width, offload=width > 1, pool_min=2)

    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> SolveResponse:
        """Solve (or recall) one :class:`SolveRequest`.

        The request optionally carries a pre-computed
        :class:`~repro.graphs.analysis.GraphAnalysis` for its graph (a
        session's delta-repaired oracle), so the canonical cache key is
        derived without recomputing distances.
        """
        results, _report = self.submit_many([request])
        return results[0]

    def submit_many(
        self, requests: list[SolveRequest]
    ) -> tuple[list[SolveResponse], BatchReport]:
        """Solve a request stream; results come back in request order.

        Every request is keyed canonically and probed in the cache; misses
        are deduplicated (isomorphic requests collapse onto one solve) and
        handed to the executor together, in canonical coordinates, so the
        entries they leave in the cache serve any isomorphic request later.
        In-batch duplicates answer ``cached=True`` with zero seconds.
        """
        t0 = time.perf_counter()
        forms = [
            canonical_form(r.graph, r.spec, analysis=r.analysis)
            for r in requests
        ]
        keys = [_composed_key(form, req) for form, req in zip(forms, requests)]

        results: list[SolveResponse | None] = [None] * len(requests)
        owners: dict[str, int] = {}       # key -> request index that solves it
        duplicates: list[int] = []
        cache_hits = 0
        for i, (req, form, key) in enumerate(zip(requests, forms, keys)):
            if key in owners:
                duplicates.append(i)
                continue
            entry = self.cache.get(key)
            if entry is not None:
                cache_hits += 1
                results[i] = _answer(req, form, key, entry, cached=True)
            else:
                owners[key] = i

        tasks = [
            SolveTask(key, requests[i], forms[i], _resolved_tier(requests[i]))
            for key, i in owners.items()
        ]
        solved: dict[str, CachedSolve] = {}
        engine_seconds: dict[str, float] = {}
        for task, (entry, seconds) in zip(tasks, self.executor.solve(tasks)):
            self.cache.put(task.key, entry)
            solved[task.key] = entry
            results[owners[task.key]] = _answer(
                task.request, task.form, task.key, entry,
                cached=False, seconds=seconds,
            )
            engine_seconds[entry.engine] = (
                engine_seconds.get(entry.engine, 0.0) + seconds
            )

        # duplicates resolve through the now-warm cache (counted as hits
        # there); an entry evicted mid-batch falls back to the owner's
        for i in duplicates:
            entry = self.cache.get(keys[i]) or solved[keys[i]]
            results[i] = _answer(
                requests[i], forms[i], keys[i], entry, cached=True
            )

        report = BatchReport(
            total=len(requests),
            unique=len(set(keys)),
            cache_hits=cache_hits,
            deduped=len(duplicates),
            solved=len(tasks),
            wall_seconds=time.perf_counter() - t0,
            engine_seconds=engine_seconds,
        )
        return results, report

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """The shared cache's lifetime counters."""
        return self.cache.stats

    def save_cache(self, path: str | Path | None = None) -> Path:
        """Persist the cache (see :meth:`ShardedResultCache.save`)."""
        return self.cache.save(path)

    def close(self) -> None:
        """Stop the worker pool, if one started.  Idempotent."""
        self.executor.close()

    def __enter__(self) -> "LabelingService":
        """Context manager: the service itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Stop the worker pool on scope exit."""
        self.close()


def solve_record(
    result,
    graph: Graph | None = None,
    spec: LpSpec | None = None,
    include_labels: bool = False,
    tag: str | None = None,
) -> dict:
    """One solve as a JSON-ready dict — shared by ``solve`` and ``batch``.

    Accepts either a :class:`repro.reduction.solver.SolveResult` or a
    :class:`repro.service.protocol.SolveResponse`; the optional ``graph`` and
    ``spec`` add provenance fields.
    """
    seconds = getattr(result, "seconds", None)
    if seconds is None:
        seconds = result.reduce_seconds + result.solve_seconds
    record: dict = {
        "span": result.span,
        "engine": result.engine,
        "exact": result.exact,
        "cached": getattr(result, "cached", False),
        "seconds": round(seconds, 6),
    }
    if graph is not None:
        record["n"] = graph.n
        record["m"] = graph.m
    if spec is not None:
        record["p"] = list(spec.p)
    tag = tag if tag is not None else getattr(result, "tag", None)
    if tag is not None:
        record["tag"] = tag
    if include_labels:
        record["labels"] = list(result.labeling.labels)
    return record
