"""The one executor both service flavours solve on: inline or pooled.

Every request path — :meth:`LabelingService.submit_many
<repro.service.api.LabelingService.submit_many>` and the
:class:`~repro.service.server.ConcurrentLabelingService` worker threads —
runs the same steps: canonical key, cache probe, dedup, tier routing, and
then hands its cache misses to a :class:`SolveExecutor` as
:class:`SolveTask`\\ s in canonical coordinates.  The executor answers each
with a :class:`~repro.service.cache.CachedSolve` and its engine seconds:

- approx-tier tasks always run inline — the one-pass degraded solver is
  cheaper than a process hop;
- exact-tier tasks run inline, on a canonical graph whose distance oracle
  is seeded from the request's (the APSP paid for during key derivation is
  the only one the solve ever runs), or on a persistent
  :class:`~repro.parallel.shm_pool.ShmWorkerPool`.  There each canonical
  graph's buffers are published **once** into a
  :class:`~repro.parallel.shm_pool.ShmArena` segment, leased for the
  solve, and the task crosses the process boundary as a ``(canonical key,
  p, engine)`` tuple.

The module also holds what both paths share around the executor: the
composed cache key and the translation of a canonical entry back into one
request's vertex order.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.approx import APPROX_ENGINE, approx_labeling
from repro.graphs.analysis import export_buffers, get_analysis
from repro.labeling.labeling import Labeling
from repro.obs.trace import TRACER
from repro.parallel.pool import effective_cpu_count
from repro.parallel.shm_pool import ShmArena, ShmDescriptor, ShmWorkerPool
from repro.reduction.solver import solve_labeling
from repro.service.cache import CachedSolve
from repro.service.canonical import CanonicalForm, canonical_instance
from repro.service.protocol import SolveRequest, SolveResponse


@dataclass
class SolveTask:
    """One cache miss: solve ``request`` in ``form``'s canonical coordinates."""

    key: str
    request: SolveRequest
    form: CanonicalForm
    #: Answering tier, ``"exact"`` or ``"approx"``.
    tier: str = "exact"


class SolveExecutor:
    """Runs solve tasks inline or on a persistent shared-memory pool.

    Parameters
    ----------
    workers:
        Pool width (worker processes) when exact tasks are pooled.
    offload:
        Whether exact tasks may go to the pool at all.  ``None``
        auto-detects: only when ``workers > 1`` *and* the process may run
        on more than one CPU (:func:`effective_cpu_count`) — on one core
        the pool would add process hops and parallelize nothing.
    pool_min:
        Fewest exact tasks one :meth:`solve` call must carry to use the
        pool; a batch caller passes 2 so a lone miss skips the hop.
    start_method:
        Multiprocessing start method for the pool workers; ``None`` uses
        the platform default.

    The pool starts on the first pooled call (or an explicit
    :meth:`start`) and lives until :meth:`close`.
    """

    def __init__(
        self,
        workers: int,
        offload: bool | None = None,
        pool_min: int = 1,
        start_method: str | None = None,
    ) -> None:
        """Record the policy; no process starts until a pooled call."""
        self.workers = workers
        self.offload = offload
        self.pool_min = pool_min
        self.start_method = start_method
        self._lock = threading.Lock()
        self._pool: ShmWorkerPool | None = None
        self._arena: ShmArena | None = None

    @property
    def pool(self) -> ShmWorkerPool | None:
        """The running worker pool, or ``None`` while every solve is inline."""
        return self._pool

    def start(self) -> None:
        """Start the pool and its arena now, if this executor offloads."""
        with self._lock:
            if self._pool is None and self._pooled(self.pool_min):
                self._arena = ShmArena()
                self._pool = ShmWorkerPool(
                    self.workers, start_method=self.start_method
                )

    def wait_ready(self, timeout: float | None = 30.0) -> None:
        """Block until every pool worker has started (no-op when inline)."""
        pool = self._pool
        if pool is not None:
            pool.wait_ready(timeout=timeout)

    def close(self) -> None:
        """Stop the pool and unlink every published segment.  Idempotent."""
        with self._lock:
            pool, arena = self._pool, self._arena
            self._pool = self._arena = None
        if pool is not None:
            pool.shutdown()
        if arena is not None:
            arena.close()

    # ------------------------------------------------------------------
    def _pooled(self, exact_tasks: int) -> bool:
        """The inline-vs-pool decision for a call with ``exact_tasks``."""
        if exact_tasks < self.pool_min:
            return False
        if self.offload is None:
            return self.workers > 1 and effective_cpu_count() > 1
        return self.offload

    def solve(self, tasks: list[SolveTask]) -> list[tuple[CachedSolve, float]]:
        """Answer every task, in order, as ``(entry, engine seconds)``.

        Pooled tasks are all dispatched before the inline ones run, so the
        pool works while this thread does.  The first failure raises —
        :class:`~repro.errors.WorkerCrashedError` when a pool worker died
        instead of answering.
        """
        out: list = [None] * len(tasks)
        pending: dict[int, Future] = {}
        if self._pooled(sum(t.tier == "exact" for t in tasks)):
            self.start()
            pending = {
                i: self._submit(task)
                for i, task in enumerate(tasks)
                if task.tier == "exact"
            }
        for i, task in enumerate(tasks):
            if task.tier == "approx":
                out[i] = _run_approx(task)
            elif i not in pending:
                out[i] = _run_exact(task)
        for i, future in pending.items():
            _key, labels, span, engine, exact, seconds = future.result()
            out[i] = (
                CachedSolve(labels=labels, span=span, engine=engine, exact=exact),
                seconds,
            )
        return out

    def _submit(self, task: SolveTask) -> Future:
        """Dispatch one exact task to the pool; its lease ends with the future."""
        arena, pool = self._arena, self._pool
        assert arena is not None and pool is not None
        ctx = TRACER.current_context()
        ctx_row = (
            {"trace_id": ctx.trace_id, "span_id": ctx.span_id}
            if ctx is not None
            else None
        )
        descriptor = _lease_segment(arena, task)
        try:
            future = pool.submit(
                descriptor,
                (task.key, task.request.spec.p, task.request.engine),
                ctx_row,
            )
        except BaseException:
            arena.release(task.form.key)
            raise
        future.add_done_callback(lambda _f: arena.release(task.form.key))
        return future


def _lease_segment(arena: ShmArena, task: SolveTask) -> ShmDescriptor:
    """The task's canonical buffers in shared memory, leased for one solve.

    The first requester of a canonical key pays one permuted-matrix
    copy (:func:`canonical_instance` reuses the APSP already computed
    for the key) and one publish; every later task for the same key —
    for the lifetime of the arena entry — crosses the process boundary
    as the descriptor alone.
    """
    descriptor = arena.lease(task.form.key)
    if descriptor is None:
        canonical = canonical_instance(task.form, task.request.graph)
        descriptor = arena.publish(
            task.form.key, export_buffers(get_analysis(canonical))
        )
    return descriptor


def _run_exact(task: SolveTask) -> tuple[CachedSolve, float]:
    """Inline exact solve on the oracle-seeded canonical graph."""
    canonical = canonical_instance(task.form, task.request.graph)
    t0 = time.perf_counter()
    result = solve_labeling(
        canonical, task.request.spec, engine=task.request.engine
    )
    seconds = time.perf_counter() - t0
    entry = CachedSolve(
        labels=result.labeling.labels,
        span=result.span,
        engine=result.engine,
        exact=result.exact,
    )
    return entry, seconds


def _run_approx(task: SolveTask) -> tuple[CachedSolve, float]:
    """Degraded-tier solve in canonical coordinates, with its gap certificate."""
    canonical = canonical_instance(task.form, task.request.graph)
    res = approx_labeling(canonical, task.request.spec)
    entry = CachedSolve(
        labels=res.labeling.labels,
        span=res.span,
        engine=APPROX_ENGINE,
        exact=False,
        gap=res.gap,
    )
    return entry, res.seconds


# ---------------------------------------------------------------------------
# shared by both request paths
# ---------------------------------------------------------------------------
def _resolved_tier(req: SolveRequest, tier: str | None = None) -> str:
    """The quality tier a non-routed path answers with.

    ``tier`` (the router's decision) wins when given; otherwise an explicit
    ``"approx"`` request is honoured and ``"auto"`` degrades to ``"exact"``
    — only a :class:`~repro.service.server.QosRouter` ever downgrades an
    ``auto`` request, never a plain service.
    """
    if tier is not None:
        return tier
    return "approx" if req.tier == "approx" else "exact"


def _composed_key(
    form: CanonicalForm, req: SolveRequest, tier: str | None = None
) -> str:
    """Cache key: canonical (graph, spec) hash plus the requested engine.

    The engine is part of the key because heuristic engines answer with
    different spans; a request for ``held_karp`` must never be served a
    cached ``two_opt`` labeling.  ``auto`` is deterministic in the canonical
    graph, so it composes consistently.  Approx-tier answers live under
    their own suffix for the same reason — an exact request must never be
    served a degraded labeling, nor the reverse (no engine is named
    ``approx``, so the suffix cannot collide).
    """
    if _resolved_tier(req, tier) == "approx":
        return f"{form.key}:approx"
    return f"{form.key}:{req.engine}"


def _answer(
    req: SolveRequest,
    form: CanonicalForm,
    key: str,
    entry: CachedSolve,
    cached: bool,
    seconds: float = 0.0,
) -> SolveResponse:
    """Translate a canonical-coordinate entry into the request's own order."""
    labeling = Labeling(form.from_canonical_labels(entry.labels))
    return SolveResponse(
        labeling=labeling,
        span=entry.span,
        engine=entry.engine,
        exact=entry.exact,
        cached=cached,
        key=key,
        seconds=seconds,
        tag=req.tag,
        tier="approx" if entry.gap is not None else "exact",
        gap=entry.gap,
    )
