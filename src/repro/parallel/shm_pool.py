"""Persistent shared-memory worker pool for the serving path.

The old offload design (``ProcessPoolExecutor`` per server) pickled every
cold solve's whole instance — graph, CSR adjacency, distance matrix — per
request.  This module replaces it with two cooperating pieces:

- :class:`ShmArena` — a parent-side registry that publishes a canonical
  graph's heavy arrays (distance matrix + CSR adjacency, see
  :func:`repro.graphs.analysis.export_buffers`) **once** into a
  ``multiprocessing.shared_memory`` segment, keyed by canonical cache key.
  Entries are leased (refcounted) while jobs are in flight, LRU-evicted at
  zero refs past capacity, and unlinked deterministically on
  :meth:`~ShmArena.close` — with an atexit sweep as the backstop, and
  the pool's workers unlinking what a hard-killed owner left behind, so
  segments never outlive the process.  (Segments stay out of
  multiprocessing's resource tracker, which would cost a process of
  its own; see :func:`_untracked`.)
- :class:`ShmWorkerPool` — long-lived worker processes fed over pipes.
  Requests cross the boundary as ``(key, params)`` tuples plus a tiny
  picklable :class:`ShmDescriptor`; workers reconstruct the canonical
  graph as **zero-copy numpy views** into the segment
  (:func:`repro.graphs.analysis.adopt_buffers`) and keep a small LRU of
  adopted graphs, so a shard of the stream amortizes one attachment.  A
  batch-aware router pins repeat keys to their worker (cache warmth) and
  spreads fresh keys to the least-loaded worker.  A worker that dies
  mid-solve fails its in-flight futures with
  :class:`~repro.errors.WorkerCrashedError`, is respawned, and is counted
  in ``repro_pool_worker_restarts_total`` — callers never hang.

Trace spans propagate exactly like the old offload path: the worker runs
each solve under a ``solve.offload`` span parented to the submitted
context and ships its drained span rows back for the parent tracer to
ingest.
"""

from __future__ import annotations

import atexit
import contextlib
import glob
import itertools
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.errors import ReproError, WorkerCrashedError
from repro.obs.metrics import REGISTRY

#: Prefix of every segment this module creates; the tests' zero-leak
#: fixture (and the /dev/shm lifecycle assertions) key off it.
SEGMENT_PREFIX = "repro_shm_"

#: Arena capacity default: refcount-zero entries past this are LRU-unlinked.
DEFAULT_ARENA_CAPACITY = 64

#: Worker-side adopted-graph LRU size.
DEFAULT_GRAPH_CACHE = 32

#: Segment offsets are aligned so every numpy view starts on a cache line.
_ALIGN = 64

_M_SHM_BYTES = REGISTRY.counter("repro_shm_bytes_published_total")
_M_SHM_BYTES.labels()
_M_SEGMENTS_LIVE = REGISTRY.gauge("repro_shm_segments_live")
_M_SEGMENTS_LIVE.labels()
_M_RESTARTS = REGISTRY.counter("repro_pool_worker_restarts_total")
_M_RESTARTS.labels()
_M_DISPATCH = REGISTRY.counter("repro_pool_dispatch_total")
_M_IMBALANCE = REGISTRY.gauge("repro_pool_route_imbalance")
_M_IMBALANCE.labels()


def live_segment_names() -> list[str]:
    """Names of this module's shm segments currently in ``/dev/shm``.

    The zero-leak acceptance criterion made concrete: the test suites'
    session fixtures snapshot this before and after a run, and the
    lifecycle tests assert individual segments appear and vanish.  Sorted
    for deterministic assertion messages; empty on non-Linux hosts.
    """
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux host
        return []
    return sorted(
        os.path.basename(p)
        for p in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    )


@dataclass(frozen=True)
class ShmDescriptor:
    """Everything a worker needs to reconstruct one published graph.

    Picklable and tiny — this is what crosses the process boundary instead
    of the arrays themselves.  ``fields`` rows are
    ``(name, dtype, shape, offset)`` into the named segment.
    """

    key: str
    segment: str
    fields: tuple[tuple[str, str, tuple[int, ...], int], ...]
    nbytes: int


#: Serializes the process-wide resource-tracker swap in :func:`_untracked`.
#: A forked worker gets a fresh one: the parent may fork while another of
#: its threads holds the lock, and the child must not inherit it held.
_TRACKER_LOCK = threading.Lock()


def _reset_tracker_lock() -> None:
    """Fork hook: replace the inherited lock in the child."""
    global _TRACKER_LOCK
    _TRACKER_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, nothing inherited
    os.register_at_fork(after_in_child=_reset_tracker_lock)


@contextlib.contextmanager
def _untracked():
    """Keep this module's segments out of multiprocessing's resource tracker.

    The tracker is a separate interpreter process (about 14 MiB resident)
    that the first registration starts, and CPython registers *attaching*
    processes too (bpo-39959 / gh-82300), so a worker exiting would unlink
    — or, with a fork-shared tracker, de-register — a segment the parent
    still owns.  Segment lifetime is owned explicitly here instead:
    :meth:`ShmArena.close`, the atexit sweep, and the workers' sweep after
    their owner dies (:func:`_sweep_orphaned`).  While the block runs,
    shared-memory registrations and de-registrations are skipped (Python
    3.13's ``track=False``, for every supported interpreter); the swap is
    process-wide, hence the lock.
    """
    from multiprocessing import resource_tracker

    def skip_shm(call):
        def skip(name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                call(name, rtype)

        return skip

    with _TRACKER_LOCK:
        register = resource_tracker.register
        unregister = resource_tracker.unregister
        resource_tracker.register = skip_shm(register)
        resource_tracker.unregister = skip_shm(unregister)
        try:
            yield
        finally:
            resource_tracker.register = register
            resource_tracker.unregister = unregister


def _attach_segment(name: str) -> SharedMemory:
    """Open an existing segment without adopting its lifetime."""
    with _untracked():
        return SharedMemory(name=name)


def _views(shm: SharedMemory, descriptor: ShmDescriptor) -> dict[str, np.ndarray]:
    """Zero-copy numpy views into ``shm`` per the descriptor's layout."""
    return {
        name: np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        for name, dtype, shape, offset in descriptor.fields
    }


# ---------------------------------------------------------------------------
# parent side: the arena
# ---------------------------------------------------------------------------
class _ArenaEntry:
    """One published segment: the handle, its descriptor, and the lease count."""

    __slots__ = ("shm", "descriptor", "refs")

    def __init__(self, shm: SharedMemory, descriptor: ShmDescriptor) -> None:
        self.shm = shm
        self.descriptor = descriptor
        self.refs = 0


class ShmArena:
    """Refcounted registry of shared-memory segments, keyed by canonical key.

    The owner (one per pooled :class:`~repro.service.executor.
    SolveExecutor`) publishes each canonical graph's buffers once; jobs
    lease the entry while in flight.  Eviction only ever takes
    refcount-zero entries (LRU order), ``close()`` unlinks everything, and
    an atexit sweep unlinks whatever a crashed caller left behind —
    ``/dev/shm`` ends every process empty of ``repro_shm_*`` names.
    """

    def __init__(self, capacity: int = DEFAULT_ARENA_CAPACITY) -> None:
        """An empty arena owning at most ``capacity`` idle segments."""
        if capacity < 1:
            raise ReproError(f"arena capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[str, _ArenaEntry] = {}  # insertion order = LRU
        self._lock = threading.Lock()
        self._closed = False
        _LIVE_ARENAS.add(self)
        # the newest arena owns the liveness gauge (weakly — the gauge
        # never keeps a closed arena alive)
        _M_SEGMENTS_LIVE.set_function(lambda arena: len(arena), owner=self)

    def __len__(self) -> int:
        """Segments currently owned (published and not yet unlinked)."""
        return len(self._entries)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed arena rejects publishes."""
        return self._closed

    # ------------------------------------------------------------------
    def lease(self, key: str) -> ShmDescriptor | None:
        """Bump the refcount and return the descriptor, or ``None`` if absent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries[key] = self._entries.pop(key)  # LRU touch
            entry.refs += 1
            return entry.descriptor

    def publish(
        self, key: str, arrays: dict[str, np.ndarray]
    ) -> ShmDescriptor:
        """Publish ``arrays`` under ``key`` (idempotent) and lease the entry.

        The first publish for a key copies each array into one fresh
        segment (offsets cache-line aligned) and counts the bytes in
        ``repro_shm_bytes_published_total``; subsequent publishes — or a
        racing worker thread's — find the entry and only take a lease.
        Always pair with :meth:`release`.
        """
        with self._lock:
            if self._closed:
                raise ReproError("arena is closed; no new segments")
            entry = self._entries.get(key)
            if entry is not None:
                self._entries[key] = self._entries.pop(key)
                entry.refs += 1
                return entry.descriptor
            fields = []
            offset = 0
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                offset = -(-offset // _ALIGN) * _ALIGN  # round up
                fields.append(
                    (name, arr.dtype.str, tuple(arr.shape), offset)
                )
                offset += arr.nbytes
            segment = f"{SEGMENT_PREFIX}{os.getpid()}_{next(_SEGMENT_SEQ)}"
            with _untracked():
                shm = SharedMemory(
                    name=segment, create=True, size=max(offset, 1)
                )
            descriptor = ShmDescriptor(
                key=key,
                segment=segment,
                fields=tuple(fields),
                nbytes=offset,
            )
            for view, (name, arr) in zip(
                _views(shm, descriptor).values(), arrays.items()
            ):
                view[...] = arr
            entry = _ArenaEntry(shm, descriptor)
            entry.refs = 1
            self._entries[key] = entry
            _M_SHM_BYTES.inc(offset)
            evicted = self._evictable()
        for stale in evicted:
            _unlink(stale.shm)
        return entry.descriptor

    def release(self, key: str) -> None:
        """Drop one lease.  Releasing an absent or idle key is a no-op."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.refs > 0:
                entry.refs -= 1

    def _evictable(self) -> list[_ArenaEntry]:
        """Pop LRU refcount-zero entries past capacity (lock held)."""
        evicted = []
        while len(self._entries) > self.capacity:
            idle = next(
                (k for k, e in self._entries.items() if e.refs == 0), None
            )
            if idle is None:
                break  # everything leased: over-capacity beats corruption
            evicted.append(self._entries.pop(idle))
        return evicted

    def descriptor(self, key: str) -> ShmDescriptor | None:
        """The published descriptor for ``key`` without taking a lease."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.descriptor if entry is not None else None

    def close(self) -> None:
        """Unlink every segment.  Idempotent; double-close is a no-op."""
        with self._lock:
            if self._closed and not self._entries:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        _LIVE_ARENAS.discard(self)
        for entry in entries:
            _unlink(entry.shm)

    def __enter__(self) -> "ShmArena":
        """Context manager: the arena itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Unlink everything on scope exit."""
        self.close()


def _unlink(shm: SharedMemory) -> None:
    """Close and unlink one owned segment, tolerating repeats."""
    try:
        shm.close()
    except BufferError:  # pragma: no cover - parent keeps no live views
        pass
    try:
        with _untracked():
            shm.unlink()
    except FileNotFoundError:
        pass


#: Segment-name sequence, process-wide: two arenas alive at once must
#: never publish under the same ``repro_shm_<pid>_<n>`` name.
_SEGMENT_SEQ = itertools.count()

#: Every arena not yet closed, held strongly: an abandoned (never-closed)
#: arena must survive until the atexit sweep unlinks its segments, not be
#: garbage-collected with them still in /dev/shm.
_LIVE_ARENAS: "set[ShmArena]" = set()

#: Every pool not yet shut down.  A pool its owner never shut down must
#: still stop before multiprocessing's own exit hook terminates the
#: workers — otherwise the handler threads would see the deaths as crashes
#: and respawn orphan workers.  Registered after that hook, so it runs first.
_LIVE_POOLS: "set[ShmWorkerPool]" = set()


@atexit.register
def _sweep_at_exit() -> None:
    """Interpreter-exit backstop: stop every live pool, then unlink segments."""
    for pool in list(_LIVE_POOLS):
        pool.shutdown()
    for arena in list(_LIVE_ARENAS):
        arena.close()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _drop_adopted(entry: tuple[SharedMemory, object]) -> None:
    """Release one worker-side cache entry: views first, then the mapping.

    The numpy views hold the segment's exported buffer; the graph's
    memoized analysis is the only reference to them, so detaching it lets
    ``shm.close()`` succeed instead of raising :class:`BufferError`.
    """
    shm, graph = entry
    graph._analysis = None
    del graph
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a solver kept a view alive
        pass


def _adopted_graph(cache: dict, descriptor: ShmDescriptor):
    """The worker's canonical graph for ``descriptor``, LRU-cached.

    Re-adopts when the key's segment changed (the parent evicted and
    republished); evicts least-recently-used entries past
    :data:`DEFAULT_GRAPH_CACHE`.
    """
    from repro.graphs.analysis import adopt_buffers

    entry = cache.get(descriptor.key)
    if entry is not None and entry[0].name == descriptor.segment:
        cache[descriptor.key] = cache.pop(descriptor.key)  # LRU touch
        return entry[1]
    if entry is not None:
        _drop_adopted(cache.pop(descriptor.key))
    shm = _attach_segment(descriptor.segment)
    views = _views(shm, descriptor)
    n = views["distances"].shape[0]
    graph = adopt_buffers(
        n, views["indptr"], views["indices"], views["distances"]
    )
    cache[descriptor.key] = (shm, graph)
    while len(cache) > DEFAULT_GRAPH_CACHE:
        _drop_adopted(cache.pop(next(iter(cache))))
    return graph


def _solve_adopted(cache: dict, descriptor: ShmDescriptor, job: tuple) -> tuple:
    """Solve one ``(key, p, engine)`` job on the adopted canonical graph."""
    from repro.labeling.spec import LpSpec
    from repro.reduction.solver import solve_labeling

    graph = _adopted_graph(cache, descriptor)
    key, p, engine = job
    t0 = time.perf_counter()
    result = solve_labeling(graph, LpSpec(p), engine=engine)
    seconds = time.perf_counter() - t0
    return (
        key,
        result.labeling.labels,
        result.span,
        result.engine,
        result.exact,
        seconds,
    )


def _probe_adopted(cache: dict, descriptor: ShmDescriptor) -> dict:
    """Diagnostic job: is the worker's matrix really a view into the segment?

    ``bench_e15_shm_pool.py``'s zero-copy gate asserts on this: the
    adopted distance matrix must not own its data, and its base must be
    the segment's exported ``memoryview`` — i.e. the worker reads the
    parent's bytes, it never rebuilt an ``O(n^2)`` matrix of its own.
    """
    import mmap

    from repro.graphs.analysis import get_analysis

    graph = _adopted_graph(cache, descriptor)
    dist = get_analysis(graph).distances
    base = dist
    while isinstance(base, np.ndarray):
        base = base.base
    # numpy unwraps ``shm.buf`` to the segment's underlying mmap
    return {
        "pid": os.getpid(),
        "key": descriptor.key,
        "owns_data": bool(dist.flags["OWNDATA"]),
        "base_is_shm_buffer": isinstance(base, (mmap.mmap, memoryview)),
        "nbytes": int(dist.nbytes),
        "cached_graphs": len(cache),
    }


def _worker_main(conn, parent_end=None) -> None:
    """Worker-process loop: adopt, solve, reply — until the stop sentinel.

    Messages in: ``("job", id, descriptor, (key, p, engine), ctx_row)``,
    ``("probe", id, descriptor)``, or ``None`` (clean shutdown).  Messages
    out: ``("ready", pid)`` once, then ``("result", id, ok, payload,
    spans)`` per job.  Failures are shipped back as exception objects;
    the parent re-raises them into the job's future.

    ``parent_end`` is the parent's side of this worker's pipe, which a
    forked child inherits; it is closed first, so the parent's death (a
    SIGTERM or SIGKILL that skips shutdown) reaches ``recv`` as EOF and
    the worker exits instead of lingering as an orphan — after unlinking
    the dead parent's segments (:func:`_sweep_orphaned`).
    """
    from repro.obs.trace import TRACER, SpanContext

    if parent_end is not None:
        parent_end.close()
    owner = os.getppid()
    TRACER.drain()  # a fork-inherited buffer must not replay parent spans
    cache: dict[str, tuple[SharedMemory, object]] = {}
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                _sweep_orphaned(owner)
                return
            except KeyboardInterrupt:
                return
            if msg is None:
                return
            kind, job_id = msg[0], msg[1]
            spans: tuple = ()
            try:
                if kind == "probe":
                    payload = _probe_adopted(cache, msg[2])
                else:
                    _, _, descriptor, job, ctx_row = msg
                    if ctx_row is None:
                        payload = _solve_adopted(cache, descriptor, job)
                    else:
                        with TRACER.activate(SpanContext(**ctx_row)):
                            with TRACER.span(
                                "solve.offload", pid=os.getpid(), key=job[0]
                            ):
                                payload = _solve_adopted(
                                    cache, descriptor, job
                                )
                        spans = tuple(s.to_json() for s in TRACER.drain())
                out = ("result", job_id, True, payload, spans)
            except BaseException as exc:
                out = ("result", job_id, False, _portable(exc), ())
            try:
                conn.send(out)
            except OSError:  # the parent died while this job ran
                _sweep_orphaned(owner)
                return
    finally:
        for entry in cache.values():
            _drop_adopted(entry)
        cache.clear()
        try:
            conn.close()
        except OSError:
            pass


def _sweep_orphaned(owner: int) -> None:
    """Unlink ``owner``'s segments if it died without closing its arenas.

    Called when the pipe hit EOF without the stop sentinel.  The owner's
    death shows as this process being re-parented (``getppid`` changes,
    which may lag the EOF briefly); an owner still alive a second later
    closed the pipe on purpose and keeps its segments.  Sibling workers
    may sweep concurrently, so a vanished name is fine.
    """
    deadline = time.monotonic() + 1.0
    while os.getppid() == owner:
        if time.monotonic() > deadline:
            return
        time.sleep(0.01)
    for path in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{owner}_*"):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it pickles, else a :class:`ReproError` carrying its repr."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"worker solve failed: {exc!r}")


# ---------------------------------------------------------------------------
# parent side: the pool
# ---------------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side state for one worker: process, pipe, and in-flight jobs."""

    __slots__ = ("proc", "conn", "send_lock", "pending", "ready", "dead")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.send_lock = threading.Lock()
        self.pending: dict[int, Future] = {}
        self.ready = threading.Event()
        self.dead = False


class ShmWorkerPool:
    """Persistent worker processes fed descriptors + small job tuples.

    Parameters
    ----------
    workers:
        Worker-process count (also the handler-thread count — one parent
        thread drains each worker's pipe, which is what turns a dead
        worker's ``EOF`` into prompt :class:`WorkerCrashedError` failures
        instead of hung callers).
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` uses the
        platform default.  Both fork and spawn are exercised in the tests.

    Each worker keeps an LRU of up to :data:`DEFAULT_GRAPH_CACHE` adopted
    graphs.
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        """Spawn the workers and their pipe-handler threads."""
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._ctx = get_context(start_method)
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._closing = False
        self._restarts = 0
        #: Consecutive deaths-before-ready per slot: a worker that cannot
        #: even start (broken environment, import failure) must not be
        #: respawned in an unbounded tight loop — past the cap the slot is
        #: retired and its jobs fail fast instead.
        self._early_deaths = [0] * workers
        self._dispatched = [0] * workers
        #: canonical key -> worker index (LRU-bounded): repeat keys stick
        #: to their worker's warm cache, fresh keys go to the least loaded.
        self._route: dict[str, int] = {}
        self._route_cap = 4096
        self._m_dispatch = [
            _M_DISPATCH.labels(worker=str(i)) for i in range(workers)
        ]
        _M_IMBALANCE.set_function(
            lambda pool: pool.route_imbalance(), owner=self
        )
        self._handles: list[_WorkerHandle] = [
            self._spawn() for _ in range(workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._handler,
                args=(i,),
                name=f"shm-pool-handler-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()
        _LIVE_POOLS.add(self)

    def _spawn(self) -> _WorkerHandle:
        """Start one worker process and return its fresh handle."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, parent_conn),
            daemon=True,
            name="shm-pool-worker",
        )
        proc.start()
        child_conn.close()  # the parent keeps only its own end
        return _WorkerHandle(proc, parent_conn)

    # ------------------------------------------------------------------
    def wait_ready(self, timeout: float | None = 30.0) -> None:
        """Block until every worker sent its ready handshake.

        Benchmarks call this before timing so interpreter start-up (spawn
        imports numpy per worker) never pollutes a measured serve.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in list(self._handles):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not handle.ready.wait(remaining):
                raise ReproError("pool workers not ready before timeout")

    def worker_pids(self) -> list[int]:
        """Live worker PIDs, in worker order (crash tests kill these)."""
        with self._lock:
            return [h.proc.pid for h in self._handles]

    @property
    def restart_count(self) -> int:
        """Workers respawned after dying (mirrors the restarts counter)."""
        with self._lock:
            return self._restarts

    def dispatch_counts(self) -> list[int]:
        """Jobs dispatched per worker index over the pool's lifetime."""
        with self._lock:
            return list(self._dispatched)

    def route_imbalance(self) -> float:
        """Max-over-mean dispatch count (1.0 = perfectly balanced)."""
        with self._lock:
            total = sum(self._dispatched)
            if not total:
                return 1.0
            mean = total / len(self._dispatched)
            return max(self._dispatched) / mean

    # ------------------------------------------------------------------
    def submit(
        self,
        descriptor: ShmDescriptor,
        job: tuple,
        ctx_row: dict | None = None,
    ) -> Future:
        """Dispatch one ``(key, p, engine)`` job; returns its future.

        Routed by the descriptor's canonical key: a key seen before goes
        back to its worker (whose adopted-graph cache is warm), a fresh
        key to the worker with the fewest jobs in flight.  The future
        resolves to the worker's ``(key, labels, span, engine, exact,
        seconds)`` tuple, or raises what the solve raised —
        :class:`WorkerCrashedError` when the worker died instead of
        answering.
        """
        return self._dispatch(("job", descriptor, job, ctx_row), descriptor.key)

    def probe(self, descriptor: ShmDescriptor) -> Future:
        """Dispatch a zero-copy diagnostic for ``descriptor`` (see tests)."""
        return self._dispatch(("probe", descriptor), descriptor.key)

    def _dispatch(self, message: tuple, key: str) -> Future:
        """Route, register and send one message; returns its future."""
        future: Future = Future()
        with self._lock:
            if self._closing:
                raise ReproError("pool is shut down; no new jobs")
            live = [
                i for i in range(self.workers) if not self._handles[i].dead
            ]
            if not live:
                raise WorkerCrashedError(
                    "every pool worker died before becoming ready; "
                    "the pool is broken"
                )
            index = self._route.get(key)
            if index is None or self._handles[index].dead:
                index = min(
                    live,
                    key=lambda i: (len(self._handles[i].pending),
                                   self._dispatched[i]),
                )
            else:
                self._route.pop(key)
            self._route[key] = index
            while len(self._route) > self._route_cap:
                self._route.pop(next(iter(self._route)))
            handle = self._handles[index]
            job_id = next(self._seq)
            handle.pending[job_id] = future
            self._dispatched[index] += 1
        self._m_dispatch[index].inc()
        payload = (message[0], job_id, *message[1:])
        try:
            with handle.send_lock:
                handle.conn.send(payload)
        except (OSError, ValueError):
            # the worker died between routing and send; its handler thread
            # (or this sweep) fails the future — never both
            self._settle(handle, job_id, WorkerCrashedError(
                "pool worker died before accepting the job"
            ))
        return future

    def _settle(self, handle: _WorkerHandle, job_id: int, exc: BaseException) -> None:
        """Fail one pending job exactly once (crash paths can race)."""
        with self._lock:
            future = handle.pending.pop(job_id, None)
        if future is not None:
            future.set_exception(exc)

    # ------------------------------------------------------------------
    def _handler(self, index: int) -> None:
        """Drain one worker's pipe; detect death, fail in-flight, respawn."""
        from repro.obs.trace import TRACER

        while True:
            with self._lock:
                handle = self._handles[index]
                closing = self._closing
            if closing:
                return
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError):
                if not self._crashed(index, handle):
                    return
                continue
            if msg[0] == "ready":
                handle.ready.set()
                continue
            _, job_id, ok, payload, spans = msg
            with self._lock:
                future = handle.pending.pop(job_id, None)
            if spans:
                TRACER.ingest(list(spans))
            if future is None:
                continue  # settled by a crash sweep that raced the reply
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(payload)

    def _crashed(self, index: int, handle: _WorkerHandle) -> bool:
        """Handle one worker death: fail its jobs, respawn.  False = stop.

        A worker that died *before* its ready handshake never ran a job —
        three of those in a row mean the worker environment itself is
        broken (an import failure would otherwise respawn forever), so
        the slot is retired instead of respawned.
        """
        with self._lock:
            if self._closing:
                return False
            handle.dead = True
            orphans = list(handle.pending.values())
            handle.pending.clear()
            # drop the dead worker's routes so rerouted keys rebalance
            self._route = {
                k: i for k, i in self._route.items() if i != index
            }
            if handle.ready.is_set():
                self._early_deaths[index] = 0
            else:
                self._early_deaths[index] += 1
            respawn = self._early_deaths[index] < 3
            if respawn:
                self._handles[index] = self._spawn()
                self._restarts += 1
        if not respawn:
            for future in orphans:
                future.set_exception(
                    WorkerCrashedError(
                        "pool worker died repeatedly before becoming "
                        "ready; worker slot retired"
                    )
                )
            try:
                handle.conn.close()
            except OSError:
                pass
            return False
        _M_RESTARTS.inc()
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.proc.join(timeout=1.0)
        for future in orphans:
            future.set_exception(
                WorkerCrashedError(
                    f"pool worker {handle.proc.pid} died with "
                    f"{len(orphans)} job(s) in flight"
                )
            )
        return True

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers and fail whatever was still in flight.

        Sends each worker the stop sentinel, joins (escalating to
        terminate for a worker wedged mid-solve), then retires the
        handler threads.  Idempotent.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            handles = list(self._handles)
        _LIVE_POOLS.discard(self)
        for handle in handles:
            try:
                with handle.send_lock:
                    handle.conn.send(None)
            except (OSError, ValueError):
                pass
        for handle in handles:
            handle.proc.join(timeout=5.0)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=5.0)
        for handle in handles:
            try:
                handle.conn.close()
            except OSError:
                pass
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=5.0)
        self._threads = []
        leftovers: list[Future] = []
        with self._lock:
            for handle in handles:
                leftovers.extend(handle.pending.values())
                handle.pending.clear()
        for future in leftovers:
            future.set_exception(
                WorkerCrashedError("pool shut down with the job in flight")
            )

    def __enter__(self) -> "ShmWorkerPool":
        """Context manager: the running pool itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Stop the workers on scope exit."""
        self.shutdown()
