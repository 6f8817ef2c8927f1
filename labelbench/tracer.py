"""Span recording around the program's public layer functions.

:func:`install` runs inside the program's process before its server or
pool starts.  It replaces each function named in :data:`LAYERS` (and
every module-level alias of it) with a wrapper that records one span:
``(layer, start, end, pid, thread, tag, key, extra)`` on the shared monotonic
clock (``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans of
worker processes and client timestamps line up).  Nothing in the program
changes; a target that no longer exists is reported as missing.

Spans carry the request's ``tag`` where the calling context knows it:
the wire envelope reads it from the body, ``submit`` and the worker loop
from the request object, and pool workers carry the canonical key, which
the parent's pool round trip maps back to the tag.

Forked children (pool workers) inherit the wrappers, clear the inherited
buffer, and append their spans to ``spans-<pid>.jsonl`` whenever their
outermost wrapped call returns; the main process writes its buffer in
:func:`dump` when it exits.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import pkgutil
import re
import sys
import threading
import time

#: layer name -> (module, attribute path, how to wrap)
LAYERS = {
    "net.serve": ("repro.net.server", "NetworkServer._serve_request", "envelope"),
    "protocol.decode": ("repro.service.protocol", "SolveRequest.from_json_line", "span"),
    "protocol.encode": ("repro.service.protocol", "SolveResponse.to_json", "span"),
    "server.submit": ("repro.service.server", "ConcurrentLabelingService.submit", "submit"),
    "server.process": ("repro.service.server", "ConcurrentLabelingService._process", "process"),
    "canonical.form": ("repro.service.canonical", "canonical_form", "span"),
    "canonical.instance": ("repro.service.canonical", "canonical_instance", "span"),
    "cache.get": ("repro.service.shard", "ShardedResultCache.get", "span"),
    "shm_pool.publish": ("repro.parallel.shm_pool", "ShmArena.publish", "span"),
    "shm_pool.roundtrip": ("repro.parallel.shm_pool", "ShmWorkerPool.submit", "future"),
    "shm_pool.worker": ("repro.parallel.shm_pool", "_solve_adopted", "worker"),
    "reduction.reduce": ("repro.reduction.to_tsp", "reduce_to_path_tsp", "span"),
    "reduction.reconstruct": ("repro.reduction.from_tour", "labeling_from_order", "span"),
    "tsp.solve_path": ("repro.tsp.portfolio", "solve_path", "engine"),
    "labeling.verify": ("repro.labeling.labeling", "Labeling.require_feasible", "span"),
    "partition.diameter2": ("repro.partition.diameter2", "solve_lpq_diameter2", "span"),
    "approx": ("repro.approx.solver", "approx_labeling", "gap"),
    "batch.solve": ("repro.service.batch", "BatchSolver.solve_batch", "span"),
    "parallel.map": ("repro.parallel.pool", "parallel_map", "span"),
}

#: Layers that only frame a request; they never count as covered time.
ENVELOPES = {"net.serve", "shm_pool.worker", "batch.solve"}

_TAG_RE = re.compile(rb'^\{"tag": "([^"]*)"')


class Recorder:
    """In-memory span buffer of one process, flushed to ``directory``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.spans: list[tuple] = []
        self.child = False
        self.local = threading.local()
        self.request_tag: contextvars.ContextVar = contextvars.ContextVar(
            "labelbench_tag", default=None
        )
        self.installed: list[str] = []
        self.missing: list[str] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self.child = True
        self.local = threading.local()

    # ------------------------------------------------------------------
    def context(self) -> tuple:
        tag = getattr(self.local, "tag", None) or self.request_tag.get()
        return tag, getattr(self.local, "key", None)

    def record(self, layer, t0, t1, tag=None, key=None, extra=None) -> None:
        if tag is None and key is None:
            tag, key = self.context()
        self.spans.append(
            (layer, t0, t1, os.getpid(), threading.get_ident(), tag, key, extra)
        )

    def enter(self) -> None:
        self.local.depth = getattr(self.local, "depth", 0) + 1

    def leave(self) -> None:
        self.local.depth -= 1
        if self.child and self.local.depth == 0:
            self.flush()

    def flush(self) -> None:
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")

    def dump(self) -> None:
        """Write the main process's spans and the install report."""
        self.flush()
        with open(os.path.join(self.directory, "install.json"), "w") as fh:
            json.dump({"installed": self.installed, "missing": self.missing}, fh)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------
def _span(rec: Recorder, layer: str, fn, kind: str):
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter()
        t0 = perf()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            extra = None
            if kind == "engine":
                extra = args[1] if len(args) > 1 else kwargs.get("engine", "auto")
            elif kind == "gap":
                extra = getattr(result, "gap", None)
            rec.record(layer, t0, perf(), extra=extra)
            rec.leave()

    return wrapper


def _submit(rec: Recorder, layer: str, fn):
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(self, request, *args, **kwargs):
        prior = getattr(rec.local, "tag", None)
        rec.local.tag = getattr(request, "tag", None)
        rec.enter()
        t0 = perf()
        try:
            return fn(self, request, *args, **kwargs)
        finally:
            rec.record(layer, t0, perf())
            rec.local.tag = prior
            rec.leave()

    return wrapper


def _process(rec: Recorder, layer: str, fn):
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(self, job, *args, **kwargs):
        tag = getattr(getattr(job, "request", None), "tag", None)
        rec.local.tag = tag
        rec.enter()
        t0 = perf()
        enqueued = getattr(job, "enqueued", 0.0)
        if enqueued:
            rec.record("server.queue_wait", enqueued, t0, tag=tag)
        try:
            return fn(self, job, *args, **kwargs)
        finally:
            rec.record(layer, t0, perf(), tag=tag)
            rec.local.tag = None
            rec.leave()

    return wrapper


def _future(rec: Recorder, layer: str, fn):
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(self, descriptor, job, *args, **kwargs):
        tag, _ = rec.context()
        key = job[0] if isinstance(job, tuple) and job else None
        t0 = perf()
        future = fn(self, descriptor, job, *args, **kwargs)

        def done(fut) -> None:
            t1 = perf()
            solve_s = None
            if not fut.cancelled() and fut.exception() is None:
                result = fut.result()
                if isinstance(result, tuple) and len(result) >= 6:
                    solve_s = result[5]
            rec.record(layer, t0, t1, tag=tag, key=key, extra=solve_s)

        future.add_done_callback(done)
        return future

    return wrapper


def _worker(rec: Recorder, layer: str, fn):
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        job = args[3] if len(args) > 3 else kwargs.get("job")
        rec.local.key = job[0] if isinstance(job, tuple) and job else None
        rec.enter()
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.record(layer, t0, perf(), tag=None, key=rec.local.key)
            rec.local.key = None
            rec.leave()

    return wrapper


def _envelope(rec: Recorder, layer: str, fn):
    perf = time.perf_counter

    @functools.wraps(fn)
    async def wrapper(self, request, *args, **kwargs):
        match = _TAG_RE.match(getattr(request, "body", b"") or b"")
        tag = match.group(1).decode() if match else None
        token = rec.request_tag.set(tag)
        t0 = perf()
        try:
            return await fn(self, request, *args, **kwargs)
        finally:
            if tag is not None:
                rec.record(layer, t0, perf(), tag=tag)
            rec.request_tag.reset(token)

    return wrapper


_MAKERS = {
    "span": lambda rec, layer, fn: _span(rec, layer, fn, "span"),
    "engine": lambda rec, layer, fn: _span(rec, layer, fn, "engine"),
    "gap": lambda rec, layer, fn: _span(rec, layer, fn, "gap"),
    "submit": _submit,
    "process": _process,
    "future": _future,
    "worker": _worker,
    "envelope": _envelope,
}


# ---------------------------------------------------------------------------
def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # running it would start the CLI
        try:
            importlib.import_module(info.name)
        except Exception:  # an optional module that cannot import here
            pass


def _patch(rec: Recorder, layer: str, module: str, path: str, kind: str) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    owner, name = mod, path
    if "." in path:
        cls_name, name = path.split(".", 1)
        owner = getattr(mod, cls_name, None)
        if owner is None or name not in vars(owner):
            return False
        raw = vars(owner)[name]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if kind == "envelope" and not inspect.iscoroutinefunction(fn):
            return False
        wrapped = _MAKERS[kind](rec, layer, fn)
        setattr(owner, name, classmethod(wrapped) if is_classmethod else wrapped)
        return True
    fn = getattr(mod, name, None)
    if fn is None or not callable(fn):
        return False
    wrapped = _MAKERS[kind](rec, layer, fn)
    # every module that imported the function by name gets the wrapper too
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("repro"):
            for attr, value in list(vars(other).items()):
                if value is fn:
                    setattr(other, attr, wrapped)
    return True


def install(directory: str) -> Recorder:
    """Wrap every layer in :data:`LAYERS`; returns the process's recorder."""
    os.makedirs(directory, exist_ok=True)
    rec = Recorder(directory)
    _import_all()
    for layer, (module, path, kind) in LAYERS.items():
        if _patch(rec, layer, module, path, kind):
            rec.installed.append(layer)
        else:
            rec.missing.append(layer)
    return rec
