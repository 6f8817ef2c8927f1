"""Request-level batch labeling service with a canonical-graph result cache.

Layer map (bottom up):

* :mod:`repro.service.canonical` — relabeling-invariant canonical forms and
  stable cache keys for ``(Graph, LpSpec)`` requests;
* :mod:`repro.service.cache` — the cache's value types: a memoized solve
  and the hit/miss/eviction counters;
* :mod:`repro.service.shard` — the result cache: a thread-safe LRU split
  over independently locked shards, with optional JSON persistence and
  the lock-contention stats the perf baseline gates;
* :mod:`repro.service.executor` — the one solve executor every request
  path hands its cache misses to: inline, or on the persistent
  shared-memory worker pool;
* :mod:`repro.service.api` — the :class:`LabelingService` facade the session
  layer and the CLI route through; ``submit_many`` deduplicates a batch
  and solves its misses on the executor together;
* :mod:`repro.service.server` — the :class:`ConcurrentLabelingService`
  front end: bounded submission queue, worker threads, in-flight dedup,
  backpressure and graceful shutdown, over the same executor.
"""

from repro.service.api import BatchReport, LabelingService, solve_record
from repro.service.cache import CachedSolve, CacheStats
from repro.service.canonical import CanonicalForm, canonical_form, canonical_order
from repro.service.protocol import SolveRequest, SolveResponse
from repro.service.server import ConcurrentLabelingService, ServerStats
from repro.service.shard import ShardedResultCache

__all__ = [
    "LabelingService",
    "solve_record",
    "BatchReport",
    "SolveRequest",
    "SolveResponse",
    "CachedSolve",
    "CacheStats",
    "ShardedResultCache",
    "ConcurrentLabelingService",
    "ServerStats",
    "CanonicalForm",
    "canonical_form",
    "canonical_order",
]
