"""The result cache: an LRU of solved labelings split over locked shards.

The cache stores solved labelings in *canonical coordinates* (see
:mod:`repro.service.canonical`), keyed by the canonical hash of the request.
Entries are tiny — a label tuple plus scalars — so capacities in the
thousands are cheap; eviction is least-recently-used within a shard.

Under concurrent serving one global lock would be the contention point —
every worker's lookup and every client's fast-path probe would serialize on
one mutex even though they touch different keys.  :class:`ShardedResultCache`
splits the key space over ``min(DEFAULT_SHARDS, capacity)`` independently
locked LRU maps (stable CRC32 of the key picks the shard), so two
operations contend only when they land on the same shard.  The shard
capacities sum exactly to ``capacity``, so the cache never holds more.

Each shard's lock additionally *counts contended acquisitions* (an acquire
that found the lock held), so the serving layer can report a
``shard_lock_wait`` rate — the perf baseline gates it: sharding the cache
must never become a regression in disguise.

Persistence is a plain JSON file so a service restart (or a second CLI
invocation pointed at the same ``--cache`` file) starts warm.

>>> from repro.service.cache import CachedSolve
>>> c = ShardedResultCache(capacity=64)
>>> c.put("a", CachedSolve((0, 2), 2, "lk", False))
>>> c.get("a").span
2
>>> c.get("missing") is None
True
>>> (c.stats.hits, c.stats.misses)
(1, 1)
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zlib
from collections import OrderedDict
from pathlib import Path

from repro.errors import ReproError
from repro.obs.metrics import REGISTRY
from repro.service.cache import CachedSolve, CacheStats

#: Default shard count.  Sixteen shards keep the expected contention rate
#: under 1/16 per colliding pair while the per-shard overhead (a lock and an
#: OrderedDict) stays trivial.
DEFAULT_SHARDS = 16

#: Format marker for persisted cache files.
_PERSIST_VERSION = 1

_M_HITS = REGISTRY.counter("repro_cache_hits_total").labels()
_M_MISSES = REGISTRY.counter("repro_cache_misses_total").labels()
_M_PUTS = REGISTRY.counter("repro_cache_puts_total").labels()
_M_EVICTIONS = REGISTRY.counter("repro_cache_evictions_total").labels()


class _ContentionLock:
    """A mutex that counts total and contended acquisitions.

    Drop-in for ``threading.Lock`` as a context manager.  Both counters
    are incremented *while holding the lock*, so ``contended <=
    acquisitions`` exactly and any rate derived from them stays in
    ``[0, 1]``; reading them without the lock is a benign stale read (they
    are statistics).
    """

    __slots__ = ("_lock", "acquisitions", "contended")

    def __init__(self) -> None:
        """A fresh unlocked mutex with zeroed counters."""
        self._lock = threading.Lock()
        self.acquisitions = 0
        self.contended = 0

    def __enter__(self) -> "_ContentionLock":
        """Acquire, counting the acquisition as contended if it waited."""
        if not self._lock.acquire(blocking=False):
            self._lock.acquire()
            self.contended += 1
        self.acquisitions += 1
        return self

    def __exit__(self, *exc) -> None:
        """Release the mutex."""
        self._lock.release()

    def locked(self) -> bool:
        """Whether the underlying mutex is currently held."""
        return self._lock.locked()


class _Shard:
    """One shard: an LRU map, its lifetime stats and its entry budget."""

    __slots__ = ("lock", "entries", "stats", "capacity")

    def __init__(self, capacity: int) -> None:
        """An empty shard holding at most ``capacity`` entries."""
        self.lock = _ContentionLock()
        self.entries: OrderedDict[str, CachedSolve] = OrderedDict()
        self.stats = CacheStats()
        self.capacity = capacity

    def trim(self) -> None:
        """Evict LRU entries down to capacity (caller holds the lock)."""
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.stats.evictions += 1
            _M_EVICTIONS.inc()


class ShardedResultCache:
    """LRU cache of :class:`CachedSolve` entries keyed by canonical hash.

    Parameters
    ----------
    capacity:
        Total entry budget.  It is split over ``min(DEFAULT_SHARDS,
        capacity)`` shards whose capacities sum exactly to ``capacity``
        (each shard evicts independently, so the total can sit under
        ``capacity`` when the key distribution is skewed, never over).
    path:
        Optional JSON persistence path: an existing file warm-starts the
        cache on construction; :meth:`save` writes it back.
    """

    def __init__(
        self, capacity: int = 4096, path: str | Path | None = None
    ) -> None:
        """Split ``capacity`` across the shards; load ``path`` if present."""
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        shards = min(DEFAULT_SHARDS, capacity)  # a shard needs room for one
        base, extra = divmod(capacity, shards)
        self._shards = tuple(
            _Shard(base + (i < extra)) for i in range(shards)
        )
        # Contention gauges sample this instance through a weak reference —
        # the most recently built cache owns the gauge, and a collected
        # cache leaves the last sampled value behind instead of being
        # pinned alive by the registry.
        REGISTRY.gauge("repro_shard_contention_rate").set_function(
            lambda cache: cache.contention_rate, owner=self
        )
        REGISTRY.gauge("repro_shard_lock_contentions_total").set_function(
            lambda cache: cache.lock_contentions, owner=self
        )
        if self.path is not None and self.path.exists():
            self.load(self.path)

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """The number of independent shards."""
        return len(self._shards)

    def _shard_for(self, key: str) -> _Shard:
        """Stable key→shard routing (CRC32, process-independent)."""
        return self._shards[zlib.crc32(key.encode("utf-8")) % len(self._shards)]

    # ------------------------------------------------------------------
    def get(self, key: str) -> CachedSolve | None:
        """Look up a key, counting a hit or miss and refreshing recency."""
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                shard.stats.misses += 1
                _M_MISSES.inc()
                return None
            shard.entries.move_to_end(key)
            shard.stats.hits += 1
            _M_HITS.inc()
            return entry

    def peek(self, key: str) -> CachedSolve | None:
        """Look up a key without touching stats or recency."""
        shard = self._shard_for(key)
        with shard.lock:
            return shard.entries.get(key)

    def put(self, key: str, value: CachedSolve) -> None:
        """Insert (or refresh) an entry, evicting its shard's LRU tail."""
        shard = self._shard_for(key)
        with shard.lock:
            if key in shard.entries:
                shard.entries.move_to_end(key)
            shard.entries[key] = value
            shard.stats.puts += 1
            _M_PUTS.inc()
            shard.trim()

    def clear(self) -> None:
        """Drop every entry (lifetime stats are preserved)."""
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()

    def __len__(self) -> int:
        """Live entries summed across shards."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += len(shard.entries)
        return total

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is cached (no stats or recency side effects)."""
        shard = self._shard_for(key)
        with shard.lock:
            return key in shard.entries

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Aggregate counters summed over every shard's lifetime stats."""
        total = CacheStats()
        for shard in self._shards:
            total.hits += shard.stats.hits
            total.misses += shard.stats.misses
            total.evictions += shard.stats.evictions
            total.puts += shard.stats.puts
        return total

    def shard_stats(self) -> list[CacheStats]:
        """Per-shard lifetime counters, in shard order."""
        return [s.stats for s in self._shards]

    @property
    def lock_contentions(self) -> int:
        """Total contended shard-lock acquisitions across all shards."""
        return sum(s.lock.contended for s in self._shards)

    @property
    def contention_rate(self) -> float:
        """Contended acquisitions per lock acquisition (the gated metric).

        Numerator and denominator come from the same per-shard lock
        counters (every operation — ``get``/``peek``/``put``/``len``/
        persistence — counts), so the rate is exact, stays in ``[0, 1]``
        by construction, and is comparable across runs of different
        lengths.  The perf baseline gates this as ``shard_lock_wait``: it
        may never rise.
        """
        acquisitions = sum(s.lock.acquisitions for s in self._shards)
        return self.lock_contentions / acquisitions if acquisitions else 0.0

    # ------------------------------------------------------------------
    def save(self, path: str | Path | None = None) -> Path:
        """Persist all shards as one JSON file (atomic rename).

        Returns the path written; ``path`` defaults to the construction
        path.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ReproError("no persistence path configured for this cache")
        entries: dict[str, dict] = {}
        for shard in self._shards:
            with shard.lock:
                entries.update(
                    (k, v.to_json()) for k, v in shard.entries.items()
                )
        payload = {"version": _PERSIST_VERSION, "entries": entries}
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return target

    def load(self, path: str | Path) -> int:
        """Merge entries from a JSON file, routing each to its shard.

        Returns how many entries the file held.  Unknown versions load
        zero (a key-derivation bump makes old entries unreachable anyway,
        so silently starting cold is correct).
        """
        source = Path(path)
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"unreadable cache file {source}: {exc}") from exc
        if payload.get("version") != _PERSIST_VERSION:
            return 0
        entries = payload.get("entries", {})
        try:
            decoded = {
                str(k): CachedSolve.from_json(d) for k, d in entries.items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed cache file {source}: {exc!r}") from exc
        for k, entry in decoded.items():
            shard = self._shard_for(k)
            with shard.lock:
                shard.entries[k] = entry
                shard.trim()
        return len(entries)
