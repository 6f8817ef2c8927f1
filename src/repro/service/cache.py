"""Value types of the result cache: one memoized solve and its counters.

:class:`CachedSolve` is what :class:`~repro.service.shard.ShardedResultCache`
stores — a solved labeling in *canonical coordinates* (see
:mod:`repro.service.canonical`) plus its span, engine and certificate —
and :class:`CacheStats` the lifetime counters the cache reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CachedSolve:
    """One memoized solve, in canonical vertex coordinates."""

    labels: tuple[int, ...]      # canonical-coordinate labeling
    span: int
    engine: str                  # resolved engine that produced the labels
    exact: bool
    #: Certified optimality gap for approx-tier entries; ``None`` marks an
    #: exact-tier entry (the tier is recoverable from this field alone).
    gap: int | None = None

    def to_json(self) -> dict:
        """JSON form (labels as a list)."""
        return {
            "labels": list(self.labels),
            "span": self.span,
            "engine": self.engine,
            "exact": self.exact,
            "gap": self.gap,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CachedSolve":
        """Parse one persisted entry, coercing value types.

        ``gap`` is optional so cache files persisted before the approx
        tier existed still load.
        """
        gap = data.get("gap")
        return cls(
            labels=tuple(int(x) for x in data["labels"]),
            span=int(data["span"]),
            engine=str(data["engine"]),
            exact=bool(data["exact"]),
            gap=None if gap is None else int(gap),
        )


@dataclass
class CacheStats:
    """Counters for one cache's lifetime (monotone, never reset by eviction)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> dict:
        """JSON counters — the shape the perf trajectory records verbatim."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }

