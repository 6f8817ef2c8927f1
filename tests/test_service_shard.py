"""Sharding of the result cache (`repro.service.shard`): routing, capacity
split, per-shard stats, lock contention and the persisted file format."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.graphs.generators import complete_graph, cycle_graph
from repro.labeling.spec import L21
from repro.service import shard
from repro.service.api import LabelingService
from repro.service.cache import CachedSolve
from repro.service.protocol import SolveRequest
from repro.service.shard import ShardedResultCache, _ContentionLock

#: A cache file in the version-1 format, as the service has written it
#: since persistence landed: C5 under L(2,1) solved by Held-Karp and K4 by
#: LK.  The second entry has no ``gap`` field, as in files written before
#: the approx tier existed.
VERSION_1_FILE = (
    '{"version": 1, "entries": {'
    '"15a87bfe4b53572a1be8264fac8a8c089f7e63889555288792002d2c0b8d1866'
    ':held_karp": {"labels": [4, 1, 2, 3, 0], "span": 4, '
    '"engine": "held_karp", "exact": true, "gap": null}, '
    '"345df6e98f0d596df1de03a3462e6c00d0d107663d02ed48f92e29d47cc31ffc'
    ':lk": {"labels": [2, 4, 0, 6], "span": 6, "engine": "lk", '
    '"exact": false}}}'
)


def entry(span: int = 2) -> CachedSolve:
    return CachedSolve(labels=(0, span), span=span, engine="lk", exact=False)


def test_basic_get_put_contains_len():
    c = ShardedResultCache(capacity=64)
    keys = [f"key-{i:03d}" for i in range(20)]
    for i, k in enumerate(keys):
        c.put(k, entry(i))
    assert len(c) == 20
    for i, k in enumerate(keys):
        assert k in c
        assert c.get(k).span == i
    assert c.get("absent") is None
    assert "absent" not in c
    assert c.peek(keys[0]).span == 0


def test_routing_is_deterministic_and_spread(monkeypatch):
    monkeypatch.setattr(shard, "DEFAULT_SHARDS", 8)
    c = ShardedResultCache(capacity=256)
    keys = [f"{i:x}" * 4 for i in range(200)]
    for k in keys:
        assert c._shard_for(k) is c._shard_for(k)
    occupied = set()
    for k in keys:
        c.put(k, entry())
    for i, s in enumerate(c.shard_stats()):
        if s.puts:
            occupied.add(i)
    assert len(occupied) >= 6, "200 keys should land on nearly every shard"


def test_stats_aggregate_over_shards():
    c = ShardedResultCache(capacity=64)
    for i in range(12):
        c.put(f"k{i}", entry())
    hits = sum(c.get(f"k{i}") is not None for i in range(12))
    misses = sum(c.get(f"m{i}") is None for i in range(5))
    agg = c.stats
    assert (agg.hits, agg.misses, agg.puts) == (hits, misses, 12)
    assert agg.lookups == agg.hits + agg.misses
    per_shard = c.shard_stats()
    assert sum(s.hits for s in per_shard) == agg.hits
    assert sum(s.misses for s in per_shard) == agg.misses
    assert sum(s.puts for s in per_shard) == agg.puts
    for s in per_shard:
        assert s.hits + s.misses == s.lookups


def test_eviction_is_per_shard(monkeypatch):
    monkeypatch.setattr(shard, "DEFAULT_SHARDS", 2)
    c = ShardedResultCache(capacity=4)
    for i in range(40):
        c.put(f"key-{i}", entry(i))
    # per-shard capacity is 2, so at most 4 entries survive in total
    assert len(c) <= 4
    assert c.stats.evictions == 40 - len(c)


def test_shards_capped_by_capacity_and_validation():
    assert ShardedResultCache(capacity=2).shards == 2
    assert ShardedResultCache().shards == shard.DEFAULT_SHARDS
    with pytest.raises(ReproError):
        ShardedResultCache(capacity=0)


@pytest.mark.parametrize("capacity", [1, 17, 20, 100, 4096])
def test_shard_capacities_sum_to_capacity(capacity):
    caps = [s.capacity for s in ShardedResultCache(capacity=capacity)._shards]
    assert sum(caps) == capacity
    assert max(caps) - min(caps) <= 1


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(1, 300), factor=st.integers(3, 5))
def test_never_holds_more_than_capacity(capacity, factor):
    c = ShardedResultCache(capacity=capacity)
    puts = factor * capacity
    for i in range(puts):
        c.put(f"key-{i}", entry(i % 7))
    assert len(c) <= capacity
    assert len(c) + c.stats.evictions == puts


def test_clear_keeps_lifetime_stats():
    c = ShardedResultCache(capacity=16)
    c.put("a", entry())
    assert c.get("a") is not None
    c.clear()
    assert len(c) == 0
    assert c.get("a") is None
    assert c.stats.puts == 1 and c.stats.hits == 1 and c.stats.misses == 1


def test_version1_file_warms_the_cache(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(VERSION_1_FILE)
    assert ShardedResultCache(capacity=8).load(path) == 2
    with LabelingService(cache_path=path, workers=1) as svc:
        assert len(svc.cache) == 2
        c5 = svc.submit(SolveRequest(cycle_graph(5), L21, engine="held_karp"))
        k4 = svc.submit(SolveRequest(complete_graph(4), L21, engine="lk"))
        assert (c5.cached, c5.span, c5.exact) == (True, 4, True)
        assert (k4.cached, k4.span) == (True, 6)
        assert svc.stats().misses == 0
        # a save writes the same format back
        out = svc.save_cache(tmp_path / "again.json")
    assert ShardedResultCache(capacity=8, path=out).peek(
        "345df6e98f0d596df1de03a3462e6c00d0d107663d02ed48f92e29d47cc31ffc:lk"
    ) == CachedSolve((2, 4, 0, 6), 6, "lk", False)


def test_save_requires_path():
    with pytest.raises(ReproError):
        ShardedResultCache().save()


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ReproError):
        ShardedResultCache(capacity=8).load(bad)
    stale = tmp_path / "stale.json"
    stale.write_text('{"version": 999, "entries": {}}')
    assert ShardedResultCache(capacity=8).load(stale) == 0


def test_contention_lock_counts_contended_acquisitions():
    lock = _ContentionLock()
    with lock:
        assert lock.contended == 0
    in_first, release = threading.Event(), threading.Event()

    def holder():
        with lock:
            in_first.set()
            release.wait(timeout=5)

    t = threading.Thread(target=holder)
    t.start()
    assert in_first.wait(timeout=5)

    def contender():
        with lock:
            pass

    t2 = threading.Thread(target=contender)
    t2.start()
    while not lock.locked():  # pragma: no cover - immediate in practice
        pass
    release.set()
    t.join()
    t2.join()
    assert lock.contended == 1
    assert ShardedResultCache(capacity=8).lock_contentions == 0


def test_contention_rate_bounds():
    c = ShardedResultCache(capacity=16)
    assert c.contention_rate == 0.0
    c.put("a", entry())
    c.get("a")
    assert 0.0 <= c.contention_rate <= 1.0
