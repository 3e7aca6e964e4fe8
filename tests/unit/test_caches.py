"""Unit tests for the PTI caches."""

import pytest

from repro.pti.caches import MRUFragmentCache, QueryCache, StructureCache


def test_query_cache_miss_then_hit():
    cache = QueryCache()
    assert cache.get("q1") is None
    cache.put("q1", (True, []))
    assert cache.get("q1") == (True, [])
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_lru_eviction_order():
    cache = QueryCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")          # refresh a
    cache.put("c", 3)       # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3


def test_rejected_entry_is_a_miss_and_keeps_its_recency():
    cache = QueryCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a", valid=lambda value: False) is None
    cache.put("c", 3)  # evicts a: the rejected read did not refresh it
    assert "a" not in cache and "b" in cache
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)


def test_put_overwrites():
    cache = StructureCache()
    cache.put("sig", True)
    cache.put("sig", False)
    assert cache.get("sig") is False
    assert len(cache) == 1


def test_epoch_flush_resets_contents_not_stats():
    cache = QueryCache()
    cache.put("x", 1, epoch=1)
    cache.get("x", epoch=1)
    assert cache.get("x", epoch=2) is None  # a newer epoch flushes
    assert len(cache) == 0 and cache.invalidations == 1
    assert cache.stats.hits == 1  # stats survive the flush


def test_stats_hit_rate():
    cache = QueryCache()
    cache.put("a", 1)
    cache.get("a")
    cache.get("a")
    cache.get("b")
    assert cache.stats.hit_rate == pytest.approx(2 / 3)
    cache.stats.reset()
    assert cache.stats.lookups == 0
    assert cache.stats.hit_rate == 0.0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        QueryCache(capacity=0)
    with pytest.raises(ValueError):
        MRUFragmentCache(capacity=0)


def test_mru_move_to_front():
    mru = MRUFragmentCache(capacity=3)
    mru.touch("a")
    mru.touch("b")
    mru.touch("a")
    assert mru.items() == ["a", "b"]


def test_mru_capacity_enforced():
    mru = MRUFragmentCache(capacity=2)
    for fragment in ("a", "b", "c"):
        mru.touch(fragment)
    assert mru.items() == ["c", "b"]
    assert "a" not in mru

