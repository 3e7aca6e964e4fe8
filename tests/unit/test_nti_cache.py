"""Unit tests for the per-query NTI cache and its analyzer wiring."""

import pytest

from repro.matching.substring import TextProfile
from repro.nti import NTIAnalyzer, NTIConfig, NTIQueryCache
from repro.nti.cache import MAX_INPUTS_PER_QUERY
from repro.phpapp.context import CapturedInput, RequestContext


def ctx(*values, source="get"):
    return RequestContext(
        inputs=[CapturedInput(source, f"p{i}", v) for i, v in enumerate(values)]
    )


# ----------------------------------------------------------------------
# NTIQueryCache
# ----------------------------------------------------------------------


def test_match_cache_miss_then_hit():
    cache = NTIQueryCache(capacity=8)
    entry = cache.entry("query")
    assert entry.matches == {} and entry.profile is None
    entry.matches["input"] = "match-object"
    again = cache.entry("query")
    assert again is entry
    assert again.matches["input"] == "match-object"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_match_cache_distinguishes_cached_none_from_miss():
    cache = NTIQueryCache(capacity=8)
    entry = cache.entry("query")
    entry.matches["benign"] = None  # proven non-match
    assert "benign" in cache.entry("query").matches
    assert cache.entry("query").matches["benign"] is None
    assert "unseen" not in cache.entry("query").matches


def test_match_cache_keys_on_both_value_and_query():
    cache = NTIQueryCache(capacity=8)
    cache.entry("q1").matches["v"] = "r1"
    assert "v" not in cache.entry("q2").matches
    assert cache.entry("q1").matches["v"] == "r1"


def test_match_cache_lru_eviction():
    # Capacity counts queries, however many inputs each entry holds.
    cache = NTIQueryCache(capacity=2)
    cache.entry("a").matches.update({"x": 1, "y": 2, "z": 3})
    cache.entry("b").matches["x"] = 2
    cache.entry("a")           # refresh a
    cache.entry("c")           # evicts b
    assert "b" not in cache
    assert cache.entry("a").matches == {"x": 1, "y": 2, "z": 3}
    assert "c" in cache
    assert len(cache) == 2


def test_match_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        NTIQueryCache(capacity=0)


def test_entry_trim_drops_oldest_inputs_first():
    entry = NTIQueryCache(capacity=1).entry("q")
    for i in range(MAX_INPUTS_PER_QUERY + 3):
        entry.matches[str(i)] = None
    entry.trim()
    assert len(entry.matches) == MAX_INPUTS_PER_QUERY
    assert "0" not in entry.matches and "2" not in entry.matches
    assert str(MAX_INPUTS_PER_QUERY + 2) in entry.matches


# ----------------------------------------------------------------------
# Analyzer wiring
# ----------------------------------------------------------------------


#: Seed-rich: every piece of the inputs below hits so densely that the
#: pigeonhole probe declines, and the plain pipeline builds the query's
#: pruning tables.
SEED_RICH_QUERY = "abcabcabcabcabc"


def test_profile_cache_builds_once_and_reuses():
    nti = NTIAnalyzer()
    nti.analyze(SEED_RICH_QUERY, ctx("abcXYZ"))
    assert nti.filter_stats()["fallthrough_full_scan"] == 1
    profile = nti.cache.entry(SEED_RICH_QUERY).profile
    assert isinstance(profile, TextProfile)
    nti.analyze(SEED_RICH_QUERY, ctx("abcQRS"))
    assert nti.cache.entry(SEED_RICH_QUERY).profile is profile


def test_profile_cache_eviction():
    nti = NTIAnalyzer(NTIConfig(cache_size=1))
    nti.analyze(SEED_RICH_QUERY, ctx("abcXYZ"))
    profile = nti.cache.entry(SEED_RICH_QUERY).profile
    assert isinstance(profile, TextProfile)
    nti.analyze("SELECT 2 FROM u WHERE v='abcdefgh'", ctx("abcdefgX"))  # evicts
    assert SEED_RICH_QUERY not in nti.cache
    nti.analyze(SEED_RICH_QUERY, ctx("abcXYZ"))
    assert nti.cache.entry(SEED_RICH_QUERY).profile is not profile


def test_analyzer_caches_enabled_by_default():
    nti = NTIAnalyzer()
    assert nti.cache is not None
    assert nti.cache.capacity == NTIConfig().cache_size


def test_analyzer_caches_disabled_with_zero_sizes():
    nti = NTIAnalyzer(NTIConfig(cache_size=0))
    assert nti.cache is None
    # The ablation setting still analyzes correctly.
    payload = "-1 OR 1=1"
    assert not nti.analyze(
        f"SELECT * FROM t WHERE ID={payload}", ctx(payload)
    ).safe
    # No cache section (the prefilter counters are filter_stats()).
    assert nti.cache_stats() == {}


def test_repeat_analysis_hits_match_cache():
    nti = NTIAnalyzer()
    query = "SELECT * FROM t WHERE ID=1"
    for __ in range(3):
        assert nti.analyze(query, ctx("1")).safe
    stats = nti.cache_stats()
    # Counted per query: one lookup per analyze call.
    assert stats["match"]["hits"] == 2
    assert stats["match"]["misses"] == 1
    assert stats["match"]["entries"] == 1
    assert stats["match"]["hit_rate"] == pytest.approx(2 / 3)


def test_one_cache_touch_per_query_not_per_input():
    nti = NTIAnalyzer()
    query = "SELECT * FROM t WHERE a=1 AND b=2 AND c=3"
    nti.analyze(query, ctx("1", "2", "3", "a=1", "zzz"))
    stats = nti.cache_stats()["match"]
    assert stats["hits"] + stats["misses"] == 1


def test_new_inputs_join_a_known_query_entry():
    nti = NTIAnalyzer()
    query = "SELECT * FROM t WHERE ID=1 OR 1=1"
    assert nti.analyze(query, ctx("1")).safe
    matches = nti.cache.entry(query).matches
    assert set(matches) == {"1"}
    verdict = nti.analyze(query, ctx("1", "1 OR 1=1"))
    assert not verdict.safe
    assert set(nti.cache.entry(query).matches) == {"1", "1 OR 1=1"}
    assert nti.cache.entry(query).matches["1 OR 1=1"] is not None


def test_cached_negatives_are_served_from_the_entry():
    nti = NTIAnalyzer()
    query = "SELECT * FROM t WHERE name='hello'"
    nti.analyze(query, ctx("zzzzzzzz"))
    entry = nti.cache.entry(query)
    assert "zzzzzzzz" in entry.matches and entry.matches["zzzzzzzz"] is None
    before = dict(nti.filter_stats())
    assert nti.analyze(query, ctx("zzzzzzzz")).safe
    # Served from the memo: the prefilter did no work the second time.
    assert nti.filter_stats() == before


def test_cached_verdicts_identical_to_uncached():
    """The cache ablation: verdicts must not depend on cache configuration."""
    plain = NTIAnalyzer(NTIConfig(cache_size=0))
    cached = NTIAnalyzer()
    cases = [
        ("SELECT * FROM t WHERE ID=1 LIMIT 5", ctx("1")),
        ("SELECT * FROM t WHERE ID=-1 OR 1=1", ctx("-1 OR 1=1")),
        ("SELECT 1 UNION SELECT 2", ctx("1 UNI")),
    ]
    for __ in range(2):  # second round exercises cache hits
        for query, context in cases:
            a = plain.analyze(query, context)
            b = cached.analyze(query, context)
            assert a.safe == b.safe
            assert a.markings == b.markings
            assert a.detections == b.detections


def test_engine_surfaces_nti_cache_stats():
    from repro.core import JozaEngine
    from repro.phpapp.context import RequestContext

    engine = JozaEngine.from_fragments(["SELECT * FROM t WHERE ID="])
    context = RequestContext(inputs=[CapturedInput("get", "id", "1")])
    engine.inspect("SELECT * FROM t WHERE ID=1", context)
    stats = engine.cache_stats()["nti"]
    assert set(stats) == {"match"}
    assert {"hits", "misses", "hit_rate", "entries"} <= set(stats["match"])
    assert not hasattr(engine, "nti_cache_stats")
    assert '"nti_caches"' in engine.export_attack_log()
