"""Unit tests for the in-process PTI daemon (pipeline + caches)."""

from repro.pti import DaemonConfig, FragmentStore, PTIConfig, PTIDaemon, wire


def make_daemon(fragments=("SELECT a FROM t WHERE id = ", " OR "), **cfg):
    return PTIDaemon(FragmentStore(fragments), DaemonConfig(**cfg))


def test_safe_query_analyzed_and_cached():
    daemon = make_daemon()
    query = "SELECT a FROM t WHERE id = 5"
    first = daemon.analyze_query(query)
    assert first.result.safe and first.result.from_cache is None
    assert first.tokens is not None
    second = daemon.analyze_query(query)
    assert second.result.safe and second.result.from_cache == "query"
    # Query-cache hits return the cached token list (NTI reuse, IV-D).
    assert second.tokens is not None
    assert [t.text for t in second.tokens] == [t.text for t in first.tokens]


def test_structure_cache_serves_literal_variants():
    daemon = make_daemon()
    daemon.analyze_query("SELECT a FROM t WHERE id = 5")
    reply = daemon.analyze_query("SELECT a FROM t WHERE id = 777")
    assert reply.result.safe and reply.result.from_cache == "structure"
    assert reply.tokens is not None


def test_unsafe_verdicts_not_structure_cached():
    daemon = make_daemon(fragments=("SELECT a FROM t WHERE id = ",))
    attack = "SELECT a FROM t WHERE id = 1 UNION SELECT 2"
    reply = daemon.analyze_query(attack)
    assert not reply.result.safe
    # A literal variant of the same attack re-analyzes (no structure hit)...
    variant = "SELECT a FROM t WHERE id = 9 UNION SELECT 8"
    reply2 = daemon.analyze_query(variant)
    assert reply2.result.from_cache is None
    assert not reply2.result.safe
    # ...but the exact string is query-cached.
    reply3 = daemon.analyze_query(attack)
    assert reply3.result.from_cache == "query" and not reply3.result.safe


def test_caches_disabled():
    daemon = make_daemon(use_query_cache=False, use_structure_cache=False)
    query = "SELECT a FROM t WHERE id = 5"
    daemon.analyze_query(query)
    assert daemon.analyze_query(query).result.from_cache is None
    assert len(daemon.query_cache) == 0
    assert len(daemon.structure_cache) == 0


def test_structure_cache_only():
    daemon = make_daemon(use_query_cache=False, use_structure_cache=True)
    daemon.analyze_query("SELECT a FROM t WHERE id = 1")
    reply = daemon.analyze_query("SELECT a FROM t WHERE id = 2")
    assert reply.result.from_cache == "structure"


def test_refresh_fragments_invalidates_caches():
    daemon = make_daemon()
    query = "SELECT a FROM t WHERE id = 5"
    daemon.analyze_query(query)
    assert len(daemon.query_cache) == 1
    assert len(daemon.structure_cache) == 1
    store = FragmentStore([" UNION "])
    daemon.refresh_fragments(store)
    # New vocabulary no longer covers the query, nor a same-shape variant.
    assert not daemon.analyze_query(query).result.safe
    # The first lookup under the new store's epoch flushed each cache.
    for cache in (daemon.query_cache, daemon.structure_cache):
        assert cache.invalidations == 1
        assert cache.epoch == store.epoch
    variant = daemon.analyze_query("SELECT a FROM t WHERE id = 7")
    assert not variant.result.safe and variant.result.from_cache is None


def test_timings_accumulate():
    daemon = make_daemon()
    daemon.analyze_query("SELECT a FROM t WHERE id = 1")
    snapshot = daemon.timings.snapshot()
    assert tuple(snapshot) == wire.STAGES
    assert snapshot["parse"] > 0
    assert snapshot["match"] >= 0
    # In process: no child was spawned and no pipe crossed.
    assert snapshot["spawn"] == snapshot["ipc"] == 0
    daemon.timings.reset()
    assert sum(daemon.timings.snapshot().values()) == 0


def test_queries_analyzed_counter():
    daemon = make_daemon()
    daemon.analyze_query("SELECT a FROM t WHERE id = 1")
    daemon.analyze_query("SELECT a FROM t WHERE id = 1")
    assert daemon.queries_analyzed == 2


def test_unparseable_query_still_analyzed():
    daemon = make_daemon()
    reply = daemon.analyze_query("garbage OR 1=1 ((")
    assert not reply.result.safe


def test_unoptimized_config_same_verdicts():
    optimized = make_daemon()
    unoptimized = PTIDaemon(
        FragmentStore(("SELECT a FROM t WHERE id = ", " OR ")),
        DaemonConfig(
            use_query_cache=False,
            use_structure_cache=False,
            pti=PTIConfig(use_mru=False, use_token_index=False),
        ),
    )
    for query in (
        "SELECT a FROM t WHERE id = 1",
        "SELECT a FROM t WHERE id = 1 OR 2",
        "SELECT a FROM t WHERE id = 1 UNION SELECT 2",
    ):
        assert (
            optimized.analyze_query(query).result.safe
            == unoptimized.analyze_query(query).result.safe
        )


# ---------------------------------------------------------------------------
# Structure-cache fail-open regressions, through the default engine.  A
# benign instance of the same token signature used to warm the cache and
# let the attack through as a structure hit, with NTI evaded by padding the
# raw input (the trim vector).
# ---------------------------------------------------------------------------


def _inspect_after_warm(fragments, warm, attack, raw):
    from repro.core import JozaEngine
    from repro.phpapp.context import CapturedInput, RequestContext

    def ctx(value):
        return RequestContext(inputs=[CapturedInput("get", "p", value)])

    fresh = JozaEngine.from_fragments(fragments).inspect(attack, ctx(raw))
    assert not fresh.safe
    engine = JozaEngine.from_fragments(fragments)
    assert engine.inspect(warm, ctx("1")).safe
    return engine.inspect(attack, ctx(raw))


def test_structure_cache_respects_whitespace():
    verdict = _inspect_after_warm(
        ["SELECT x FROM t WHERE a = ", " OR b = "],
        "SELECT x FROM t WHERE a = 1 OR b = 2",
        "SELECT x FROM t WHERE a = 7 OR  b = 7",
        " " * 24 + "7 OR  b = 7" + " " * 24,
    )
    assert not verdict.safe
    assert verdict.pti.from_cache != "structure"


def test_structure_cache_rechecks_literal_spanning_coverage():
    verdict = _inspect_after_warm(
        [
            "SELECT * FROM posts WHERE status = 'publish' AND slug = '",
            "'",
            "SELECT * FROM posts WHERE status = '",
        ],
        "SELECT * FROM posts WHERE status = 'publish' AND slug = 'hello'",
        "SELECT * FROM posts WHERE status = 'draft' AND slug = 'x'",
        " " * 30 + "draft' AND slug = 'x" + " " * 30,
    )
    assert not verdict.safe
    assert verdict.pti.from_cache != "structure"


def test_structure_hit_rechecks_crossing_witness_in_place():
    daemon = make_daemon(
        fragments=("SELECT a FROM t WHERE b = 'on' AND id = ", " = "),
    )
    assert daemon.analyze_query("SELECT a FROM t WHERE b = 'on' AND id = 1").result.safe
    # Same literal where the witness crosses it: re-proven, served cached.
    again = daemon.analyze_query("SELECT a FROM t WHERE b = 'on' AND id = 99")
    assert again.result.safe and again.result.from_cache == "structure"
    # Different literal there: the re-proof fails, full analysis decides.
    other = daemon.analyze_query("SELECT a FROM t WHERE b = 'off' AND id = 1")
    assert not other.result.safe and other.result.from_cache is None
    stats = daemon.structure_cache.stats
    assert (stats.hits, stats.misses) == (1, 2)
