"""Integration tests: the real subprocess PTI daemon over pipes."""

import pickle

import pytest

from repro.core import JozaConfig, JozaEngine, RetryPolicy, ShapeCacheConfig
from repro.phpapp import HttpRequest
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import (
    DaemonConfig,
    FragmentStore,
    PTIDaemon,
    SubprocessPTIDaemon,
    wire,
)
from repro.testbed import build_testbed, make_request, plugin_by_name
from tests.support.concurrency import MarkerFaultDaemon
from tests.support.faults import FakeClock, FaultSchedule, FlakyDaemon

FRAGMENTS = ["SELECT a FROM t WHERE id = ", " OR ", " LIMIT 5"]


def test_persistent_daemon_roundtrip():
    with SubprocessPTIDaemon(FragmentStore(FRAGMENTS)) as daemon:
        safe = daemon.analyze_query("SELECT a FROM t WHERE id = 1")
        assert safe.safe
        unsafe = daemon.analyze_query("SELECT a FROM t WHERE id = 1 UNION SELECT 2")
        assert not unsafe.safe
        assert unsafe.tokens is not None


def test_persistent_daemon_uses_child_caches():
    with SubprocessPTIDaemon(FragmentStore(FRAGMENTS)) as daemon:
        first = daemon.analyze_query("SELECT a FROM t WHERE id = 1")
        second = daemon.analyze_query("SELECT a FROM t WHERE id = 1")
        assert first.from_cache is None
        assert second.from_cache == "query"


def test_persistent_daemon_single_spawn():
    with SubprocessPTIDaemon(FragmentStore(FRAGMENTS)) as daemon:
        for i in range(5):
            daemon.analyze_query(f"SELECT a FROM t WHERE id = {i}")
        # Spawn happened once; IPC happened five times.
        assert daemon.counters.spawns == 1
        assert daemon.timings.spawn > 0
        assert daemon.timings.ipc > 0


def test_spawn_per_query_mode():
    daemon = SubprocessPTIDaemon(FragmentStore(FRAGMENTS), persistent=False)
    a = daemon.analyze_query("SELECT a FROM t WHERE id = 1")
    b = daemon.analyze_query("SELECT a FROM t WHERE id = 1")
    assert a.safe and b.safe
    # Every query pays its own spawn -> no cross-query cache hits.
    assert b.from_cache is None


def test_daemon_restarts_after_close():
    daemon = SubprocessPTIDaemon(FragmentStore(FRAGMENTS))
    assert daemon.analyze_query("SELECT a FROM t WHERE id = 1").safe
    daemon.close()
    assert daemon.analyze_query("SELECT a FROM t WHERE id = 2").safe
    daemon.close()


def test_engine_with_subprocess_daemon_blocks_attacks():
    app = build_testbed(num_posts=4)
    store = FragmentStore.from_sources(app.all_sources())
    with SubprocessPTIDaemon(store, DaemonConfig()) as daemon:
        engine = JozaEngine(store, JozaConfig(), daemon=daemon)
        app.install_guard(engine)
        benign = app.handle(HttpRequest(path="/post", get={"id": "1"}))
        assert benign.ok()
        defn = plugin_by_name("linklibrary")
        attack = app.handle(
            make_request(defn, "-1 UNION SELECT 1, user_pass, 3 FROM wp_users#")
        )
        assert attack.blocked
        assert engine.stats.attacks_blocked == 1


@pytest.mark.parametrize("matcher", ["scan", "automaton"])
def test_subprocess_daemon_matcher_parity(matcher):
    """The PTI matcher choice is pickled into the child and honoured there."""
    from repro.pti import PTIConfig

    config = DaemonConfig(
        use_query_cache=False,
        use_structure_cache=False,
        pti=PTIConfig(matcher=matcher),
    )
    with SubprocessPTIDaemon(FragmentStore(FRAGMENTS), config) as daemon:
        assert daemon.analyze_query("SELECT a FROM t WHERE id = 1").safe
        assert daemon.analyze_query("SELECT a FROM t WHERE id = 1 OR 2").safe
        unsafe = daemon.analyze_query(
            "SELECT a FROM t WHERE id = 1 UNION SELECT 2"
        )
        assert not unsafe.safe


def test_engine_pti_matcher_threads_into_subprocess_daemon():
    """``DaemonConfig(pti=PTIConfig(matcher=...))`` reaches the child's analyzer."""
    from repro.pti import PTIConfig

    app = build_testbed(num_posts=4)
    store = FragmentStore.from_sources(app.all_sources())
    cfg = JozaConfig(daemon=DaemonConfig(pti=PTIConfig(matcher="automaton")))
    assert cfg.daemon.pti.matcher == "automaton"
    with SubprocessPTIDaemon(store, cfg.daemon) as daemon:
        engine = JozaEngine(store, cfg, daemon=daemon)
        app.install_guard(engine)
        assert app.handle(HttpRequest(path="/post", get={"id": "1"})).ok()
        defn = plugin_by_name("linklibrary")
        attack = app.handle(
            make_request(defn, "-1 UNION SELECT 1, user_pass, 3 FROM wp_users#")
        )
        assert attack.blocked


@pytest.mark.parametrize(
    "frame",
    [
        # What the removed single-query protocol put on the pipe: one
        # pickled query string per message.
        lambda queries: pickle.dumps(queries[0]),
        # A packed store snapshot: the child has no in-place vocabulary
        # swap, so this too is a frame it does not answer.
        lambda queries: wire.pack_store_snapshot(FRAGMENTS + [queries[0]], 2),
    ],
    ids=["pickle", "snapshot"],
)
def test_non_request_frame_ends_the_child_loop(monkeypatch, frame):
    """The pipe speaks request frames only: anything else is never answered."""
    store = FragmentStore(FRAGMENTS)
    daemon = SubprocessPTIDaemon(store, retry=RetryPolicy(max_attempts=1))
    engine = JozaEngine(
        store, JozaConfig(shape=ShapeCacheConfig(enabled=False)), daemon=daemon
    )
    context = RequestContext(inputs=[CapturedInput("get", "id", "1")])
    try:
        assert engine.inspect("SELECT a FROM t WHERE id = 1", context).safe
        process = daemon._process
        monkeypatch.setattr(wire, "pack_batch_request", frame)
        verdict = engine.inspect("SELECT a FROM t WHERE id = 2", context)
        assert not verdict.safe and verdict.failsafe
        assert verdict.pti is None  # no verdict was made up for the frame
        process.join(timeout=5.0)
        assert not process.is_alive()  # the child ended its loop
        assert process.exitcode == 0
        assert daemon.counters.crashes == 1
    finally:
        daemon.close()


def test_every_backend_gives_the_engine_the_same_report_sections():
    """Each PTIBackend implements every member the engine calls, so an
    engine's reports have the same sections whatever its backend."""
    store = FragmentStore(FRAGMENTS)
    subprocess_daemon = SubprocessPTIDaemon(store)
    backends = {
        "in-process": PTIDaemon(store),
        "subprocess": subprocess_daemon,
        "marker": MarkerFaultDaemon(PTIDaemon(store)),
        "flaky": FlakyDaemon(PTIDaemon(store), FaultSchedule.none(), clock=FakeClock()),
    }
    context = RequestContext(inputs=[CapturedInput("get", "id", "1")])
    reports, caches = {}, {}
    try:
        for name, daemon in backends.items():
            engine = JozaEngine(store, daemon=daemon)
            assert engine.inspect("SELECT a FROM t WHERE id = 1", context).safe
            engine.daemon.refresh_fragments(FragmentStore(FRAGMENTS))
            assert engine.inspect("SELECT a FROM t WHERE id = 2", context).safe
            assert tuple(engine.daemon.timings.snapshot()) == wire.STAGES
            reports[name] = engine.resilience_report()
            caches[name] = engine.cache_stats()
    finally:
        subprocess_daemon.close()
    sections = set(reports["in-process"])
    assert {"daemon", "store", "nti_filter", "shape_fastpath", "batching"} <= sections
    for name in backends:
        assert set(reports[name]) == sections, name
        assert set(caches[name]) == {"nti", "pti", "shape"}, name
    # A subprocess daemon's caches live in its child; its fault counters
    # are the parent's.
    assert caches["subprocess"]["pti"] == {}
    assert set(caches["in-process"]["pti"]) == {"query", "structure", "matcher"}
    assert reports["subprocess"]["daemon"]["spawns"] == 2  # one per store
    assert reports["subprocess"]["daemon"]["breaker"]["state"] == "closed"
