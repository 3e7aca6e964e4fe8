"""Unit tests for ``JozaEngine.inspect_batch`` (batch-amortised hot path).

The batch API's contract: verdict-equivalent to serial ``inspect`` calls
(the property suite proves that over generated mixes; here we pin the
mechanics), one pinned fragment-store epoch per batch, one daemon exchange
for the batch's cold queries, the same fail-closed resolution as the
serial path when that exchange fails, and batch-aware counters on every
introspection surface.
"""

import pytest

from repro.core import JozaConfig, JozaEngine, ShapeCacheConfig
from repro.core.resilience import DaemonUnavailable, Deadline
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore
from repro.pti.daemon import DaemonConfig, PTIDaemon
from repro.pti.inference import PTIAnalyzer

FRAGMENTS = ["SELECT * FROM records WHERE ID=", " LIMIT 5", " OR ", " = "]

SAFE_QUERIES = [
    "SELECT * FROM records WHERE ID=1 LIMIT 5",
    "SELECT * FROM records WHERE ID=42 LIMIT 5",
    "SELECT * FROM records WHERE ID=777 LIMIT 5",
]
ATTACK_QUERY = "SELECT * FROM records WHERE ID=1 OR 1=1 LIMIT 5"


def ctx(*values):
    return RequestContext(
        inputs=[CapturedInput("get", f"p{i}", v) for i, v in enumerate(values)]
    )


# ---------------------------------------------------------------------------
# Equivalence mechanics
# ---------------------------------------------------------------------------


def test_batch_matches_serial_verdicts():
    queries = SAFE_QUERIES + [ATTACK_QUERY] + SAFE_QUERIES[:1]
    context = ctx("1 OR 1=1")
    serial_engine = JozaEngine.from_fragments(FRAGMENTS)
    serial = [serial_engine.inspect(q, context) for q in queries]
    batch_engine = JozaEngine.from_fragments(FRAGMENTS)
    batch = batch_engine.inspect_batch(queries, context)
    assert [v.safe for v in batch] == [v.safe for v in serial]
    assert [v.detected_by() for v in batch] == [v.detected_by() for v in serial]


def test_empty_batch_is_a_no_op():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    assert engine.inspect_batch([], ctx()) == []
    assert engine.stats.batch_calls == 0


def test_batch_counters_have_one_report_section():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    engine.inspect_batch(SAFE_QUERIES, ctx("1"))
    assert engine.stats.batch_calls == 1
    assert engine.stats.batch_queries == len(SAFE_QUERIES)
    assert engine.stats.batch_daemon_batches == 1  # one exchange for all cold
    assert engine.stats.queries_checked == len(SAFE_QUERIES)
    assert engine.resilience_report()["batching"] == {
        "batch_calls": 1,
        "batch_queries": len(SAFE_QUERIES),
        "batch_daemon_batches": 1,
    }
    # Not a cache reading: cache_stats() does not repeat the section.
    assert "batching" not in engine.cache_stats()


def test_second_batch_serves_warm_shapes_without_daemon_exchange():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    engine.inspect_batch(SAFE_QUERIES, ctx("1"))
    built = engine.stats.shape_plans_built
    assert built >= 1
    engine.inspect_batch(SAFE_QUERIES, ctx("1"))
    assert engine.stats.shape_hits >= len(SAFE_QUERIES)
    # Every query of the second batch hit the fast path: no cold queries,
    # hence no second daemon exchange.
    assert engine.stats.batch_daemon_batches == 1
    assert engine.stats.shape_plans_built == built


# ---------------------------------------------------------------------------
# Daemon interaction
# ---------------------------------------------------------------------------


class RecordingBatchDaemon(PTIDaemon):
    """In-process daemon recording every ``analyze_batch`` call."""

    def __init__(self, store):
        super().__init__(store, DaemonConfig())
        self.batches = []

    def analyze_batch(self, queries, deadline=None):
        self.batches.append(list(queries))
        return super().analyze_batch(queries, deadline=deadline)


def test_cold_queries_share_one_daemon_exchange():
    store = FragmentStore(FRAGMENTS)
    engine = JozaEngine(store, JozaConfig())
    daemon = RecordingBatchDaemon(store)
    engine.daemon = daemon
    queries = SAFE_QUERIES + [ATTACK_QUERY]
    engine.inspect_batch(queries, ctx("x"))
    assert daemon.batches == [queries]  # one call carrying every cold query


def test_inspect_reaches_the_daemon_only_through_analyze_batch():
    store = FragmentStore(FRAGMENTS)
    engine = JozaEngine(store, JozaConfig())
    daemon = RecordingBatchDaemon(store)
    engine.daemon = daemon
    engine.inspect(SAFE_QUERIES[0], ctx("1"))
    assert daemon.batches == [[SAFE_QUERIES[0]]]
    # inspect keeps its own fixed costs: no batch counter moves.
    assert engine.resilience_report()["batching"] == {
        "batch_calls": 0,
        "batch_queries": 0,
        "batch_daemon_batches": 0,
    }


def test_failed_batch_exchange_fails_closed_per_query():
    class DeadBatchDaemon:
        store = FragmentStore(FRAGMENTS)
        analyzer = PTIAnalyzer(store)

        def analyze_batch(self, queries, deadline=None):
            raise DaemonUnavailable("injected batch outage")

    engine = JozaEngine.from_fragments(FRAGMENTS)
    engine.daemon = DeadBatchDaemon()
    verdicts = engine.inspect_batch(SAFE_QUERIES, ctx("1"))
    # FAIL_CLOSED default: every query of the failed batch is blocked with
    # a recorded failsafe, none sails through unanalysed.
    assert all(not v.safe and v.failsafe for v in verdicts)
    assert engine.stats.failsafe_blocks == len(SAFE_QUERIES)


def test_batch_reply_count_mismatch_fails_closed():
    class ShortReplyDaemon:
        def __init__(self, inner):
            self.inner = inner
            self.store = inner.store
            self.analyzer = inner.analyzer

        def analyze_batch(self, queries, deadline=None):
            return [self.inner.analyze_query(queries[0], deadline=deadline)]

    store = FragmentStore(FRAGMENTS)
    engine = JozaEngine(store, JozaConfig())
    engine.daemon = ShortReplyDaemon(PTIDaemon(store, DaemonConfig()))
    verdicts = engine.inspect_batch(SAFE_QUERIES, ctx("1"))
    assert all(not v.safe and v.failsafe for v in verdicts)


# ---------------------------------------------------------------------------
# Epoch pinning
# ---------------------------------------------------------------------------


def test_batch_pins_one_epoch_and_mutation_invalidates_after():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    engine.inspect_batch(SAFE_QUERIES, ctx("1"))
    planted = len(engine.shape_cache)
    assert planted >= 1
    # Store swap after the batch: the next batch pins the new store's
    # epoch and finds every old-store plan flushed -- a batch can never
    # mix plans from two vocabularies.
    engine.daemon.refresh_fragments(
        FragmentStore([*FRAGMENTS, "ZZZ_UNRELATED_FRAGMENT_"])
    )
    hits = engine.stats.shape_hits
    verdicts = engine.inspect_batch(SAFE_QUERIES, ctx("1"))
    assert engine.stats.shape_hits == hits
    assert all(v.pti.from_cache != "shape" for v in verdicts)
    stats = engine.shape_cache.snapshot_stats()
    assert stats["epoch"] == float(engine.store.epoch)
    engine.inspect_batch(SAFE_QUERIES, ctx("1"))
    stats = engine.shape_cache.snapshot_stats()
    assert stats["entries"] >= 1.0  # re-planted under the new epoch


def test_one_deadline_bounds_the_whole_batch():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    expired = Deadline(0.0)
    verdicts = engine.inspect_batch(SAFE_QUERIES, ctx("1"), deadline=expired)
    assert all(not v.safe and v.failsafe for v in verdicts)
    assert engine.stats.deadline_exceeded >= 1
