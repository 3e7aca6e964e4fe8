"""Unit tests for the PTI daemon pool (admission, shedding, replacement).

Workers here are in-process fakes injected through ``daemon_factory`` so
the pool mechanics (bounded admission, deadline-aware checkout, overload
policy, health-based replacement, close semantics) are tested without
child processes; the real-subprocess path is covered by the integration
chaos suite.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import JozaEngine
from repro.core.resilience import (
    DaemonCrash,
    DaemonUnavailable,
    Deadline,
    OverloadPolicy,
    PoolSaturated,
)
from repro.core.policy import JozaConfig, ResilienceConfig
from repro.core.resilience import FailurePolicy
from repro.phpapp.context import RequestContext
from repro.pti import DaemonPool, FragmentStore
from repro.pti.daemon import DaemonReply, PTIDaemon

FRAGMENTS = ["SELECT * FROM t WHERE id=", " LIMIT 1"]
SAFE_QUERY = "SELECT * FROM t WHERE id=1 LIMIT 1"


class InProcessWorker:
    """Pool-compatible fake: a real in-process PTIDaemon per worker."""

    def __init__(self, store, config, index):
        self.inner = PTIDaemon(store, config)
        self.index = index
        self.closed = False
        self.refreshes = 0

    def analyze_batch(self, queries, deadline=None) -> list[DaemonReply]:
        return self.inner.analyze_batch(queries, deadline=deadline)

    def refresh_fragments(self, store):
        self.refreshes += 1
        self.inner.refresh_fragments(store)

    def close(self):
        self.closed = True


class BlockingWorker(InProcessWorker):
    """Holds every request until released (saturation scenarios)."""

    def __init__(self, store, config, index):
        super().__init__(store, config, index)
        self.release = threading.Event()
        self.entered = threading.Event()

    def analyze_batch(self, queries, deadline=None) -> list[DaemonReply]:
        self.entered.set()
        assert self.release.wait(timeout=30.0), "test forgot to release"
        return super().analyze_batch(queries, deadline=deadline)


class FailingWorker(InProcessWorker):
    """Fails every request with a typed daemon crash."""

    def analyze_batch(self, queries, deadline=None) -> list[DaemonReply]:
        raise DaemonCrash("fake worker crash")


def make_pool(factory_cls=InProcessWorker, **kwargs):
    store = FragmentStore(FRAGMENTS)
    created: list = []

    def factory(store, config, index):
        worker = factory_cls(store, config, index)
        created.append(worker)
        return worker

    pool = DaemonPool(store, daemon_factory=factory, **kwargs)
    return pool, created


# ---------------------------------------------------------------------------
# Basic service + concurrency
# ---------------------------------------------------------------------------


def test_pool_serves_queries_and_counts_checkouts():
    pool, _created = make_pool(size=2)
    reply = pool.analyze_query(SAFE_QUERY)
    assert reply.safe
    assert pool.checkouts == 1
    snap = pool.resilience_snapshot()
    assert snap["pool_size"] == 2
    assert snap["sheds_total"] == 0
    assert len(snap["workers"]) == 2
    pool.close()


def test_pool_parallel_requests_use_distinct_workers():
    pool, created = make_pool(BlockingWorker, size=2, max_queue=2)
    results: list[bool] = []
    lock = threading.Lock()

    def call():
        reply = pool.analyze_query(SAFE_QUERY)
        with lock:
            results.append(reply.safe)

    threads = [threading.Thread(target=call, daemon=True) for _ in range(2)]
    for t in threads:
        t.start()
    # Both requests must be in service simultaneously: two workers entered.
    for worker in created:
        assert worker.entered.wait(timeout=10.0)
    for worker in created:
        worker.release.set()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert results == [True, True]
    pool.close()


# ---------------------------------------------------------------------------
# Backpressure + shedding
# ---------------------------------------------------------------------------


def test_pool_sheds_fail_closed_when_admission_queue_full():
    pool, created = make_pool(BlockingWorker, size=1, max_queue=0)
    done = threading.Event()

    def occupant():
        pool.analyze_query(SAFE_QUERY)
        done.set()

    t = threading.Thread(target=occupant, daemon=True)
    t.start()
    assert created[0].entered.wait(timeout=10.0)
    # Worker busy and no queue slots: immediate shed, fail-closed default.
    with pytest.raises(PoolSaturated) as err:
        pool.analyze_query(SAFE_QUERY)
    assert err.value.shed is True
    assert err.value.fail_closed is True
    assert "shed" in err.value.reason
    assert pool.sheds_queue_full == 1
    created[0].release.set()
    assert done.wait(timeout=10.0)
    t.join(timeout=10.0)
    pool.close()


def test_pool_sheds_when_no_worker_frees_within_timeout():
    pool, created = make_pool(
        BlockingWorker, size=1, max_queue=2, admission_timeout=0.05
    )
    t = threading.Thread(
        target=lambda: pool.analyze_query(SAFE_QUERY), daemon=True
    )
    t.start()
    assert created[0].entered.wait(timeout=10.0)
    with pytest.raises(PoolSaturated) as err:
        pool.analyze_query(SAFE_QUERY)
    assert "no free worker" in err.value.reason
    assert pool.sheds_no_worker == 1
    snap = pool.resilience_snapshot()
    assert snap["saturation_wait_p95"] >= 0.0
    created[0].release.set()
    t.join(timeout=10.0)
    pool.close()


def test_pool_checkout_respects_query_deadline():
    pool, created = make_pool(
        BlockingWorker, size=1, max_queue=2, admission_timeout=30.0
    )
    t = threading.Thread(
        target=lambda: pool.analyze_query(SAFE_QUERY), daemon=True
    )
    t.start()
    assert created[0].entered.wait(timeout=10.0)
    # The wait is clamped to the query's remaining budget, not the (long)
    # admission timeout.
    with pytest.raises(PoolSaturated):
        pool.analyze_query(SAFE_QUERY, deadline=Deadline(0.05))
    created[0].release.set()
    t.join(timeout=10.0)
    pool.close()


def test_pool_degrade_policy_marks_shed_degradable():
    pool, created = make_pool(
        BlockingWorker,
        size=1,
        max_queue=0,
        overload_policy=OverloadPolicy.DEGRADE_TO_OTHER_TECHNIQUE,
    )
    t = threading.Thread(
        target=lambda: pool.analyze_query(SAFE_QUERY), daemon=True
    )
    t.start()
    assert created[0].entered.wait(timeout=10.0)
    with pytest.raises(PoolSaturated) as err:
        pool.analyze_query(SAFE_QUERY)
    assert err.value.fail_closed is False
    created[0].release.set()
    t.join(timeout=10.0)
    pool.close()


# ---------------------------------------------------------------------------
# Health-based replacement
# ---------------------------------------------------------------------------


def test_pool_replaces_worker_after_consecutive_failures():
    pool, created = make_pool(FailingWorker, size=1, replace_after=2)
    for _ in range(2):
        with pytest.raises(DaemonCrash):
            pool.analyze_query(SAFE_QUERY)
    assert pool.replacements == 1
    assert created[0].closed is True  # old worker torn down
    assert len(created) == 2  # fresh worker built
    pool.close()


def test_pool_success_resets_failure_streak(monkeypatch):
    pool, created = make_pool(InProcessWorker, size=1, replace_after=2)
    original = InProcessWorker.analyze_batch
    fail_next = {"value": True}

    def flaky(self, queries, deadline=None):
        if fail_next["value"]:
            fail_next["value"] = False
            raise DaemonCrash("transient")
        return original(self, queries, deadline=deadline)

    monkeypatch.setattr(InProcessWorker, "analyze_batch", flaky)
    with pytest.raises(DaemonCrash):
        pool.analyze_query(SAFE_QUERY)
    assert pool.analyze_query(SAFE_QUERY).safe
    fail_next["value"] = True
    with pytest.raises(DaemonCrash):
        pool.analyze_query(SAFE_QUERY)
    # Streak was 1-0-1, never 2: no replacement.
    assert pool.replacements == 0
    assert len(created) == 1
    pool.close()


# ---------------------------------------------------------------------------
# Fragment refresh + lifecycle
# ---------------------------------------------------------------------------


def test_pool_refresh_fragments_propagates_on_next_checkout():
    pool, created = make_pool(size=1)
    assert pool.analyze_query(SAFE_QUERY).safe
    new_store = FragmentStore(FRAGMENTS + ["SELECT 1"])
    pool.refresh_fragments(new_store)
    assert pool.store is new_store
    assert pool.analyze_query("SELECT 1").safe
    assert created[0].refreshes == 1
    pool.close()


def test_steady_state_checkouts_perform_zero_refreshes():
    """The tentpole hot-path gate: no refresh round-trips without a bump.

    Every checkout under steady-state traffic must be a single generation
    compare -- the per-worker refresh counter and the pool's ``refreshes``
    counter stay at zero no matter how many requests flow.
    """
    pool, created = make_pool(size=2)
    for _ in range(50):
        assert pool.analyze_query(SAFE_QUERY).safe
    assert pool.checkouts == 50
    assert pool.refreshes == 0
    assert all(worker.refreshes == 0 for worker in created)
    snap = pool.resilience_snapshot()
    assert snap["refreshes"] == 0
    assert snap["generation"] == 0
    pool.close()


def test_epoch_bump_refreshes_each_worker_exactly_once():
    """One generation bump costs exactly one refresh per worker, pushed at
    bump time (free workers) or at release (in-flight) -- never again on
    subsequent checkouts."""
    pool, created = make_pool(size=2)
    for _ in range(10):
        pool.analyze_query(SAFE_QUERY)
    pool.refresh_fragments(FragmentStore(FRAGMENTS + ["SELECT 1"]))
    # Free workers were pushed synchronously by the bump itself.
    assert pool.refreshes == 2
    assert pool.snapshot_pushes == 2
    for _ in range(50):
        pool.analyze_query(SAFE_QUERY)
    assert pool.refreshes == 2  # steady state again: zero further refreshes
    assert all(worker.refreshes == 1 for worker in created)
    pool.close()


def test_pool_close_is_idempotent_and_refuses_new_work():
    pool, created = make_pool(size=2)
    pool.close()
    pool.close()
    assert all(worker.closed for worker in created)
    with pytest.raises(DaemonUnavailable):
        pool.analyze_query(SAFE_QUERY)


def test_pool_close_during_inflight_reaps_late_worker():
    pool, created = make_pool(BlockingWorker, size=1)
    t = threading.Thread(
        target=lambda: pool.analyze_query(SAFE_QUERY), daemon=True
    )
    t.start()
    assert created[0].entered.wait(timeout=10.0)
    pool.close()  # free list is empty; in-flight worker returns later
    created[0].release.set()
    t.join(timeout=10.0)
    assert not t.is_alive()
    assert created[0].closed is True  # reaped on release, not leaked


def test_pool_rejects_bad_configuration():
    store = FragmentStore(FRAGMENTS)
    with pytest.raises(ValueError):
        DaemonPool(store, size=0)
    with pytest.raises(ValueError):
        DaemonPool(store, max_queue=-1)
    with pytest.raises(ValueError):
        DaemonPool(store, admission_timeout=0)
    with pytest.raises(ValueError):
        DaemonPool(store, replace_after=0)


# ---------------------------------------------------------------------------
# Engine integration: sheds become recorded verdicts
# ---------------------------------------------------------------------------


def engine_over(pool, policy=FailurePolicy.FAIL_CLOSED):
    return JozaEngine(
        pool.store,
        JozaConfig(resilience=ResilienceConfig(failure_policy=policy)),
        daemon=pool,
    )


def test_engine_resolves_fail_closed_shed_as_failsafe_with_shed_reason():
    pool, created = make_pool(BlockingWorker, size=1, max_queue=0)
    engine = engine_over(pool)
    t = threading.Thread(
        target=lambda: pool.analyze_query(SAFE_QUERY), daemon=True
    )
    t.start()
    assert created[0].entered.wait(timeout=10.0)
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    assert not verdict.safe
    assert verdict.failsafe
    assert any("shed" in reason for reason in verdict.failure_reasons)
    assert engine.stats.load_shed == 1
    assert engine.stats.failsafe_blocks == 1
    report = engine.resilience_report()
    assert report["load_shed"] == 1
    assert report["daemon"]["sheds_total"] == 1
    created[0].release.set()
    t.join(timeout=10.0)
    pool.close()


def test_engine_degrades_to_nti_when_pool_policy_allows():
    pool, created = make_pool(
        BlockingWorker,
        size=1,
        max_queue=0,
        overload_policy=OverloadPolicy.DEGRADE_TO_OTHER_TECHNIQUE,
    )
    # Engine policy is fail-closed; the pool-level opt-in still permits an
    # NTI-only degraded verdict for shed queries.
    engine = engine_over(pool, policy=FailurePolicy.FAIL_CLOSED)
    t = threading.Thread(
        target=lambda: pool.analyze_query(SAFE_QUERY), daemon=True
    )
    t.start()
    assert created[0].entered.wait(timeout=10.0)
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    assert verdict.safe  # NTI-only: no inputs, nothing to flag
    assert verdict.degraded
    assert not verdict.failsafe
    assert engine.stats.load_shed == 1
    assert engine.stats.degraded_verdicts == 1
    created[0].release.set()
    t.join(timeout=10.0)
    pool.close()


def test_shed_never_triggers_in_process_fallback():
    pool, created = make_pool(BlockingWorker, size=1, max_queue=0)
    engine = engine_over(pool, policy=FailurePolicy.FALLBACK_IN_PROCESS)
    t = threading.Thread(
        target=lambda: pool.analyze_query(SAFE_QUERY), daemon=True
    )
    t.start()
    assert created[0].entered.wait(timeout=10.0)
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    # Shedding means "do not do this work here": the in-process fallback
    # must not resurrect it, so the verdict is failsafe, not degraded.
    assert not verdict.safe
    assert verdict.failsafe
    assert engine._fallback_daemon is None
    created[0].release.set()
    t.join(timeout=10.0)
    pool.close()
