"""Concurrency chaos integration tests: swarms, saturation, no zombies.

The acceptance criteria of the thread-safety work (DESIGN.md section 10),
asserted end-to-end on the real engine:

- a barrier-started swarm (>= 8 threads x >= 25 queries each) interleaving
  hot/cold/attack/fault traffic with mid-flight fragment reloads produces
  **zero fail-open** verdicts and verdicts **identical to a serial
  replay** of the same seeded schedules;
- the same swarm over a :class:`~repro.pti.pool.DaemonPool` of real
  subprocess workers leaves **no zombie children** after ``close()``;
- under forced saturation every shed request yields a recorded
  fail-closed verdict carrying a ``shed`` reason, and p95 inspect latency
  stays below the deadline plus scheduling epsilon.

Wall-clock discipline: seeded (CHAOS_SEED env, default 1337), small
pools, millisecond paces -- the whole module stays in CI smoke territory.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

from repro.core import (
    FailurePolicy,
    JozaConfig,
    JozaEngine,
    OverloadPolicy,
    ResilienceConfig,
)
from repro.phpapp.context import RequestContext
from repro.pti import DaemonPool, FragmentStore
from repro.pti.daemon import PTIDaemon
from repro.testbed.concurrency import (
    SWARM_FRAGMENTS,
    MarkerFaultDaemon,
    build_workload,
    diff_verdicts,
    fail_open_keys,
    run_swarm,
    serial_replay,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))


def make_marker_engine(policy=FailurePolicy.FAIL_CLOSED):
    """Engine over a content-keyed fault daemon (serial == concurrent)."""
    store = FragmentStore(SWARM_FRAGMENTS)
    daemon = MarkerFaultDaemon(PTIDaemon(store))
    config = JozaConfig(
        resilience=ResilienceConfig(
            deadline_seconds=5.0, failure_policy=policy
        ),
    )
    return JozaEngine(store, config, daemon=daemon)


# ---------------------------------------------------------------------------
# Tentpole: swarm == serial oracle, zero fail-open, under epoch churn
# ---------------------------------------------------------------------------


def test_swarm_with_reloads_matches_serial_replay_and_never_fails_open():
    threads, per_thread = 8, 25  # >= 200 queries total
    schedules = build_workload(CHAOS_SEED, threads, per_thread)
    engine = make_marker_engine()

    result = run_swarm(engine, schedules, mutator_reloads=40)

    assert result.errors == [], f"worker exceptions: {result.errors}"
    assert result.queries_run() == threads * per_thread
    assert result.reloads_performed > 0  # churn actually happened
    assert fail_open_keys(result.records, schedules) == []

    serial = serial_replay(make_marker_engine, schedules)
    divergences = diff_verdicts(result.records, serial)
    assert divergences == [], "\n".join(divergences[:10])

    # Attacks were genuinely detected (not vacuously absent from the mix).
    attack_keys = [
        (t, i)
        for t, schedule in enumerate(schedules)
        for i, item in enumerate(schedule)
        if item.is_attack
    ]
    assert attack_keys, "seeded workload produced no attacks"
    for key in attack_keys:
        record = result.records[key]
        assert not record.safe
        assert record.detected_by  # at least one technique fired

    # Fault-marked queries failed *closed*, with the failure recorded.
    fault_keys = [
        (t, i)
        for t, schedule in enumerate(schedules)
        for i, item in enumerate(schedule)
        if item.is_fault
    ]
    assert fault_keys, "seeded workload produced no faults"
    for key in fault_keys:
        record = result.records[key]
        assert not record.safe
        assert record.failsafe

    # The engine is still healthy after the storm.
    from repro.phpapp.context import CapturedInput

    verdict = engine.inspect(
        "SELECT * FROM records WHERE ID=1 LIMIT 5",
        RequestContext(inputs=[CapturedInput("get", "p0", "1")]),
    )
    assert verdict.safe

    # Stats survived the swarm internally consistent.
    cache = engine.daemon.inner.query_cache
    assert cache.stats.hits + cache.stats.misses == cache.stats.lookups


def test_swarm_stats_accounting_is_exact():
    """Every inspect call is accounted exactly once in queries_inspected."""
    threads, per_thread = 6, 20
    schedules = build_workload(CHAOS_SEED + 1, threads, per_thread)
    engine = make_marker_engine()
    result = run_swarm(engine, schedules, mutator_reloads=20)
    assert result.errors == []
    assert engine.stats.queries_checked == threads * per_thread


# ---------------------------------------------------------------------------
# Pool of real subprocess workers: equivalence + no zombie children
# ---------------------------------------------------------------------------


def test_pool_swarm_matches_serial_and_leaves_no_zombies():
    threads, per_thread = 4, 15
    # fault_rate=0: real children don't speak the chaos-marker protocol.
    schedules = build_workload(
        CHAOS_SEED + 2, threads, per_thread, fault_rate=0.0
    )
    store = FragmentStore(SWARM_FRAGMENTS)
    pool = DaemonPool(
        store,
        size=2,
        max_queue=32,
        admission_timeout=30.0,
        seed=CHAOS_SEED,
    )
    engine = JozaEngine(
        store,
        JozaConfig(
            resilience=ResilienceConfig(
                deadline_seconds=30.0,
                failure_policy=FailurePolicy.FAIL_CLOSED,
            )
        ),
        daemon=pool,
    )
    try:
        result = run_swarm(engine, schedules, mutator_reloads=10)
        assert result.errors == []
        assert fail_open_keys(result.records, schedules) == []

        snapshot = pool.resilience_snapshot()
        assert snapshot["sheds_total"] == 0  # sized to never shed here
        assert snapshot["checkouts"] > 0
        assert snapshot["replacements"] == 0

        # Oracle: the same schedules through a plain in-process daemon.
        serial = serial_replay(
            lambda: make_marker_engine(), schedules
        )
        divergences = diff_verdicts(result.records, serial)
        assert divergences == [], "\n".join(divergences[:10])
    finally:
        pool.close()
    pool.close()  # idempotent

    # Give exited children a beat to be reaped, then demand zero zombies.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Forced saturation: sheds are recorded fail-closed, latency stays bounded
# ---------------------------------------------------------------------------


class _SlowDaemon:
    """In-process worker with a fixed service time (saturation driver)."""

    def __init__(self, store: FragmentStore, pace: float) -> None:
        self.inner = PTIDaemon(store)
        self.pace = pace

    @property
    def store(self) -> FragmentStore:
        return self.inner.store

    def refresh_fragments(self, store: FragmentStore) -> None:
        self.inner.refresh_fragments(store)

    def analyze_batch(self, queries: list[str], deadline=None):
        time.sleep(self.pace)
        return self.inner.analyze_batch(queries, deadline=deadline)

    def close(self) -> None:  # pragma: no cover - nothing to reap
        pass


def test_forced_saturation_sheds_fail_closed_with_bounded_latency():
    deadline_seconds = 1.0
    store = FragmentStore(SWARM_FRAGMENTS)
    pool = DaemonPool(
        store,
        size=1,
        max_queue=0,  # in-flight bound of exactly 1: everyone else sheds
        admission_timeout=0.05,
        overload_policy=OverloadPolicy.SHED_FAIL_CLOSED,
        daemon_factory=lambda s, c, i: _SlowDaemon(s, pace=0.05),
    )
    engine = JozaEngine(
        store,
        JozaConfig(
            resilience=ResilienceConfig(
                deadline_seconds=deadline_seconds,
                failure_policy=FailurePolicy.FAIL_CLOSED,
            )
        ),
        daemon=pool,
    )

    threads = 8
    per_thread = 4
    barrier = threading.Barrier(threads)
    lock = threading.Lock()
    verdicts: list[object] = []
    latencies: list[float] = []

    def worker(index: int) -> None:
        barrier.wait(timeout=30.0)
        for i in range(per_thread):
            query = (
                f"SELECT * FROM records WHERE ID={index * 100 + i} LIMIT 5"
            )
            t0 = time.perf_counter()
            verdict = engine.inspect(query, RequestContext())
            dt = time.perf_counter() - t0
            with lock:
                verdicts.append(verdict)
                latencies.append(dt)

    pool_threads = [
        threading.Thread(target=worker, args=(t,), daemon=True)
        for t in range(threads)
    ]
    for t in pool_threads:
        t.start()
    for t in pool_threads:
        t.join(timeout=60.0)
        assert not t.is_alive(), "saturation worker deadlocked"
    pool.close()

    assert len(verdicts) == threads * per_thread  # nothing silently dropped

    shed_verdicts = [
        v
        for v in verdicts
        if any("shed" in reason for reason in v.failure_reasons)
    ]
    snapshot = pool.resilience_snapshot()
    assert snapshot["sheds_total"] > 0, "saturation never triggered a shed"
    # Every shed surfaced as exactly one recorded fail-closed verdict.
    assert len(shed_verdicts) == snapshot["sheds_total"]
    assert engine.stats.load_shed == snapshot["sheds_total"]
    for verdict in shed_verdicts:
        assert not verdict.safe
        assert verdict.failsafe

    # Sheds bound latency: p95 well under the deadline (+ scheduling eps).
    latencies.sort()
    p95 = latencies[min(len(latencies) - 1, int(0.95 * (len(latencies) - 1)))]
    assert p95 <= deadline_seconds + 0.25, f"p95 inspect latency {p95:.3f}s"

    report = engine.resilience_report()
    assert report["load_shed"] == snapshot["sheds_total"]
    assert report["daemon"]["sheds_total"] == snapshot["sheds_total"]
    assert report["daemon"]["saturation_wait_p95"] <= 0.1


def test_saturation_with_degrade_policy_yields_ntionly_verdicts():
    """DEGRADE_TO_OTHER_TECHNIQUE sheds degrade instead of blocking."""
    store = FragmentStore(SWARM_FRAGMENTS)
    pool = DaemonPool(
        store,
        size=1,
        max_queue=0,
        admission_timeout=0.05,
        overload_policy=OverloadPolicy.DEGRADE_TO_OTHER_TECHNIQUE,
        daemon_factory=lambda s, c, i: _SlowDaemon(s, pace=0.2),
    )
    engine = JozaEngine(
        store,
        JozaConfig(
            resilience=ResilienceConfig(
                deadline_seconds=2.0,
                failure_policy=FailurePolicy.FAIL_CLOSED,
            )
        ),
        daemon=pool,
    )

    release = threading.Event()

    def occupant() -> None:
        engine.inspect(
            "SELECT name FROM users WHERE id=1 LIMIT 1", RequestContext()
        )
        release.set()

    t = threading.Thread(target=occupant, daemon=True)
    t.start()
    time.sleep(0.05)  # let the occupant take the only worker
    verdict = engine.inspect(
        "SELECT * FROM records WHERE ID=2 LIMIT 5", RequestContext()
    )
    t.join(timeout=30.0)
    pool.close()

    assert any("shed" in reason for reason in verdict.failure_reasons)
    # No tainted inputs in the context -> NTI vouches; degrade, not block.
    assert verdict.safe
    assert verdict.degraded
    assert not verdict.failsafe
    assert release.is_set()
