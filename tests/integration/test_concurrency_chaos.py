"""Concurrency chaos integration tests: swarms, serial replay, no zombies.

The acceptance criteria of the thread-safety work (DESIGN.md section 10),
asserted end-to-end on the real engine:

- a barrier-started swarm (>= 8 threads x >= 25 queries each) interleaving
  hot/cold/attack/fault traffic with mid-flight store swaps
  (``refresh_fragments``) produces **zero fail-open** verdicts and
  verdicts **identical to a serial replay** of the same seeded schedules;
- the same swarm with every thread sharing one persistent
  :class:`~repro.pti.daemon.SubprocessPTIDaemon` child per vocabulary
  gives the serial verdicts too, no swap fails an exchange, and it leaves
  **no child process** after ``close()``.

Wall-clock discipline: seeded (CHAOS_SEED env, default 1337), small
swarms -- the whole module stays in CI smoke territory.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.core import JozaConfig, JozaEngine, ResilienceConfig
from repro.phpapp.context import RequestContext
from repro.pti import FragmentStore, SubprocessPTIDaemon
from repro.pti.daemon import PTIDaemon
from tests.support.concurrency import (
    SWARM_FRAGMENTS,
    MarkerFaultDaemon,
    build_workload,
    diff_verdicts,
    fail_open_keys,
    run_swarm,
    serial_replay,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))


def make_marker_engine():
    """Engine over a content-keyed fault daemon (serial == concurrent)."""
    store = FragmentStore(SWARM_FRAGMENTS)
    daemon = MarkerFaultDaemon(PTIDaemon(store))
    config = JozaConfig(resilience=ResilienceConfig(deadline_seconds=5.0))
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
# One real subprocess child (per vocabulary) shared by every thread:
# equivalence + no zombies, under store swaps
# ---------------------------------------------------------------------------


def test_one_child_swarm_matches_serial_and_leaves_no_zombies():
    threads, per_thread = 4, 15
    # fault_rate=0: real children don't speak the chaos-marker protocol.
    schedules = build_workload(
        CHAOS_SEED + 2, threads, per_thread, fault_rate=0.0
    )
    store = FragmentStore(SWARM_FRAGMENTS)
    daemon = SubprocessPTIDaemon(store, recv_timeout=30.0, seed=CHAOS_SEED)
    engine = JozaEngine(
        store,
        JozaConfig(resilience=ResilienceConfig(deadline_seconds=30.0)),
        daemon=daemon,
    )
    try:
        result = run_swarm(engine, schedules, mutator_reloads=10)
        assert result.errors == []
        assert result.reloads_performed > 0
        assert fail_open_keys(result.records, schedules) == []

        snapshot = daemon.resilience_snapshot()
        # One child per vocabulary served every thread: each store swap
        # retires the child once its exchange in flight has finished, and
        # the next exchange spawns one over the new store.
        assert 1 <= snapshot["spawns"] <= 1 + result.reloads_performed
        assert snapshot["batches"] > 0
        assert snapshot["crashes"] == snapshot["timeouts"] == 0
        assert snapshot["unavailable"] == 0  # no swap ever failed a batch

        # Oracle: the same schedules through a plain in-process daemon.
        serial = serial_replay(make_marker_engine, schedules)
        divergences = diff_verdicts(result.records, serial)
        assert divergences == [], "\n".join(divergences[:10])
    finally:
        daemon.close()
    daemon.close()  # idempotent

    # Give the exited child a beat to be reaped, then demand zero zombies.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
