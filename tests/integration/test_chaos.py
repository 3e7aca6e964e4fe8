"""Chaos integration tests: seeded fault schedules against the real stack.

These run the *production* ``SubprocessPTIDaemon`` recovery machinery
against children that genuinely crash, hang, reply slowly, reply garbage,
and die deterministically on poison queries (``ChaosPTIDaemon`` injects
only child-side).  Assertions are the acceptance criteria of the failure
model:

- zero fail-open executions under any schedule (every query gets a
  verdict; unsafe ones are blocked);
- bounded guard latency under hang injection (p95 <= deadline + epsilon);
- the circuit breaker re-closes after faults stop;
- ``close()`` never leaves a zombie, whatever state the child is in.

Wall-clock discipline: schedules are seeded (CHAOS_SEED env, default 1337)
and hang/timeout knobs are kept tight so the whole module stays in CI
smoke-job territory.
"""

import os
import time

from repro.core import (
    CircuitBreaker,
    JozaConfig,
    JozaEngine,
    ResilienceConfig,
    RetryPolicy,
    ShapeCacheConfig,
)
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore
from tests.support.faults import (
    POISON_MARKER,
    ChaosPTIDaemon,
    FaultKind,
    FaultSchedule,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))
FRAGMENTS = ["SELECT a FROM t WHERE id = ", " OR ", "SELECT * FROM posts WHERE slug = "]


def make_engine(
    schedule,
    *,
    deadline=2.0,
    recv_timeout=0.5,
    hang_seconds=8.0,
    retry=None,
    breaker=None,
):
    store = FragmentStore(FRAGMENTS)
    daemon = ChaosPTIDaemon(
        store,
        schedule=schedule,
        hang_seconds=hang_seconds,
        recv_timeout=recv_timeout,
        retry=retry or RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.05),
        breaker=breaker,
        seed=CHAOS_SEED,
    )
    config = JozaConfig(
        resilience=ResilienceConfig(deadline_seconds=deadline),
        # The chaos suite exercises the daemon recovery machinery; the
        # query-shape fast path would legitimately serve repeated shapes
        # without touching the (faulty) daemon and starve the schedules.
        shape=ShapeCacheConfig(enabled=False),
    )
    return JozaEngine(store, config, daemon=daemon), daemon


def drive(engine, n, attack_every=5):
    """Replay a benign/attack mix; return (verdicts, per-query seconds)."""
    verdicts, latencies = [], []
    for i in range(n):
        if attack_every and i % attack_every == attack_every - 1:
            query = f"SELECT a FROM t WHERE id = {i} UNION SELECT {i}"
            context = RequestContext(
                inputs=[CapturedInput("get", "id", f"{i} UNION SELECT {i}")]
            )
            is_attack = True
        else:
            query = f"SELECT a FROM t WHERE id = {i}"
            context = RequestContext(inputs=[CapturedInput("get", "id", str(i))])
            is_attack = False
        t0 = time.perf_counter()
        verdict = engine.inspect(query, context)
        latencies.append(time.perf_counter() - t0)
        verdicts.append((is_attack, verdict))
    return verdicts, latencies


def assert_never_fail_open(verdicts):
    for is_attack, verdict in verdicts:
        if is_attack:
            assert not verdict.safe, "attack executed despite faults (FAIL OPEN)"
        if verdict.safe:
            assert not verdict.failsafe


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * q), len(ordered) - 1)]


def test_seeded_crash_corrupt_slow_schedule_never_fails_open():
    schedule = FaultSchedule.seeded(CHAOS_SEED, length=60, rate=0.35)
    engine, daemon = make_engine(schedule)
    with daemon:
        verdicts, _ = drive(engine, 30)
    assert_never_fail_open(verdicts)
    assert engine.stats.queries_checked == 30
    # The schedule actually fired (this seed injects faults, and the
    # runtime absorbed at least some via respawn/retry).
    snapshot = daemon.resilience_snapshot()
    assert snapshot["crashes"] + snapshot["corrupt_replies"] > 0
    assert snapshot["spawns"] >= 2  # at least one respawn happened


def test_hang_injection_keeps_p95_latency_bounded():
    # Every 4th analysis hangs; the child sleeps way past the deadline.
    schedule = FaultSchedule.fixed(
        {i: FaultKind.HANG for i in range(0, 40, 4)}
    )
    deadline = 1.0
    engine, daemon = make_engine(
        schedule,
        deadline=deadline,
        recv_timeout=0.25,
        hang_seconds=8.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.005, max_delay=0.02),
    )
    with daemon:
        verdicts, latencies = drive(engine, 20)
    assert_never_fail_open(verdicts)
    # p95 guard latency <= configured deadline + epsilon (respawn slack).
    epsilon = 0.75
    assert percentile(latencies, 0.95) <= deadline + epsilon, latencies
    assert max(latencies) <= deadline + 2 * epsilon, latencies
    assert daemon.counters.timeouts > 0  # the poll bound actually fired


def test_poison_query_resolves_to_failclosed_verdict_not_exception():
    engine, daemon = make_engine(FaultSchedule.none())
    poison = f"SELECT a FROM t WHERE id = 7 {POISON_MARKER}"
    with daemon:
        ok = engine.inspect("SELECT a FROM t WHERE id = 1", RequestContext())
        assert ok.safe
        # The poison query kills every child that touches it; the seed code
        # leaked this as a raw EOFError after one respawn-retry.
        verdict = engine.inspect(poison, RequestContext())
        assert not verdict.safe
        assert verdict.failsafe
        assert verdict.failure_reasons and "pti" in verdict.failure_reasons[0]
        # The daemon recovered: the very next query analyses normally.
        after = engine.inspect("SELECT a FROM t WHERE id = 2", RequestContext())
        assert after.safe
    assert engine.stats.failsafe_blocks == 1


def test_breaker_trips_on_crash_loop_and_recloses_after_faults_stop():
    # Every analysis crashes: without a breaker this would spawn-storm
    # (2 spawns per query, forever).
    schedule = FaultSchedule.fixed({i: FaultKind.CRASH for i in range(500)})
    breaker = CircuitBreaker(failure_threshold=4, reset_timeout=0.3)
    engine, daemon = make_engine(
        schedule,
        breaker=breaker,
        retry=RetryPolicy(max_attempts=2, base_delay=0.002, max_delay=0.01),
    )
    with daemon:
        for i in range(8):
            verdict = engine.inspect(
                f"SELECT a FROM t WHERE id = {i}", RequestContext()
            )
            assert not verdict.safe and verdict.failsafe
        spawns_during_outage = daemon.counters.spawns
        # Breaker capped spawning at ~failure_threshold, far below the
        # 16 attempts the 8 queries would otherwise have made.
        assert spawns_during_outage <= 6
        assert engine.stats.breaker_open > 0
        assert breaker.times_opened >= 1

        # Outage ends: faults cleared, breaker half-opens after the reset
        # timeout and the first successful probe re-closes it.
        daemon.clear_faults()
        time.sleep(0.35)
        verdict = engine.inspect("SELECT a FROM t WHERE id = 100", RequestContext())
        assert verdict.safe
        assert breaker.snapshot()["state"] == "closed"
        assert breaker.times_reclosed >= 1
        # Steady state restored: no further failsafe blocks.
        verdicts, _ = drive(engine, 10)
        assert_never_fail_open(verdicts)
        assert all(not v.failsafe for _, v in verdicts)


def test_close_is_idempotent_and_never_leaves_a_zombie():
    engine, daemon = make_engine(FaultSchedule.none())
    engine.inspect("SELECT a FROM t WHERE id = 1", RequestContext())
    process = daemon._process
    assert process is not None and process.is_alive()
    daemon.close()
    assert not process.is_alive()
    assert process.exitcode is not None  # reaped, not a zombie
    daemon.close()  # idempotent
    daemon.close()


def test_close_escalates_on_a_hung_child():
    # Child hangs on the first analysis; close() must terminate->kill it
    # within its bounded joins instead of waiting forever.
    schedule = FaultSchedule.fixed({0: FaultKind.HANG})
    store = FragmentStore(FRAGMENTS)
    daemon = ChaosPTIDaemon(
        store,
        schedule=schedule,
        hang_seconds=30.0,
        recv_timeout=0.2,
        retry=RetryPolicy(max_attempts=1),
        seed=CHAOS_SEED,
    )
    engine = JozaEngine(
        store,
        JozaConfig(resilience=ResilienceConfig(deadline_seconds=0.5)),
        daemon=daemon,
    )
    verdict = engine.inspect("SELECT a FROM t WHERE id = 1", RequestContext())
    assert not verdict.safe  # hang -> timeout -> fail-closed
    t0 = time.perf_counter()
    daemon.close()
    assert time.perf_counter() - t0 < 5.0  # bounded, no infinite join
    daemon.close()  # idempotent under half-dead state


def test_chaos_counters_surface_in_audit_export():
    import json

    schedule = FaultSchedule.fixed({0: FaultKind.CRASH, 2: FaultKind.CORRUPT})
    engine, daemon = make_engine(
        schedule, retry=RetryPolicy(max_attempts=1)
    )
    with daemon:
        for i in range(4):
            engine.inspect(f"SELECT a FROM t WHERE id = {i}", RequestContext())
    payload = json.loads(engine.export_attack_log())
    resilience = payload["application_stats"]["resilience"]
    assert resilience["failsafe_blocks"] >= 2
    assert resilience["daemon"]["crashes"] >= 1
    assert resilience["daemon"]["corrupt_replies"] >= 1
    assert "breaker" in resilience["daemon"]


def test_crash_under_inspect_batch_fails_the_whole_batch_and_retries_it_whole():
    # The chaos child speaks the packed wire: one schedule position per
    # exchange, and a whole batch is one exchange.
    schedule = FaultSchedule.fixed({0: FaultKind.CRASH, 1: FaultKind.CRASH})
    engine, daemon = make_engine(
        schedule,
        retry=RetryPolicy(max_attempts=2, base_delay=0.002, max_delay=0.01),
    )
    queries = [f"SELECT a FROM t WHERE id = {i}" for i in range(4)]
    with daemon:
        # Both attempts crash: every query of the batch fails closed.
        verdicts = engine.inspect_batch(queries, RequestContext())
        assert all(not v.safe and v.failsafe for v in verdicts)
        assert engine.stats.failsafe_blocks == len(queries)
        # The retry re-sent the whole batch as one exchange.
        assert daemon.counters.retries == 1 and daemon.counters.crashes == 2
        assert daemon.queries_seen == 2
        # The outage ends with the schedule: the next batch is one
        # exchange and every query is analysed.
        verdicts = engine.inspect_batch(queries, RequestContext())
        assert all(v.safe and not v.failsafe for v in verdicts)
        assert all(v.pti is not None for v in verdicts)
        assert daemon.queries_seen == 3

