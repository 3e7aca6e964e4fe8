"""Unit tests for the resilience primitives (deadline, retry, breaker, ring)."""

import random

import pytest

from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    Counters,
    Deadline,
    DeadlineExceeded,
    ResilienceConfig,
    RetryPolicy,
    RingLog,
)
from tests.support.faults import FakeClock


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------


def test_unbounded_deadline_never_expires():
    clock = FakeClock()
    deadline = Deadline(None, clock)
    clock.advance(1e9)
    assert not deadline.expired()
    assert deadline.remaining() is None
    deadline.check("anything")  # no raise


def test_deadline_expiry_and_check():
    clock = FakeClock()
    deadline = Deadline(1.0, clock)
    assert deadline.remaining() == pytest.approx(1.0)
    clock.advance(0.6)
    assert deadline.remaining() == pytest.approx(0.4)
    deadline.check("stage")
    clock.advance(0.6)
    assert deadline.expired()
    assert deadline.remaining() == 0.0
    with pytest.raises(DeadlineExceeded) as err:
        deadline.check("nti")
    assert err.value.stage == "nti"


def test_deadline_bound_clamps_stage_timeouts():
    clock = FakeClock()
    deadline = Deadline(2.0, clock)
    assert deadline.bound(5.0) == pytest.approx(2.0)
    assert deadline.bound(0.5) == pytest.approx(0.5)
    assert deadline.bound(None) == pytest.approx(2.0)
    clock.advance(1.9)
    assert deadline.bound(5.0) == pytest.approx(0.1)
    unbounded = Deadline(None, clock)
    assert unbounded.bound(3.0) == 3.0
    assert unbounded.bound(None) is None


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
    rng = random.Random(0)
    assert policy.delay(0, rng) == pytest.approx(0.1)
    assert policy.delay(1, rng) == pytest.approx(0.2)
    assert policy.delay(2, rng) == pytest.approx(0.4)
    assert policy.delay(3, rng) == pytest.approx(0.5)  # capped
    assert policy.delay(10, rng) == pytest.approx(0.5)


def test_jitter_bounds_hold_for_many_draws():
    policy = RetryPolicy(base_delay=0.05, multiplier=2.0, max_delay=1.0, jitter=0.5)
    rng = random.Random(1234)
    for attempt in range(6):
        upper = policy.raw_delay(attempt)
        lower = upper * 0.5
        draws = [policy.delay(attempt, rng) for _ in range(200)]
        assert all(lower <= d <= upper for d in draws)
        # Full-range jitter actually uses the range (not a constant).
        assert max(draws) - min(draws) > (upper - lower) * 0.5


def test_jittered_delays_are_reproducible_from_seed():
    policy = RetryPolicy()
    a = [policy.delay(i, random.Random(42)) for i in range(4)]
    b = [policy.delay(i, random.Random(42)) for i in range(4)]
    assert a == b


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


# ----------------------------------------------------------------------
# CircuitBreaker state machine
# ----------------------------------------------------------------------


def test_breaker_trips_after_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
    assert breaker.state is BreakerState.CLOSED
    for _ in range(2):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED  # below threshold
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.times_opened == 1
    assert not breaker.allow()
    assert breaker.rejections == 1


def test_success_resets_consecutive_failure_count():
    breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED  # never 2 in a row


def test_breaker_half_open_probe_recloses_on_success():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, reset_timeout=5.0, half_open_probes=1, clock=clock
    )
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()
    clock.advance(5.0)
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.allow()  # the probe
    assert not breaker.allow()  # only one probe slot
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.times_reclosed == 1
    assert breaker.allow()


def test_breaker_half_open_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=2.0, clock=clock)
    breaker.record_failure()
    clock.advance(2.0)
    assert breaker.allow()  # half-open probe
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.times_opened == 2
    assert not breaker.allow()
    # ...and the reset timer restarted.
    clock.advance(1.0)
    assert breaker.state is BreakerState.OPEN
    clock.advance(1.0)
    assert breaker.state is BreakerState.HALF_OPEN


def test_breaker_full_cycle_closed_open_halfopen_closed():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0, clock=clock)
    transitions = [breaker.state]
    breaker.record_failure()
    breaker.record_failure()
    transitions.append(breaker.state)
    clock.advance(1.0)
    transitions.append(breaker.state)
    assert breaker.allow()
    breaker.record_success()
    transitions.append(breaker.state)
    assert transitions == [
        BreakerState.CLOSED,
        BreakerState.OPEN,
        BreakerState.HALF_OPEN,
        BreakerState.CLOSED,
    ]
    snap = breaker.snapshot()
    assert snap["times_opened"] == 1 and snap["times_reclosed"] == 1


def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(half_open_probes=0)


# ----------------------------------------------------------------------
# RingLog
# ----------------------------------------------------------------------


def test_ring_log_acts_like_a_list_until_full():
    log = RingLog(capacity=10)
    assert not log and len(log) == 0
    log.append("a")
    log.append("b")
    assert log and len(log) == 2
    assert log[0] == "a" and log[-1] == "b"
    assert list(log) == ["a", "b"]
    assert log.dropped_records == 0


def test_ring_log_evicts_oldest_and_counts_drops():
    log = RingLog(capacity=3)
    for i in range(7):
        log.append(i)
    assert len(log) == 3
    assert list(log) == [4, 5, 6]  # newest survive
    assert log.dropped_records == 4
    assert log[0] == 4 and log[-1] == 6
    assert log[0:2] == [4, 5]


def test_ring_log_clear_keeps_cumulative_drop_counter():
    log = RingLog(capacity=2)
    for i in range(4):
        log.append(i)
    log.clear()
    assert len(log) == 0 and not log
    assert log.dropped_records == 2
    log.append("x")
    assert list(log) == ["x"]


def test_ring_log_validation():
    with pytest.raises(ValueError):
        RingLog(capacity=0)


def test_ring_log_sink_receives_and_counts_every_append():
    persisted = []
    log = RingLog(capacity=10)
    log.attach_sink(persisted.append)
    for i in range(3):
        log.append(i)
    assert persisted == [0, 1, 2]
    assert log.persisted_records == 3
    assert list(log) == [0, 1, 2]


def test_ring_log_sink_turns_evictions_into_recovered_drops():
    log = RingLog(capacity=3)
    log.attach_sink(lambda item: None)
    for i in range(7):
        log.append(i)
    assert list(log) == [4, 5, 6]
    # The sink holds every evicted record: nothing was lost.
    assert log.drops_recovered == 4
    assert log.dropped_records == 0


def test_ring_log_raising_sink_is_counted_and_record_still_lands():
    def full_disk(item):
        raise OSError("no space left on device")

    log = RingLog(capacity=2)
    log.attach_sink(full_disk)
    for i in range(3):
        log.append(i)  # never raises on the audit path
    assert list(log) == [1, 2]
    assert log.sink_failures == 3
    assert log.persisted_records == 0
    # Nothing reached the sink, so the eviction is lost evidence.
    assert log.dropped_records == 1 and log.drops_recovered == 0


def test_ring_log_eviction_counts_the_evicted_record_not_the_incoming_one():
    persisted = []

    def refuse_a(item):
        if item == "a":
            raise OSError("no space left on device")
        persisted.append(item)

    log = RingLog(capacity=1)
    log.attach_sink(refuse_a)
    log.append("a")  # the sink refused it: memory only
    log.append("b")  # persisted, and evicts "a", which never was
    assert persisted == ["b"]
    assert log.dropped_records == 1 and log.drops_recovered == 0


def test_ring_log_evicting_a_persisted_record_is_recovered_after_the_sink_goes():
    log = RingLog(capacity=1)
    log.attach_sink(lambda item: None)
    log.append("persisted")
    log.attach_sink(None)
    log.append("memory only")  # evicts a record the sink holds
    assert log.drops_recovered == 1 and log.dropped_records == 0
    log.append("later")  # evicts the memory-only record: lost evidence
    assert log.drops_recovered == 1 and log.dropped_records == 1


def test_ring_log_attach_sink_none_stops_persisting():
    persisted = []
    log = RingLog(capacity=10)
    log.attach_sink(persisted.append)
    log.append("kept")
    log.attach_sink(None)
    log.append("memory only")
    assert persisted == ["kept"]
    assert log.persisted_records == 1
    assert list(log) == ["kept", "memory only"]


# ----------------------------------------------------------------------
# ResilienceConfig
# ----------------------------------------------------------------------


def test_resilience_config_defaults_are_seed_compatible():
    cfg = ResilienceConfig()
    assert cfg.deadline_seconds is None  # unbounded, like the seed
    assert cfg.attack_log_capacity == 10_000
    deadline = cfg.start_deadline()
    assert deadline.remaining() is None


def test_resilience_config_deadline_uses_injected_clock():
    clock = FakeClock()
    cfg = ResilienceConfig(deadline_seconds=1.5, clock=clock)
    deadline = cfg.start_deadline()
    clock.advance(1.0)
    assert deadline.remaining() == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------


def test_counters_bump_snapshot_reset_and_attribute_reads():
    counters = Counters(("hits", "seconds", "misses"))
    assert counters.snapshot() == {"hits": 0, "seconds": 0, "misses": 0}
    counters.bump(hits=2, seconds=0.5)
    counters.bump(hits=1)
    assert counters.hits == 3 and counters.seconds == 0.5
    assert counters.snapshot(("misses", "hits")) == {"misses": 0, "hits": 3}
    counters.reset()
    assert counters.snapshot() == {"hits": 0, "seconds": 0, "misses": 0}


def test_counters_unknown_name_raises():
    counters = Counters(("hits", "misses"))
    with pytest.raises(KeyError):
        counters.bump(typo=1)
    assert counters.snapshot() == {"hits": 0, "misses": 0}
    with pytest.raises(AttributeError):
        counters.typo
    with pytest.raises(KeyError):
        counters.snapshot(("typo",))
