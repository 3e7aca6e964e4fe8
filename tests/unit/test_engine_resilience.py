"""Engine-level failure tests: the guard never fails open.

Every scenario here injects an analysis failure and asserts the engine
resolves it to a fail-closed ``failsafe`` block, with the degradation
counters and audit flags to match.
"""

import json

import pytest

from repro.core import (
    JozaConfig,
    JozaEngine,
    ResilienceConfig,
    Technique,
    dict_to_verdict,
)
from repro.phpapp.application import (
    QueryBlockedError,
    TerminationSignal,
)
from repro.phpapp.context import CapturedInput, RequestContext
from repro.pti import FragmentStore, PTIDaemon
from tests.support.faults import (
    FakeClock,
    FaultKind,
    FaultSchedule,
    FlakyDaemon,
)

FRAGMENTS = ["SELECT a FROM t WHERE id = ", " OR "]
SAFE_QUERY = "SELECT a FROM t WHERE id = 1"
ATTACK_QUERY = "SELECT a FROM t WHERE id = 1 UNION SELECT 2"


def make_engine(schedule=None, **res_kwargs):
    config = JozaConfig(resilience=ResilienceConfig(**res_kwargs))
    store = FragmentStore(FRAGMENTS)
    daemon = FlakyDaemon(
        PTIDaemon(store, config.daemon), schedule or FaultSchedule.none()
    )
    return JozaEngine(store, config, daemon=daemon)


def attack_context():
    return RequestContext(
        inputs=[CapturedInput("get", "id", "1 UNION SELECT 2")], path="/p"
    )


# ----------------------------------------------------------------------
# Fail closed
# ----------------------------------------------------------------------


def test_daemon_crash_fails_closed_by_default():
    engine = make_engine(schedule=FaultSchedule.fixed({0: FaultKind.CRASH}))
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    assert not verdict.safe
    assert verdict.failsafe and not verdict.degraded
    assert verdict.failure_reasons
    assert engine.stats.failsafe_blocks == 1
    # Next query (no fault scheduled) analyses normally again.
    assert engine.inspect(SAFE_QUERY, RequestContext()).safe


@pytest.mark.parametrize(
    "kind", [FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT]
)
def test_every_fault_kind_fails_closed(kind):
    engine = make_engine(schedule=FaultSchedule.fixed({0: kind}))
    verdict = engine.inspect(SAFE_QUERY, RequestContext())
    assert not verdict.safe and verdict.failsafe


def test_raw_leaked_exceptions_also_fail_closed():
    """A non-resilient daemon leaking EOFError must not crash the path."""
    config = JozaConfig()
    store = FragmentStore(FRAGMENTS)
    daemon = FlakyDaemon(
        PTIDaemon(store, config.daemon),
        FaultSchedule.fixed({0: FaultKind.CRASH, 1: FaultKind.CORRUPT}),
        raw_errors=True,
    )
    engine = JozaEngine(store, config, daemon=daemon)
    for _ in range(2):
        verdict = engine.inspect(SAFE_QUERY, RequestContext())
        assert not verdict.safe and verdict.failsafe
    assert engine.inspect(SAFE_QUERY, RequestContext()).safe


def test_failsafe_block_raises_and_is_audited_but_not_an_attack():
    engine = make_engine(schedule=FaultSchedule.fixed({0: FaultKind.CRASH}))
    with pytest.raises(QueryBlockedError) as err:
        engine.check_query(SAFE_QUERY, RequestContext())
    assert "fail-closed" in str(err.value)
    assert engine.stats.attacks_blocked == 0  # not a detection
    assert engine.stats.failsafe_blocks == 1
    record = engine.attack_log[0].to_dict()["verdict"]
    assert record["failsafe"] is True
    assert dict_to_verdict(record).detected_by() == set()
    assert record["failure_reasons"]


def test_pti_failure_keeps_the_nti_detection_as_evidence():
    """NTI still runs after a PTI failure; its detection rides the block."""
    engine = make_engine(schedule=FaultSchedule.fixed({0: FaultKind.CRASH}))
    with pytest.raises(QueryBlockedError) as err:
        engine.check_query(ATTACK_QUERY, attack_context())
    assert "detected by nti" in str(err.value)
    verdict = engine.attack_log[0].verdict
    assert not verdict.safe and verdict.failsafe and not verdict.degraded
    assert verdict.pti is None
    assert verdict.detected_by() == {Technique.NTI}
    assert engine.stats.nti_detections == 1
    assert engine.stats.failsafe_blocks == 1
    assert engine.stats.attacks_blocked == 1
    record = engine.attack_log[0].to_dict()["verdict"]
    assert dict_to_verdict(record).detected_by() == {Technique.NTI}
    assert record["failsafe"] is True and record["degraded"] is False
    assert record["failure_reasons"]


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


def test_nti_deadline_exhaustion_fails_closed():
    clock = FakeClock()
    config = JozaConfig(
        resilience=ResilienceConfig(deadline_seconds=1.0, clock=clock)
    )
    store = FragmentStore(FRAGMENTS)
    engine = JozaEngine(store, config)

    class SlowNTI:
        def analyze(
            self, query, context, tokens=None, deadline=None, values=None
        ):
            clock.advance(2.0)  # blow the budget...
            deadline.check("nti")  # ...and notice
            raise AssertionError("unreachable")

        def cache_stats(self):
            return {}

    engine.nti = SlowNTI()
    verdict = engine.inspect(SAFE_QUERY, attack_context())
    assert not verdict.safe and verdict.failsafe
    assert engine.stats.deadline_exceeded == 1


def test_hang_consuming_deadline_counts_deadline_exceeded():
    clock = FakeClock()
    config = JozaConfig(
        resilience=ResilienceConfig(deadline_seconds=0.5, clock=clock)
    )
    store = FragmentStore(FRAGMENTS)
    daemon = FlakyDaemon(
        PTIDaemon(store, config.daemon),
        FaultSchedule.fixed({0: FaultKind.HANG}),
        clock=clock,
    )
    engine = JozaEngine(store, config, daemon=daemon)
    verdict = engine.inspect(SAFE_QUERY, attack_context())
    assert not verdict.safe and verdict.failsafe
    # The injected hang consumed the budget; NTI then hit the deadline.
    assert engine.stats.deadline_exceeded >= 1


# ----------------------------------------------------------------------
# Bounded attack log
# ----------------------------------------------------------------------


def test_attack_log_is_bounded_with_drop_counter():
    config = JozaConfig(resilience=ResilienceConfig(attack_log_capacity=5))
    engine = JozaEngine(FragmentStore(FRAGMENTS), config)
    for i in range(12):
        with pytest.raises(QueryBlockedError):
            engine.check_query(
                f"SELECT a FROM t WHERE id = {i} UNION SELECT {i}",
                attack_context(),
            )
    assert len(engine.attack_log) == 5
    assert engine.attack_log.dropped_records == 7
    payload = json.loads(engine.export_attack_log())
    assert payload["application_stats"]["resilience"]["dropped_records"] == 7
    assert len(payload["attacks"]) == 5
    # Newest records survive.
    assert "id = 11" in engine.attack_log[-1].query


# ----------------------------------------------------------------------
# Last-line wrapper defense
# ----------------------------------------------------------------------


def test_wrapper_fails_closed_when_guard_itself_crashes():
    from repro.database import Database
    from repro.phpapp.application import DatabaseWrapper

    class ExplodingGuard:
        def check_query(self, query, context):
            raise RuntimeError("guard bug")

    db = Database()
    wrapper = DatabaseWrapper(db)
    wrapper.guard = ExplodingGuard()
    with pytest.raises(TerminationSignal) as err:
        wrapper.query("SELECT 1")
    assert "fail-closed" in str(err.value)
    assert wrapper.guard_failures == 1
    assert wrapper.blocked_queries == ["SELECT 1"]


def test_export_resilience_counters_present_and_zero_when_healthy():
    engine = JozaEngine.from_fragments(FRAGMENTS)
    engine.inspect(SAFE_QUERY, RequestContext())
    report = engine.resilience_report()
    assert report["deadline_exceeded"] == 0
    assert report["breaker_open"] == 0
    assert report["failsafe_blocks"] == 0
    assert report["dropped_records"] == 0
